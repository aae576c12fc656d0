"""Workload inputs and the output check.

Each workload writes its inputs into a work directory from the seed and
returns a ``Workload``: the ``adaptometry`` argv for one op, the number of
panel cells one op handles, and a ``check`` that recomputes the expected
outputs with the benchmark's own numpy code (never through library
functions) and lists every mismatch it finds; it raises when an output is
missing or malformed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


R0 = 0.7  # the CLI's default threshold, used by every workload
REL = 1e-9
PANEL_HEADER = ["period", "unit", "indicator_id", "indicator_name", "value"]
GENERATED_AT = re.compile(rb'"generated_at": "[^"]*"')
MALFORMED = (OSError, LookupError, TypeError, ValueError, csv.Error)  # what a check may raise


@dataclass
class Workload:
    name: str
    argv: list[str]  # `--out` is the work directory's `out`
    out: Path
    cells: int  # panel cells one op handles
    check: Callable[[Path], list[str]]


def alternating(n_periods: int) -> tuple[tuple[str, str], ...]:
    regimes = ("baseline", "stressed")
    return tuple((f"2020-{p + 1:02d}", regimes[p % 2]) for p in range(n_periods))


def synth_config(seed: int, units: int, indicators: int, periods):
    from adaptometry.synthgen import SynthConfig

    # Stressed loading 15 against noise sd 4*sqrt(2) gives |r| near 0.87,
    # so nearly every stressed pair is an edge; baseline pairs almost never are.
    return SynthConfig(
        units=units, indicators=indicators, periods=periods,
        baseline_means=(50.0,) * indicators, noise_sd=4.0,
        loading_baseline=0.0, loading_stressed=15.0,
        variance_multiplier=2.0, seed=seed,
    )


# --- inputs -----------------------------------------------------------------

def prepare(name: str, seed: int, work: Path) -> Workload:
    work.mkdir(parents=True, exist_ok=True)
    return PREPARE[name](seed, work)


def prepare_generated(seed: int, work: Path, units: int, indicators: int,
                      n_periods: int, wide: bool) -> Workload:
    from adaptometry.panel import IndicatorPanel, serialize_panel
    from adaptometry.synthgen import generate_panel

    generated = generate_panel(synth_config(seed, units, indicators, alternating(n_periods)))
    values = generated.values.copy()
    if wide:
        # Every 25th indicator is constant across units in the baseline period:
        # undefined correlation pairs and a zero bounding volume (d_min = 0).
        values[0, :, ::25] = 50.0
    panel = IndicatorPanel(generated.periods, generated.units, generated.indicators, values)
    panel_path = work / "panel.csv"
    panel_path.write_text(serialize_panel(panel))
    ids = np.array(panel.indicator_ids)
    out = work / "out"
    argv = ["analyze", "--input", str(panel_path)]
    grouped = None
    if wide:
        rng = np.random.default_rng(seed)
        g_values = np.round(rng.uniform(5.0, 95.0, (indicators, 8)), 1)
        groups_path = work / "groups.csv"
        write_grouped(groups_path, ids, g_values)
        grouped = (ids, g_values)
        argv += ["--grouped", str(groups_path), "--plots"]
    argv += ["--out", str(out)]

    def check(out_dir: Path) -> list[str]:
        return check_analyze(out_dir, panel.periods, ids, values, grouped, plots=wide)

    return Workload("wide" if wide else "tall", argv, out, values.size, check)


def prepare_synth(seed: int, work: Path) -> Workload:
    units, indicators, periods = 300, 150, alternating(4)
    config = work / "synth.cfg"
    config.write_text(
        f"units = {units}\nindicators = {indicators}\n"
        f"periods = {', '.join(f'{p}:{r}' for p, r in periods)}\n"
        "baseline_means = 50\nnoise_sd = 4\nloading_baseline = 0\n"
        "loading_stressed = 15\nvariance_multiplier = 2\n"
        f"seed = {seed}\n"
    )
    out = work / "out"

    def check(out_dir: Path) -> list[str]:
        from adaptometry.synthgen import generate_panel

        expected = generate_panel(synth_config(seed, units, indicators, periods)).values
        return check_synth(out_dir, seed, periods, expected)

    argv = ["synth", "--config", str(config), "--out", str(out)]
    return Workload("synth", argv, out, units * indicators * len(periods), check)


PREPARE = {
    "tall": lambda seed, work: prepare_generated(seed, work, 400, 20, 4, wide=False),
    "wide": lambda seed, work: prepare_generated(seed, work, 60, 300, 2, wide=True),
    "synth": prepare_synth,
}


def write_grouped(path: Path, ids, values) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["indicator_id", "group", "value"])
        for i, row in zip(ids, values):
            for g, v in enumerate(row):
                writer.writerow([int(i), f"g{g + 1}", repr(float(v))])


# --- expected values ----------------------------------------------------------

def expected_period(x: np.ndarray, ids: np.ndarray) -> dict:
    """Network and dispersion figures of one units x indicators matrix."""
    m, n = x.shape
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.corrcoef(x, rowvar=False)
    a, b = np.triu_indices(n, 1)
    pair_r = np.abs(r[a, b])
    edge = pair_r > R0  # NaN (undefined pair) compares False
    ranges = x.max(axis=0) - x.min(axis=0)
    if (ranges == 0.0).any():
        d_min = 0.0
    else:
        log_volume = float(np.log(ranges).sum())
        d_min = math.exp(math.log(2.0) + (math.lgamma(n / 2 + 1) + log_volume) / n
                         - 0.5 * math.log(math.pi))
    d_max = max(float(np.sqrt(((x[k] - x) ** 2).sum(axis=1)).max()) for k in range(m))
    return {
        "weight": float(pair_r[edge].sum()),
        "edge_count": int(edge.sum()),
        "edge_i": ids[a[edge]], "edge_j": ids[b[edge]], "edge_r": pair_r[edge],
        "d_max": d_max, "d_min": d_min,
    }


def close(got, want) -> bool:
    return bool(np.all(np.abs(np.asarray(got, float) - want)
                       <= REL * np.maximum(np.abs(got), np.abs(want))))


def close_printed(text: str, want: float, decimals: int = 6) -> bool:
    """A value printed at ``decimals`` places agrees with ``want``."""
    return abs(float(text) - want) <= 0.5 * 10.0 ** -decimals + REL * abs(want)


def check_analyze(out: Path, periods, ids, values, grouped, plots: bool) -> list[str]:
    problems = []
    expected_files = {"report.json"} | {f"{d}/{p}.csv" for d in ("matrices", "distances")
                                        for p in periods}
    if grouped is not None:
        expected_files.add("variation.csv")
    if plots:
        expected_files |= {"weight.svg", "dispersion.svg"}
    files = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
    if files != expected_files:
        problems.append(f"output files {sorted(files ^ expected_files)} differ")
    records = json.loads((out / "report.json").read_text())["periods"]
    if [rec["period"] for rec in records] != list(periods):
        return problems + ["report.json periods differ"]
    for p, rec, x in zip(periods, records, values):
        problems += check_period(p, rec, expected_period(x, ids))
    if grouped is not None:
        problems += check_variation(out / "variation.csv", *grouped)
    return problems


def check_period(p: str, rec: dict, want: dict) -> list[str]:
    problems = []
    if rec["edge_count"] != want["edge_count"]:
        problems.append(f"{p}: edge_count {rec['edge_count']} != {want['edge_count']}")
    for key in ("weight", "d_max", "d_min"):
        if not close(float(rec[key]), want[key]):
            problems.append(f"{p}: {key} {rec[key]!r} != {want[key]!r}")
    edges = rec["edges"]
    if ([e["i"] for e in edges] != want["edge_i"].tolist()
            or [e["j"] for e in edges] != want["edge_j"].tolist()):
        problems.append(f"{p}: edge list differs")
    elif not close([float(e["abs_r"]) for e in edges], want["edge_r"]):
        problems.append(f"{p}: edge weights differ")
    return problems


def check_variation(path: Path, ids, values) -> list[str]:
    mean = values.mean(axis=1)
    ss = ((values - mean[:, None]) ** 2).sum(axis=1)
    cv = {int(i): (math.sqrt(s / (values.shape[1] - 1)) / mu, math.sqrt(s) / mu)
          for i, s, mu in zip(ids, ss, mean)}
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if sorted(int(r[0]) for r in rows) != sorted(cv):
        return ["variation.csv indicator set differs"]
    problems = []
    for rank, (ind, sample, unnorm, printed_rank, flagged) in enumerate(rows, start=1):
        want_sample, want_unnorm = cv[int(ind)]
        if not (close_printed(sample, want_sample) and close_printed(unnorm, want_unnorm)):
            problems.append(f"variation.csv: indicator {ind} cv differs")
        if int(printed_rank) != rank or int(flagged) != (rank <= 2):  # --flag-policy topk:2
            problems.append(f"variation.csv: indicator {ind} rank/flag differs")
    order = [cv[int(r[0])][0] for r in rows]
    if any(a < b for a, b in zip(order, order[1:])):
        problems.append("variation.csv not ranked by cv_sample")
    return problems


def check_synth(out: Path, seed: int, periods, expected: np.ndarray) -> list[str]:
    problems = []
    p_n, m, n = expected.shape
    # Streamed into a preallocated array: the check must not set the peak RSS.
    parsed = np.empty(expected.size)
    labels = []
    rows = 0
    with open(out / "panel.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        for row in reader:
            if rows < parsed.size:
                if rows % (m * n) == 0:
                    labels.append(row[0])
                parsed[rows] = float(row[4])
            rows += 1
    if header != PANEL_HEADER or labels != [label for label, _ in periods]:
        problems.append("panel.csv header or periods differ")
    if rows != parsed.size:
        problems.append(f"panel.csv has {rows} rows, expected {parsed.size}")
    elif not np.array_equal(parsed.reshape(expected.shape), expected):
        problems.append("panel.csv values differ from generate_panel")
    by_regime: dict[str, list[tuple[float, float]]] = {"baseline": [], "stressed": []}
    for (_, regime), x in zip(periods, expected):
        want = expected_period(x, np.arange(1, n + 1))
        by_regime[regime].append((want["weight"], want["d_max"]))
    w_b, d_b = np.mean(by_regime["baseline"], axis=0)
    w_s, d_s = np.mean(by_regime["stressed"], axis=0)
    with open(out / "contrast.csv", newline="") as fh:
        _, row = list(csv.reader(fh))
    if len(row) != 5 or int(row[0]) != seed or not all(
            close_printed(text, want) for text, want in zip(row[1:], (w_b, w_s, d_b, d_s))):
        problems.append(f"contrast.csv {row} != {[seed, w_b, w_s, d_b, d_s]}")
    return problems


def digest_outputs(out: Path) -> dict[str, str]:
    """sha256 of each output file; report.json without its generated_at."""
    digests = {}
    for path in sorted(out.rglob("*")):
        if not path.is_file():
            continue
        if path.name == "report.json":
            digest = hashlib.sha256(GENERATED_AT.sub(b"", path.read_bytes()))
        else:
            with open(path, "rb") as fh:
                digest = hashlib.file_digest(fh, "sha256")
        digests[str(path.relative_to(out))] = digest.hexdigest()
    return digests
