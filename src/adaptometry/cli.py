"""Command-line entry points: ``adaptometry analyze`` and ``adaptometry synth``.

``analyze`` runs the full pipeline on a panel CSV and writes a JSON report
with CSV sidecars (correlation and distance matrices, optional CV profile)
and optional SVG charts. ``synth`` generates a seeded synthetic panel and a
regime-contrast summary.

Every failure raises; ``main`` alone turns it into ``error:`` lines and an
exit code: 0 success, 1 an invalid panel or grouped table, 2 a bad argument,
an unreadable file or a bad synth config.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .analysis import PeriodResult, analyze
from .correlation import DEFAULT_THRESHOLD
from .panel import PanelError, panel_csv_chunks, parse_panel, validate
from .synthgen import SynthConfigError, generate_panel, parse_synth_config, stress_contrast
from .variation import (
    ESTIMATORS,
    VariationError,
    flag_exclusions,
    parse_grouped_table,
    profile_to_csv,
    variation_table,
)
from .writers import blocks, csv_field, float_reprs, matrix_csv_chunks


# what report.json reads of a period's network: its matrix's indicator ids
# and its edge_a, edge_b and edge_weight arrays
Edges = tuple[Sequence[int], np.ndarray, np.ndarray, np.ndarray]


class UsageError(ValueError):
    """A bad argument or an input file that cannot be opened: exit code 2."""


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            _run_analyze(args)
        else:
            _run_synth(args)
    except (UsageError, SynthConfigError, PanelError, VariationError) as exc:
        for line in str(exc).split("\n"):
            _err(f"error: {line}")
        return 2 if isinstance(exc, (UsageError, SynthConfigError)) else 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptometry",
        description="Correlation-network stress indices and dispersion estimates for panel data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run the full pipeline on a panel CSV")
    analyze.add_argument("--input", required=True, help="panel CSV path")
    analyze.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help=f"correlation threshold r0 in (0, 1), default {DEFAULT_THRESHOLD}",
    )
    analyze.add_argument(
        "--exclude", default="",
        help="comma-separated indicator ids to drop before analysis",
    )
    analyze.add_argument("--grouped", help="grouped-table CSV for CV profiling")
    analyze.add_argument(
        "--cv-estimator", choices=ESTIMATORS, default=ESTIMATORS[0],
    )
    analyze.add_argument(
        "--flag-policy", default="topk:2",
        help="exclusion-candidate policy, topk:K or threshold:T (default topk:2)",
    )
    analyze.add_argument("--out", default="adaptometry-out", help="output directory")
    analyze.add_argument("--plots", action="store_true", help="also write SVG charts")

    synth = sub.add_parser("synth", help="generate a seeded synthetic panel")
    synth.add_argument("--config", required=True, help="key = value config file")
    synth.add_argument("--seed", type=int, help="override the config seed")
    synth.add_argument("--out", default="adaptometry-synth", help="output directory")
    return parser


def _run_analyze(args) -> None:
    if not 0.0 < args.threshold < 1.0:
        raise UsageError(f"--threshold {args.threshold} outside (0, 1)")
    exclude = _parse_id_list(args.exclude)
    raw = _read_file(args.input)
    input_digest = "sha256:" + hashlib.sha256(raw.encode()).hexdigest()
    grouped_raw = _read_file(args.grouped) if args.grouped else None

    panel = parse_panel(raw)
    del raw  # the per-period phase holds no copy of the input
    report = validate(panel)
    for loc, msg in report.warnings:
        _err(f"warning: {loc}: {msg}")
    if not report.ok:
        raise PanelError("\n".join(f"{loc}: {msg}" for loc, msg in report.errors))
    unknown = set(exclude) - set(panel.indicator_ids)
    if unknown:
        raise UsageError(f"--exclude ids not in panel: {sorted(unknown)}")
    if set(exclude) >= set(panel.indicator_ids):
        raise UsageError("--exclude leaves no indicators")

    flagged: list[int] = []
    if grouped_raw is not None:
        profile = variation_table(parse_grouped_table(grouped_raw), args.cv_estimator)
        for ind_id, msg in profile.errors:
            _err(f"warning: indicator {ind_id}: {msg}")
        flagged = sorted(flag_exclusions(profile, args.flag_policy))
    # each period's CSVs are written as soon as it is done; only its record
    # and its edge arrays outlive it, for the report and the plots
    records: list[dict] = []
    edges: list[Edges] = []
    units = [csv_field(unit) for unit in panel.units]
    for result in analyze(panel, args.threshold, exclude):
        name = f"{result.period}.csv"
        net = result.network
        ids = [str(i) for i in net.matrix.indicator_ids]
        _write(os.path.join(args.out, "matrices", name),
               matrix_csv_chunks("indicator_id", ids, net.matrix.values))
        _write(os.path.join(args.out, "distances", name),
               matrix_csv_chunks("unit", units, result.dispersion.distance_matrix))
        records.append(_period_record(result))
        edges.append((net.matrix.indicator_ids, net.edge_a, net.edge_b, net.edge_weight))
        # else this period's matrices live on while the next period's are built
        del result, net
    if grouped_raw is not None:
        _write(os.path.join(args.out, "variation.csv"), (profile_to_csv(profile, flagged),))

    doc = {
        "metadata": {
            "tool_version": __version__,
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "input_digest": input_digest,
            "threshold": args.threshold,
            "excluded_indicator_ids": sorted(exclude),
            "cv_estimator": args.cv_estimator if grouped_raw is not None else None,
            "flag_policy": args.flag_policy if grouped_raw is not None else None,
            "flagged_indicator_ids": flagged,
        },
        "periods": records,
    }
    _write(os.path.join(args.out, "report.json"), _report_json(doc, edges))

    if args.plots:
        from .plots import line_chart

        labels = [r["period"] for r in records]
        _write(
            os.path.join(args.out, "weight.svg"),
            (line_chart(
                labels,
                {"total weight": [r["weight"] for r in records]},
                "Correlation network total weight by period",
                "total weight",
            ),),
        )
        _write(
            os.path.join(args.out, "dispersion.svg"),
            (line_chart(
                labels,
                {"d_max": [r["d_max"] for r in records], "d_min": [r["d_min"] for r in records]},
                "Dispersion estimates by period",
                "distance",
            ),),
        )


def _period_record(result: PeriodResult) -> dict:
    period, net, disp = result
    return {
        "period": period,
        "weight": net.total_weight,
        "edge_count": net.edge_weight.size,
        "edges": [],  # filled in by _report_json
        "degrees": {str(i): d for i, d in net.degrees.items()},
        "d_min": disp.d_min,
        "d_max": disp.d_max,
        "volume": disp.volume if math.isfinite(disp.volume) else None,
        "log_volume": disp.log_volume if math.isfinite(disp.log_volume) else None,
    }


def _report_json(doc: dict, edges: Iterable[Edges]) -> Iterator[str]:
    """``json.dumps(doc, indent=2) + "\\n"`` in pieces, with the edges of each
    period record, the edge arrays at its position in ``edges``.

    ``json`` encodes with ``indent`` in pure Python, which on a report of
    many edges takes most of the run, so the edge lists are formatted here,
    straight from the network's arrays, and the encoder sees only empty ones.
    """
    # json escapes every '"' inside a string, so no label can hold this text:
    # each occurrence is the "edges" key of one period record
    head, *tails = json.dumps(doc, indent=2).split('"edges": []')
    yield head
    for period_edges, tail in zip(edges, tails, strict=True):
        yield from _edges_json(*period_edges)
        yield tail
    yield "\n"


def _edges_json(
    ids: Sequence[int], edge_a: np.ndarray, edge_b: np.ndarray, edge_weight: np.ndarray
) -> Iterator[str]:
    """The "edges" entry of a period record as json.dumps(doc, indent=2) writes
    it, from a network's edge arrays and its matrix's indicator ids, in pieces
    of one block of edges (writers.blocks): json renders an int with
    int.__repr__ and a finite float with float.__repr__, and edge weights are
    finite because correlations are clipped to [-1, 1]. float_reprs gives
    float.__repr__ of each weight (numpy digits from 1e-2 up, repr below), not
    the repr of numpy scalars, which differs."""
    k = edge_weight.size
    if not k:
        yield '"edges": []'
        return
    i_texts = [f'\n        {{\n          "i": {i},\n          "j": ' for i in ids]
    j_texts = [f'{j},\n          "abs_r": ' for j in ids]
    yield '"edges": ['
    for block in blocks(k, 1):
        weights = edge_weight[block]
        texts = ["\n        },"] * (4 * weights.size)  # each fourth text closes an edge
        texts[0::4] = map(i_texts.__getitem__, edge_a[block].tolist())
        texts[1::4] = map(j_texts.__getitem__, edge_b[block].tolist())
        texts[2::4] = float_reprs(weights)
        if block.stop >= k:
            texts[-1] = "\n        }\n      ]"
        yield "".join(texts)


def _run_synth(args) -> None:
    config = parse_synth_config(_read_file(args.config))
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    _write(os.path.join(args.out, "panel.csv"), panel_csv_chunks(generate_panel(config)))

    regimes = {regime for _, regime in config.periods}
    if len(regimes) == 2:
        contrast = stress_contrast(config)
        _write(
            os.path.join(args.out, "contrast.csv"),
            ("seed,w_baseline,w_stressed,d_max_baseline,d_max_stressed\n"
             f"{config.seed},{contrast.w_baseline:.6f},{contrast.w_stressed:.6f},"
             f"{contrast.d_max_baseline:.6f},{contrast.d_max_stressed:.6f}\n",),
        )


def _parse_id_list(spec: str) -> set[int]:
    spec = spec.strip()
    if not spec:
        return set()
    try:
        return {int(tok) for tok in spec.split(",")}
    except ValueError:
        raise UsageError(f"bad --exclude list {spec!r}") from None


def _read_file(path: str) -> str:
    """Text with universal newlines and no leading byte-order mark, with at
    most two copies of it held at once."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()  # decodes the whole file at once: offsets are the file's
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise PanelError(
            f"cannot read {path}: not UTF-8 text "
            f"(byte 0x{exc.object[exc.start]:02x} at offset {exc.start})"
        ) from None
    text = text.removeprefix("\ufeff")
    text = text.replace("\r\n", "\n")
    text = text.replace("\r", "\n")
    return text


def _write(path: str, chunks: Iterable[str]) -> None:
    """Write the texts of ``chunks``, each as it comes, then rename, into a
    parent directory made if missing, so a partly written file never appears,
    whatever raises on the way; the file gets the mode ``open`` would give it,
    0o666 less the umask, which the kernel applies when the temporary is made."""
    directory = os.path.dirname(path) or "."
    try:
        os.makedirs(directory, exist_ok=True)
        tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def _err(message: str) -> None:
    if sys.stderr.isatty() and not os.environ.get("ADAPTOMETRY_NO_COLOR"):
        if message.startswith("error:"):
            message = f"\x1b[31m{message}\x1b[0m"
        elif message.startswith("warning:"):
            message = f"\x1b[33m{message}\x1b[0m"
    print(message, file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
