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
import tempfile
from dataclasses import replace
from datetime import datetime, timezone

from . import __version__
from .analysis import PeriodResult, analyze
from .correlation import DEFAULT_THRESHOLD, CorrelationNetwork, matrix_to_csv
from .dispersion import distances_to_csv
from .panel import PanelError, parse_panel, serialize_panel, validate
from .synthgen import SynthConfigError, generate_panel, parse_synth_config, stress_contrast
from .variation import (
    ESTIMATORS,
    VariationError,
    flag_exclusions,
    parse_grouped_table,
    profile_to_csv,
    variation_table,
)


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
    grouped_raw = _read_file(args.grouped) if args.grouped else None

    panel = parse_panel(raw)
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
        flagged = sorted(flag_exclusions(profile, args.flag_policy))
    results = analyze(panel, args.threshold, exclude)

    for period, net, disp in results:
        name = f"{period}.csv"
        _write(os.path.join(args.out, "matrices", name), matrix_to_csv(net.matrix))
        _write(os.path.join(args.out, "distances", name), distances_to_csv(disp))
    if grouped_raw is not None:
        _write(os.path.join(args.out, "variation.csv"), profile_to_csv(profile, flagged))

    doc = {
        "metadata": {
            "tool_version": __version__,
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "input_digest": "sha256:" + hashlib.sha256(raw.encode()).hexdigest(),
            "threshold": args.threshold,
            "excluded_indicator_ids": sorted(exclude),
            "cv_estimator": args.cv_estimator if grouped_raw is not None else None,
            "flag_policy": args.flag_policy if grouped_raw is not None else None,
            "flagged_indicator_ids": flagged,
        },
        "periods": [_period_record(result) for result in results],
    }
    _write(os.path.join(args.out, "report.json"), _report_json(doc, results))

    if args.plots:
        from .plots import line_chart

        labels = [r.period for r in results]
        _write(
            os.path.join(args.out, "weight.svg"),
            line_chart(
                labels,
                {"total weight": [r.network.total_weight for r in results]},
                "Correlation network total weight by period",
                "total weight",
            ),
        )
        _write(
            os.path.join(args.out, "dispersion.svg"),
            line_chart(
                labels,
                {
                    "d_max": [r.dispersion.d_max for r in results],
                    "d_min": [r.dispersion.d_min for r in results],
                },
                "Dispersion estimates by period",
                "distance",
            ),
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


def _report_json(doc: dict, results: list[PeriodResult]) -> str:
    """``json.dumps(doc, indent=2) + "\\n"`` with each period's edges in its record.

    ``json`` encodes with ``indent`` in pure Python, which on a report of
    many edges takes most of the run, so the edge lists are formatted here,
    straight from the network's arrays, and the encoder sees only empty ones.
    """
    # json escapes every '"' inside a string, so no label can hold this text:
    # each occurrence is the "edges" key of one period record
    head, *tails = json.dumps(doc, indent=2).split('"edges": []')
    parts = [head]
    for (_, net, _), tail in zip(results, tails, strict=True):
        parts.append(_edges_json(net) + tail)
    parts.append("\n")
    return "".join(parts)


def _edges_json(net: CorrelationNetwork) -> str:
    """The "edges" entry of a period record as json.dumps(doc, indent=2) writes
    it: json renders an int with int.__repr__ and a finite float with
    float.__repr__, and edge weights are finite because correlations are
    clipped to [-1, 1]. Python floats, not numpy scalars, whose repr differs."""
    k = net.edge_weight.size
    if not k:
        return '"edges": []'
    ids = net.matrix.indicator_ids
    i_texts = [f'\n        {{\n          "i": {i},\n          "j": ' for i in ids]
    j_texts = [f'{j},\n          "abs_r": ' for j in ids]
    texts = ["\n        },"] * (4 * k)  # each fourth text closes an edge
    texts[0::4] = map(i_texts.__getitem__, net.edge_a.tolist())
    texts[1::4] = map(j_texts.__getitem__, net.edge_b.tolist())
    texts[2::4] = map(float.__repr__, net.edge_weight.tolist())
    texts[-1] = "\n        }\n      ]"
    return '"edges": [' + "".join(texts)


def _run_synth(args) -> None:
    config = parse_synth_config(_read_file(args.config))
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    panel = generate_panel(config)
    _write(os.path.join(args.out, "panel.csv"), serialize_panel(panel))

    regimes = {regime for _, regime in config.periods}
    if len(regimes) == 2:
        contrast = stress_contrast(config)
        _write(
            os.path.join(args.out, "contrast.csv"),
            "seed,w_baseline,w_stressed,d_max_baseline,d_max_stressed\n"
            f"{config.seed},{contrast.w_baseline:.6f},{contrast.w_stressed:.6f},"
            f"{contrast.d_max_baseline:.6f},{contrast.d_max_stressed:.6f}\n",
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
    """Text with universal newlines."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PanelError(
            f"cannot read {path}: not UTF-8 text "
            f"(byte 0x{data[exc.start]:02x} at offset {exc.start})"
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _write(path: str, text: str) -> None:
    """Write-then-rename, into a parent directory made if missing, so a partly
    written file never appears; the file gets the mode ``open`` would give it."""
    directory = os.path.dirname(path) or "."
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            umask = os.umask(0)  # os.umask only reads the mask by replacing it
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
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
