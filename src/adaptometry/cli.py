"""Command-line entry points: ``adaptometry analyze`` and ``adaptometry synth``.

``analyze`` runs the full pipeline on a panel CSV and writes a JSON report
with CSV sidecars (correlation and distance matrices, optional CV profile)
and optional SVG charts. ``synth`` generates a seeded synthetic panel and a
regime-contrast summary.

Exit codes: 0 success, 1 input-validation failure, 2 argument errors.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from datetime import datetime, timezone

from . import __version__
from .analysis import PeriodResult, analyze
from .correlation import matrix_to_csv
from .dispersion import distances_to_csv
from .panel import PanelError, parse_panel, serialize_panel, validate
from .synthgen import SynthConfigError, generate_panel, parse_synth_config, stress_contrast
from .variation import (
    VariationError,
    flag_exclusions,
    parse_grouped_table,
    profile_to_csv,
    variation_table,
)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            return _run_analyze(args)
        return _run_synth(args)
    except (PanelError, VariationError) as exc:
        _err(f"error: {exc}")
        return 1
    except SynthConfigError as exc:
        _err(f"error: {exc}")
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptometry",
        description="Correlation-network stress indices and dispersion estimates for panel data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run the full pipeline on a panel CSV")
    analyze.add_argument("--input", required=True, help="panel CSV path")
    analyze.add_argument(
        "--threshold", type=float, default=0.7,
        help="correlation threshold r0 in (0, 1), default 0.7",
    )
    analyze.add_argument(
        "--exclude", default="",
        help="comma-separated indicator ids to drop before analysis",
    )
    analyze.add_argument("--grouped", help="grouped-table CSV for CV profiling")
    analyze.add_argument(
        "--cv-estimator", choices=("sample", "unnormalized"), default="sample",
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


def _run_analyze(args) -> int:
    if not 0.0 < args.threshold < 1.0:
        _err(f"error: --threshold {args.threshold} outside (0, 1)")
        return 2
    try:
        exclude = _parse_id_list(args.exclude)
    except ValueError as exc:
        _err(f"error: {exc}")
        return 2
    raw = _read_file(args.input)
    if raw is None:
        return 2
    grouped_raw = None
    if args.grouped:
        grouped_raw = _read_file(args.grouped)
        if grouped_raw is None:
            return 2

    panel = parse_panel(raw)
    report = validate(panel)
    for loc, msg in report.warnings:
        _err(f"warning: {loc}: {msg}")
    if not report.ok:
        for loc, msg in report.errors:
            _err(f"error: {loc}: {msg}")
        return 1
    unknown = set(exclude) - set(panel.indicator_ids)
    if unknown:
        _err(f"error: --exclude ids not in panel: {sorted(unknown)}")
        return 2
    if set(exclude) >= set(panel.indicator_ids):
        _err("error: --exclude leaves no indicators")
        return 2

    flagged: list[int] = []
    if grouped_raw is not None:
        profile = variation_table(parse_grouped_table(grouped_raw), args.cv_estimator)
        flagged = sorted(flag_exclusions(profile, args.flag_policy))
    results = analyze(panel, args.threshold, exclude)

    os.makedirs(os.path.join(args.out, "matrices"), exist_ok=True)  # creates --out too
    os.makedirs(os.path.join(args.out, "distances"), exist_ok=True)
    for period, net, disp in results:
        name = f"{period}.csv"
        _atomic_write(os.path.join(args.out, "matrices", name), matrix_to_csv(net.matrix))
        _atomic_write(os.path.join(args.out, "distances", name), distances_to_csv(disp))
    if grouped_raw is not None:
        _atomic_write(os.path.join(args.out, "variation.csv"), profile_to_csv(profile, flagged))

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
    _atomic_write(
        os.path.join(args.out, "report.json"),
        json.dumps(doc, indent=2) + "\n",
    )

    if args.plots:
        from .plots import line_chart

        labels = [r.period for r in results]
        _atomic_write(
            os.path.join(args.out, "weight.svg"),
            line_chart(
                labels,
                {"total weight": [r.network.total_weight for r in results]},
                "Correlation network total weight by period",
                "total weight",
            ),
        )
        _atomic_write(
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
    return 0


def _period_record(result: PeriodResult) -> dict:
    period, net, disp = result
    return {
        "period": period,
        "weight": net.total_weight,
        "edge_count": len(net.edges),
        "edges": [{"i": e.i, "j": e.j, "abs_r": e.weight} for e in net.edges],
        "degrees": {str(i): d for i, d in net.degrees.items()},
        "d_min": disp.d_min,
        "d_max": disp.d_max,
        "volume": disp.volume if math.isfinite(disp.volume) else None,
        "log_volume": disp.log_volume if math.isfinite(disp.log_volume) else None,
    }


def _run_synth(args) -> int:
    raw = _read_file(args.config)
    if raw is None:
        return 2
    config = parse_synth_config(raw)
    if args.seed is not None:
        from dataclasses import replace

        config = replace(config, seed=args.seed)
    panel = generate_panel(config)
    os.makedirs(args.out, exist_ok=True)
    _atomic_write(os.path.join(args.out, "panel.csv"), serialize_panel(panel))

    regimes = {regime for _, regime in config.periods}
    if len(regimes) == 2:
        contrast = stress_contrast(config)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["seed", "w_baseline", "w_stressed", "d_max_baseline", "d_max_stressed"])
        writer.writerow(
            [
                config.seed,
                f"{contrast.w_baseline:.6f}",
                f"{contrast.w_stressed:.6f}",
                f"{contrast.d_max_baseline:.6f}",
                f"{contrast.d_max_stressed:.6f}",
            ]
        )
        _atomic_write(os.path.join(args.out, "contrast.csv"), buf.getvalue())
    return 0


def _parse_id_list(spec: str) -> set[int]:
    spec = spec.strip()
    if not spec:
        return set()
    try:
        return {int(tok) for tok in spec.split(",")}
    except ValueError:
        raise ValueError(f"bad --exclude list {spec!r}") from None


def _read_file(path: str) -> str | None:
    """Text with universal newlines, or None (error printed) if it cannot be opened."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        _err(f"error: cannot read {path}: {exc.strerror}")
        return None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PanelError(
            f"cannot read {path}: not UTF-8 text "
            f"(byte 0x{data[exc.start]:02x} at offset {exc.start})"
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _atomic_write(path: str, content: str) -> None:
    """Write-then-rename so partially written artifacts never appear."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _err(message: str) -> None:
    if sys.stderr.isatty() and not os.environ.get("ADAPTOMETRY_NO_COLOR"):
        if message.startswith("error:"):
            message = f"\x1b[31m{message}\x1b[0m"
        elif message.startswith("warning:"):
            message = f"\x1b[33m{message}\x1b[0m"
    print(message, file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
