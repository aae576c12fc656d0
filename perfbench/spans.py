"""Span recording around the public functions of each adaptometry layer.

``Tracer.install`` replaces each listed function with a recording wrapper in
every ``adaptometry`` module namespace that holds it (``cli`` binds the
layer functions at import; ``stress_contrast`` and ``_run_analyze`` look
theirs up at call time), and ``uninstall`` puts the originals back. Spans
stay in memory; ``layer_metrics`` turns them into the per-layer figures.
"""

from __future__ import annotations

import functools
import statistics
import sys
from time import perf_counter

# module -> public functions whose calls are recorded as spans
TRACED = {
    "panel": ("parse_panel", "validate", "serialize_panel"),
    "correlation": ("correlation_matrix", "build_network", "matrix_to_csv"),
    "dispersion": ("distance_matrix", "dispersion_summary", "distances_to_csv"),
    "variation": ("parse_grouped_table", "variation_table", "flag_exclusions",
                  "profile_to_csv"),
    "plots": ("line_chart",),
    "synthgen": ("generate_panel", "stress_contrast"),
    "cli": ("main",),
}

# span name -> per-layer metric fed by the span's self time
SELF_TIME = {
    "panel.parse_panel": "panel.parse_s",
    "panel.validate": "panel.validate_s",
    "correlation.correlation_matrix": "correlation.matrix_s",
    "correlation.build_network": "correlation.network_s",
    "correlation.matrix_to_csv": "correlation.csv_s",
    "dispersion.distance_matrix": "dispersion.distance_s",
    "dispersion.dispersion_summary": "dispersion.summary_s",
    "dispersion.distances_to_csv": "dispersion.csv_s",
    "variation.parse_grouped_table": "variation.parse_s",
    "variation.variation_table": "variation.table_s",
    "variation.flag_exclusions": "variation.table_s",
    "variation.profile_to_csv": "variation.csv_s",
    "plots.line_chart": "plots.chart_s",
    "synthgen.generate_panel": "synthgen.generate_s",
    "synthgen.stress_contrast": "synthgen.contrast_s",
    "cli.main": "cli.self_s",
}

COUNTS = ("panel.cells", "panel.input_bytes", "correlation.pairs", "correlation.edges",
          "correlation.undefined_pairs", "dispersion.temp_bytes", "synthgen.generate_calls")


def count(name: str, args, result) -> dict[str, int]:
    """Work counters of one call, taken at the layer boundary."""
    if name == "panel.parse_panel":
        return {"panel.cells": result.values.size, "panel.input_bytes": len(args[0])}
    if name == "panel.serialize_panel":
        return {"panel.cells": args[0].values.size}
    if name == "correlation.correlation_matrix":
        return {"correlation.undefined_pairs": len(result.undefined_pairs)}
    if name == "correlation.build_network":
        n = result.matrix.n
        return {"correlation.pairs": n * (n - 1) // 2, "correlation.edges": len(result.edges)}
    if name == "dispersion.distance_matrix":
        m, n = args[0].matrix.shape
        return {"dispersion.temp_bytes": m * m * n * 8}  # computed, not measured
    if name == "synthgen.generate_panel":
        return {"synthgen.generate_calls": 1}
    return {}


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "counts")

    def __init__(self, name, op, parent):
        self.name, self.op, self.parent = name, op, parent
        self.start = self.end = 0.0
        self.counts: dict[str, int] = {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: object = "setup"  # the request the next spans belong to
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patches:
            return
        import adaptometry.cli  # noqa: F401  (imports every traced module but plots)
        import adaptometry.plots  # noqa: F401

        modules = [m for k, m in sys.modules.items()
                   if k == "adaptometry" or k.startswith("adaptometry.")]
        for short, names in TRACED.items():
            home = sys.modules[f"adaptometry.{short}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for module in modules:
                    if getattr(module, fname, None) is original:
                        self._patches.append((module, fname, original))
                        setattr(module, fname, wrapper)

    def uninstall(self) -> None:
        for module, fname, original in self._patches:
            setattr(module, fname, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self.op, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            span.counts = count(name, args, result)
            return result

        return wrapper

    def dump(self) -> list[dict]:
        return [{"name": s.name, "op": s.op, "parent": s.parent, "start": s.start,
                 "end": s.end, **s.counts} for s in self.spans]


def layer_metrics(spans: list[Span], ops: list[int]) -> dict[str, float]:
    """Per-layer figures: the median over the traced ops of each op's total.

    ``panel.serialize_s`` is the median of single ``serialize_panel`` calls,
    set-up included, because tall and wide serialize their input in set-up.
    """
    self_time = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            self_time[s.parent] -= s.end - s.start
    per_op: dict[int, dict[str, float]] = {op: {} for op in ops}
    serialize = []
    for s, t in zip(spans, self_time):
        if s.name == "panel.serialize_panel":
            serialize.append(t)
        totals = per_op.get(s.op)
        if totals is None:
            continue
        metric = SELF_TIME.get(s.name)
        if metric:
            totals[metric] = totals.get(metric, 0.0) + t
        for key, value in s.counts.items():
            if key == "dispersion.temp_bytes":  # the largest single temporary
                totals[key] = max(totals.get(key, 0), value)
            else:
                totals[key] = totals.get(key, 0) + value
    names = set(SELF_TIME.values()) | set(COUNTS)
    out = {name: statistics.median(t.get(name, 0) for t in per_op.values()) for name in names}
    out["panel.serialize_s"] = statistics.median(serialize) if serialize else 0.0
    pairs = out["correlation.pairs"]
    out["correlation.edge_ratio"] = out["correlation.edges"] / pairs if pairs else 0.0
    return out
