"""Correlation networks and the total-weight adaptation-tension index.

A correlation network links indicator pairs whose Pearson correlation
exceeds a threshold in absolute value; the sum of those absolute
correlations is the stress index tracked across periods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .panel import IndicatorPanel, PanelError, PeriodSlice, exclude_indicators, slice_period

DEFAULT_THRESHOLD = 0.7


class ZeroVarianceError(ValueError):
    """A variable with zero variance has no defined Pearson correlation."""


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation of two equal-length samples.

    Two-pass computation (means first, then centered moments) in double
    precision; stable to ~1e-12 under reordering of observations.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        raise ValueError("need at least 2 observations")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise ZeroVarianceError("zero variance sample")
    r = float(dx @ dy) / math.sqrt(sxx * syy)
    return min(1.0, max(-1.0, r))


def threshold_gate(r: float, r0: float) -> int:
    """1 if |r| strictly exceeds the critical point r0, else 0."""
    if not -1.0 <= r <= 1.0:
        raise ValueError(f"correlation {r} outside [-1, 1]")
    if not 0.0 < r0 < 1.0:
        raise ValueError(f"threshold {r0} outside (0, 1)")
    return 1 if abs(r) > r0 else 0


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric matrix of pairwise Pearson correlations.

    Entries involving a zero-variance indicator are NaN and the pair is
    listed in ``undefined_pairs`` (ids, i < j).
    """

    indicator_ids: tuple[int, ...]
    values: np.ndarray  # (n, n), NaN where undefined
    undefined_pairs: frozenset[tuple[int, int]]

    @property
    def n(self) -> int:
        return len(self.indicator_ids)

    def entry(self, i: int, j: int) -> float:
        """Correlation between indicators with ids i and j."""
        a = self.indicator_ids.index(i)
        b = self.indicator_ids.index(j)
        return float(self.values[a, b])


class Edge(NamedTuple):
    i: int  # indicator id, i < j
    j: int
    weight: float  # |r_ij|


@dataclass(frozen=True)
class CorrelationNetwork:
    matrix: CorrelationMatrix
    threshold: float
    edges: tuple[Edge, ...]
    total_weight: float
    degrees: dict[int, int]  # indicator id -> number of incident edges


def correlation_matrix(
    slice_: PeriodSlice,
    zero_variance_policy: str = "treat_as_undefined",
) -> CorrelationMatrix:
    """All pairwise correlations over the slice's units.

    ``zero_variance_policy``: ``error`` aborts naming the offending
    indicator; ``treat_as_undefined`` leaves every pair touching a
    zero-variance indicator NaN and records it in ``undefined_pairs``.
    """
    if zero_variance_policy not in ("error", "treat_as_undefined"):
        raise ValueError(f"unknown zero_variance_policy {zero_variance_policy!r}")
    m, n = slice_.matrix.shape
    if m < 2:
        raise ValueError("need at least 2 units")
    centered = slice_.matrix - slice_.matrix.mean(axis=0)
    ss = (centered * centered).sum(axis=0)
    degenerate = np.nonzero(ss == 0.0)[0]
    if degenerate.size and zero_variance_policy == "error":
        bad = [slice_.indicator_ids[k] for k in degenerate]
        raise ZeroVarianceError(f"zero-variance indicators: {bad}")
    values = np.full((n, n), np.nan)
    undefined: set[tuple[int, int]] = set()
    ok = np.nonzero(ss > 0.0)[0]
    if ok.size:
        sub = centered[:, ok]
        cov = sub.T @ sub
        norm = np.sqrt(ss[ok])
        corr = cov / np.outer(norm, norm)
        np.clip(corr, -1.0, 1.0, out=corr)
        np.fill_diagonal(corr, 1.0)
        values[np.ix_(ok, ok)] = corr
    for a in degenerate:
        for b in range(n):
            if b == a:
                continue
            ida, idb = slice_.indicator_ids[a], slice_.indicator_ids[b]
            undefined.add((min(ida, idb), max(ida, idb)))
    return CorrelationMatrix(
        indicator_ids=tuple(slice_.indicator_ids),
        values=values,
        undefined_pairs=frozenset(undefined),
    )


def build_network(matrix: CorrelationMatrix, r0: float = DEFAULT_THRESHOLD) -> CorrelationNetwork:
    """Threshold the matrix into a network and sum the surviving weights.

    Self-correlations (the diagonal) never contribute; undefined pairs are
    skipped. Thresholding uses the unrounded correlations, strictly.
    """
    if not 0.0 < r0 < 1.0:
        raise ValueError(f"threshold {r0} outside (0, 1)")
    ids = matrix.indicator_ids
    edges: list[Edge] = []
    degrees = {i: 0 for i in ids}
    total = 0.0
    for a in range(matrix.n):
        for b in range(a + 1, matrix.n):
            r = matrix.values[a, b]
            if math.isnan(r) or abs(r) <= r0:
                continue
            w = abs(float(r))
            edges.append(Edge(ids[a], ids[b], w))
            degrees[ids[a]] += 1
            degrees[ids[b]] += 1
            total += w
    return CorrelationNetwork(
        matrix=matrix,
        threshold=r0,
        edges=tuple(edges),
        total_weight=total,
        degrees=degrees,
    )


def degree_counts(
    network: CorrelationNetwork, report_ids: Iterable[int]
) -> tuple[dict[int, int], int]:
    """Strong-interaction counts for the requested indicators.

    Each count includes edges to *any* indicator in the network, also ones
    outside ``report_ids``. Returns (counts, sum over report_ids).
    """
    report_ids = list(report_ids)
    unknown = set(report_ids) - set(network.matrix.indicator_ids)
    if unknown:
        raise ValueError(f"unknown indicator ids: {sorted(unknown)}")
    counts = {i: network.degrees[i] for i in report_ids}
    return counts, sum(counts.values())


def weight_series(
    panel: IndicatorPanel,
    r0: float = DEFAULT_THRESHOLD,
    exclude: Iterable[int] = (),
) -> list[tuple[str, float]]:
    """Total network weight per period, after excluding the given indicators."""
    reduced = exclude_indicators(panel, exclude)
    out = []
    for period in reduced.periods:
        net = build_network(correlation_matrix(slice_period(reduced, period)), r0)
        out.append((period, net.total_weight))
    return out


def matrix_to_csv(matrix: CorrelationMatrix, decimals: int = 2) -> str:
    """Render the matrix as CSV with an id header row/column; NaN is empty."""
    fmt = f",%.{decimals}f" * matrix.n
    lines = [",".join(["indicator_id", *map(str, matrix.indicator_ids)])]
    for ind_id, row in zip(matrix.indicator_ids, matrix.values):
        # "%f" renders NaN as "nan", and no number's text contains it
        lines.append(f"{ind_id}" + (fmt % tuple(row.tolist())).replace(",nan", ","))
    return "\n".join(lines) + "\n"
