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

from .panel import PeriodSlice, fixed_decimal_rows

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
    # all values equal, tested exactly: the centered sum of squares of a
    # constant with an inexact mean (0.7 over 3 values) is about 4e-32, not 0
    if x.min() == x.max() or y.min() == y.max():
        raise ZeroVarianceError("zero variance sample")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
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
    # constant columns by value, not by ss == 0.0: see pearson
    constant = slice_.matrix.min(axis=0) == slice_.matrix.max(axis=0)
    degenerate = np.nonzero(constant)[0]
    if degenerate.size and zero_variance_policy == "error":
        bad = [slice_.indicator_ids[k] for k in degenerate]
        raise ZeroVarianceError(f"zero-variance indicators: {bad}")
    values = np.full((n, n), np.nan)
    ok = np.nonzero(~constant)[0]
    if ok.size:
        sub = centered[:, ok]
        cov = sub.T @ sub
        norm = np.sqrt(ss[ok])
        corr = cov / np.outer(norm, norm)
        np.clip(corr, -1.0, 1.0, out=corr)
        np.fill_diagonal(corr, 1.0)
        values[np.ix_(ok, ok)] = corr
    ids = slice_.indicator_ids
    undefined = frozenset(
        (min(ids[a], ids[b]), max(ids[a], ids[b]))
        for a in degenerate.tolist() for b in range(n) if b != a
    )
    return CorrelationMatrix(indicator_ids=tuple(ids), values=values, undefined_pairs=undefined)


def build_network(matrix: CorrelationMatrix, r0: float = DEFAULT_THRESHOLD) -> CorrelationNetwork:
    """Threshold the matrix into a network and sum the surviving weights.

    Self-correlations (the diagonal) never contribute; undefined pairs are
    skipped. Thresholding uses the unrounded correlations, strictly.
    """
    if not 0.0 < r0 < 1.0:
        raise ValueError(f"threshold {r0} outside (0, 1)")
    ids = matrix.indicator_ids
    a, b = np.triu_indices(matrix.n, k=1)  # row-major: the edge order of the report
    weights = np.abs(matrix.values[a, b])
    keep = weights > r0  # False for undefined (NaN) pairs
    a, b, weights = a[keep], b[keep], weights[keep]
    edges = [Edge(ids[i], ids[j], w) for i, j, w in zip(a.tolist(), b.tolist(), weights.tolist())]
    degrees = dict(zip(ids, np.bincount(np.concatenate([a, b]), minlength=matrix.n).tolist()))
    # left to right in edge order: np.sum adds pairwise and changes the last digits
    total = float(np.add.accumulate(weights)[-1]) if weights.size else 0.0
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


def matrix_to_csv(matrix: CorrelationMatrix, decimals: int = 2) -> str:
    """Render the matrix as CSV with an id header row/column; NaN is empty.

    Entries read as ``"%.{decimals}f"`` writes them (see fixed_decimal_rows).
    """
    ids = [str(i) for i in matrix.indicator_ids]
    header = ",".join(["indicator_id", *ids]) + "\n"
    return header + fixed_decimal_rows(ids, matrix.values, decimals)
