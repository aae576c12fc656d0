"""Correlation networks and the total-weight adaptation-tension index.

A correlation network links indicator pairs whose Pearson correlation
exceeds a threshold in absolute value; the sum of those absolute
correlations is the stress index tracked across periods.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .panel import PeriodSlice, fixed_decimal_rows

DEFAULT_THRESHOLD = 0.7


class ZeroVarianceError(ValueError):
    """A variable with zero variance has no defined Pearson correlation."""


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation of two equal-length finite samples.

    The off-diagonal entry of correlation_matrix on the two-column slice.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        raise ValueError("need at least 2 observations")
    xy = np.column_stack([x, y])
    if not np.isfinite(xy).all():
        raise ValueError("non-finite sample value (NaN or inf)")
    units = tuple(str(k) for k in range(x.size))
    mat = correlation_matrix(PeriodSlice("", units, (0, 1), xy))
    if mat.undefined_pairs:
        raise ZeroVarianceError("zero variance sample")
    return float(mat.values[0, 1])


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


class Edge(NamedTuple):
    i: int  # indicator id, i < j
    j: int
    weight: float  # |r_ij|


@dataclass(frozen=True)
class CorrelationNetwork:
    """The edges of a thresholded matrix, as three arrays in row-major
    upper-triangle order."""

    matrix: CorrelationMatrix
    threshold: float
    edge_a: np.ndarray  # positions in matrix.indicator_ids, edge_a < edge_b
    edge_b: np.ndarray
    edge_weight: np.ndarray  # |r| of each edge
    total_weight: float
    degrees: dict[int, int]  # indicator id -> number of incident edges

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as (id, id, |r|) tuples, built on first use."""
        ids = self.matrix.indicator_ids
        return tuple(
            Edge(ids[a], ids[b], w)
            for a, b, w in zip(self.edge_a.tolist(), self.edge_b.tolist(),
                               self.edge_weight.tolist())
        )


def correlation_matrix(slice_: PeriodSlice) -> CorrelationMatrix:
    """All pairwise correlations over the slice's units.

    Every pair touching a zero-variance indicator is left NaN and recorded
    in ``undefined_pairs``.
    """
    m, n = slice_.matrix.shape
    if m < 2:
        raise ValueError("need at least 2 units")
    centered = slice_.matrix - slice_.matrix.mean(axis=0)
    # r does not depend on a column's scale, so each column is scaled by a
    # power of two to a max |value| in [0.5, 1): squares of tiny or huge
    # values neither underflow nor overflow, and an exact power-of-two factor
    # commutes with every rounding below, so an r that neither did before
    # keeps every bit
    _, exponent = np.frexp(np.abs(centered).max(axis=0))
    np.ldexp(centered, -exponent, out=centered)
    # summed over the C-ordered `centered`: the F-ordered `sub` below sums in
    # another order, with other last digits
    ss = (centered * centered).sum(axis=0)
    # all values equal, tested exactly: the centered sum of squares of a
    # constant with an inexact mean (0.7 over 3 values) is about 4e-32, not 0
    constant = slice_.matrix.min(axis=0) == slice_.matrix.max(axis=0)
    degenerate = np.nonzero(constant)[0]
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
    for array in (a, b, weights):  # edges caches what they hold
        array.flags.writeable = False
    degrees = dict(zip(ids, np.bincount(np.concatenate([a, b]), minlength=matrix.n).tolist()))
    # left to right in edge order: np.sum adds pairwise and changes the last digits
    total = float(np.add.accumulate(weights)[-1]) if weights.size else 0.0
    return CorrelationNetwork(
        matrix=matrix,
        threshold=r0,
        edge_a=a,
        edge_b=b,
        edge_weight=weights,
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


def matrix_to_csv(matrix: CorrelationMatrix) -> str:
    """Render the matrix as CSV with an id header row/column; NaN is empty.

    Entries read as ``"%.2f"`` writes them (see fixed_decimal_rows).
    """
    ids = [str(i) for i in matrix.indicator_ids]
    header = ",".join(["indicator_id", *ids]) + "\n"
    return header + fixed_decimal_rows(ids, matrix.values)
