"""Correlation networks and the total-weight adaptation-tension index.

A correlation network links indicator pairs whose Pearson correlation
exceeds a threshold in absolute value; the sum of those absolute
correlations is the stress index tracked across periods.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .panel import PeriodSlice, zero_variance
from .writers import matrix_csv_chunks

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
    if mat.zero_variance_ids:
        raise ZeroVarianceError("zero variance sample")
    return float(mat.values[0, 1])


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric matrix of pairwise Pearson correlations.

    Entries involving a zero-variance indicator are NaN; its id is in
    ``zero_variance_ids`` (matrix order), and ``undefined_pairs`` derives
    the pairs from those ids.
    """

    indicator_ids: tuple[int, ...]
    values: np.ndarray  # (n, n), NaN where undefined
    zero_variance_ids: tuple[int, ...]

    @property
    def undefined_pairs(self) -> frozenset[tuple[int, int]]:
        """Every id pair (i < j) that touches a zero-variance indicator,
        built on each use."""
        return frozenset(
            (min(z, i), max(z, i))
            for z in self.zero_variance_ids for i in self.indicator_ids if i != z
        )

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

    Every pair touching a zero-variance indicator is left NaN, and the
    indicator's id is recorded in ``zero_variance_ids``.
    """
    m, n = slice_.matrix.shape
    if m < 2:
        raise ValueError("need at least 2 units")
    centered = slice_.matrix - slice_.matrix.mean(axis=0)
    # r does not depend on a column's scale, so each column is scaled by a
    # power of two to a max |value| in [0.5, 1): squares of tiny or huge
    # values neither underflow nor overflow, and an exact power-of-two factor
    # commutes with every rounding below, so an r that neither did before
    # keeps every bit; max |value| is taken with no (m, n) temporary of |value|
    _, exponent = np.frexp(np.maximum(centered.max(axis=0), -centered.min(axis=0)))
    np.ldexp(centered, -exponent, out=centered)
    # summed over the C-ordered `centered`: an F-ordered `sub` below sums in
    # another order, with other last digits
    ss = (centered * centered).sum(axis=0)
    constant = zero_variance(slice_.matrix, 0)
    values = np.full((n, n), np.nan)
    ok = np.nonzero(~constant)[0]
    sub = centered[:, ok] if ok.size < n else centered  # no copy unless a column is constant
    cov = sub.T @ sub
    norm = np.sqrt(ss[ok])
    corr = cov / np.outer(norm, norm)
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
    values[np.ix_(ok, ok)] = corr
    ids = tuple(slice_.indicator_ids)
    return CorrelationMatrix(ids, values, tuple(compress(ids, constant.tolist())))


def build_network(matrix: CorrelationMatrix, r0: float = DEFAULT_THRESHOLD) -> CorrelationNetwork:
    """Threshold the matrix into a network and sum the surviving weights.

    Self-correlations (the diagonal) never contribute; undefined pairs are
    skipped. Thresholding uses the unrounded correlations, strictly.
    """
    if not 0.0 < r0 < 1.0:
        raise ValueError(f"threshold {r0} outside (0, 1)")
    ids = matrix.indicator_ids
    r = matrix.values
    # |r| > r0 with no (n, n) temporary of |r|, NaN pairs failing both tests;
    # np.nonzero gives row-major order, the edge order of the report
    a, b = np.nonzero(np.triu((r > r0) | (r < -r0), k=1))
    weights = np.abs(r[a, b])
    for array in (a, b, weights):  # edges caches what they hold
        array.flags.writeable = False
    degrees = dict(zip(ids, np.bincount(np.concatenate([a, b]), minlength=matrix.n).tolist()))
    return CorrelationNetwork(
        matrix=matrix,
        threshold=r0,
        edge_a=a,
        edge_b=b,
        edge_weight=weights,
        # added left to right in edge order; np.sum adds pairwise, with other last digits
        total_weight=float(np.add.accumulate(weights)[-1]) if weights.size else 0.0,
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
    """Render the matrix as CSV with an id header row/column; NaN is empty:
    the text of writers.matrix_csv_chunks, in one string."""
    ids = [str(i) for i in matrix.indicator_ids]
    return "".join(matrix_csv_chunks("indicator_id", ids, matrix.values))
