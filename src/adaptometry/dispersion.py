"""Inter-unit dispersion estimates per period.

Two estimates frame the spread of the unit points in indicator space:
``d_max``, the largest pairwise Euclidean distance (superior estimate), and
``d_min``, the diameter of the n-ball whose volume equals the axis-aligned
bounding box of the points (inferior estimate, since the ball is the solid
of minimal linear size at fixed volume).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .panel import PeriodSlice
from .writers import _fixed_decimal_block, blocks, csv_field


@dataclass(frozen=True)
class DispersionSummary:
    period: str
    d_max: float
    volume: float  # may be inf when the product overflows double range
    log_volume: float  # -inf when the volume is zero
    d_min: float
    n_indicators: int


# Elements in one block's difference temporary; blocks of 2**18 and 2**20
# were slower on 300 x 150 slices.
_BLOCK_ELEMENTS = 2**16


def _exact_distances(block: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Exact distances from each row of ``block`` to each row of ``others``,
    one sum of squared differences over the indicator axis per entry: the
    one form every distance in this module is computed in."""
    diff = block[:, None, :] - others[None, :, :]
    np.multiply(diff, diff, out=diff)
    return np.sqrt(diff.sum(axis=2))


@np.errstate(over="ignore", invalid="ignore")  # as max_distance: inf and NaN entries
def distance_matrix(slice_: PeriodSlice) -> np.ndarray:
    """All pairwise unit distances over the slice's indicators.

    Walks the upper triangle in blocks of rows and mirrors each block, so
    memory is the (m, m) result plus one temporary of at most
    max(_BLOCK_ELEMENTS, m * n) elements. Each entry is one sum of squares
    over the indicator axis, and (a-b)**2 == (b-a)**2 exactly, so the matrix
    is bit-identical to the full broadcast form.
    """
    pts = slice_.matrix
    m, n = pts.shape
    if m < 2:
        raise ValueError("need at least 2 units")
    out = np.empty((m, m))
    for rows in blocks(m, m * n, _BLOCK_ELEMENTS):
        block = _exact_distances(pts[rows], pts[rows.start:])
        out[rows, rows.start:] = block
        out[rows.start:, rows] = block.T
    return out


# Bounds on K**2, where K is distance_matrix's entry for rows a and b,
# and T = |a - b|**2 exactly; u = 2**-53, g(k) = k*u / (1 - k*u).
# - K rounds a subtraction, a square and a sqrt once each, and a sum of
#   n non-negative terms in any order, so |K**2 - T| <= g(n + 4) * T.
# - A = (|a|**2 + |b|**2) - 2 a.b from the computed norms and Gram entry
#   (Higham 2002, section 3.1: |fl(a.b) - a.b| <= g(n) sum |a_k b_k|,
#   for any order of the sum, with or without fma), so with
#   S = |a|**2 + |b|**2: |A - T| <= (2 g(n) + 3u) * S.
# - T <= 2 S, and P, the computed |a|**2 + |b|**2, is S to within
#   (n + 2) u, so |K**2 - A| <= (4n + 11) u S <= 8 (n + 4) u P / 2: the
#   factor of 2 covers the rounding of the bounds themselves.
# - A product or square that underflows is off by at most 2**-1075: n
#   squares in K, 2n products in the norms and 2n in 2 a.b, so at most
#   2.5 n * 2**-1074 in all, which (n + 1) * 2**-1071 covers 3 times over.
def _gram_estimate(
    pts: np.ndarray, norms: np.ndarray, rows: slice, cols: slice
) -> tuple[np.ndarray, np.ndarray]:
    """A, the Gram estimate of K**2 for each row of ``rows`` against each of
    ``cols``, from one matrix product, and W, a width with |K**2 - A| <= W
    where both are finite. Squares that overflow, or a NaN or inf, make one
    or both of them not finite; the caller ignores the floating-point errors."""
    n = pts.shape[1]
    approx = pts[rows] @ pts[cols].T
    approx *= -2.0
    width = norms[rows, None] + norms[None, cols]
    approx += width
    width *= 8 * (n + 4) * 2.0**-53
    width += (n + 1) * 2.0**-1071
    return approx, width


def max_distance(slice_: PeriodSlice) -> float:
    """d_max without the distance matrix: ``distance_matrix(slice_).max()``,
    bit for bit; NaN where a coordinate is NaN or infinite, as inf - inf on
    the matrix's diagonal makes it.

    The Gram estimate (_gram_estimate) bounds each pair's distance from one
    matrix product per block of rows. Only the rows whose largest upper bound
    reaches the largest lower bound seen are recomputed, by distance_matrix's
    kernel, each against the rows from its block's first on: the farthest
    pair's first row is among them, and each distance is an entry of the
    matrix. A block with a bound that is not finite (squares that overflow,
    or a NaN or inf) has all its rows recomputed, so at worst the matrix's
    upper triangle is. Memory is a few temporaries of at most
    max(_BLOCK_ELEMENTS, m * n, m) doubles.
    """
    pts = slice_.matrix
    m, n = pts.shape
    if m < 2:
        raise ValueError("need at least 2 units")
    largest_low = -np.inf
    reach = np.empty(m)  # each row's largest upper bound on K**2
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.einsum("ij,ij->i", pts, pts)
        for rows in blocks(m, m, _BLOCK_ELEMENTS):
            # the rows against the columns from their first on: pairs i < j count
            approx, width = _gram_estimate(pts, norms, rows, slice(rows.start, m))
            if np.isfinite(approx).all() and np.isfinite(width).all():
                largest_low = max(largest_low, float((approx - width).max()))
                approx += width
                reach[rows] = approx.max(axis=1)
            else:
                reach[rows] = np.inf
            del approx, width
        picked = np.flatnonzero(reach >= largest_low)
        best = 0.0
        for block in blocks(len(picked), m * n, _BLOCK_ELEMENTS):
            rows = picked[block]
            best = np.maximum(best, _exact_distances(pts[rows], pts[rows[0]:]).max())
    return float(best)


def distance_csv_chunks(slice_: PeriodSlice, labels: Sequence[str]) -> Iterator[str]:
    """The text of ``matrix_csv_chunks("unit", labels, distance_matrix(slice_))``
    without the distance matrix: each block of rows is formatted as soon as
    it is known (see _screened_rows), so memory is a few temporaries of at
    most max(_BLOCK_ELEMENTS, m * n, m) doubles."""
    pts = slice_.matrix
    m = len(pts)
    if m < 2:
        raise ValueError("need at least 2 units")
    yield ",".join(["unit", *labels]) + "\n"
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.einsum("ij,ij->i", pts, pts)
    for rows in blocks(m, m, _BLOCK_ELEMENTS):
        block = _screened_rows(pts, norms, rows)
        for part in blocks(len(block), m):
            yield _fixed_decimal_block(labels[rows][part], block[part])


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _screened_rows(pts: np.ndarray, norms: np.ndarray, rows: slice) -> np.ndarray:
    """Entries of ``rows`` of the distance matrix that each print as the
    matrix's own: est = sqrt(A) from one Gram estimate (_gram_estimate), 0 on
    the diagonal, and the exact kernel's rows where a text could differ."""
    # The writer prints each x as "%.2f" % x does: 100 x, exactly, rounded to
    # an integer. So est prints as K does if no half-integer lies between
    # 100 est and 100 K, both >= 0: if y = fl(100 est) lies further than B from
    # every half-integer, with B >= |y - 100 K|. With est = fl(sqrt(A)) > 0,
    # so A > 0, s = sqrt(A) exactly and u = 2**-53:
    # - |K - s| = |K**2 - A| / (K + s) <= W / s <= W (1 + u) / est;
    # - |est - s| <= u s, and 100 est <= y / (1 - u), so
    #   |y - 100 K| <= u y + 100 |K - est| <= 100 W (1 + 2u) / est + 2.01u y.
    # Over a row, B = 100 (1 + 2**-40) max W / min est + 2**-51 max y + 2**-50
    # covers that, the rounding of B, and that of y's computed distance to
    # the nearest half-integer, |y - floor(y) - .5|. The diagonal is 0, as K
    # is where the row is finite. A row with an est that is not positive is
    # recomputed: W > 0, so B is inf where an est is 0 (A = 0), and NaN where
    # one is NaN (A < 0), as it is where a NaN or inf is in the row.
    m, n = pts.shape
    est, y = _gram_estimate(pts, norms, rows, slice(0, m))
    bound = y.max(axis=1)  # W's largest, before y takes W's place
    np.sqrt(est, out=est)
    diagonal = (np.arange(len(est)), np.arange(rows.start, rows.start + len(est)))
    est[diagonal] = np.inf
    low = est.min(axis=1)
    est[diagonal] = 0.0
    np.multiply(est, 100.0, out=y)
    top = y.max(axis=1)
    y -= np.floor(y)
    y -= 0.5
    np.abs(y, out=y)
    bound /= low
    bound *= 100.0 * (1.0 + 2.0**-40)
    bound += top * 2.0**-51 + 2.0**-50
    redo = np.flatnonzero(~(y.min(axis=1) > bound))
    del y
    for block in blocks(len(redo), m * n, _BLOCK_ELEMENTS):
        est[redo[block]] = _exact_distances(pts[rows.start + redo[block]], pts)
    return est


def log_bounding_volume(slice_: PeriodSlice) -> float:
    """Natural log of the bounding-box volume; -inf when any range is zero."""
    amplitudes = slice_.matrix.max(axis=0) - slice_.matrix.min(axis=0)
    if (amplitudes == 0.0).any():
        return -math.inf
    return float(np.log(amplitudes).sum())


def log_gamma_half_integer(twice_x: int) -> float:
    """ln Gamma(x) for positive integer or half-integer x, given as 2x.

    Exact recursion Gamma(k+1) = k Gamma(k) down to Gamma(1) = 1 or
    Gamma(1/2) = sqrt(pi), accumulated in log domain.
    """
    if not isinstance(twice_x, (int, np.integer)) or twice_x <= 0:
        raise ValueError(f"2x must be a positive integer, got {twice_x!r}")
    if twice_x % 2 == 0:
        x = twice_x // 2
        return float(sum(math.log(k) for k in range(1, x)))
    total = 0.5 * math.log(math.pi)
    k = twice_x - 2
    while k >= 1:
        total += math.log(k / 2.0)
        k -= 2
    return total


def ball_diameter(volume: float, n: int) -> float:
    """Diameter of the n-ball whose volume equals ``volume``.

    d = 2 * Gamma(n/2 + 1)^(1/n) / sqrt(pi) * volume^(1/n), evaluated in
    log domain so extreme volumes neither overflow nor underflow.
    """
    if volume < 0:
        raise ValueError(f"negative volume {volume}")
    if volume == 0.0:
        return 0.0
    return ball_diameter_from_log(math.log(volume), n)


def ball_diameter_from_log(log_volume: float, n: int) -> float:
    """Same as ball_diameter but consuming ln(volume); -inf maps to 0."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if log_volume == -math.inf:
        return 0.0
    log_d = (
        math.log(2.0)
        + (log_gamma_half_integer(n + 2) + log_volume) / n
        - 0.5 * math.log(math.pi)
    )
    return math.exp(log_d)


def dispersion_summary(slice_: PeriodSlice) -> DispersionSummary:
    """All dispersion figures for one period."""
    log_v = log_bounding_volume(slice_)
    try:
        volume = math.exp(log_v)
    except OverflowError:  # above ln of the largest double, about 709.78
        volume = math.inf
    return DispersionSummary(
        period=slice_.period,
        d_max=max_distance(slice_),
        volume=volume,
        log_volume=log_v,
        d_min=ball_diameter_from_log(log_v, slice_.n_indicators),
        n_indicators=slice_.n_indicators,
    )


def distances_to_csv(slice_: PeriodSlice) -> str:
    """The slice's distance matrix as CSV with unit labels: the text of
    distance_csv_chunks, in one string."""
    return "".join(distance_csv_chunks(slice_, [csv_field(unit) for unit in slice_.units]))
