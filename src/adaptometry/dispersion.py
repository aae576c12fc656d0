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

import numpy as np

from .panel import PeriodSlice, csv_field, fixed_decimal_rows


@dataclass(frozen=True)
class DispersionSummary:
    period: str
    units: tuple[str, ...]
    distance_matrix: np.ndarray  # (m, m), symmetric, zero diagonal
    d_max: float
    volume: float  # may be inf when the product overflows double range
    log_volume: float  # -inf when the volume is zero
    d_min: float
    n_indicators: int


# Elements in one block's difference temporary; blocks of 2**18 and 2**20
# were slower on 300 x 150 slices.
_BLOCK_ELEMENTS = 2**16


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
    rows = max(1, _BLOCK_ELEMENTS // max(m * n, 1))
    for s in range(0, m, rows):
        e = min(s + rows, m)
        diff = pts[s:e, None, :] - pts[None, s:, :]
        np.multiply(diff, diff, out=diff)
        block = np.sqrt(diff.sum(axis=2))
        out[s:e, s:] = block
        out[s:, s:e] = block.T
    return out


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
    dm = distance_matrix(slice_)
    log_v = log_bounding_volume(slice_)
    return DispersionSummary(
        period=slice_.period,
        units=slice_.units,
        distance_matrix=dm,
        d_max=float(dm.max()),
        volume=math.exp(log_v) if log_v < 709 else math.inf,
        log_volume=log_v,
        d_min=ball_diameter_from_log(log_v, slice_.n_indicators),
        n_indicators=slice_.n_indicators,
    )


def distances_to_csv(summary: DispersionSummary) -> str:
    """Render the symmetric distance matrix as CSV with unit labels.

    Entries read as ``"%.2f"`` writes them (see fixed_decimal_rows); NaN,
    which no distance between valid units is, as an empty field.
    """
    labels = [csv_field(unit) for unit in summary.units]
    header = ",".join(["unit", *labels]) + "\n"
    return header + fixed_decimal_rows(labels, summary.distance_matrix)
