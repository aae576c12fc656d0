"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's own code paths: correlations come
from the stdlib ``statistics`` module, distances and volumes from plain
Python loops, and the ball diameter from non-log arithmetic with the exact
half-integer gamma product. The panel oracle reads a file one line at a
time, keeping each cell in a dict. The stress-contrast oracle is the one
exception: it builds each period's full network and full distance matrix
with the library's kernels, a second path beside ``analyze``, whose d_max
comes from ``max_distance``.
Two CV oracles: ``oracle_cv`` in plain Python, equal to the library's within
rounding, and ``oracle_cv_rowwise``, numpy on one 1-D row at a time, equal
to it bit for bit.
"""

import csv
import math
import statistics

import numpy as np

from adaptometry.correlation import CorrelationMatrix, build_network, correlation_matrix
from adaptometry.dispersion import distance_matrix
from adaptometry.panel import (
    CSV_HEADER, Indicator, IndicatorPanel, PanelError, slice_period, zero_variance,
)
from adaptometry.synthgen import StressContrast, SynthConfigError, generate_panel


def oracle_total_weight(matrix, r0: float = 0.7) -> float:
    """Sum of |r| over supra-threshold pairs; matrix rows are units."""
    m = len(matrix)
    n = len(matrix[0])
    cols = [[matrix[k][i] for k in range(m)] for i in range(n)]
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            r = oracle_pearson(cols[i], cols[j])
            if abs(r) > r0:
                total += abs(r)
    return total


def oracle_pearson(x, y) -> float:
    """Pearson r by the stdlib; raises on a constant column, tested exactly.

    ``statistics.correlation`` raises for some constants only: 0.7 or 0.1
    repeated has an inexact mean, and it returns 0.0 or +-1.0 for them.
    """
    x, y = list(x), list(y)
    if min(x) == max(x) or min(y) == max(y):
        raise statistics.StatisticsError("at least one of the inputs is constant")
    return statistics.correlation(x, y)


def oracle_stress_contrast(config) -> StressContrast:
    """Regime means of each period's network total_weight and d_max, from
    the full network and the full distance matrix of each period."""
    w = {"baseline": [], "stressed": []}
    d = {"baseline": [], "stressed": []}
    panel = generate_panel(config)
    for period, regime in config.periods:
        s = slice_period(panel, period)
        w[regime].append(build_network(correlation_matrix(s)).total_weight)
        d[regime].append(float(distance_matrix(s).max()))
    return StressContrast(
        w_baseline=float(np.mean(w["baseline"])),
        w_stressed=float(np.mean(w["stressed"])),
        d_max_baseline=float(np.mean(d["baseline"])),
        d_max_stressed=float(np.mean(d["stressed"])),
    )


def oracle_generate_panel(config) -> IndicatorPanel:
    """generate_panel's values from its one-expression period formula, each
    period built in fresh arrays and copied in: the bitwise reference for the
    library's in-place periods."""
    rng = np.random.default_rng(config.seed)
    m, n = config.units, config.indicators
    means = np.asarray(config.baseline_means)
    values = np.empty((len(config.periods), m, n))
    for p_i, (label, regime) in enumerate(config.periods):
        stressed = regime == "stressed"
        loading = config.loading_stressed if stressed else config.loading_baseline
        sd = config.noise_sd * (math.sqrt(config.variance_multiplier) if stressed else 1.0)
        factor = rng.standard_normal(m)
        noise = rng.standard_normal((m, n))
        with np.errstate(over="ignore", invalid="ignore"):
            x = means + loading * factor[:, None] + sd * noise
        if np.isnan(x).any():
            raise SynthConfigError(f"period {label}: loading and noise_sd overflow")
        values[p_i] = np.clip(x, 0.0, 100.0)
    width = len(str(m))
    return IndicatorPanel(
        periods=tuple(label for label, _ in config.periods),
        units=tuple(f"u{k + 1:0{width}d}" for k in range(m)),
        indicators=tuple(Indicator(i + 1, f"indicator_{i + 1}") for i in range(n)),
        values=values,
    )


def oracle_correlation_matrix(slice_) -> CorrelationMatrix:
    """correlation_matrix with the column scale from an (m, n) array of |value|
    and the non-constant columns always copied out: the bitwise reference for
    the library's form, which makes neither temporary."""
    m, n = slice_.matrix.shape
    if m < 2:
        raise ValueError("need at least 2 units")
    centered = slice_.matrix - slice_.matrix.mean(axis=0)
    _, exponent = np.frexp(np.abs(centered).max(axis=0))
    np.ldexp(centered, -exponent, out=centered)
    ss = (centered * centered).sum(axis=0)
    constant = zero_variance(slice_.matrix, 0)
    values = np.full((n, n), np.nan)
    ok = np.nonzero(~constant)[0]
    sub = centered[:, ok]
    cov = sub.T @ sub
    norm = np.sqrt(ss[ok])
    corr = cov / np.outer(norm, norm)
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
    values[np.ix_(ok, ok)] = corr
    ids = tuple(slice_.indicator_ids)
    zero = tuple(i for i, c in zip(ids, constant.tolist()) if c)
    return CorrelationMatrix(ids, values, zero)


def oracle_distance(u, v) -> float:
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(u, v)))


def oracle_volume(matrix) -> float:
    """Product of per-column ranges; matrix rows are units."""
    m = len(matrix)
    n = len(matrix[0])
    vol = 1.0
    for i in range(n):
        col = [matrix[k][i] for k in range(m)]
        vol *= max(col) - min(col)
    return vol


def oracle_gamma_half_integer(twice_x: int) -> float:
    """Gamma(twice_x / 2) via the exact product recursion, plain arithmetic."""
    assert twice_x > 0
    if twice_x % 2 == 0:
        return float(math.factorial(twice_x // 2 - 1))
    value = math.sqrt(math.pi)
    k = twice_x - 2
    while k >= 1:
        value *= k / 2.0
        k -= 2
    return value


def oracle_ball_diameter(volume: float, n: int) -> float:
    """Plain (non-log) evaluation of the equal-volume ball diameter."""
    if volume == 0.0:
        return 0.0
    gamma = oracle_gamma_half_integer(n + 2)  # Gamma(n/2 + 1)
    return 2.0 * gamma ** (1.0 / n) / math.sqrt(math.pi) * volume ** (1.0 / n)


def oracle_cv(values, estimator: str) -> float:
    mean = sum(values) / len(values)
    ss = sum((v - mean) ** 2 for v in values)
    if estimator == "sample":
        ss /= len(values) - 1
    return math.sqrt(ss) / mean


def oracle_cv_rowwise(values, estimator: str) -> float:
    """One row's CV by numpy, one 1-D row at a time: the bitwise reference for
    the library's array pass. Raises ValueError where the CV is undefined."""
    x = np.asarray(values, dtype=float)
    mean = float(x.mean())
    if mean <= 0.0:
        raise ValueError(f"mean {mean} <= 0, CV undefined")
    ss = float(((x - mean) ** 2).sum())
    if estimator == "sample":
        ss /= x.size - 1
    return math.sqrt(ss) / mean


def oracle_parse_panel(csv_text: str) -> IndicatorPanel:
    """parse_panel one line at a time, with an error message for each way a
    file can be wrong: a dict of cells and a check per row, in row order."""
    lines = enumerate(csv_text.splitlines(), start=1)
    first = next(((n, line) for n, line in lines if not line.lstrip().startswith("#")), None)
    if first is None:
        raise PanelError("empty input")
    header = _oracle_csv_row(*first)
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise PanelError(
            f"malformed header {header!r}, expected {','.join(CSV_HEADER)}"
        )

    indicators: dict[int, str] = {}  # id -> name
    # label -> position, in first-appearance order
    periods: dict[str, int] = {}
    units: dict[str, int] = {}
    ind_index: dict[int, int] = {}
    cells: dict[tuple[int, int, int], float] = {}  # (period, unit, indicator) positions
    for lineno, line in lines:
        if "#" in line and line.lstrip().startswith("#"):
            continue
        row = _oracle_csv_row(lineno, line) if '"' in line else line.split(",")
        if not "".join(row).strip():
            continue
        if len(row) != 5:
            raise PanelError(f"row {lineno}: expected 5 fields, got {len(row)}")
        period, unit, raw_id, name, raw_value = map(str.strip, row)
        try:
            ind_id = int(raw_id)
        except ValueError:
            raise PanelError(f"row {lineno}: non-integer indicator_id {raw_id!r}") from None
        try:
            value = float(raw_value)
        except ValueError:
            raise PanelError(f"row {lineno}: non-numeric value {raw_value!r}") from None
        if not 0.0 <= value <= 100.0:  # also false for NaN
            raise PanelError(f"row {lineno}: value {value} outside [0, 100]")
        known = indicators.setdefault(ind_id, name)
        if known != name:
            raise PanelError(f"row {lineno}: indicator {ind_id} renamed {known!r} -> {name!r}")
        cell = (
            periods.setdefault(period, len(periods)),
            units.setdefault(unit, len(units)),
            ind_index.setdefault(ind_id, len(ind_index)),
        )
        if cell in cells:
            raise PanelError(f"row {lineno}: duplicate cell {(period, unit, ind_id)}")
        cells[cell] = value

    if not cells:
        raise PanelError("no data rows")
    shape = (len(periods), len(units), len(indicators))
    at = tuple(np.array(list(cells), dtype=np.intp).T)
    seen = np.zeros(shape, dtype=bool)
    seen[at] = True
    if not seen.all():
        p_i, u_i, i_i = np.unravel_index(np.argmin(seen), shape)  # first gap, C order
        raise PanelError(
            f"missing cell (period={list(periods)[p_i]}, unit={list(units)[u_i]}, "
            f"indicator={list(indicators)[i_i]})"
        )
    values = np.empty(shape)
    values[at] = list(cells.values())
    return IndicatorPanel(
        periods=tuple(periods),
        units=tuple(units),
        indicators=tuple(Indicator(i, name) for i, name in indicators.items()),
        values=values,
    )


def _oracle_csv_row(lineno: int, line: str) -> list[str]:
    try:
        return next(csv.reader([line]), [])
    except csv.Error as exc:  # a quoted field longer than csv.field_size_limit()
        raise PanelError(f"row {lineno}: {exc}") from None
