"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's own code paths: correlations come
from the stdlib ``statistics`` module, distances and volumes from plain
Python loops, and the ball diameter from non-log arithmetic with the exact
half-integer gamma product.
"""

import math
import statistics


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
