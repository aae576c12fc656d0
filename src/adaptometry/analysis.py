"""The per-period pipeline: one correlation network and one dispersion summary
per period.

``analyze`` is the only place that walks the periods of a panel; the series
helpers below and the CLI are views over its result.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .correlation import DEFAULT_THRESHOLD, CorrelationNetwork, build_network, correlation_matrix
from .dispersion import DispersionSummary, dispersion_summary
from .panel import IndicatorPanel, exclude_indicators, slice_period


class PeriodResult(NamedTuple):
    period: str
    network: CorrelationNetwork
    dispersion: DispersionSummary


def analyze(
    panel: IndicatorPanel,
    r0: float = DEFAULT_THRESHOLD,
    exclude: Iterable[int] = (),
) -> list[PeriodResult]:
    """Network and dispersion of every period, after excluding the given indicators."""
    reduced = exclude_indicators(panel, exclude)
    results = []
    for period in reduced.periods:
        slice_ = slice_period(reduced, period)
        network = build_network(correlation_matrix(slice_), r0)
        results.append(PeriodResult(period, network, dispersion_summary(slice_)))
    return results


def weight_series(
    panel: IndicatorPanel,
    r0: float = DEFAULT_THRESHOLD,
    exclude: Iterable[int] = (),
) -> list[tuple[str, float]]:
    """Total network weight per period, after excluding the given indicators."""
    return [(r.period, r.network.total_weight) for r in analyze(panel, r0, exclude)]


def dispersion_series(
    panel: IndicatorPanel, exclude: Iterable[int] = ()
) -> list[DispersionSummary]:
    """One DispersionSummary per period, after excluding the given indicators."""
    return [r.dispersion for r in analyze(panel, exclude=exclude)]
