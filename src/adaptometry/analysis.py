"""The per-period pipeline: one correlation network and one dispersion summary
per period.

``analyze`` walks the periods of a panel for ``weight_series`` below and
the CLI, which are views over its result. ``synthgen.stress_contrast`` keeps
its own walk: it needs only each period's total weight, which it reads from
the same network, and d_max, which it computes without the distance matrix
that ``analyze`` builds.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

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
) -> Iterator[PeriodResult]:
    """Network and dispersion of each period in turn, after excluding the
    given indicators.

    The periods are computed one at a time as the result is iterated, so a
    caller that keeps only what it needs of each period holds one distance
    matrix at a time; iterate it once, or wrap it in ``list``. Unknown
    ``exclude`` ids raise PanelError here, before the first period.
    """
    reduced = exclude_indicators(panel, exclude)
    slices = (slice_period(reduced, period) for period in reduced.periods)
    return (
        PeriodResult(s.period, build_network(correlation_matrix(s), r0), dispersion_summary(s))
        for s in slices
    )


def weight_series(
    panel: IndicatorPanel,
    r0: float = DEFAULT_THRESHOLD,
    exclude: Iterable[int] = (),
) -> list[tuple[str, float]]:
    """Total network weight per period, after excluding the given indicators."""
    return [(r.period, r.network.total_weight) for r in analyze(panel, r0, exclude)]
