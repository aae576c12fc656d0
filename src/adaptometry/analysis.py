"""The per-period pipeline: one correlation network and one dispersion summary
per period.

``analyze`` is the one walk over the periods of a panel: ``weight_series``
below, ``synthgen.stress_contrast`` and the CLI are views over its result.
No result holds a distance matrix; a caller that wants one builds it from
the period's slice with ``dispersion.distance_matrix``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .correlation import DEFAULT_THRESHOLD, CorrelationNetwork, build_network, correlation_matrix
from .dispersion import DispersionSummary, dispersion_summary
from .panel import IndicatorPanel, PeriodSlice, exclude_indicators, slice_period


class PeriodResult(NamedTuple):
    period: str
    network: CorrelationNetwork
    dispersion: DispersionSummary
    slice: PeriodSlice  # the period's units x indicators, after ``exclude``


def analyze(
    panel: IndicatorPanel,
    r0: float = DEFAULT_THRESHOLD,
    exclude: Iterable[int] = (),
) -> Iterator[PeriodResult]:
    """Network and dispersion of each period in turn, after excluding the
    given indicators.

    The periods are computed one at a time as the result is iterated, and
    no result holds an array of size m**2 in the m units; iterate it once,
    or wrap it in ``list``. Unknown ``exclude`` ids raise PanelError here,
    before the first period.
    """
    reduced = exclude_indicators(panel, exclude)
    slices = (slice_period(reduced, period) for period in reduced.periods)
    # keywords evaluate as written: d_max's temporaries go before the network comes
    return (
        PeriodResult(s.period, dispersion=dispersion_summary(s),
                     network=build_network(correlation_matrix(s), r0), slice=s)
        for s in slices
    )


def weight_series(
    panel: IndicatorPanel,
    r0: float = DEFAULT_THRESHOLD,
    exclude: Iterable[int] = (),
) -> list[tuple[str, float]]:
    """Total network weight per period, after excluding the given indicators."""
    return [(r.period, r.network.total_weight) for r in analyze(panel, r0, exclude)]
