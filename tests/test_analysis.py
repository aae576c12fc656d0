"""The per-period pipeline against the brute-force oracles, and the views
that read it."""

import tracemalloc

import numpy as np
import pytest

import adaptometry as am
from adaptometry.correlation import DEFAULT_THRESHOLD
from oracles import oracle_ball_diameter, oracle_distance, oracle_total_weight, oracle_volume


@pytest.mark.parametrize("exclude", [(), (17, 19)], ids=["all", "without 17 and 19"])
def test_every_period_matches_oracles(panel, exclude):
    reduced = am.exclude_indicators(panel, exclude)
    results = list(am.analyze(panel, exclude=exclude))
    assert [r.period for r in results] == list(panel.periods)
    for rows, (period, network, dispersion, _) in zip(reduced.values.tolist(), results):
        assert network.total_weight == pytest.approx(oracle_total_weight(rows), rel=1e-12)
        d_max = max(oracle_distance(u, v) for u in rows for v in rows)
        assert dispersion.d_max == pytest.approx(d_max, rel=1e-12)
        volume = oracle_volume(rows)
        assert dispersion.volume == pytest.approx(volume, rel=1e-12)
        assert dispersion.d_min == pytest.approx(
            oracle_ball_diameter(volume, reduced.n_indicators), rel=1e-9
        )


def test_series_are_views_of_analyze(panel):
    results = list(am.analyze(panel, 0.6, {17}))
    assert am.weight_series(panel, 0.6, {17}) == [
        (r.period, r.network.total_weight) for r in results
    ]
    series = [r.dispersion for r in am.analyze(panel, exclude={17})]
    assert [(d.period, d.d_max, d.d_min) for d in series] == [
        (r.period, r.dispersion.d_max, r.dispersion.d_min) for r in results
    ]


def test_results_hold_no_unit_by_unit_matrix():
    # the peak of all the results of 4 periods of 400 x 20 against those of
    # the first period alone, within less than one 400 x 400 matrix
    m = 400
    config = am.SynthConfig(
        units=m, indicators=20,
        periods=tuple((f"2020-0{k}", ("baseline", "stressed")[k % 2]) for k in range(1, 5)),
        baseline_means=(50.0,) * 20, noise_sd=4.0, loading_baseline=0.0,
        loading_stressed=15.0, variance_multiplier=2.0, seed=1,
    )
    panel = am.generate_panel(config)
    first = am.IndicatorPanel(panel.periods[:1], panel.units, panel.indicators, panel.values[:1])
    peaks = {}
    for name, p in (("four", panel), ("first", first)):
        tracemalloc.start()
        try:
            results = list(am.analyze(p))
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(results) == p.n_periods
        del results
    assert peaks["four"] < peaks["first"] + m * m * 8


def test_threshold_reaches_every_network(panel):
    for result in am.analyze(panel, 0.85):
        assert result.network.threshold == 0.85
        assert all(e.weight > 0.85 for e in result.network.edges)


def test_stress_contrast_is_a_regime_average():
    config = am.SynthConfig(
        units=30,
        indicators=6,
        periods=(("p1", "baseline"), ("p2", "stressed"), ("p3", "baseline"), ("p4", "stressed")),
        baseline_means=(50.0,) * 6,
        noise_sd=4.0,
        loading_baseline=0.0,
        loading_stressed=15.0,
        variance_multiplier=2.0,
        seed=3,
    )
    contrast = am.stress_contrast(config)
    b1, s1, b2, s2 = am.analyze(am.generate_panel(config), DEFAULT_THRESHOLD)
    assert contrast.w_baseline == float(np.mean([b1.network.total_weight, b2.network.total_weight]))
    assert contrast.w_stressed == float(np.mean([s1.network.total_weight, s2.network.total_weight]))
    assert contrast.d_max_baseline == float(np.mean([b1.dispersion.d_max, b2.dispersion.d_max]))
    assert contrast.d_max_stressed == float(np.mean([s1.dispersion.d_max, s2.dispersion.d_max]))
