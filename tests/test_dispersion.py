import math
import tracemalloc

import numpy as np
import pytest

import adaptometry as am
from adaptometry.dispersion import (
    ball_diameter_from_log,
    dispersion_summary,
    distances_to_csv,
    log_bounding_volume,
)
from oracles import (
    oracle_ball_diameter,
    oracle_distance,
    oracle_gamma_half_integer,
    oracle_volume,
)

# d_min over all 19 indicators, computed by the plain-arithmetic oracle;
# the published dispersion figure prints no axis values.
DMIN_SERIES_FULL = (15.546886, 20.289219, 17.302960, 20.130861)


def random_slice(seed, m=5, n=6, scale=100.0):
    rng = np.random.default_rng(seed)
    return am.PeriodSlice(
        period="p00",
        units=tuple(f"u{k}" for k in range(m)),
        indicator_ids=tuple(range(1, n + 1)),
        matrix=rng.uniform(0, scale, size=(m, n)),
    )


def pair_distance(u, v):
    """distance_matrix on the 2-unit slice of u and v."""
    pts = np.array([u, v], dtype=float)
    s = am.PeriodSlice("p", ("u", "v"), tuple(range(1, pts.shape[1] + 1)), pts)
    return am.distance_matrix(s)[0, 1]


class TestEuclideanDistance:
    def test_published_pair_full_indicator_set(self, panel):
        s = am.slice_period(panel, "2009-08")
        d = am.distance_matrix(s)[0, 1]  # West, Centre
        assert d == pytest.approx(21.70, abs=0.50)
        # recomputation over all 19 indicators gives 21.79
        assert d == pytest.approx(21.79, abs=0.01)

    def test_identical_vectors(self):
        assert pair_distance([1, 2, 3], [1, 2, 3]) == 0.0

    def test_3_4_5_triangle(self):
        assert pair_distance([0, 0], [3, 4]) == pytest.approx(5.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        u, v = rng.uniform(-50, 50, size=(2, 7))
        assert pair_distance(u, v) == pytest.approx(oracle_distance(u, v), abs=1e-10)


class TestDistanceMatrix:
    def test_published_2012_rows(self, panel, published_distances):
        # the published distance table was computed after removing
        # indicators 17 and 19; on all 19 the deviations exceed 0.50
        reduced = am.exclude_indicators(panel, {17, 19})
        s = am.slice_period(reduced, "2012-07")
        dm = am.distance_matrix(s)
        for (a, b), by_period in published_distances.items():
            d = dm[s.units.index(a), s.units.index(b)]
            assert d == pytest.approx(by_period["2012-07"], abs=0.50)

    def test_published_spot_2011(self, panel):
        reduced = am.exclude_indicators(panel, {17, 19})
        s = am.slice_period(reduced, "2011-03")
        dm = am.distance_matrix(s)
        d = dm[s.units.index("East"), s.units.index("South")]
        assert d == pytest.approx(11.87, abs=0.50)

    def test_two_units(self):
        s = random_slice(1, m=2)
        dm = am.distance_matrix(s)
        assert dm.shape == (2, 2)
        assert dm[0, 1] == dm[1, 0] > 0

    @pytest.mark.parametrize("seed", range(100))
    def test_metric_axioms(self, seed):
        rng = np.random.default_rng(seed)
        s = random_slice(seed, m=int(rng.integers(3, 11)), n=int(rng.integers(1, 13)))
        dm = am.distance_matrix(s)
        m = s.n_units
        assert np.array_equal(dm, dm.T)
        assert np.all(np.diag(dm) == 0.0)
        assert np.all(dm >= 0.0)
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    assert dm[a, c] <= dm[a, b] + dm[b, c] + 1e-9

    # blocks hold 2**16 differences, so rows per block = max(1, 2**16 // (m * n))
    BLOCKED_SHAPES = {
        "partial last block": (100, 20),  # 32 rows per block, last block 4 rows
        "one row per block": (40, 2000),
        "two units": (2, 5),
        "two units, one row per block": (2, 40_000),
        "one indicator": (500, 1),  # 131 rows per block, last block 107 rows
    }

    @pytest.mark.parametrize("m,n", BLOCKED_SHAPES.values(), ids=BLOCKED_SHAPES.keys())
    def test_blocked_kernel_matches_broadcast_exactly(self, m, n):
        s = random_slice(m * n, m=m, n=n)
        diff = s.matrix[:, None, :] - s.matrix[None, :, :]  # the (m, m, n) reference form
        assert np.array_equal(am.distance_matrix(s), np.sqrt((diff * diff).sum(axis=2)))

    @pytest.mark.parametrize("m,n", BLOCKED_SHAPES.values(), ids=BLOCKED_SHAPES.keys())
    def test_blocked_kernel_matches_oracle(self, m, n):
        s = random_slice(m * n + 1, m=m, n=n)
        dm = am.distance_matrix(s)
        rows = s.matrix.tolist()
        for a in range(m):
            for b in range(a, m):
                expected = oracle_distance(rows[a], rows[b])
                assert dm[a, b] == dm[b, a] == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_single_unit_is_error(self):
        with pytest.raises(ValueError, match="need at least 2 units"):
            am.distance_matrix(random_slice(0, m=1))

    def test_no_indicators_gives_zeros(self):
        s = am.PeriodSlice("p", ("a", "b", "c"), (), np.empty((3, 0)))
        dm = am.distance_matrix(s)
        assert dm.shape == (3, 3)
        assert not dm.any()

    def test_memory_is_quadratic_in_units_only(self):
        # numpy reports its buffers to tracemalloc; an (m, m, n) temporary here is 192 MB
        m, n = 400, 150
        s = random_slice(3, m=m, n=n)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            am.distance_matrix(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * m * 8 + 4 * 2**20

    def test_csv_export(self, panel):
        summary = dispersion_summary(am.slice_period(panel, "2009-08"))
        lines = distances_to_csv(summary).splitlines()
        assert lines[0] == "unit,West,Centre,North,East,South,Donbas"
        assert lines[1].split(",")[1] == "0.00"


class TestMaxDistance:
    def test_published_maxima(self, panel):
        reduced = am.exclude_indicators(panel, {17, 19})
        for period, published in (("2010-03", 46.16), ("2009-08", 31.59)):
            s = am.slice_period(reduced, period)
            assert dispersion_summary(s).d_max == pytest.approx(published, abs=0.50)

    def test_identical_units(self):
        s = am.PeriodSlice("p", ("a", "b", "c"), (1, 2), np.full((3, 2), 4.0))
        assert dispersion_summary(s).d_max == 0.0


class TestBoundingVolume:
    def test_constant_indicator_gives_zero(self):
        s = random_slice(2)
        m = s.matrix.copy()
        m[:, 3] = 9.0
        assert dispersion_summary(am.PeriodSlice(s.period, s.units, s.indicator_ids, m)).volume == 0.0

    def test_rectangle(self):
        s = am.PeriodSlice("p", ("a", "b"), (1, 2), np.array([[0.0, 0.0], [2.0, 5.0]]))
        assert dispersion_summary(s).volume == pytest.approx(10.0)

    def test_reference_period_matches_oracle(self, panel):
        s = am.slice_period(panel, "2009-08")
        assert dispersion_summary(s).volume == pytest.approx(
            oracle_volume(s.matrix.tolist()), rel=1e-12
        )

    def test_overflow_is_inf_without_warning(self):
        # 90**200 exceeds double range; the product form overflowed with a RuntimeWarning
        matrix = np.vstack([np.zeros(200), np.full(200, 90.0)])
        s = am.PeriodSlice("p", ("a", "b"), tuple(range(1, 201)), matrix)
        summary = dispersion_summary(s)
        assert summary.volume == math.inf
        assert summary.log_volume == pytest.approx(200 * math.log(90.0), rel=1e-12)

    def test_log_volume_consistent(self, panel):
        s = am.slice_period(panel, "2009-08")
        assert log_bounding_volume(s) == pytest.approx(
            math.log(dispersion_summary(s).volume), rel=1e-12
        )


class TestLogGammaHalfInteger:
    def test_gamma_2(self):
        assert am.log_gamma_half_integer(4) == 0.0  # Gamma(2) = 1

    def test_gamma_three_halves(self):
        assert am.log_gamma_half_integer(3) == pytest.approx(
            math.log(math.sqrt(math.pi) / 2), abs=1e-12
        )

    def test_gamma_half(self):
        assert am.log_gamma_half_integer(1) == pytest.approx(0.5 * math.log(math.pi), abs=1e-12)

    def test_n19_case_against_product_oracle(self):
        # Gamma(21/2) = 9.5 * 8.5 * ... * 0.5 * sqrt(pi) ~= 1.1333e6
        got = am.log_gamma_half_integer(21)
        assert got == pytest.approx(math.log(oracle_gamma_half_integer(21)), rel=1e-12)
        assert got == pytest.approx(13.9406, abs=5e-4)

    @pytest.mark.parametrize("twice_x", range(1, 61))
    def test_matches_oracle_everywhere(self, twice_x):
        assert am.log_gamma_half_integer(twice_x) == pytest.approx(
            math.log(oracle_gamma_half_integer(twice_x)), rel=1e-12
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            am.log_gamma_half_integer(0)
        with pytest.raises(ValueError):
            am.log_gamma_half_integer(-3)


class TestBallDiameter:
    def test_dimension_one_identity(self):
        for a in (0.5, 1.0, 37.2):
            assert am.ball_diameter(a, 1) == pytest.approx(a, rel=1e-12)

    def test_circle(self):
        assert am.ball_diameter(math.pi, 2) == pytest.approx(2.0, abs=1e-9)

    def test_zero_volume(self):
        assert am.ball_diameter(0.0, 19) == 0.0

    @pytest.mark.parametrize("n", [0, -1])
    def test_nonpositive_dimension(self, n):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            ball_diameter_from_log(1.0, n)

    def test_negative_volume(self):
        with pytest.raises(ValueError):
            am.ball_diameter(-1.0, 3)

    def test_n19_reference_volume_against_plain_oracle(self, panel):
        s = am.slice_period(panel, "2009-08")
        v = dispersion_summary(s).volume
        assert am.ball_diameter(v, 19) == pytest.approx(
            oracle_ball_diameter(v, 19), rel=1e-9
        )

    @pytest.mark.parametrize("n", range(1, 26))
    def test_log_and_plain_agree(self, n):
        for v in (1e-6, 1.0, 3.7e8):
            assert am.ball_diameter(v, n) == pytest.approx(
                oracle_ball_diameter(v, n), rel=1e-9
            )

    @pytest.mark.parametrize("n", range(1, 31))
    def test_cube_diagonal_bound(self, n):
        # ball of the cube's volume is never wider than the cube's diagonal
        for s in (0.3, 1.0, 12.5):
            assert am.ball_diameter(s**n, n) <= s * math.sqrt(n) * (1 + 1e-12)

    def test_no_overflow_for_huge_volume(self):
        d = ball_diameter_from_log(900.0, 25)  # volume beyond double range
        assert math.isfinite(d) and d > 0


class TestDispersionSeries:
    def test_reference_dmax_series(self, panel):
        series = am.dispersion_series(panel, exclude={17, 19})
        expected = (31.59, 46.16, 38.24, 40.72)
        assert [d.period for d in series] == list(panel.periods)
        for summary, e in zip(series, expected):
            assert summary.d_max == pytest.approx(e, abs=0.50)

    def test_reference_dmin_series(self, panel):
        series = am.dispersion_series(panel)
        for summary, frozen in zip(series, DMIN_SERIES_FULL):
            assert summary.d_min == pytest.approx(frozen, abs=1e-4)
            assert summary.d_min == pytest.approx(
                oracle_ball_diameter(summary.volume, summary.n_indicators), rel=1e-9
            )

    def test_single_period(self):
        s = random_slice(11)
        panel = am.IndicatorPanel(
            ("p00",),
            s.units,
            tuple(am.Indicator(i, f"i{i}") for i in s.indicator_ids),
            s.matrix[None, :, :],
        )
        series = am.dispersion_series(panel)
        assert len(series) == 1
        assert series[0].d_max == am.distance_matrix(s).max()

    def test_summary_invariants(self, panel):
        for summary in am.dispersion_series(panel):
            assert summary.d_max == summary.distance_matrix.max()
            assert (summary.d_min == 0.0) == (summary.volume == 0.0)
            assert summary.d_min >= 0.0


class TestScalingAndPermutation:
    @pytest.mark.parametrize("seed", range(50))
    def test_scale_homogeneity(self, seed):
        rng = np.random.default_rng(seed)
        s = random_slice(seed, m=int(rng.integers(2, 9)), n=int(rng.integers(1, 11)), scale=10)
        c = float(rng.uniform(0.2, 5.0))
        scaled = am.PeriodSlice(s.period, s.units, s.indicator_ids, c * s.matrix)
        base, big = dispersion_summary(s), dispersion_summary(scaled)
        assert np.allclose(big.distance_matrix, c * base.distance_matrix, rtol=1e-9)
        assert big.d_max == pytest.approx(c * base.d_max, rel=1e-9)
        assert big.d_min == pytest.approx(c * base.d_min, rel=1e-9)

    @pytest.mark.parametrize("seed", range(50))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(500 + seed)
        s = random_slice(seed, m=6, n=7)
        uperm = rng.permutation(6)
        iperm = rng.permutation(7)
        shuffled = am.PeriodSlice(
            s.period,
            tuple(s.units[k] for k in uperm),
            tuple(s.indicator_ids[k] for k in iperm),
            s.matrix[np.ix_(uperm, iperm)],
        )
        base, mixed = dispersion_summary(s), dispersion_summary(shuffled)
        assert mixed.d_max == pytest.approx(base.d_max, rel=1e-12)
        assert mixed.volume == pytest.approx(base.volume, rel=1e-9)
        assert mixed.d_min == pytest.approx(base.d_min, rel=1e-9)
