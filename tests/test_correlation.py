import math
import statistics
import warnings

import numpy as np
import pytest

import adaptometry as am
from adaptometry.correlation import ZeroVarianceError, matrix_to_csv
from oracles import oracle_pearson, oracle_total_weight

# Computed by the stdlib-statistics brute-force oracle over the 17-indicator
# panel (ids 17 and 19 removed); the published figure prints no numbers.
WEIGHT_SERIES_EXCLUDED = (11.457494, 18.850171, 17.689328, 18.959980)

FEAR1_2009 = (54, 65, 51, 62, 60, 64)
FEAR2_2009 = (44, 43, 35, 46, 46, 44)
FEAR3_2009 = (33, 20, 32, 29, 24, 27)


def random_slice(seed, m=6, n=8):
    rng = np.random.default_rng(seed)
    return am.PeriodSlice(
        period="p00",
        units=tuple(f"u{k}" for k in range(m)),
        indicator_ids=tuple(range(1, n + 1)),
        matrix=rng.uniform(0, 100, size=(m, n)),
    )


class TestPearson:
    def test_published_positive_pair(self):
        assert am.pearson(FEAR1_2009, FEAR2_2009) == pytest.approx(0.66, abs=0.005)

    def test_published_negative_pair(self):
        assert am.pearson(FEAR1_2009, FEAR3_2009) == pytest.approx(-0.79, abs=0.005)

    def test_self_correlation(self):
        assert am.pearson(FEAR1_2009, FEAR1_2009) == pytest.approx(1.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            am.pearson([1, 2, 3], [1, 2])

    def test_too_short(self):
        with pytest.raises(ValueError, match="2 observations"):
            am.pearson([1.0], [2.0])

    def test_zero_variance(self):
        with pytest.raises(ZeroVarianceError):
            am.pearson([5, 5, 5], [1, 2, 3])

    def test_huge_values(self):
        # the squares of 1e200 overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert am.pearson([1e200, -1e200, 0], [1, 2, 3]) == pytest.approx(-0.5, abs=1e-15)

    @pytest.mark.parametrize("sample", ["x", "y"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_error(self, bad, sample):
        values = [[bad, 1.0, 2.0], [1.0, 2.0, 3.0]]
        if sample == "y":
            values.reverse()
        with pytest.raises(ValueError, match="non-finite"):
            am.pearson(*values)

    @pytest.mark.parametrize("value, m", [(0.7, 3), (0.1, 6), (33.3, 6)])
    def test_inexact_constant_is_zero_variance(self, value, m):
        # the mean of these constants is inexact, so the centered values are not 0
        with pytest.raises(ZeroVarianceError):
            am.pearson([value] * m, range(m))
        with pytest.raises(ZeroVarianceError):
            am.pearson(range(m), [value] * m)

    @pytest.mark.parametrize("seed", range(100))
    def test_symmetry_and_affine_invariance(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.integers(3, 11)
        x = rng.normal(size=m)
        y = rng.normal(size=m)
        a = rng.uniform(0.1, 5.0)
        b = rng.uniform(-10, 10)
        r = am.pearson(x, y)
        assert am.pearson(y, x) == pytest.approx(r, abs=1e-12)
        assert am.pearson(a * x + b, y) == pytest.approx(r, abs=1e-9)
        assert am.pearson(-a * x + b, y) == pytest.approx(-r, abs=1e-9)

    @pytest.mark.parametrize("seed", range(30))
    def test_stable_under_unit_reordering(self, seed):
        rng = np.random.default_rng(1000 + seed)
        x = rng.normal(size=8)
        y = rng.normal(size=8)
        perm = rng.permutation(8)
        assert am.pearson(x[perm], y[perm]) == pytest.approx(am.pearson(x, y), abs=1e-12)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_stdlib_oracle(self, seed):
        rng = np.random.default_rng(2000 + seed)
        x = rng.uniform(0, 100, size=6)
        y = rng.uniform(0, 100, size=6)
        assert am.pearson(x, y) == pytest.approx(oracle_pearson(x, y), abs=1e-10)

    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("value", [0.7, 0.1, 33.3])
    def test_oracle_rejects_constant_columns(self, value, n):
        varying = [10.0, 25.0, 40.0, 45.0, 70.0, 90.0][:n]
        for x, y in [([value] * n, varying), (varying, [value] * n), ([value] * n, [0.1] * n)]:
            with pytest.raises(statistics.StatisticsError, match="constant"):
                oracle_pearson(x, y)


class TestThresholdGate:
    """The strict gate |r| > r0, as build_network applies it to one pair."""

    def edges(self, r, r0):
        mat = am.CorrelationMatrix((1, 2), np.array([[1.0, r], [r, 1.0]]), frozenset())
        return len(am.build_network(mat, r0).edges)

    def test_above(self):
        assert self.edges(0.71, 0.7) == 1

    def test_boundary_is_excluded(self):
        assert self.edges(0.70, 0.7) == 0

    def test_strong_negative_counts(self):
        assert self.edges(-0.93, 0.7) == 1


class TestCorrelationMatrix:
    @pytest.mark.parametrize("period", ["2010-03", "2012-07"])
    def test_published_matrices(self, panel, golden_corr, period):
        mat = am.correlation_matrix(am.slice_period(panel, period))
        assert np.abs(mat.values - golden_corr[period]).max() <= 0.005 + 1e-12

    def test_affine_dependence(self):
        s = am.PeriodSlice(
            period="p",
            units=("a", "b", "c"),
            indicator_ids=(1, 2),
            matrix=np.array([[1.0, 5.0], [2.0, 7.0], [4.0, 11.0]]),  # y = 2x + 3
        )
        mat = am.correlation_matrix(s)
        assert mat.values[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_unit_diagonal(self, panel):
        mat = am.correlation_matrix(am.slice_period(panel, "2009-08"))
        assert np.array_equal(mat.values, mat.values.T)
        assert np.all(np.diag(mat.values) == 1.0)
        assert np.nanmax(np.abs(mat.values)) <= 1.0

    def test_zero_variance_undefined_policy(self):
        s = random_slice(0)
        m = s.matrix.copy()
        m[:, 2] = 42.0
        flat = am.PeriodSlice(s.period, s.units, s.indicator_ids, m)
        mat = am.correlation_matrix(flat)
        assert all(3 in pair for pair in mat.undefined_pairs)
        assert len(mat.undefined_pairs) == s.n_indicators - 1
        assert math.isnan(mat.values[0, 2])
        assert not math.isnan(mat.values[0, 1])

    @pytest.mark.parametrize("m", [3, 6])
    def test_inexact_constants_are_undefined(self, m):
        s = random_slice(1, m=m, n=4)
        matrix = s.matrix.copy()
        matrix[:, 2], matrix[:, 3] = 0.7, 0.1
        flat = am.PeriodSlice(s.period, s.units, s.indicator_ids, matrix)
        mat = am.correlation_matrix(flat)
        assert mat.undefined_pairs == {(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}
        assert np.isnan(mat.values[2:]).all() and np.isnan(mat.values[:, 2:]).all()
        assert am.build_network(mat, 0.7).edges == ()

    def test_tiny_values(self):
        # the squares of 1e-200 underflow to 0
        s = am.PeriodSlice(
            period="p",
            units=("a", "b", "c"),
            indicator_ids=(1, 2, 3),
            matrix=np.array([[1e-200, 1.0, 2.0], [3e-200, 2.0, 4.0], [2e-200, 3.0, 6.0]]),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mat = am.correlation_matrix(s)
        assert mat.values[0, 1] == pytest.approx(0.5, abs=1e-15)
        assert [(e.i, e.j) for e in am.build_network(mat, 0.7).edges] == [(2, 3)]

    @pytest.mark.parametrize("exponent", [-960, -600, 600, 960])
    def test_power_of_two_column_scale_changes_no_bit(self, exponent):
        s = random_slice(2)
        matrix = s.matrix.copy()
        matrix[:, 1] *= 2.0**exponent
        scaled = am.PeriodSlice(s.period, s.units, s.indicator_ids, matrix)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(am.correlation_matrix(scaled).values,
                                  am.correlation_matrix(s).values)

    def test_single_unit_is_error(self):
        with pytest.raises(ValueError, match="need at least 2 units"):
            am.correlation_matrix(am.PeriodSlice("p", ("a",), (1, 2), np.array([[1.0, 2.0]])))

    def test_csv_export(self, panel):
        mat = am.correlation_matrix(am.slice_period(panel, "2009-08"))
        lines = matrix_to_csv(mat).splitlines()
        assert lines[0].startswith("indicator_id,1,2,")
        assert len(lines) == 20
        assert lines[1].split(",")[1] == "1.00"


class TestBuildNetwork:
    def test_published_weight(self, panel):
        net = am.build_network(am.correlation_matrix(am.slice_period(panel, "2010-03")), 0.7)
        assert net.total_weight == pytest.approx(23.20, abs=0.30)

    def test_all_subthreshold(self):
        mat = am.correlation_matrix(random_slice(3, m=50, n=5))
        # m=50 iid uniforms: every |r| far below 0.99
        net = am.build_network(mat, 0.99)
        assert net.total_weight == 0.0
        assert net.edges == ()

    def test_three_indicator_toy(self):
        ids = (1, 2, 3)
        values = np.array([[1.0, 0.8, 0.9], [0.8, 1.0, 0.65], [0.9, 0.65, 1.0]])
        mat = am.CorrelationMatrix(ids, values, frozenset())
        net = am.build_network(mat, 0.7)
        assert net.total_weight == pytest.approx(1.70, abs=1e-12)
        assert net.degrees == {1: 2, 2: 1, 3: 1}
        assert [tuple(e) for e in net.edges] == [(1, 2, 0.8), (1, 3, 0.9)]

    def test_undefined_pairs_never_contribute(self):
        s = random_slice(5)
        m = s.matrix.copy()
        m[:, 0] = 7.0
        mat = am.correlation_matrix(
            am.PeriodSlice(s.period, s.units, s.indicator_ids, m)
        )
        net = am.build_network(mat, 0.1)
        assert all(1 not in (e.i, e.j) for e in net.edges)

    @pytest.mark.parametrize("seed", range(100))
    def test_invariants_random_panels(self, seed):
        rng = np.random.default_rng(3000 + seed)
        s = random_slice(seed, m=int(rng.integers(3, 11)), n=int(rng.integers(2, 13)))
        mat = am.correlation_matrix(s)
        r0 = float(rng.uniform(0.1, 0.95))
        net = am.build_network(mat, r0)
        n = s.n_indicators
        # weight bounds
        assert net.total_weight <= n * (n - 1) / 2 + 1e-12
        assert net.total_weight >= r0 * len(net.edges)
        if net.edges:
            assert net.total_weight > r0 * len(net.edges)
        # edge predicate and degree bookkeeping
        assert all(e.weight > r0 and e.i < e.j for e in net.edges)
        assert sum(net.degrees.values()) == 2 * len(net.edges)
        assert net.total_weight == pytest.approx(sum(e.weight for e in net.edges))
        # monotonicity in r0
        tighter = am.build_network(mat, min(0.99, r0 + 0.1))
        assert tighter.total_weight <= net.total_weight + 1e-12
        # permutation invariance
        perm = rng.permutation(n)
        permuted = am.PeriodSlice(
            s.period, s.units, tuple(s.indicator_ids[k] for k in perm), s.matrix[:, perm]
        )
        net_p = am.build_network(am.correlation_matrix(permuted), r0)
        assert net_p.total_weight == pytest.approx(net.total_weight, abs=1e-9)
        assert net_p.degrees == net.degrees

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_pair_loop_exactly(self, seed):
        # a one-factor panel with some constant columns: many edges, some undefined pairs
        rng = np.random.default_rng(7000 + seed)
        m, n = int(rng.integers(3, 40)), int(rng.integers(2, 60))
        values = rng.normal(0, float(rng.uniform(0.5, 5)), (m, 1)) + rng.normal(0, 1, (m, n))
        values[:, rng.random(n) < 0.1] = 3.0
        ids = tuple(int(i) for i in rng.choice(1000, n, replace=False))
        mat = am.correlation_matrix(am.PeriodSlice("p", tuple(range(m)), ids, values))
        r0 = float(rng.uniform(0.05, 0.95))
        edges, degrees, total = [], {i: 0 for i in ids}, 0.0
        for a in range(n):
            for b in range(a + 1, n):
                r = mat.values[a, b]
                if math.isnan(r) or abs(r) <= r0:
                    continue
                edges.append((ids[a], ids[b], abs(float(r))))
                degrees[ids[a]] += 1
                degrees[ids[b]] += 1
                total += abs(float(r))
        net = am.build_network(mat, r0)
        assert [tuple(e) for e in net.edges] == edges
        assert all(type(x) is type(y) for e, f in zip(net.edges, edges) for x, y in zip(e, f))
        assert list(net.degrees.items()) == list(degrees.items())
        assert all(type(d) is int for d in net.degrees.values())
        assert repr(net.total_weight) == repr(total)

    def test_threshold_is_strict_for_both_signs(self):
        values = np.array([[1.0, 0.5, -0.5], [0.5, 1.0, -0.50001], [-0.5, -0.50001, 1.0]])
        net = am.build_network(am.CorrelationMatrix((1, 2, 3), values, frozenset()), 0.5)
        assert [tuple(e) for e in net.edges] == [(2, 3, 0.50001)]
        assert net.degrees == {1: 0, 2: 1, 3: 1}
        assert net.total_weight == 0.50001

    @pytest.mark.parametrize("r0", [0.0, 1.0, -0.1, math.nan])
    def test_threshold_outside_open_unit_interval_is_error(self, r0):
        mat = am.correlation_matrix(random_slice(0))
        with pytest.raises(ValueError, match="threshold"):
            am.build_network(mat, r0)

    def test_degree_parity_reference_panel(self, panel):
        for period in panel.periods:
            net = am.build_network(am.correlation_matrix(am.slice_period(panel, period)))
            assert sum(net.degrees.values()) % 2 == 0


class TestDegreeCounts:
    def report_ids(self):
        return [i for i in range(1, 20) if i not in (17, 19)]

    def test_published_fear1(self, panel):
        net = am.build_network(am.correlation_matrix(am.slice_period(panel, "2009-08")))
        counts, _ = am.degree_counts(net, self.report_ids())
        assert counts[1] == 3

    def test_edges_to_unreported_indicators_count(self, panel):
        net = am.build_network(am.correlation_matrix(am.slice_period(panel, "2009-08")))
        counts, total = am.degree_counts(net, self.report_ids())
        # indicator 12 links to 4, 9 and to the unreported 17
        assert counts[12] == 3
        assert {tuple(sorted((e.i, e.j))) for e in net.edges if 12 in (e.i, e.j)} == {
            (4, 12), (9, 12), (12, 17),
        }
        assert total == sum(counts.values())

    def test_empty_network(self):
        mat = am.correlation_matrix(random_slice(7, m=50, n=4))
        net = am.build_network(mat, 0.99)
        counts, total = am.degree_counts(net, [1, 2, 3, 4])
        assert counts == {1: 0, 2: 0, 3: 0, 4: 0}
        assert total == 0

    def test_unknown_id(self, panel):
        net = am.build_network(am.correlation_matrix(am.slice_period(panel, "2009-08")))
        with pytest.raises(ValueError, match="99"):
            am.degree_counts(net, [99])


class TestWeightSeries:
    def test_reference_series(self, panel):
        series = am.weight_series(panel, 0.7)
        assert [p for p, _ in series] == list(panel.periods)
        expected = (15.72, 23.20, 22.91, 25.78)
        for (_, w), e in zip(series, expected):
            assert w == pytest.approx(e, abs=0.30)

    def test_single_indicator_left(self, panel):
        series = am.weight_series(panel, 0.7, exclude=set(range(2, 20)))
        assert all(w == 0.0 for _, w in series)

    def test_excluded_series_matches_oracle(self, panel):
        series = am.weight_series(panel, 0.7, exclude={17, 19})
        for (_, w), frozen in zip(series, WEIGHT_SERIES_EXCLUDED):
            assert w == pytest.approx(frozen, abs=1e-4)

    def test_oracle_agreement_live(self, panel):
        reduced = am.exclude_indicators(panel, {17, 19})
        for period, w in am.weight_series(panel, 0.7, exclude={17, 19}):
            s = am.slice_period(reduced, period)
            assert w == pytest.approx(oracle_total_weight(s.matrix.tolist()), abs=1e-9)
