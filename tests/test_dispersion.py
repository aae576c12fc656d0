import math
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import adaptometry as am
from adaptometry import cli as cli_module
from adaptometry import dispersion as dispersion_module
from adaptometry import writers as writers_module
from adaptometry.dispersion import (
    ball_diameter_from_log,
    dispersion_summary,
    distance_csv_chunks,
    distances_to_csv,
    log_bounding_volume,
    max_distance,
)
from adaptometry.writers import csv_field, matrix_csv_chunks
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
        lines = distances_to_csv(am.slice_period(panel, "2009-08")).splitlines()
        assert lines[0] == "unit,West,Centre,North,East,South,Donbas"
        assert lines[1].split(",")[1] == "0.00"


def points_slice(points):
    m, n = points.shape
    return am.PeriodSlice("p", tuple(f"u{k}" for k in range(m)), tuple(range(1, n + 1)), points)


def exact_d_max(s):
    return am.distance_matrix(s).max()


class TestDistanceEntryForms:
    """distance_matrix, and max_distance's recheck through the same kernel,
    sum the rows of an (r, k, n) block of differences; each adds a contiguous
    row of n squares in numpy's order, which is also the order of the 1-D
    sum."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from((1, 7, 8, 9, 127, 128, 129, 300)),
        m=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from((1e-3, 1.0, 100.0, 1e150)),
        decimals=st.sampled_from((None, 0, 2)),
    )
    def test_every_entry_equals_both_forms(self, n, m, seed, scale, decimals):
        points = np.random.default_rng(seed).uniform(-scale, scale, (m, n))
        if decimals is not None:
            points = points.round(decimals)
        dm = am.distance_matrix(points_slice(points))
        a, b = np.divmod(np.arange(m * m), m)
        block = np.sqrt(((points[a] - points[b]) ** 2).sum(axis=-1)).reshape(m, m)
        assert np.array_equal(dm, block)
        for i in range(m):
            for j in range(m):
                assert dm[i, j] == np.sqrt(((points[i] - points[j]) ** 2).sum())


# values at the edges of the panel range, inside it, and of magnitudes where
# squares overflow (1e200) or underflow (1e-160)
POINT_VALUES = st.one_of(
    st.sampled_from((0.0, 100.0, 50.0)),
    st.floats(0.0, 100.0),
    st.floats(1e199, 1e201),
    st.floats(-1e201, -1e199),
    st.floats(-1e-160, 1e-160),
)


@st.composite
def unit_points(draw, elements=POINT_VALUES):
    m = draw(st.integers(2, 24))
    n = draw(st.integers(1, 9))
    points = draw(arrays(np.float64, (m, n), elements=elements))
    if draw(st.booleans()):  # duplicate units: many tied pairs
        points = points[draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))]
    constant = draw(arrays(np.bool_, n))
    points[:, constant] = points[0, constant]
    return points


class TestMaxDistance:
    def test_published_maxima(self, panel):
        reduced = am.exclude_indicators(panel, {17, 19})
        for period, published in (("2010-03", 46.16), ("2009-08", 31.59)):
            s = am.slice_period(reduced, period)
            assert dispersion_summary(s).d_max == pytest.approx(published, abs=0.50)
            assert max_distance(s) == dispersion_summary(s).d_max

    def test_identical_units(self):
        s = am.PeriodSlice("p", ("a", "b", "c"), (1, 2), np.full((3, 2), 4.0))
        assert dispersion_summary(s).d_max == 0.0
        assert max_distance(s) == 0.0

    # a block of 1 element holds one row of the screen and one recheck row
    @settings(max_examples=300, deadline=None)
    @given(points=unit_points(),
           block=st.sampled_from((dispersion_module._BLOCK_ELEMENTS, 1, 5, 40)))
    @example(points=np.array([[3.0, 4.0], [0.0, 0.0]]), block=1)
    @example(points=np.full((5, 3), 100.0), block=1)
    @example(points=np.array([[1e200, 0.0], [-1e200, 1.0], [5.0, 5.0]]), block=1)
    # every norm overflows, no distance does
    @example(points=np.array([[1e200, 0.0], [1e200, 3.0], [1e200, 1.0]]), block=1)
    def test_equals_the_matrix_maximum(self, points, block):
        s = points_slice(points)
        expected = exact_d_max(s)
        with mock.patch.object(dispersion_module, "_BLOCK_ELEMENTS", block):
            assert max_distance(s) == expected

    @pytest.mark.parametrize("m", [2, 3, 40, 300])
    @pytest.mark.parametrize("offset,side", [(0.0, 1.0), (50.0, 10.0), (0.0, 1e200)])
    def test_simplex_every_pair_ties(self, m, offset, side):
        # units at the vertices of a regular simplex: one distance for every pair
        s = points_slice(offset + side * np.eye(m))
        assert max_distance(s) == exact_d_max(s)

    FARTHEST = {"first rows": (0, 1), "first and last": (0, 699), "last rows": (698, 699)}

    @pytest.mark.parametrize("pair", FARTHEST.values(), ids=FARTHEST.keys())
    @pytest.mark.parametrize("huge_row", [None, 350])
    def test_many_blocks(self, pair, huge_row):
        # 700 units: 93 rows per screen block, so 8 blocks
        points = np.random.default_rng(sum(pair)).uniform(40.0, 60.0, (700, 20)).round(1)
        points[pair[0]] -= 30.0
        points[pair[1]] += 30.0
        points[420:430] = points[pair[1]]  # ties with the farthest pair
        if huge_row is not None:
            # its squares overflow: d_max is inf, from the blocks whose
            # bounds are not finite, while the other blocks are screened
            points[huge_row, 3] = 1e200
        expected = exact_d_max(points_slice(points))
        assert max_distance(points_slice(points)) == expected
        assert (expected == math.inf) == (huge_row is not None)

    @pytest.mark.parametrize("offset", [1e4, 1e6, 1e8])
    @pytest.mark.parametrize("seed", range(5))
    def test_large_common_offset(self, offset, seed):
        # |a|**2 + |b|**2 - 2 a.b cancels: the screen's error dwarfs the distances
        points = offset + np.random.default_rng(seed).uniform(0.0, 1.0, (60, 5))
        s = points_slice(points)
        assert max_distance(s) == exact_d_max(s)

    # squares of 1e-161 are subnormal: each rounds with an absolute error
    @pytest.mark.parametrize("exponent", [-150, -158, -161])
    @pytest.mark.parametrize("m,n", [(8, 2), (30, 5), (20, 20)])
    @pytest.mark.parametrize("seed", range(10))
    def test_squares_underflow(self, exponent, m, n, seed):
        points = np.random.default_rng(seed).uniform(0.0, 1.0, (m, n)) * 10.0**exponent
        s = points_slice(points)
        assert max_distance(s) == exact_d_max(s)

    def test_single_unit_is_error(self):
        with pytest.raises(ValueError, match="need at least 2 units"):
            max_distance(random_slice(0, m=1))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_coordinate_gives_nan(self, bad):
        # inf - inf on the matrix's diagonal makes its maximum NaN
        s = points_slice(np.array([[0.0, 1.0], [bad, 2.0], [3.0, 4.0]]))
        assert math.isnan(exact_d_max(s))
        assert math.isnan(max_distance(s))
        assert math.isnan(dispersion_summary(s).d_max)

    @pytest.mark.parametrize("bad", [1e200, np.inf])
    def test_distance_matrix_warns_no_more_than_max_distance(self, bad):
        # warnings are errors in this suite: squares that overflow and inf - inf
        # give inf and NaN entries, as in max_distance, without a RuntimeWarning
        s = points_slice(np.array([[0.0, 1.0], [bad, 2.0], [3.0, 4.0]]))
        matrix = am.distance_matrix(s)
        assert matrix[0, 1] == matrix[1, 2] == np.inf
        assert matrix[0, 2] == math.sqrt(18.0)
        assert np.isnan(matrix[1, 1]) == (bad == np.inf)

    def test_no_indicators(self):
        assert max_distance(am.PeriodSlice("p", ("a", "b"), (), np.empty((2, 0)))) == 0.0

    @pytest.mark.parametrize("tied", [False, True], ids=["random", "every pair tied"])
    def test_memory_is_a_few_blocks(self, tied):
        # the distance matrix alone would be 3000**2 * 8 bytes = 69 MiB
        m, n = 3000, 4
        s = random_slice(4, m=m, n=n)
        if tied:
            s = points_slice(np.full((m, n), 7.0))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            max_distance(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * dispersion_module._BLOCK_ELEMENTS * 8

    def kernel_calls(self, function, s):
        """The (block, others) shapes that ``function(s)`` hands the exact kernel."""
        kernel = dispersion_module._exact_distances
        with mock.patch.object(dispersion_module, "_exact_distances", wraps=kernel) as spy:
            function(s)
        return [(c.args[0].shape[0], c.args[1].shape[0]) for c in spy.call_args_list]

    SHAPES = {"tall": (400, 20, 4), "synth": (300, 150, 4), "wide": (60, 300, 2)}

    @pytest.mark.parametrize("m,n,periods", SHAPES.values(), ids=SHAPES.keys())
    def test_screen_skips_rows(self, m, n, periods):
        # the benchmark's panel shapes at seed 1: 1 or 2 rows need a recheck
        config = am.SynthConfig(
            units=m, indicators=n,
            periods=tuple((f"2020-{p + 1:02d}", ("baseline", "stressed")[p % 2]) for p in range(periods)),
            baseline_means=(50.0,) * n, noise_sd=4.0, loading_baseline=0.0,
            loading_stressed=15.0, variance_multiplier=2.0, seed=1,
        )
        panel = am.generate_panel(config)
        for period in panel.periods:
            calls = self.kernel_calls(max_distance, am.slice_period(panel, period))
            assert 1 <= sum(rows for rows, _ in calls) <= 4

    @pytest.mark.parametrize("m,n", [(300, 4), (120, 100)])
    def test_tied_units_recompute_no_more_than_the_matrix(self, m, n):
        # every bound ties, so every row is rechecked, as the matrix walks them
        s = points_slice(np.full((m, n), 7.0))
        entries = {f: sum(r * k for r, k in self.kernel_calls(f, s))
                   for f in (max_distance, am.distance_matrix)}
        assert entries[max_distance] <= entries[am.distance_matrix]


def exact_csv(s):
    """The distance CSV of the exact matrix: the text distance_csv_chunks owes."""
    matrix = am.distance_matrix(s)
    return "".join(matrix_csv_chunks("unit", [csv_field(u) for u in s.units], matrix))


def screened_csv(s):
    return "".join(distance_csv_chunks(s, [csv_field(u) for u in s.units]))


def rechecked_rows(s):
    """The rows distance_csv_chunks hands the exact kernel."""
    kernel = dispersion_module._exact_distances
    with mock.patch.object(dispersion_module, "_exact_distances", wraps=kernel) as spy:
        screened_csv(s)
    return sum(c.args[0].shape[0] for c in spy.call_args_list)


def benchmark_panel(name, seed):
    """The panel of the benchmark workload ``name`` at ``seed``."""
    m, n, periods = {"tall": (400, 20, 4), "wide": (60, 300, 2)}[name]
    panel = am.generate_panel(am.SynthConfig(
        units=m, indicators=n,
        periods=tuple((f"2020-{p + 1:02d}", ("baseline", "stressed")[p % 2]) for p in range(periods)),
        baseline_means=(50.0,) * n, noise_sd=4.0, loading_baseline=0.0,
        loading_stressed=15.0, variance_multiplier=2.0, seed=seed,
    ))
    if name == "wide":  # every 25th indicator constant in the first period
        values = panel.values.copy()
        values[0, :, ::25] = 50.0
        panel = am.IndicatorPanel(panel.periods, panel.units, panel.indicators, values)
    return panel


def half_cent_lattice(m, n, seed):
    """Units 0.005 apart along one indicator, alike in the rest: about half of
    the distances are odd multiples of half a cent, so every row has ties."""
    points = np.full((m, n), 50.0)
    points[:, 0] = 0.005 * np.random.default_rng(seed).permutation(m)
    return points


# POINT_VALUES, and as often values of the dyadic (k/8) and half-cent
# lattices, whose distances tie at a half cent
CSV_VALUES = st.one_of(
    POINT_VALUES,
    st.integers(0, 800).map(lambda k: k / 8),
    st.integers(0, 20_000).map(lambda k: k * 0.005),
)


@st.composite
def csv_points(draw):
    points = draw(unit_points(CSV_VALUES))
    if draw(st.integers(0, 3)) == 0:  # one NaN or infinite coordinate
        m, n = points.shape
        points[draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))] = draw(
            st.sampled_from((np.nan, np.inf, -np.inf)))
    return points


class TestDistanceCsv:
    """distance_csv_chunks writes, from a Gram estimate, the text of the
    exact distance matrix."""

    # blocks of 1 to 40 elements hold one row of the screen, the recheck and
    # the writer, or a few
    @settings(max_examples=300, deadline=None)
    @given(points=csv_points(),
           block=st.sampled_from((dispersion_module._BLOCK_ELEMENTS, 1, 5, 40)),
           text_block=st.sampled_from((writers_module._FORMAT_BLOCK_ELEMENTS, 1, 7)))
    @example(points=np.array([[0.0], [0.125]]), block=1, text_block=1)
    @example(points=np.array([[0.0], [0.375]]), block=1, text_block=1)
    @example(points=np.full((5, 3), 100.0), block=5, text_block=7)
    @example(points=np.array([[1e200, 0.0], [-1e200, 1.0], [5.0, 5.0]]), block=1, text_block=1)
    @example(points=np.array([[1e-160, 0.0], [0.0, 3e-161], [2e-160, 1e-160]]),
             block=40, text_block=7)
    @example(points=np.array([[np.nan, 1.0], [2.0, 3.0]]), block=1, text_block=1)
    @example(points=half_cent_lattice(24, 3, 0), block=40, text_block=7)
    def test_equals_the_exact_matrix_text(self, points, block, text_block):
        s = points_slice(points)
        expected = exact_csv(s)
        with mock.patch.object(dispersion_module, "_BLOCK_ELEMENTS", block), \
                mock.patch.object(writers_module, "_FORMAT_BLOCK_ELEMENTS", text_block):
            assert screened_csv(s) == expected

    def test_dyadic_ties_round_half_to_even(self):
        # 0.125 and 0.375 are exact: "%.2f" rounds them to "0.12" and "0.38"
        s = points_slice(np.array([[0.0], [0.125], [0.375]]))
        assert screened_csv(s) == exact_csv(s) == (
            "unit,u0,u1,u2\nu0,0.00,0.12,0.38\nu1,0.12,0.00,0.25\nu2,0.38,0.25,0.00\n")

    @pytest.mark.parametrize("offset", [0.0, 50.0, 1e4, 1e5, 1e8])
    @pytest.mark.parametrize("seed", range(4))
    def test_large_common_offset(self, offset, seed):
        # the Gram form cancels: its width dwarfs a cent where the offset is large
        points = offset + np.random.default_rng(seed).uniform(0.0, 3.0, (60, 5))
        s = points_slice(points)
        assert screened_csv(s) == exact_csv(s)

    def test_single_unit_is_error(self):
        with pytest.raises(ValueError, match="need at least 2 units"):
            screened_csv(random_slice(0, m=1))

    @pytest.mark.parametrize("move", ["lower end", "upper end", "random"])
    @pytest.mark.parametrize("offset,seed,near", [
        (1e4, 0, False), (1e4, 1, False), (1e5, 0, False), (50.0, 0, False), (1e4, 2, True),
    ])
    def test_adversarial_estimate(self, move, offset, seed, near):
        # The screen may rely only on |K**2 - A| <= W. Here A is moved to
        # anywhere in that interval: to K**2 - W, to K**2 + W, or to random
        # points between, each within 3/4 of the width the derivation in
        # dispersion.py gives, so that this test's own roundings keep it
        # inside; the screen gets its own W. Near pairs, 0.05501 apart, print
        # a digit that a move of W can change only through their own small
        # distance, not the row's others.
        points = offset + np.random.default_rng(seed).uniform(0.0, 3.0, (150, 5))
        if near:
            points[1::2] = points[::2]
            points[1::2, 0] += 0.05501
        s = points_slice(points)
        rng = np.random.default_rng(seed + 1)
        estimate = dispersion_module._gram_estimate

        def moved(pts, norms, rows, cols):
            _, width = estimate(pts, norms, rows, cols)
            n = pts.shape[1]
            allowed = 8 * (n + 4) * 2.0**-53 * (norms[rows, None] + norms[None, cols])
            exact = dispersion_module._exact_distances(pts[rows], pts[cols])
            t = {"lower end": -1.0, "upper end": 1.0}.get(move)
            if t is None:
                t = rng.uniform(-1.0, 1.0, exact.shape)
            return exact * exact + 0.75 * t * allowed, width

        expected = exact_csv(s)
        with mock.patch.object(dispersion_module, "_gram_estimate", moved):
            assert screened_csv(s) == expected

    PANELS = ["reference", "tall-1", "tall-2", "wide-1", "wide-2"]

    @pytest.mark.parametrize("name", PANELS)
    def test_screen_skips_rows(self, name, panel):
        # the reference panel and the benchmark's: at most 4 rows of a period
        # are rechecked (none on these, as measured)
        if name != "reference":
            kind, seed = name.split("-")
            panel = benchmark_panel(kind, int(seed))
        for period in panel.periods:
            assert rechecked_rows(am.slice_period(panel, period)) <= 4

    def test_cli_never_builds_the_matrix(self, panel, tmp_path):
        path = Path(__file__).parent / "data" / "ukraine_fears_panel.csv"
        spy = mock.patch.object(dispersion_module, "distance_matrix",
                                wraps=dispersion_module.distance_matrix)
        with spy as called:
            assert cli_module.main(["analyze", "--input", str(path),
                                    "--out", str(tmp_path / "out")]) == 0
        assert called.call_count == 0
        assert "distance_matrix" not in vars(cli_module)
        for period in panel.periods:
            written = (tmp_path / "out" / "distances" / f"{period}.csv").read_text()
            assert written == exact_csv(am.slice_period(panel, period))

    def test_half_cent_lattice_rechecks_every_row(self):
        s = points_slice(half_cent_lattice(400, 20, 1))
        assert rechecked_rows(s) == 400
        assert screened_csv(s) == exact_csv(s)

    def test_half_cent_lattice_within_3x_of_the_matrix(self, child_env):
        # Every row is rechecked, in blocks: the screen and the rechecks take
        # at most 3 times distance_matrix (about 2 measured; a recheck loop of
        # one row per call took 9). Timed in a child with one BLAS thread, as
        # two threads are slow in some processes on shared CPUs.
        script = (
            "import time\nfrom unittest import mock\n"
            "import numpy as np\nimport adaptometry as am\n"
            "from adaptometry import dispersion as d\n"
            "points = np.full((400, 20), 50.0)\n"
            "points[:, 0] = 0.005 * np.random.default_rng(1).permutation(400)\n"
            "s = am.PeriodSlice('p', tuple(map(str, range(400))), tuple(range(20)), points)\n"
            "def best(f):\n"
            "    times = []\n"
            "    for _ in range(7):\n"
            "        start = time.perf_counter(); f(); times.append(time.perf_counter() - start)\n"
            "    return min(times)\n"
            "with mock.patch.object(d, '_fixed_decimal_block', lambda labels, block: ''):\n"
            "    screened = best(lambda: list(d.distance_csv_chunks(s, s.units)))\n"
            "print(screened / best(lambda: d.distance_matrix(s)))\n"
        )
        env = {**child_env, "OPENBLAS_NUM_THREADS": "1"}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        assert float(done.stdout) < 3.0

    @pytest.mark.parametrize("tied", [False, True], ids=["random", "every row rechecked"])
    def test_memory_is_a_few_blocks(self, tied):
        # the distance matrix alone would be 3000**2 * 8 bytes = 69 MiB; each
        # chunk is dropped as it comes, as cli._write does. Units all alike
        # have every estimate 0, so every row is rechecked.
        m, n = 3000, 4
        s = points_slice(np.full((m, n), 7.0)) if tied else random_slice(5, m=m, n=n)
        labels = [f"u{k}" for k in range(m)]
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            for _ in distance_csv_chunks(s, labels):
                pass
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 10 * dispersion_module._BLOCK_ELEMENTS * 8


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

    def test_volume_just_below_double_range(self):
        # 100**154 = 1e308 has a log volume of 709.196, under ln(DBL_MAX) = 709.78
        matrix = np.vstack([np.zeros(154), np.full(154, 100.0)])
        s = am.PeriodSlice("p", ("a", "b"), tuple(range(1, 155)), matrix)
        summary = dispersion_summary(s)
        assert 709 < summary.log_volume < math.log(sys.float_info.max)
        assert summary.volume == pytest.approx(oracle_volume(matrix.tolist()), rel=1e-12)

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
        series = [r.dispersion for r in am.analyze(panel, exclude={17, 19})]
        expected = (31.59, 46.16, 38.24, 40.72)
        assert [d.period for d in series] == list(panel.periods)
        for summary, e in zip(series, expected):
            assert summary.d_max == pytest.approx(e, abs=0.50)

    def test_reference_dmin_series(self, panel):
        series = [r.dispersion for r in am.analyze(panel)]
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
        series = [r.dispersion for r in am.analyze(panel)]
        assert len(series) == 1
        assert series[0].d_max == am.distance_matrix(s).max()

    def test_summary_invariants(self, panel):
        for r in am.analyze(panel):
            summary = r.dispersion
            assert summary.d_max == am.distance_matrix(r.slice).max()
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
        assert np.allclose(am.distance_matrix(scaled), c * am.distance_matrix(s), rtol=1e-9)
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
