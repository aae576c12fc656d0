import dataclasses
import tracemalloc
from itertools import chain
from unittest import mock

import numpy as np
import pytest

import adaptometry as am
from adaptometry import panel as panel_module
from adaptometry import writers
from adaptometry.panel import (
    PanelError, _rows_by_cell, panel_csv_chunks, period_label_errors,
)

CHART_TEXT_RULE = (
    "period labels are chart text: no character XML 1.0 cannot hold "
    "(U+0001-U+0008, U+000B, U+000C, U+000E-U+001F, U+FFFE, U+FFFF)"
)

MINIMAL = "period,unit,indicator_id,indicator_name,value\n2009-08,West,1,economic regress,54\n"


def small_panel(seed=0, n_periods=3, m=4, n=5):
    rng = np.random.default_rng(seed)
    return am.IndicatorPanel(
        periods=tuple(f"p{k:02d}" for k in range(n_periods)),
        units=tuple(f"u{k}" for k in range(m)),
        indicators=tuple(am.Indicator(k + 1, f"ind{k + 1}") for k in range(n)),
        values=rng.uniform(0, 100, size=(n_periods, m, n)),
    )


class TestParse:
    def test_reference_panel_shape(self, panel):
        assert panel.n_periods == 4
        assert panel.n_units == 6
        assert panel.n_indicators == 19
        assert panel.units == ("West", "Centre", "North", "East", "South", "Donbas")
        assert panel.indicator_ids == tuple(range(1, 20))

    def test_reference_panel_spot_value(self, panel):
        p = panel.periods.index("2009-08")
        u = panel.units.index("West")
        assert panel.values[p, u, 0] == 54

    def test_minimal_file(self):
        p = am.parse_panel(MINIMAL)
        assert (p.n_periods, p.n_units, p.n_indicators) == (1, 1, 1)
        assert p.values[0, 0, 0] == 54
        assert p.indicators[0] == am.Indicator(1, "economic regress")

    def test_out_of_range_value_names_row(self):
        text = MINIMAL + "2009-08,West,2,other,-3\n"
        with pytest.raises(PanelError, match="row 3"):
            am.parse_panel(text)

    def test_non_numeric_value(self):
        with pytest.raises(PanelError, match="non-numeric"):
            am.parse_panel(MINIMAL.replace("54", "NaNish"))

    def test_nan_rejected(self):
        with pytest.raises(PanelError, match="outside"):
            am.parse_panel(MINIMAL.replace("54", "nan"))

    def test_duplicate_cell(self):
        with pytest.raises(PanelError, match="duplicate"):
            am.parse_panel(MINIMAL + "2009-08,West,1,economic regress,54\n")

    def test_missing_cell(self):
        text = (
            "period,unit,indicator_id,indicator_name,value\n"
            "2009-08,West,1,a,10\n"
            "2009-08,East,2,b,20\n"
        )
        with pytest.raises(PanelError, match="missing cell"):
            am.parse_panel(text)

    def test_sparse_labels_hold_memory_by_rows_not_cells(self, sparse_panel_text):
        tracemalloc.start()
        try:
            with pytest.raises(PanelError) as exc:
                am.parse_panel(sparse_panel_text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == "missing cell (period=p00000, unit=u0, indicator=1)"
        assert peak < 32 * 2**20

    def test_cells_past_what_an_intp_numbers_keep_their_order(self):
        # labels spanning (2**31 - 1)**3 cells, far past 2**63: rows are ordered
        # and keyed by (period and unit, indicator), never by cell position
        n = 2**31 - 1
        p, u, i = ([np.array(codes, np.int32)] for codes in
                   ([n - 1, n - 1, 0, n - 1], [n - 1, 0, 5, n - 1], [0, 3, 2, n - 1]))
        order, pu, ind = _rows_by_cell(p, u, i, n)
        assert order.tolist() == [2, 1, 0, 3]
        assert pu.tolist() == [5, (n - 1) * n, (n - 1) * n + n - 1, (n - 1) * n + n - 1]
        assert ind.tolist() == [2, 3, 0, n - 1]

    def test_malformed_header(self):
        with pytest.raises(PanelError, match="header"):
            am.parse_panel("period,unit,value\nx,y,1\n")

    def test_comment_lines_ignored(self):
        text = "# a comment\n" + MINIMAL + "# trailing\n"
        assert am.parse_panel(text).values[0, 0, 0] == 54

    def test_roundtrip_identity(self, panel, panel_text):
        again = am.parse_panel(am.serialize_panel(panel))
        assert again.periods == panel.periods
        assert again.units == panel.units
        assert again.indicators == panel.indicators
        assert np.array_equal(again.values, panel.values)

    @pytest.mark.parametrize("seed", range(20))
    def test_roundtrip_random_panels(self, seed):
        p = small_panel(seed)
        again = am.parse_panel(am.serialize_panel(p))
        assert again.periods == p.periods
        assert np.allclose(again.values, p.values)

    def test_parse_holds_one_chunk_of_lines(self):
        # the benchmark's tall input, 400 x 20 x 4 cells in 1.41 MiB of text:
        # the peak beyond the text was 4.4 times its length when the whole
        # text was split into lines at once, and is 1.18 times in chunks
        config = am.SynthConfig(
            units=400, indicators=20,
            periods=tuple((f"2020-0{k}", ("baseline", "stressed")[k % 2]) for k in range(1, 5)),
            baseline_means=(50.0,) * 20, noise_sd=4.0, loading_baseline=0.0,
            loading_stressed=15.0, variance_multiplier=2.0, seed=1,
        )
        text = am.serialize_panel(am.generate_panel(config))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            am.parse_panel(text)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * len(text)

    def test_values_shape_must_match_labels(self):
        with pytest.raises(PanelError, match=r"values shape \(1, 2, 1\) != \(1, 2, 2\)"):
            am.IndicatorPanel(("p",), ("a", "b"), (am.Indicator(1, "x"), am.Indicator(2, "y")),
                              np.zeros((1, 2, 1)))


class TestExclude:
    def test_reference_exclusion(self, panel):
        reduced = am.exclude_indicators(panel, {17, 19})
        assert reduced.n_indicators == 17
        assert set(reduced.indicator_ids) == set(range(1, 17)) | {18}
        assert reduced.indicator_ids == tuple(sorted(reduced.indicator_ids))

    def test_exclude_nothing_is_identity(self, panel):
        same = am.exclude_indicators(panel, set())
        assert same.indicators == panel.indicators
        assert np.array_equal(same.values, panel.values)
        assert same is panel  # immutable, so nothing is copied

    def test_unknown_id(self, panel):
        with pytest.raises(PanelError, match="99"):
            am.exclude_indicators(panel, {99})

    @pytest.mark.parametrize("seed", range(10))
    def test_exclusion_composes(self, seed):
        rng = np.random.default_rng(100 + seed)
        p = small_panel(seed, n=8)
        ids = list(p.indicator_ids)
        rng.shuffle(ids)
        a, b = set(ids[:2]), set(ids[2:4])
        joint = am.exclude_indicators(p, a | b)
        stepwise = am.exclude_indicators(am.exclude_indicators(p, a), b)
        assert joint.indicators == stepwise.indicators
        assert np.array_equal(joint.values, stepwise.values)


class TestSlice:
    def test_reference_slice(self, panel):
        s = am.slice_period(panel, "2010-03")
        assert s.matrix.shape == (6, 19)
        assert s.matrix[s.units.index("West"), s.indicator_ids.index(12)] == 26

    def test_single_period_panel(self):
        p = am.parse_panel(MINIMAL)
        s = am.slice_period(p, "2009-08")
        assert np.array_equal(s.matrix, p.values[0])

    def test_unknown_period(self, panel):
        with pytest.raises(PanelError, match="unknown period"):
            am.slice_period(panel, "1999-01")


class TestValidate:
    def test_reference_panel_clean(self, panel):
        report = am.validate(panel)
        assert report.errors == []
        assert report.warnings == []
        assert report.ok

    def test_zero_variance_warning(self):
        p = small_panel()
        values = p.values.copy()
        values[1, :, 2] = 0.0
        flat = am.IndicatorPanel(p.periods, p.units, p.indicators, values)
        report = am.validate(flat)
        assert report.errors == []
        assert any("zero variance" in msg for _, msg in report.warnings)
        assert any("p01" in loc and "3" in loc for loc, _ in report.warnings)

    def test_zero_variance_warnings_period_then_indicator(self):
        p = small_panel(n_periods=3, n=5)
        values = p.values.copy()
        for period, indicator in ((2, 0), (0, 4), (2, 3), (0, 1), (1, 2)):
            values[period, :, indicator] = 10.0 * indicator
        report = am.validate(am.IndicatorPanel(p.periods, p.units, p.indicators, values))
        # reference: a loop over periods, then indicators
        expected = [
            (f"({period}, {ind.id})", "zero variance across units")
            for period, block in zip(p.periods, values)
            for ind, column in zip(p.indicators, block.T)
            if column.min() == column.max()
        ]
        assert report.warnings == expected
        assert [loc for loc, _ in expected] == [
            "(p00, 2)", "(p00, 5)", "(p01, 3)", "(p02, 1)", "(p02, 4)",
        ]

    @pytest.mark.parametrize("value", [0.7, 0.1, 33.3])
    def test_inexact_constant_warns(self, value):
        p = small_panel(n_periods=2, m=6)
        values = p.values.copy()
        values[1, :, 3] = value  # its mean over 6 units is inexact
        report = am.validate(am.IndicatorPanel(p.periods, p.units, p.indicators, values))
        assert report.errors == []
        assert report.warnings == [("(p01, 4)", "zero variance across units")]

    def test_out_of_range_is_error(self):
        p = small_panel()
        values = p.values.copy()
        values[0, 0, 0] = 120.0
        report = am.validate(am.IndicatorPanel(p.periods, p.units, p.indicators, values))
        assert not report.ok

    def test_unordered_periods_is_error(self):
        p = small_panel()
        bad = am.IndicatorPanel(
            ("p02", "p01", "p03"), p.units, p.indicators, p.values
        )
        report = am.validate(bad)
        assert any("increasing" in msg for _, msg in report.errors)

    def test_period_label_errors_file_names_then_order(self):
        # the file-name and case errors in label order, then the order errors
        labels = ("p2", "p1", "P2")
        p = small_panel(n_periods=3)
        errors = [
            ("period 'P2'", "period labels 'p2' and 'P2' differ only in case, so their "
                            "output files collide on case-insensitive file systems"),
            ("period 'p1'", "period labels not strictly increasing ('p2' then 'p1')"),
            ("period 'P2'", "period labels not strictly increasing ('p1' then 'P2')"),
        ]
        assert period_label_errors(labels) == errors
        panel = am.IndicatorPanel(labels, p.units, p.indicators, p.values)
        assert am.validate(panel).errors == errors

    @pytest.mark.parametrize("label,ok", [
        ("p" * 251, True),
        ("é" * 125 + "p", True),  # 251 bytes in 126 characters
        ("p" * 252, False),
        ("€" * 84, False),  # 252 bytes in 84 characters
    ], ids=["251 bytes", "251 bytes, two-byte", "252 bytes", "252 bytes, three-byte"])
    def test_period_label_over_251_bytes_is_error(self, label, ok):
        # "<label>.csv" must fit the 255-byte file-name limit
        errors = [] if ok else [(
            f"period {label!r}",
            "period labels name output files: at most 251 bytes of UTF-8, so that "
            "'<label>.csv' fits a 255-byte file name",
        )]
        assert period_label_errors([label]) == errors

    def test_period_label_xml_cannot_hold_is_error(self):
        # an SVG chart names each period; the label is refused before any is written
        p = small_panel(n_periods=4)
        labels = ("a\x01", "b\x1f", "c\ufffe", "d\uffff")
        report = am.validate(am.IndicatorPanel(labels, p.units, p.indicators, p.values))
        assert report.errors == [(f"period {label!r}", CHART_TEXT_RULE) for label in labels]

    def test_period_label_control_characters(self):
        # XML 1.0 holds tab, line feed and carriage return, and every character
        # past U+FFFF; NUL has its own rule. Strict UTF-8 decoding lets through
        # no surrogate, so the scan skips them
        chars = map(chr, chain(range(1, 0xD800), range(0xE000, 0x10000)))
        refused = [c for c in chars if period_label_errors([f"a{c}b"])]
        assert refused == [*map(chr, range(1, 9)), "\x0b", "\x0c", *map(chr, range(0xE, 0x20)),
                           "/", "\\", "\ufffe", "\uffff"]

    def test_single_unit_is_error(self):
        report = am.validate(am.parse_panel(MINIMAL))
        assert report.errors == [("units", "need at least 2 units, got 1")]
        assert report.warnings == []

    @pytest.mark.parametrize("label", ["", ".", "..", "../x", "a/b", "a\\b", "a\x00b"])
    def test_period_label_unusable_as_file_name_is_error(self, label):
        p = small_panel(n_periods=1)
        report = am.validate(am.IndicatorPanel((label,), p.units, p.indicators, p.values))
        assert [loc for loc, _ in report.errors] == [f"period {label!r}"]

    @pytest.mark.parametrize("units,ids,error", [
        (("u0", "u1", "u0", "u3"), (1, 2, 3, 4, 5), ("units", "duplicate unit labels")),
        (("u0", "u1", "u2", "u3"), (1, 2, 1, 4, 5), ("indicators", "duplicate indicator ids")),
    ], ids=["units", "indicator ids"])
    def test_duplicate_labels_are_error(self, units, ids, error):
        p = small_panel()
        indicators = tuple(am.Indicator(i, f"ind{k}") for k, i in enumerate(ids))
        report = am.validate(am.IndicatorPanel(p.periods, units, indicators, p.values))
        assert report.errors == [error]

    @pytest.mark.parametrize("labels", [("2020-A", "2020-a"), ("STRASSE", "straße")])
    def test_period_labels_equal_but_for_case_are_error(self, labels):
        p = small_panel(n_periods=2)
        report = am.validate(am.IndicatorPanel(labels, p.units, p.indicators, p.values))
        first, second = labels
        assert report.errors == [(
            f"period {second!r}",
            f"period labels {first!r} and {second!r} differ only in case, so their "
            "output files collide on case-insensitive file systems",
        )]

    @pytest.mark.parametrize("seed", range(25))
    def test_flags_exactly_zero_variance_pairs(self, seed):
        rng = np.random.default_rng(200 + seed)
        p = small_panel(seed, n_periods=2, m=3, n=4)
        values = p.values.copy()
        expected = set()
        for p_i in range(2):
            for i_i in range(4):
                if rng.random() < 0.3:
                    values[p_i, :, i_i] = float(rng.integers(0, 100))
                    expected.add((p.periods[p_i], p.indicators[i_i].id))
        panel = am.IndicatorPanel(p.periods, p.units, p.indicators, values)
        report = am.validate(panel)
        flagged = [tuple(loc.strip("()").split(", ")) for loc, _ in report.warnings]
        assert {(a, int(b)) for a, b in flagged} == expected
        # correlation_matrix finds the same indicators, in matrix order
        for period in panel.periods:
            matrix = am.correlation_matrix(am.slice_period(panel, period))
            assert matrix.zero_variance_ids == tuple(int(b) for a, b in flagged if a == period)


class TestImmutability:
    def test_values_not_writeable(self, panel):
        with pytest.raises(ValueError):
            panel.values[0, 0, 0] = 1.0


def _panel_of(values) -> am.IndicatorPanel:
    p, m, n = np.shape(values)
    return am.IndicatorPanel(
        periods=tuple(f"p{k}" for k in range(p)),
        units=tuple(f"u{k}" for k in range(m)),
        indicators=tuple(am.Indicator(k + 1, f"i{k + 1}") for k in range(n)),
        values=values,
    )


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class TestOwnership:
    """A read-only float64 C-order array is kept as it is; anything else is
    copied into one, so a caller's later writes never reach the panel."""

    def test_writeable_array_is_copied(self):
        arr = np.arange(24, dtype=float).reshape(2, 3, 4)
        panel = _panel_of(arr)
        arr[0, 0, 0] = 99.0
        assert panel.values is not arr
        assert panel.values[0, 0, 0] == 0.0
        assert arr.flags.writeable

    def test_read_only_float64_c_order_is_kept(self):
        arr = _frozen(np.arange(24, dtype=float).reshape(2, 3, 4))
        assert _panel_of(arr).values is arr

    @pytest.mark.parametrize("make", [
        lambda: np.arange(24, dtype=float).reshape(2, 3, 4).tolist(),
        lambda: np.arange(24).reshape(2, 3, 4),
        lambda: np.asfortranarray(np.arange(24, dtype=float).reshape(2, 3, 4)),
        lambda: _frozen(np.asfortranarray(np.arange(24, dtype=float).reshape(2, 3, 4))),
        lambda: _frozen(np.arange(24, dtype=np.float32).reshape(2, 3, 4)),
        lambda: _frozen(np.arange(48, dtype=float).reshape(2, 3, 8)[:, :, ::2]),
        lambda: _frozen(np.arange(24, dtype=">f8").reshape(2, 3, 4)),
    ], ids=["list", "ints", "F order", "read-only F order", "read-only float32",
            "read-only strided", "read-only big-endian"])
    def test_other_inputs_are_converted(self, make):
        raw = make()
        panel = _panel_of(raw)
        assert panel.values is not raw
        assert panel.values.dtype == np.float64 and panel.values.dtype.isnative
        assert panel.values.flags.c_contiguous
        assert not panel.values.flags.writeable
        assert np.array_equal(panel.values, np.array(raw, dtype=float))

    def test_exclude_keeps_the_values(self, panel):
        reduced = am.exclude_indicators(panel, {3, 17})
        keep = [i for i, ind in enumerate(panel.indicators) if ind.id not in (3, 17)]
        assert reduced.values.tobytes() == panel.values[:, :, keep].tobytes()


def _synth_config(units, indicators):
    return am.SynthConfig(
        units=units, indicators=indicators,
        periods=tuple((f"2020-0{p + 1}", ("baseline", "stressed")[p % 2]) for p in range(4)),
        baseline_means=(50.0,) * indicators, noise_sd=4.0, loading_baseline=0.0,
        loading_stressed=15.0, variance_multiplier=2.0, seed=1,
    )


def _traced_peak(call):
    """What ``call()`` allocates at its peak beyond what was held before, and
    its result."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        return tracemalloc.get_traced_memory()[1] - start, result
    finally:
        tracemalloc.stop()


class TestMemory:
    """At the benchmark's synth size, 300 x 150 x 4 (a 1.37 MiB panel)."""

    @pytest.fixture(scope="class")
    def synth_panel(self):
        return am.generate_panel(_synth_config(300, 150))

    def test_exclude_holds_only_its_result(self, synth_panel):
        # values[:, :, keep] is not C-ordered, and the panel copied it again:
        # twice the result
        peak, reduced = _traced_peak(lambda: am.exclude_indicators(synth_panel, {1}))
        assert peak <= 1.1 * reduced.values.nbytes

    def test_panel_csv_formats_each_block_in_one_call(self):
        # 2 periods of 300 units x 150 indicators, in blocks of 54 units: the
        # values of each piece go to repr_words at once, no more than a block
        config = _synth_config(300, 150)
        panel = am.generate_panel(dataclasses.replace(config, periods=config.periods[:2]))
        with mock.patch.object(panel_module, "repr_words", wraps=panel_module.repr_words) as spy:
            pieces = panel_csv_chunks(panel)
            next(pieces)  # the header
            calls = []  # per piece, the number of values of each call
            for _ in pieces:
                calls.append([call.args[0].size for call in spy.call_args_list])
                spy.reset_mock()
        assert [len(sizes) for sizes in calls] == [1] * (2 * 6)
        assert max(size for (size,) in calls) <= writers._FORMAT_BLOCK_ELEMENTS
        assert sum(size for (size,) in calls) == 300 * 150 * 2

    def test_panel_csv_holds_one_pass_of_texts(self, synth_panel):
        # a for loop holds each chunk while the next is built; with every value
        # text of a 2**14-cell block alive at once, the peak was 3.06 MiB
        def drain():
            for _ in panel_csv_chunks(synth_panel):
                pass

        peak, _ = _traced_peak(drain)
        assert peak <= 2.4 * 2**20
