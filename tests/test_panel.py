import numpy as np
import pytest

import adaptometry as am
from adaptometry.panel import PanelError

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
        report = am.validate(am.IndicatorPanel(p.periods, p.units, p.indicators, values))
        flagged = {
            tuple(loc.strip("()").split(", ")) for loc, _ in report.warnings
        }
        assert {(a, int(b)) for a, b in flagged} == expected


class TestImmutability:
    def test_values_not_writeable(self, panel):
        with pytest.raises(ValueError):
            panel.values[0, 0, 0] = 1.0
