"""Exact text of the CSV writers and the parser's error messages.

These pin the byte-level output of ``matrix_to_csv``, ``distances_to_csv``
and ``serialize_panel`` and every ``parse_panel`` error message with its
row number, so that faster implementations can be checked against them.
"""

import dataclasses
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adaptometry as am
from adaptometry import panel as panel_module
from adaptometry.correlation import CorrelationMatrix, correlation_matrix, matrix_to_csv
from adaptometry.dispersion import DispersionSummary, dispersion_summary, distances_to_csv
from adaptometry.panel import PanelError, csv_field

HEADER = "period,unit,indicator_id,indicator_name,value\n"


@pytest.fixture
def quoted_panel():
    """3 units x 3 indicators: a label with a comma and a quote, a constant
    column (NaN correlations), a correlation that rounds to -0.00, integer
    and non-integer values."""
    return am.IndicatorPanel(
        periods=("2020-01",),
        units=("A", 'B, "the" C', "D"),
        indicators=(
            am.Indicator(1, "alpha"),
            am.Indicator(2, 'beta, "b"'),
            am.Indicator(3, "const"),
        ),
        values=np.array([[[10, 50, 7], [20, 0.5, 7], [30, 49.9, 7]]], dtype=float),
    )


class TestWriters:
    def test_matrix_to_csv(self, quoted_panel):
        matrix = correlation_matrix(am.slice_period(quoted_panel, "2020-01"))
        assert matrix_to_csv(matrix) == (
            "indicator_id,1,2,3\n"
            "1,1.00,-0.00,\n"
            "2,-0.00,1.00,\n"
            "3,,,\n"
        )

    def test_distances_to_csv(self, quoted_panel):
        summary = dispersion_summary(am.slice_period(quoted_panel, "2020-01"))
        assert distances_to_csv(summary) == (
            'unit,A,"B, ""the"" C",D\n'
            "A,0.00,50.50,20.00\n"
            '"B, ""the"" C",50.50,0.00,50.40\n'
            "D,20.00,50.40,0.00\n"
        )

    def test_serialize_panel(self, quoted_panel):
        assert am.serialize_panel(quoted_panel) == HEADER + (
            "2020-01,A,1,alpha,10\n"
            '2020-01,A,2,"beta, ""b""",50\n'
            "2020-01,A,3,const,7\n"
            '2020-01,"B, ""the"" C",1,alpha,20\n'
            '2020-01,"B, ""the"" C",2,"beta, ""b""",0.5\n'
            '2020-01,"B, ""the"" C",3,const,7\n'
            "2020-01,D,1,alpha,30\n"
            '2020-01,D,2,"beta, ""b""",49.9\n'
            "2020-01,D,3,const,7\n"
        )

    def test_roundtrip_quoted_labels(self, quoted_panel):
        again = am.parse_panel(am.serialize_panel(quoted_panel))
        assert again.periods == quoted_panel.periods
        assert again.units == quoted_panel.units
        assert again.indicators == quoted_panel.indicators
        assert np.array_equal(again.values, quoted_panel.values)

    @pytest.mark.parametrize("field", ["period", "unit", "name"])
    @pytest.mark.parametrize(
        "boundary", ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                     "\u2028", "\u2029"],
    )
    def test_serialize_refuses_labels_holding_line_breaks(self, quoted_panel, field, boundary):
        # parse_panel reads one row per str.splitlines() line, so such a label
        # would be written and then fail to read back
        label = f"a{boundary}b"
        panel = quoted_panel
        if field == "period":
            panel = dataclasses.replace(panel, periods=(label,))
        elif field == "unit":
            panel = dataclasses.replace(panel, units=("A", label, "D"))
        else:
            panel = dataclasses.replace(
                panel, indicators=(panel.indicators[0], am.Indicator(2, label), panel.indicators[2])
            )
        with pytest.raises(PanelError, match=re.escape(repr(label))):
            am.serialize_panel(panel)

    def test_quoted_and_plain_rows_parse_alike(self):
        plain = am.parse_panel(HEADER + "2020,A,1,a,10\n2020,B,1,a,20.5\n")
        quoted = am.parse_panel(HEADER + '"2020","A",1,"a",10\n2020,B,"1",a,"20.5"\n')
        assert quoted.periods == plain.periods
        assert quoted.units == plain.units
        assert quoted.indicators == plain.indicators
        assert np.array_equal(quoted.values, plain.values)


def _old_matrix_to_csv(matrix: CorrelationMatrix) -> str:
    """matrix_to_csv before the shared fixed-decimal formatter: the reference."""
    fmt = ",%.2f" * matrix.n
    lines = [",".join(["indicator_id", *map(str, matrix.indicator_ids)])]
    for ind_id, row in zip(matrix.indicator_ids, matrix.values):
        # "%f" renders NaN as "nan", and no number's text contains it
        lines.append(f"{ind_id}" + (fmt % tuple(row.tolist())).replace(",nan", ","))
    return "\n".join(lines) + "\n"


def _old_distances_to_csv(summary: DispersionSummary) -> str:
    """distances_to_csv before the shared fixed-decimal formatter: the reference."""
    fmt = ",%.2f" * len(summary.units)
    labels = [csv_field(unit) for unit in summary.units]
    lines = [",".join(["unit", *labels])]
    for label, row in zip(labels, summary.distance_matrix):
        lines.append(label + fmt % tuple(row.tolist()))
    return "\n".join(lines) + "\n"


def _matrix(values) -> CorrelationMatrix:
    values = np.asarray(values, dtype=float)
    return CorrelationMatrix(tuple(range(1, len(values) + 1)), values, frozenset())


def _summary(values) -> DispersionSummary:
    values = np.asarray(values, dtype=float)
    units = tuple(f"u{k}" if k % 2 else f'"u,{k}"' for k in range(len(values)))
    return DispersionSummary("p", units, values, 0.0, 0.0, 0.0, 0.0, 1)


def _rolled(values) -> np.ndarray:
    """Square matrix whose row i is ``values`` rotated by i: each value in every column."""
    return np.array([np.roll(values, i) for i in range(len(values))], dtype=float)


def _neighbours(values):
    return [v for x in values for v in (np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf))]


# Exact binary ties (0.125, 0.375) round half to even; 1.005 and 2.675 are decimal
# ties whose binary values lie just below, so "%" rounds them down.
TIES = _neighbours([0.125, 0.375, 1.005, 2.675, 0.5, 2.5, -0.125, -2.675])
SIGNS = [-0.0, 0.0, -1e-9, 1e-9, -0.004, 0.004, 5e-324, -5e-324]
# |x| * 100 at, just below or above the numpy path's limit of 2**31, other
# large values, and infinities
HUGE = _neighbours([2.0**31, 2.0**31 / 10**4, 2.0**31 / 100 - 0.005]) + [
    3e9, -3e9, 1e300, -1.7e308, np.inf, -np.inf,
]


class TestWritersMatchOldWriters:
    """Both CSV writers give the bytes of the old per-row "%" writers."""

    @pytest.mark.parametrize("rows_per_block", [None, 1, 2], ids=["one block", "1 row", "2 rows"])
    @pytest.mark.parametrize("values", [TIES, SIGNS, HUGE], ids=["ties", "signs", "huge"])
    def test_special_values(self, values, rows_per_block, monkeypatch):
        # an odd number of rows, so the last 2-row block is partial
        matrix = _rolled(values + [0.0] * (1 - len(values) % 2))
        if rows_per_block:
            block = rows_per_block * len(matrix)
            monkeypatch.setattr(panel_module, "_FORMAT_BLOCK_ELEMENTS", block)
        assert matrix_to_csv(_matrix(matrix)) == _old_matrix_to_csv(_matrix(matrix))
        assert distances_to_csv(_summary(matrix)) == _old_distances_to_csv(_summary(matrix))

    def test_every_special_value_at_once(self):
        matrix = _rolled(TIES + SIGNS + HUGE)
        assert distances_to_csv(_summary(matrix)) == _old_distances_to_csv(_summary(matrix))
        matrix[::3, 1::2] = np.nan
        assert matrix_to_csv(_matrix(matrix)) == _old_matrix_to_csv(_matrix(matrix))

    def test_two_by_two(self):
        matrix = _matrix([[1.0, -0.0], [np.nan, 0.125]])
        assert matrix_to_csv(matrix) == _old_matrix_to_csv(matrix) == (
            "indicator_id,1,2\n1,1.00,-0.00\n2,,0.12\n"
        )
        summary = _summary([[0.0, 2.675], [2.675, -1e-9]])
        assert distances_to_csv(summary) == _old_distances_to_csv(summary) == (
            'unit,"""u,0""",u1\n"""u,0""",0.00,2.67\nu1,2.67,-0.00\n'
        )

    def test_one_entry_per_block(self, monkeypatch):
        monkeypatch.setattr(panel_module, "_FORMAT_BLOCK_ELEMENTS", 1)
        assert matrix_to_csv(_matrix([[0.375]])) == "indicator_id,1\n1,0.38\n"
        assert distances_to_csv(_summary([[-0.0]])) == 'unit,"""u,0"""\n"""u,0""",-0.00\n'

    def test_nan_distance_is_an_empty_field(self):
        # the old distance writer wrote "nan"; no distance of a valid panel is NaN
        assert distances_to_csv(_summary([[0.0, np.nan], [np.nan, 0.0]])) == (
            'unit,"""u,0""",u1\n"""u,0""",0.00,\nu1,,0.00\n'
        )

    @settings(max_examples=200, deadline=None)
    @given(
        size=st.integers(1, 7),
        block=st.integers(1, 60),
        data=st.data(),
    )
    def test_random_matrices(self, size, block, data):
        entry = st.one_of(
            st.floats(allow_nan=False),
            st.floats(-500, 500),
            st.integers(-8000, 8000).map(lambda i: i / 8),  # exact ties
            st.integers(-10**6, 10**6).map(lambda i: i / 1000),  # decimal ties
            st.sampled_from(TIES + SIGNS + HUGE),
        )
        values = np.array(data.draw(st.lists(entry, min_size=size**2, max_size=size**2)))
        matrix = values.reshape(size, size)
        nan = np.array(data.draw(st.lists(st.booleans(), min_size=size**2, max_size=size**2)))
        with mock.patch.object(panel_module, "_FORMAT_BLOCK_ELEMENTS", block):
            assert distances_to_csv(_summary(matrix)) == _old_distances_to_csv(_summary(matrix))
            matrix[nan.reshape(size, size)] = np.nan
            assert matrix_to_csv(_matrix(matrix)) == _old_matrix_to_csv(_matrix(matrix))


# Comment and blank lines count toward row numbers: the first data row is row 5.
PREAMBLE = "# source: test\n" + HEADER + "# wave 1\n\n2020,A,1,a,10\n"

PARSE_ERRORS = {
    "field count": (
        PREAMBLE + "# bad next\n2020,A,2,b,20,extra\n",
        "row 7: expected 5 fields, got 6",
    ),
    "field count, quoted": (
        PREAMBLE + '"2020","A,x",2,b,20,\n',
        "row 6: expected 5 fields, got 6",
    ),
    "indicator id": (
        PREAMBLE + "# bad next\n2020,A,x1,b,20\n",
        "row 7: non-integer indicator_id 'x1'",
    ),
    "value": (PREAMBLE + "2020,A,2,b,abc\n", "row 6: non-numeric value 'abc'"),
    "range": (PREAMBLE + "2020,A,2,b,101\n", "row 6: value 101.0 outside [0, 100]"),
    "renamed": (
        PREAMBLE + "# bad next\n2020,B,1,alpha,20\n",
        "row 7: indicator 1 renamed 'a' -> 'alpha'",
    ),
    "duplicate before a later bad row": (
        PREAMBLE + "# bad next\n2020,A,1,a,11\n2020,A,2,b,x\n",
        "row 7: duplicate cell ('2020', 'A', 1)",
    ),
    "bad row before a later duplicate": (
        PREAMBLE + "2020,A,2,b,x\n2020,A,1,a,11\n",
        "row 6: non-numeric value 'x'",
    ),
    "renamed duplicate": (
        PREAMBLE + "2020,A,1,b,10\n",
        "row 6: indicator 1 renamed 'a' -> 'b'",
    ),
    "missing": (
        PREAMBLE + "2020,A,2,b,20\n2020,B,2,b,20\n2021,A,1,a,1\n2021,B,1,a,1\n",
        "missing cell (period=2020, unit=B, indicator=1)",
    ),
    "blank header": (
        "\n" + HEADER,
        "malformed header [], expected period,unit,indicator_id,indicator_name,value",
    ),
    "oversized quoted field": (
        PREAMBLE + '2020,"' + "x" * 140_000 + '",2,b,20\n',
        "row 6: field larger than field limit (131072)",
    ),
    "oversized quoted header": (
        "# source: test\n" + '"' + "x" * 140_000 + '",unit\n',
        "row 2: field larger than field limit (131072)",
    ),
    "empty": ("# only\n", "empty input"),
    "no data": (HEADER + "#x\n, ,\n", "no data rows"),
}


@pytest.mark.parametrize("text,message", PARSE_ERRORS.values(), ids=PARSE_ERRORS.keys())
def test_parse_error_message(text, message):
    with pytest.raises(PanelError, match=re.escape(message)) as info:
        am.parse_panel(text)
    assert str(info.value) == message
