"""Exact text of the CSV writers and the parser's error messages.

These pin the byte-level output of ``matrix_to_csv``, ``distances_to_csv``
and ``serialize_panel`` and every ``parse_panel`` error message with its
row number, so that faster implementations can be checked against them.
"""

import re

import numpy as np
import pytest

import adaptometry as am
from adaptometry.correlation import correlation_matrix, matrix_to_csv
from adaptometry.dispersion import dispersion_summary, distances_to_csv
from adaptometry.panel import PanelError

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

    def test_quoted_and_plain_rows_parse_alike(self):
        plain = am.parse_panel(HEADER + "2020,A,1,a,10\n2020,B,1,a,20.5\n")
        quoted = am.parse_panel(HEADER + '"2020","A",1,"a",10\n2020,B,"1",a,"20.5"\n')
        assert quoted.periods == plain.periods
        assert quoted.units == plain.units
        assert quoted.indicators == plain.indicators
        assert np.array_equal(quoted.values, plain.values)


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
