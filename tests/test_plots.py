"""SVG line charts: rejected inputs, the layout where the axes degenerate,
and text escaping without the xml.sax import chain."""

import os
import pathlib
import subprocess
import sys
from xml.sax.saxutils import escape as sax_escape

import pytest
from hypothesis import given
from hypothesis import strategies as st

from adaptometry.plots import escape, line_chart

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("x_labels,series,message", [
    ([], {"w": []}, "need at least one x position and one series"),
    (["2020"], {}, "need at least one x position and one series"),
    (["2020", "2021"], {"w": [1.0]}, "series 'w' has 1 points, expected 2"),
], ids=["no x labels", "no series", "length mismatch"])
def test_rejected(x_labels, series, message):
    with pytest.raises(ValueError) as info:
        line_chart(x_labels, series, "title", "y")
    assert str(info.value) == message


@pytest.mark.parametrize("x_labels,series,points", [
    # a flat series spans [0, 1.05]: at 0 it sits on the x axis
    (["2020", "2021"], {"w": [0.0, 0.0]}, "70.0,340.0 620.0,340.0"),
    # one x label sits mid-axis; the y axis spans [0, 3.15]
    (["2020"], {"w": [3.0]}, "345.0,54.3"),
], ids=["flat series", "one x label"])
def test_degenerate_axes(x_labels, series, points):
    assert f'<polyline points="{points}"' in line_chart(x_labels, series, "title", "y")


@given(st.text())
def test_escape_is_saxutils_escape(text):
    assert escape.__module__ == "adaptometry.plots"  # its own helper, not the import
    assert escape(text) == sax_escape(text)


def test_import_loads_no_network_or_xml_modules():
    # xml.sax.saxutils imports urllib.request, which loads http.client,
    # email and ssl; a fresh interpreter shows what the import itself loads
    code = (
        "import sys\n"
        "import adaptometry.cli, adaptometry.plots\n"
        "names = ('ssl', 'urllib.request', 'http.client', 'email', 'xml.sax')\n"
        "print(' '.join(n for n in names if n in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout == "\n"
