"""SVG line charts: rejected inputs, and the layout where the axes degenerate."""

import pytest

from adaptometry.plots import line_chart


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
