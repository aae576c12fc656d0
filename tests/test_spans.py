"""The names the benchmark's tracer relies on.

``perfbench/spans.py`` wraps the functions listed in its ``TRACED`` by name
in each ``adaptometry`` module, and its ``count`` reads
``CorrelationMatrix.undefined_pairs`` and ``CorrelationNetwork.edges``. A
move or rename that breaks either fails here, not only in a traced
benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import adaptometry as am

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines the tracer; wraps nothing
    return module


def test_traced_names_resolve(spans):
    for short, names in spans.TRACED.items():
        module = importlib.import_module(f"adaptometry.{short}")
        for name in names:
            assert callable(getattr(module, name, None)), f"adaptometry.{short}.{name}"


def test_counted_attributes_exist(spans):
    # indicator 2 is constant: 2 undefined pairs; 1 and 3 correlate at about -0.33
    values = np.array([[[1.0, 5.0, 3.0], [2.0, 5.0, 1.0], [4.0, 5.0, 2.0]]])
    panel = am.IndicatorPanel(
        ("p",), ("a", "b", "c"), tuple(am.Indicator(k, f"x{k}") for k in (1, 2, 3)), values
    )
    slice_ = am.slice_period(panel, "p")
    matrix = am.correlation_matrix(slice_)
    network = am.build_network(matrix, 0.3)
    assert spans.count("correlation.correlation_matrix", (slice_,), matrix) == {
        "correlation.undefined_pairs": 2,
    }
    assert spans.count("correlation.build_network", (matrix,), network) == {
        "correlation.pairs": 3, "correlation.edges": 1,
    }
