"""Exact text of the CSV writers and the parser's error messages.

These pin the byte-level output of ``matrix_to_csv``, ``distances_to_csv``
and ``serialize_panel`` and every ``parse_panel`` error message with its
row number, so that faster implementations can be checked against them.
"""

import dataclasses
import io
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adaptometry as am
from adaptometry import panel as panel_module
from adaptometry import writers
from adaptometry.cli import _period_record, _report_json
from adaptometry.correlation import CorrelationMatrix, correlation_matrix, matrix_to_csv
from adaptometry.dispersion import distance_matrix, distances_to_csv
from adaptometry.panel import PanelError
from adaptometry.synthgen import SynthConfig, generate_panel
from adaptometry.writers import csv_field, float_reprs, matrix_csv_chunks

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
        assert distances_to_csv(am.slice_period(quoted_panel, "2020-01")) == (
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
        # parse_panel drops a line that starts with "#", so such a period is quoted
        hashed = [
            dataclasses.replace(quoted_panel, periods=(period,))
            for period in ("#1", "#", '#"q"', "#a,b", "##")
        ]
        hashed.append(dataclasses.replace(
            quoted_panel, periods=("#1", "#2"), values=np.concatenate([quoted_panel.values] * 2)
        ))
        for panel in (quoted_panel, *hashed):
            again = am.parse_panel(am.serialize_panel(panel))
            assert again.periods == panel.periods
            assert again.units == panel.units
            assert again.indicators == panel.indicators
            assert np.array_equal(again.values, panel.values)
        assert am.serialize_panel(hashed[0]).splitlines()[1] == '"#1",A,1,alpha,10'

    @pytest.mark.parametrize("field", ["period", "unit", "name"])
    @pytest.mark.parametrize(
        "boundary", ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                     "\u2028", "\u2029"],
    )
    def test_serialize_refuses_labels_holding_line_breaks(self, quoted_panel, field, boundary):
        # parse_panel reads one row per str.splitlines() line, so such a label
        # would be written and then fail to read back
        label = f"a{boundary}b"
        with pytest.raises(PanelError, match=re.escape(repr(label))):
            am.serialize_panel(_with_label(quoted_panel, field, label))

    @pytest.mark.parametrize("field", ["period", "unit", "name"])
    @pytest.mark.parametrize("label", [" a", "a ", "\ta", "a\u3000"])
    def test_serialize_refuses_padded_labels(self, quoted_panel, field, label):
        # parse_panel strips every field, so " a" would read back as "a"
        with pytest.raises(PanelError, match=re.escape(repr(label))):
            am.serialize_panel(_with_label(quoted_panel, field, label))

    def test_quoted_and_plain_rows_parse_alike(self):
        plain = am.parse_panel(HEADER + "2020,A,1,a,10\n2020,B,1,a,20.5\n")
        quoted = am.parse_panel(HEADER + '"2020","A",1,"a",10\n2020,B,"1",a,"20.5"\n')
        assert quoted.periods == plain.periods
        assert quoted.units == plain.units
        assert quoted.indicators == plain.indicators
        assert np.array_equal(quoted.values, plain.values)


    @pytest.mark.parametrize("field", ["period", "unit", "name"])
    def test_chunks_refuse_a_bad_label_before_the_first_piece(self, quoted_panel, field):
        # so that synth raises before it creates --out
        with pytest.raises(PanelError, match=re.escape(repr("a\nb"))):
            panel_module.panel_csv_chunks(_with_label(quoted_panel, field, "a\nb"))


def _old_serialize_panel(panel: am.IndicatorPanel) -> str:
    """serialize_panel before it wrote the panel in blocks: the reference."""
    buf = io.StringIO()
    buf.write(",".join(panel_module.CSV_HEADER) + "\n")
    units = [csv_field(unit) for unit in panel.units]
    indicators = [f",{ind.id},{csv_field(ind.name)}," for ind in panel.indicators]
    for period, block in zip(panel.periods, panel.values):
        period = csv_field(period)
        for unit, row in zip(units, block):
            prefix = f"{period},{unit}"
            buf.write("".join([
                f"{prefix}{ind}{str(int(v)) if v.is_integer() else repr(v)}\n"
                for ind, v in zip(indicators, row.tolist())
            ]))
    return buf.getvalue()


# Signed zeros, subnormals, integers exact and beyond 2**53, huge values,
# NaN and infinities, and fractions
PANEL_VALUES = [
    -0.0, 0.0, 5e-324, -5e-324, 1e16, 1e300, -1e300, np.nan, np.inf, -np.inf,
    1.0, 7.0, 100.0, -3.0, 2.0**53, 2.0**53 + 2, 1e22, 0.5, 2.675, 1e-300, 49.9, 1e15 + 0.5,
]


def _special_panel(n_units: int) -> am.IndicatorPanel:
    """2 periods x n_units x 4 indicators holding every PANEL_VALUES entry,
    with commas and quotes in labels of each kind."""
    shape = (2, n_units, 4)
    return am.IndicatorPanel(
        periods=("2020-01", 'p, "2"'),
        units=tuple(f'u{k}, "x"' if k % 2 else f"u{k}" for k in range(n_units)),
        indicators=tuple(am.Indicator(k + 1, f'i, "{k}"') for k in range(4)),
        values=np.resize(np.array(PANEL_VALUES), shape[0] * shape[1] * shape[2]).reshape(shape),
    )


class TestPanelWriterMatchesOldWriter:
    """panel_csv_chunks gives the bytes of the old one-string serializer."""

    @pytest.mark.parametrize("n_units", [5, 6])
    @pytest.mark.parametrize("units_per_block", [None, 1, 2, 3],
                             ids=["one block", "1 unit", "2 units", "3 units"])
    def test_special_values(self, n_units, units_per_block, monkeypatch):
        # 5 units leave a partial last block of 2 and 3 units, 6 a full one
        panel = _special_panel(n_units)
        if units_per_block:
            monkeypatch.setattr(writers, "_FORMAT_BLOCK_ELEMENTS", units_per_block * 4)
        pieces = list(panel_module.panel_csv_chunks(panel))
        assert len(pieces) == 1 + 2 * -(-n_units // (units_per_block or n_units))
        assert "".join(pieces) == am.serialize_panel(panel) == _old_serialize_panel(panel)

    @pytest.mark.parametrize("cells_per_pass", [1, 4, 7, 8, 12])
    def test_passes_of_whole_units(self, cells_per_pass, monkeypatch):
        # each block of whole units is formatted in one pass: 4 indicators per
        # unit, so 1, 4 and 7 cells give one unit a pass, 8 two and 12 three
        monkeypatch.setattr(writers, "_FORMAT_BLOCK_ELEMENTS", cells_per_pass)
        panel = _special_panel(6)
        assert am.serialize_panel(panel) == _old_serialize_panel(panel)

    def test_block_smaller_than_a_unit(self, monkeypatch):
        monkeypatch.setattr(writers, "_FORMAT_BLOCK_ELEMENTS", 3)  # < 4 indicators
        panel = _special_panel(5)
        assert len(list(panel_module.panel_csv_chunks(panel))) == 1 + 2 * 5
        assert am.serialize_panel(panel) == _old_serialize_panel(panel)

    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.tuples(st.integers(0, 3), st.integers(0, 4), st.integers(0, 4)),
        block=st.integers(1, 20),
        data=st.data(),
    )
    def test_random_panels(self, shape, block, data):
        size = shape[0] * shape[1] * shape[2]
        entry = st.one_of(st.floats(), st.integers(-10**6, 10**6).map(float),
                          st.sampled_from(PANEL_VALUES))
        values = np.array(data.draw(st.lists(entry, min_size=size, max_size=size)), dtype=float)
        panel = am.IndicatorPanel(
            periods=tuple(f"p{k}" for k in range(shape[0])),
            units=tuple(f"u{k}" for k in range(shape[1])),
            indicators=tuple(am.Indicator(k, f"x{k}") for k in range(shape[2])),
            values=values.reshape(shape),
        )
        with mock.patch.object(writers, "_FORMAT_BLOCK_ELEMENTS", block):
            assert am.serialize_panel(panel) == _old_serialize_panel(panel)


def test_benchmark_scale_panel_matches_old_writer():
    # the 300 x 150 x 4 synth panel: per period blocks of 109, 109 and 82 units
    config = SynthConfig(
        units=300, indicators=150,
        periods=tuple((f"2020-{p:02d}", ("baseline", "stressed")[p % 2]) for p in range(1, 5)),
        baseline_means=(50.0,) * 150, noise_sd=4.0, loading_baseline=0.0,
        loading_stressed=15.0, variance_multiplier=2.0, seed=1,
    )
    panel = generate_panel(config)
    assert am.serialize_panel(panel) == _old_serialize_panel(panel)


def _reprs(values) -> list[str]:
    """The reference: float.__repr__ of each value."""
    return [float.__repr__(v) for v in np.asarray(values, dtype=float).ravel().tolist()]


def _around(values) -> list[float]:
    """Each value and the doubles one ulp below and above it."""
    return [w for v in values for w in (np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf))]


class TestFloatReprs:
    """float_reprs gives float.__repr__ of every value, on its numpy path and off it."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), max_size=40))  # NaN, infinities, signed zeros, subnormals
    def test_any_floats(self, values):
        assert float_reprs(np.array(values, dtype=float)) == _reprs(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(1e-2, 1e15, exclude_max=True), max_size=40))
    def test_numpy_path_domain(self, values):
        assert float_reprs(np.array(values, dtype=float)) == _reprs(values)

    @pytest.mark.parametrize("values", [
        _around([1e-2, 1e15, 5e-324, 1e-5, 1e16, 1e17, 1e308]),
        _around(2.0 ** np.arange(-13, 53)),  # a quarter gap below each
        _around(10.0 ** np.arange(-5, 18)),
        _around([0.1, 0.3, 0.7, 0.5, 2.675, 49.9, 99.99, 0.01, 0.07, 1.005, 123.456]),
        _around(np.arange(0.0, 101.0)),
        [99.99999999999999, 9.999999999999998, 0.9999999999999999, 1e15 - 0.125],
        [0.0, -0.0, np.inf, -np.inf, np.nan, -1.5, -0.7, 0.009999999999999998],
    ], ids=["domain ends", "powers of two", "powers of ten", "short decimals", "integers",
            "round up to a power of ten", "off the numpy path"])
    def test_targeted(self, values):
        assert float_reprs(np.array(values)) == _reprs(values)

    @pytest.mark.parametrize("low,high", [(0.0, 100.0), (0.7, 1.0)])
    def test_seeded_bulk(self, low, high):
        # many passes, and the panel values and edge weights the writers format
        values = np.random.default_rng(11).uniform(low, high, 10**5)
        assert float_reprs(values) == _reprs(values)

    def test_shapes(self):
        assert float_reprs(np.empty(0)) == []
        values = np.arange(12.0).reshape(3, 4) / 7
        assert float_reprs(values) == _reprs(values)

    def test_peak_memory(self):
        # a pass at a time: at most a quarter more held at peak than by the reference
        values = np.random.default_rng(3).uniform(0.0, 100.0, 2**14)
        peaks = []
        for fmt in (float_reprs, lambda v: list(map(float.__repr__, v.tolist()))):
            tracemalloc.start()
            try:
                texts = fmt(values)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            del texts
        assert peaks[0] <= 1.25 * peaks[1]


def _with_label(panel: am.IndicatorPanel, field: str, label: str) -> am.IndicatorPanel:
    """``panel`` with ``label`` as its period, second unit or second indicator's name."""
    if field == "period":
        return dataclasses.replace(panel, periods=(label,))
    if field == "unit":
        return dataclasses.replace(panel, units=("A", label, "D"))
    return dataclasses.replace(
        panel, indicators=(panel.indicators[0], am.Indicator(2, label), panel.indicators[2])
    )


def _old_matrix_to_csv(matrix: CorrelationMatrix) -> str:
    """matrix_to_csv before the shared fixed-decimal formatter: the reference."""
    fmt = ",%.2f" * matrix.n
    lines = [",".join(["indicator_id", *map(str, matrix.indicator_ids)])]
    for ind_id, row in zip(matrix.indicator_ids, matrix.values):
        # "%f" renders NaN as "nan", and no number's text contains it
        lines.append(f"{ind_id}" + (fmt % tuple(row.tolist())).replace(",nan", ","))
    return "\n".join(lines) + "\n"


def _old_distances_to_csv(values, units=None) -> str:
    """distances_to_csv before the shared fixed-decimal formatter, on
    ``units`` (by default those of _units): the reference."""
    values = np.asarray(values, dtype=float)
    fmt = ",%.2f" * len(values)
    labels = [csv_field(unit) for unit in units or _units(len(values))]
    lines = [",".join(["unit", *labels])]
    for label, row in zip(labels, values):
        lines.append(label + fmt % tuple(row.tolist()))
    return "\n".join(lines) + "\n"


def _matrix(values) -> CorrelationMatrix:
    values = np.asarray(values, dtype=float)
    return CorrelationMatrix(tuple(range(1, len(values) + 1)), values, ())


def _units(m: int) -> tuple[str, ...]:
    return tuple(f"u{k}" if k % 2 else f'"u,{k}"' for k in range(m))


def _distances_csv(values, units=None) -> str:
    """The distance CSV of ``values`` as a matrix over ``units`` (by default
    those of _units): the text the CLI writes, in one string."""
    values = np.asarray(values, dtype=float)
    labels = [csv_field(unit) for unit in units or _units(len(values))]
    return "".join(matrix_csv_chunks("unit", labels, values))


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


# k = |x| * 100 either side of where an entry takes another digit, a second
# 8-byte word (10**5) or "%" (2**31), with negatives. A block's entries take
# the words its largest k needs: 99999 in ONE_WORD, 10**5 in TWO_WORDS, whose
# rows, as WORDS', mix one-word and two-word magnitudes.
ONE_WORD = [sign * k / 100 for sign in (1, -1) for k in (999, 1000, 9999, 10**4, 99999)] + [-0.0]
TWO_WORDS = ONE_WORD + [1000.0, -1000.0]
WORDS = TWO_WORDS + [sign * k / 100 for sign in (1, -1) for k in (10**8, 2**31 - 1, 2**31 + 1)]
# every entry of _rolled(PATCHED) is written by "%"
PATCHED = [0.125, 2.675, -1.005, np.inf, 3e9]
# unit labels of 0 to 17 UTF-8 bytes, some multibyte, and labels csv_field quotes
LABELS = ["é" * (n // 2) + "a" * (n % 2) for n in range(18)] + ["a,b", '"', "€,€€,"]


class TestWritersMatchOldWriters:
    """Both CSV writers give the bytes of the old per-row "%" writers."""

    @pytest.mark.parametrize("rows_per_block", [None, 1, 2], ids=["one block", "1 row", "2 rows"])
    @pytest.mark.parametrize(
        "values", [TIES, SIGNS, HUGE, ONE_WORD, TWO_WORDS, WORDS, PATCHED],
        ids=["ties", "signs", "huge", "one word", "two words", "words", "patched"],
    )
    def test_special_values(self, values, rows_per_block, monkeypatch):
        # an odd number of rows, so the last 2-row block is partial
        matrix = _rolled(values + [0.0] * (1 - len(values) % 2))
        if rows_per_block:
            block = rows_per_block * len(matrix)
            monkeypatch.setattr(writers, "_FORMAT_BLOCK_ELEMENTS", block)
        units = [LABELS[i % len(LABELS)] for i in range(len(matrix))]
        assert matrix_to_csv(_matrix(matrix)) == _old_matrix_to_csv(_matrix(matrix))
        assert _distances_csv(matrix, units) == _old_distances_to_csv(matrix, units)

    def test_every_special_value_at_once(self):
        matrix = _rolled(TIES + SIGNS + HUGE + WORDS)
        assert _distances_csv(matrix) == _old_distances_to_csv(matrix)
        matrix[::3, 1::2] = np.nan
        assert matrix_to_csv(_matrix(matrix)) == _old_matrix_to_csv(_matrix(matrix))

    def test_two_by_two(self):
        matrix = _matrix([[1.0, -0.0], [np.nan, 0.125]])
        assert matrix_to_csv(matrix) == _old_matrix_to_csv(matrix) == (
            "indicator_id,1,2\n1,1.00,-0.00\n2,,0.12\n"
        )
        distances = [[0.0, 2.675], [2.675, -1e-9]]
        assert _distances_csv(distances) == _old_distances_to_csv(distances) == (
            'unit,"""u,0""",u1\n"""u,0""",0.00,2.67\nu1,2.67,-0.00\n'
        )

    def test_one_entry_per_block(self, monkeypatch):
        monkeypatch.setattr(writers, "_FORMAT_BLOCK_ELEMENTS", 1)
        assert matrix_to_csv(_matrix([[0.375]])) == "indicator_id,1\n1,0.38\n"
        assert _distances_csv([[-0.0]]) == 'unit,"""u,0"""\n"""u,0""",-0.00\n'

    def test_pieces_are_the_header_then_each_block(self, monkeypatch):
        # 5 rows in blocks of 2 rows: the largest piece is one block, not the file
        monkeypatch.setattr(writers, "_FORMAT_BLOCK_ELEMENTS", 2 * 5)
        matrix = _rolled(TIES[:5])
        ids = [str(i) for i in _matrix(matrix).indicator_ids]
        units = [csv_field(unit) for unit in _units(len(matrix))]
        for pieces, old in (
            (matrix_csv_chunks("indicator_id", ids, matrix), _old_matrix_to_csv(_matrix(matrix))),
            (matrix_csv_chunks("unit", units, matrix), _old_distances_to_csv(matrix)),
        ):
            pieces = list(pieces)
            assert [piece.count("\n") for piece in pieces] == [1, 2, 2, 1]
            assert "".join(pieces) == old

    def test_nan_distance_is_an_empty_field(self):
        # the old distance writer wrote "nan"; no distance of a valid panel is NaN
        assert _distances_csv([[0.0, np.nan], [np.nan, 0.0]]) == (
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
            st.integers(-2**31 - 2, 2**31 + 2).map(lambda i: i / 100),  # k of every width
            st.sampled_from(TIES + SIGNS + HUGE + WORDS + PATCHED),
        )
        values = np.array(data.draw(st.lists(entry, min_size=size**2, max_size=size**2)))
        matrix = values.reshape(size, size)
        nan = np.array(data.draw(st.lists(st.booleans(), min_size=size**2, max_size=size**2)))
        label = st.one_of(st.text(max_size=9), st.sampled_from(LABELS))
        units = data.draw(st.lists(label, min_size=size, max_size=size))
        with mock.patch.object(writers, "_FORMAT_BLOCK_ELEMENTS", block):
            assert _distances_csv(matrix, units) == _old_distances_to_csv(matrix, units)
            matrix[nan.reshape(size, size)] = np.nan
            assert matrix_to_csv(_matrix(matrix)) == _old_matrix_to_csv(_matrix(matrix))


def test_writer_tables_total_at_most_64_kib():
    # a table per entry value (10**5 words, 800 KiB) would add to every run's RSS
    tables = [v for v in vars(writers).values() if isinstance(v, np.ndarray)]
    assert sum(t.nbytes for t in tables) <= 64 * 1024


@pytest.mark.parametrize("block", [1, 2, 3])
def test_one_block_size_cuts_every_chunked_writer(block):
    # 2 periods x 5 units x 4 indicators, each an affine function of one unit
    # factor, so all 6 pairs are edges in both periods
    factor = np.array([10.0, 30.0, 20.0, 60.0, 45.0])
    values = np.stack([factor, 100 - factor, factor / 2 + 7, 90 - factor], axis=1)
    panel = am.IndicatorPanel(
        periods=("a", "b"),
        units=tuple(f"u{k}" for k in range(5)),
        indicators=tuple(am.Indicator(k + 1, f"x{k + 1}") for k in range(4)),
        values=np.stack([values, values]),
    )
    results = list(am.analyze(panel))
    doc = {"metadata": {}, "periods": [_period_record(r) for r in results]}
    ids = [str(i) for i in panel.indicator_ids]
    units = [csv_field(unit) for unit in panel.units]

    def pieces() -> dict[str, list[str]]:
        return {
            "panel.csv": list(panel_module.panel_csv_chunks(panel)),
            "matrix": list(matrix_csv_chunks("indicator_id", ids,
                                             results[0].network.matrix.values)),
            "distances": list(matrix_csv_chunks("unit", units,
                                                distance_matrix(results[0].slice))),
            "report.json": list(_report_json(doc, [
                (r.network.matrix.indicator_ids, r.network.edge_a, r.network.edge_b,
                 r.network.edge_weight) for r in results
            ])),
        }

    default = pieces()
    with mock.patch.object(writers, "_FORMAT_BLOCK_ELEMENTS", block):
        patched = pieces()
    # a header, then one piece per block: a period's units (4 cells each, so
    # one per block) or a matrix row; report.json is its head and last
    # newline, and per period the edges' opening, their blocks of `block`
    # edges and the text after them
    assert {name: len(texts) for name, texts in default.items()} == {
        "panel.csv": 1 + 2, "matrix": 1 + 1, "distances": 1 + 1, "report.json": 2 + 2 * 3,
    }
    assert {name: len(texts) for name, texts in patched.items()} == {
        "panel.csv": 1 + 2 * 5, "matrix": 1 + 4, "distances": 1 + 5,
        "report.json": 2 + 2 * (2 + -(-6 // block)),
    }
    for name, texts in patched.items():
        assert "".join(texts) == "".join(default[name]), name

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
