"""Each input parser, given any text, returns its object or raises its own error.

The CLI turns exactly these errors into a one-line message and an exit code,
so any other exception would reach the user as a traceback. The last tests
run the whole CLI on fuzzed inputs and options.
"""

import contextlib
import importlib.util
import io
import os
import pathlib
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adaptometry import panel as panel_module
from adaptometry.cli import main
from adaptometry.panel import CSV_HEADER, IndicatorPanel, PanelError, parse_panel
from adaptometry.synthgen import SynthConfig, SynthConfigError, parse_synth_config
from adaptometry.variation import GroupedIndicatorTable, VariationError, parse_grouped_table
from oracles import oracle_parse_panel

# Fields that reach each branch of the parsers: numbers in and out of range,
# non-finite and non-numeric values, quotes, comments, separators, line
# breaks and period tokens. Integers stay small: a config may ask for that
# many indicators.
FIELDS = st.one_of(
    st.sampled_from([
        "", " ", "0", "1", "2", "3", "-1", "7.5", "50", "100", "100.5", "1e400", "-0", "nan",
        "inf", "0x1", "1_0", "\u0663", "2020", "a", "A", '"', '""', '"a,b"', '"a""b"', "#",
        "=", ":", ",", "\x00", "\r", "\u2028", "\xff", "2020-01:baseline", "2020-06:stressed",
    ]),
    st.text(max_size=5),
)


def texts(header: str, n_fields: int):
    """Any text, or rows of fuzz fields, most of them ``n_fields`` long, after
    an optional valid ``header``."""
    row = st.one_of(
        st.lists(FIELDS, min_size=n_fields, max_size=n_fields), st.lists(FIELDS, max_size=6)
    )
    lines = st.lists(row.map(",".join), max_size=10)
    return st.one_of(
        st.text(),
        st.tuples(st.sampled_from(["", header + "\n"]), lines).map(
            lambda t: t[0] + "\n".join(t[1])
        ),
    )


SYNTH_KEYS = (
    "units", "indicators", "periods", "baseline_means", "noise_sd", "loading_baseline",
    "loading_stressed", "variance_multiplier", "seed",
)


def synth_texts():
    """Any text, or ``key = value`` lines: every key, or a random mix of keys,
    with fuzz values."""
    value = st.lists(FIELDS, min_size=1, max_size=3).map(",".join)
    every_key = st.fixed_dictionaries({key: value for key in SYNTH_KEYS}).map(
        lambda config: list(config.items())
    )
    some_keys = st.lists(st.tuples(st.sampled_from(SYNTH_KEYS + ("extra", "")), value))
    return st.one_of(
        st.text(),
        st.one_of(every_key, some_keys).map(
            lambda pairs: "\n".join(f"{key} = {text}" for key, text in pairs)
        ),
    )


@settings(max_examples=200, deadline=None)
@given(text=texts(",".join(CSV_HEADER), 5))
@example(text=",".join(CSV_HEADER) + "\n2020,A,1,a,10\n2020,B,1,a,20\n")
def test_parse_panel(text):
    try:
        result = parse_panel(text)
    except PanelError:
        return
    assert isinstance(result, IndicatorPanel)


# Panel values at the numerical edges: tiny values whose squares underflow,
# the smallest normal and subnormal doubles, constants with inexact means
# (0.7, 0.1) and the ends of [0, 100].
VALUES = st.one_of(
    st.sampled_from([
        0.0, 100.0, 50.0, 0.7, 0.1, 1e-200, 2e-200, 3e-200, 2.2250738585072014e-308, 5e-324,
        1e-15, 99.99999999999999,
    ]),
    st.floats(0, 100),
)


@st.composite
def plain_grids(draw):
    """A panel file as serialize_panel writes one, with at most one defect:
    padded fields, a value that float reads in another form, a renamed
    indicator, a duplicate or missing cell, a value out of range, or a few
    rows bringing new labels (sparse, so cells go missing); its rows perhaps
    shuffled, so duplicates and gaps come out of C order; then perhaps
    decorated with lines the reader skips (comments, blank lines, ``,,,,``
    rows) and one quoted field."""
    shape = draw(st.tuples(st.integers(1, 2), st.integers(1, 3), st.integers(1, 3)))
    rows = [
        [f"p{p}", f"u{u}", str(i), f"x{i}", draw(VALUES.map(_value_text))]
        for p in range(shape[0]) for u in range(shape[1]) for i in range(1, shape[2] + 1)
    ]
    k = draw(st.integers(0, len(rows) - 1))
    defect = draw(st.sampled_from(["none", "pad", "form", "rename", "duplicate", "missing",
                                   "range", "sparse"]))
    if defect == "pad":  # in one row, or in every row
        field = draw(st.integers(0, 4))
        pad = draw(st.sampled_from([" ", "\t", "\u3000"]))
        for row in rows if draw(st.booleans()) else [rows[k]]:
            row[field] = pad + row[field] + draw(st.sampled_from(["", " "]))
    elif defect == "form":
        rows[k][4] = draw(st.sampled_from(["1e1", "+5", "1_0", "-0", "\u0663", "0x1", "5."]))
    elif defect == "rename":
        rows[k][3] += "y"
    elif defect == "duplicate":  # an extra row, or one in place of another cell's
        at = draw(st.integers(0, len(rows)))
        rows[at:at + draw(st.integers(0, 1))] = [rows[k][:4] + ["7"]]
    elif defect == "missing":
        del rows[k]
    elif defect == "range":
        rows[k][4] = draw(st.sampled_from(["-1", "100.5", "nan", "inf", "1e400", "-1e-300"]))
    elif defect == "sparse":  # each label new or the first one
        for j in range(draw(st.integers(1, 3))):
            p = draw(st.sampled_from(["p0", f"p{shape[0] + j}"]))
            u = draw(st.sampled_from(["u0", f"u{shape[1] + j}"]))
            i = draw(st.sampled_from([1, shape[2] + 1 + j]))
            rows.append([p, u, str(i), f"x{i}", "5"])
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    lines = [",".join(row) for row in rows]
    if draw(st.booleans()):
        if rows and draw(st.booleans()):
            j = draw(st.integers(0, len(rows) - 1))
            field = draw(st.integers(0, 4))
            lines[j] = ",".join(f'"{f}"' if n == field else f for n, f in enumerate(rows[j]))
        skipped = st.sampled_from(["# c", " #x,1,2,3,4", "", " ", ",,,,", " , ,\t,,", '""', ",,"])
        for _ in range(draw(st.integers(1, 3))):
            lines.insert(draw(st.integers(0, len(lines))), draw(skipped))
    return ",".join(CSV_HEADER) + "\n" + "".join(line + "\n" for line in lines)


def _value_text(v: float) -> str:
    return str(int(v)) if v.is_integer() else repr(v)


def _assert_parses_as_oracle(text):
    """parse_panel gives what the line-by-line oracle gives: the same panel,
    or the same error."""
    try:
        want = oracle_parse_panel(text)
    except PanelError as exc:
        with pytest.raises(PanelError) as got:
            parse_panel(text)
        assert str(got.value) == str(exc)
        return
    got = parse_panel(text)
    assert (got.periods, got.units, got.indicators) == (want.periods, want.units, want.indicators)
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(np.signbit(got.values), np.signbit(want.values))


PARITY_TEXTS = texts(",".join(CSV_HEADER), 5) | plain_grids()
HEAD = ",".join(CSV_HEADER)

# Every character str.strip removes, at the start and at the end of labels,
# ids and values, in an otherwise plain chunk: each text reads as the same
# panel, or fails on the same row, with every field stripped. The line
# boundaries among them cut their rows instead.
SPACES = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
PADDED = [text for c in SPACES for text in (
    f"{HEAD}\n{c}a,u{c},1,{c}x,5\na{c},{c}v,1,x{c},6\n",
    f"{HEAD}\n{c}a,u,{c}1,x,5\na,v,1{c},x,5\na,w,{c}z{c},x,5\n",
    f"{HEAD}\n{c}a,u,1,x,{c}5\na,v,1,x,5{c}\na,w,1,x,{c}z{c}\n",
)] + [f"{HEAD}\n a,u,1,x,5\na,v,1,x,5 \n"]  # only the chunk's first and last characters
# One id written four ways: the same indicator while its name holds, a
# rename when it changes, wherever the rows fall into chunks.
SPELLINGS = [f"{HEAD}\na,u,1,x,5\na,v,01,x,5\na,w,+1,x,5\na,z, 1,x,5\n"] + [
    f"{HEAD}\na,u,1,x,5\na,v,1,x,5\na,w,{spelling},y,5\n" for spelling in ["1", "01", "+1", " 1"]
]
# A bad id after good ones: its first row is the cut, not its place among
# the chunk's id texts.
BAD_ID = f"{HEAD}\na,u,1,x,5\na,v,2,y,5\na,w,1,x,5\na,z,2,y,5\na,t,2,y,5\na,s,q,x,5\na,r,p,x,5\n"
# Non-ASCII labels: U+2C3C holds a 0x2C byte in UTF-16, not in UTF-8, so its
# line keeps its 4 fields; a lone surrogate has no strict UTF-8 form at all.
NON_ASCII = [
    f"{HEAD}\na,u,1,x,5\na,\u2c3c,1,x\na,w,1,x,5\n",
    f"{HEAD}\na,\ud800,1,x,5\na,v,1,x,5\n",
]


# Each line boundary of str.splitlines but "\n": just before and just after a
# cut, inside a chunk, and at the end of the text
BREAKS = [c for c in SPACES if c != "\n" and len(f"a{c}b".splitlines()) == 2]
BREAK_TEXTS = [text for c in BREAKS for text in (
    f"{HEAD}\na,u,1,x,5{c}\n{c}a,v,1,x,5{c}a,w,1,x,z\n",
    f"{HEAD}\na,u,1,x,5\na,v,1,x,5{c}",
)]


def examples(cases, **arguments):
    """An explicit example of the test for each text in ``cases``."""
    def decorate(test):
        for text in cases:
            test = example(text=text, **arguments)(test)
        return test
    return decorate


@settings(max_examples=300, deadline=None)
@given(text=PARITY_TEXTS)
@example(text=",".join(CSV_HEADER) + "\n 2020,A,1,a,-0\n 2020,B,1,a,1e1\n")
@example(text=",".join(CSV_HEADER) + "\na,u,1,x,5\na,v,1,x,5\nb,u,1,x,5\nb,u,1,x,6\n")
@example(text=",".join(CSV_HEADER) + "\na,1,1,x,5,2\n1,1,x,5\n")  # 6 fields, then 4
@example(text=",".join(CSV_HEADER) + "\na,u,1,x,100.5\na,v,1,x,5\n")
@example(text=",".join(CSV_HEADER) + "\na,u,1,x,5\n,,,,\na,v,1,x,5\n")
# indicator 2 comes first in C order, but the first repeat is row 4's, of indicator 1
@example(text=",".join(CSV_HEADER) + "\na,u,2,B,5\na,u,1,A,5\na,u,1,A,5\na,u,2,B,5\n")
# the cut row's error, not the cells the rows before it leave missing
@example(text=",".join(CSV_HEADER) + "\na,u,1,x,5\nb,v,2,y,5\na,u,1,x,z\n")
@examples(PADDED + SPELLINGS + [BAD_ID] + NON_ASCII)
def test_parse_panel_is_the_line_parser(text):
    _assert_parses_as_oracle(text)


@settings(max_examples=300, deadline=None)
@given(text=PARITY_TEXTS, chunk_chars=st.integers(0, 24))
@example(text=HEAD + "\na,u,1,x,5\na,v,1,y,5\na,u,1,x,5\n", chunk_chars=0)
@example(text=HEAD + "\na,u,1,x,5\na,u,1,x,5\na,v,1,y,5\n", chunk_chars=10)
# a line boundary other than "\n" just before and just after each cut, and
# inside a chunk; the bad value's row number counts every line before it
@example(text=HEAD + "\r\na,u,1,x,5\r\n\r\na,v,1,x,5\r\na,w,1,x,z\r\n", chunk_chars=0)
@examples(BREAK_TEXTS, chunk_chars=0)
@examples(BREAK_TEXTS, chunk_chars=24)
# first chunks of comments only, or of a blank line, before the header
@example(text="# c\n#,,,,\n" + HEAD + "\na,u,1,x,5\na,v,1,x,5\n", chunk_chars=0)
@example(text="# c\n\n" + HEAD + "\na,u,1,x,5\na,v,1,x,5\n", chunk_chars=0)
# a '"' in a later chunk only, on a line with 4 commas
@example(text=HEAD + '\na,u,1,x,5\n"a",v,1,x,5\n', chunk_chars=0)
# no "\n" at all: one chunk
@example(text=HEAD + "\ra,u,1,x,5\ra,v,1,x,5", chunk_chars=0)
@example(text=HEAD, chunk_chars=0)
# the same id spellings, bad id and rename a chunk or more after the rows
# they follow: a chunk of known ids compares its names in bulk
@examples(SPELLINGS + [BAD_ID] + NON_ASCII, chunk_chars=0)
@examples(SPELLINGS + [BAD_ID], chunk_chars=20)
@example(text=HEAD + "\na,u,1,x,5\na,v,2,y,5\na,w,2,y,5\na,z,1,X,5\n", chunk_chars=0)
@example(text=HEAD + "\na,u,1,x,5\na,v,2,y,5\na,w,2,y,5\na,z,1,X,5\n", chunk_chars=20)
def test_parse_panel_in_small_chunks_is_the_line_parser(text, chunk_chars):
    """Chunks of one "\\n" line (0 characters) and a few put renamed and
    duplicate rows in another chunk than the rows they repeat."""
    with mock.patch.object(panel_module, "_CHUNK_CHARS", chunk_chars):
        _assert_parses_as_oracle(text)


def _workloads():
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["reference", "tall", "wide", "synth"])
def test_benchmark_inputs_take_the_column_path(name, tmp_path):
    """The reference panel and the benchmark's seed-1 panels read each chunk
    as plain column slices: no chunk is read a line at a time or stripped,
    and no value column is read again to find a bad row."""
    if name == "reference":
        path = pathlib.Path(__file__).parent / "data" / "ukraine_fears_panel.csv"
    else:
        workload = _workloads().prepare(name, 1, tmp_path)
        path = tmp_path / "panel.csv"
        if name == "synth":  # the panel the synth op writes
            assert main(workload.argv) == 0
            path = workload.out / "panel.csv"
    text = path.read_text()
    with contextlib.ExitStack() as stack:
        lines, stripped, prefix = (
            stack.enter_context(
                mock.patch.object(panel_module, spied, wraps=getattr(panel_module, spied))
            )
            for spied in ("_split_lines", "_stripped", "_read_prefix")
        )
        _assert_parses_as_oracle(text)
    assert lines.call_count == stripped.call_count == 0
    assert {call.args[0] for call in prefix.call_args_list} == {int}  # id texts only


@settings(max_examples=200, deadline=None)
@given(text=texts("indicator_id,group,value", 3))
@example(text="indicator_id,group,value\n1,A,10\n1,B,20\n")
def test_parse_grouped_table(text):
    try:
        result = parse_grouped_table(text)
    except VariationError:
        return
    assert isinstance(result, GroupedIndicatorTable)


@settings(max_examples=200, deadline=None)
@given(text=synth_texts())
@example(text="\n".join(f"{key} = {value}" for key, value in zip(
    SYNTH_KEYS, ["3", "2", "2020-01:baseline", "50", "1", "0", "1", "1", "0"]
)))
def test_parse_synth_config(text):
    try:
        result = parse_synth_config(text)
    except SynthConfigError:
        return
    assert isinstance(result, SynthConfig)


# Period labels in order, or else out of order, equal but for case, naming no
# file, or holding a character that no SVG chart can hold.
PERIODS = st.sampled_from([["2020"], ["2020", "2021"]]) | st.lists(
    st.sampled_from(["2020", "2021", "2022", "2020-a", "2020-A", "..", "a/b", "a\x00b",
                     "a\x01b", "a\ufffeb", "a\uffffb"]),
    min_size=1, max_size=3, unique=True,
)


@st.composite
def panel_texts(draw):
    """A dense panel of edge values, or any text."""
    if draw(st.integers(0, 3)) == 0:
        return draw(texts(",".join(CSV_HEADER), 5))
    periods = draw(PERIODS)
    n_units, n_indicators = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    size = len(periods) * n_units * n_indicators
    values = draw(st.lists(VALUES, min_size=size, max_size=size))
    cells = [(p, u, i) for p in periods for u in range(n_units) for i in range(1, n_indicators + 1)]
    rows = [f"{p},u{u},{i},x{i},{v!r}\n" for (p, u, i), v in zip(cells, values)]
    return ",".join(CSV_HEADER) + "\n" + "".join(rows)


@st.composite
def grouped_texts(draw):
    """A table over indicator ids 1-5 with edge values, or any text."""
    if draw(st.integers(0, 3)) == 0:
        return draw(texts("indicator_id,group,value", 3))
    ids = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5, unique=True))
    n_groups = draw(st.integers(1, 3))
    rows = [f"{i},g{g},{draw(VALUES)!r}\n" for i in ids for g in range(n_groups)]
    return "indicator_id,group,value\n" + "".join(rows)


POSITIVE = st.sampled_from([1e-200, 5e-324, 1.0, 4.0]) | st.floats(0, 1e3, exclude_min=True)
PERCENT = st.sampled_from([0.0, 1e-200, 100.0]) | st.floats(0, 100)


@st.composite
def synth_config_texts(draw):
    """A valid config of small sizes and edge values, often with one key
    replaced by a fuzz value or dropped, or any text."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text())
    indicators = draw(st.integers(1, 4))
    labels = draw(st.lists(st.sampled_from(["2020-01", "2020-02", "2020-03"]),
                           min_size=1, max_size=3, unique=True))
    regimes = st.sampled_from(["baseline", "stressed"])
    means = draw(st.lists(PERCENT, min_size=1, max_size=1) |
                 st.lists(PERCENT, min_size=indicators, max_size=indicators))
    loading_baseline, loading_stressed = sorted(draw(st.lists(PERCENT, min_size=2, max_size=2)))
    config = {
        "units": draw(st.integers(2, 6)),
        "indicators": indicators,
        "periods": ", ".join(f"{label}:{draw(regimes)}" for label in sorted(labels)),
        "baseline_means": ", ".join(map(repr, means)),
        "noise_sd": repr(draw(POSITIVE)),
        "loading_baseline": repr(loading_baseline),
        "loading_stressed": repr(loading_stressed),
        "variance_multiplier": repr(1 + draw(POSITIVE)),
        "seed": draw(st.integers(0, 2**64)),
    }
    key = draw(st.sampled_from(sorted(config)))
    edit = draw(st.integers(0, 3))
    if edit == 0:
        del config[key]
    elif edit == 1:
        config[key] = draw(FIELDS | st.sampled_from(["-1", "nan", "inf", "1e308", "2020-01:calm"]))
    return "".join(f"{key} = {value}\n" for key, value in config.items())


def write(directory, name, text):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def check_cli(argv, out):
    """``main`` exits 0, 1 or 2, every stderr line is an error or a warning,
    and a failed run leaves no ``out``."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(argv + ["--out", out])
    assert code in (0, 1, 2)
    assert all(line.startswith(("error: ", "warning: "))
               for line in stderr.getvalue().splitlines())
    assert code == 0 or not os.path.exists(out)


TINY_PANEL = ",".join(CSV_HEADER) + "\n" + "".join(
    f"2020,{unit},{i},x{i},{v!r}\n"
    for unit, row in zip("abc", [(1e-200, 1.0, 2.0), (3e-200, 2.0, 4.0), (2e-200, 3.0, 6.0)])
    for i, v in enumerate(row, start=1)
)


@settings(max_examples=100, deadline=None)
@given(
    panel=panel_texts(),
    grouped=st.none() | grouped_texts(),
    threshold=st.none() | st.sampled_from(["0.5", "1e-200"]) | st.floats().map(repr),
    exclude=st.none() | st.lists(FIELDS | st.integers(-1, 6).map(str), max_size=3).map(",".join),
    policy=st.none() | st.sampled_from(["topk:0", "topk:9", "topk:-1", "threshold:0",
                                        "threshold:1e-200", "threshold:nan", "threshold:-1",
                                        "bogus"]) | st.text(max_size=8),
    estimator=st.sampled_from(["sample", "unnormalized"]),
    plots=st.booleans(),
)
@example(panel=TINY_PANEL, grouped=None, threshold=None, exclude=None, policy=None,
         estimator="sample", plots=False)
@example(panel=TINY_PANEL.replace("2020", "a\x00b"), grouped=None, threshold=None, exclude=None,
         policy=None, estimator="sample", plots=False)
def test_cli_analyze(panel, grouped, threshold, exclude, policy, estimator, plots):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["analyze", "--input", write(tmp, "panel.csv", panel),
                f"--cv-estimator={estimator}"] + ["--plots"] * plots
        if grouped is not None:
            argv += ["--grouped", write(tmp, "grouped.csv", grouped)]
        for flag, value in (("threshold", threshold), ("exclude", exclude),
                            ("flag-policy", policy)):
            if value is not None:
                argv.append(f"--{flag}={value}")
        check_cli(argv, os.path.join(tmp, "out"))


@settings(max_examples=100, deadline=None)
@given(config=synth_config_texts(), seed=st.none() | st.integers(-2, 2**64))
def test_cli_synth(config, seed):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["synth", "--config", write(tmp, "synth.cfg", config)]
        if seed is not None:
            argv.append(f"--seed={seed}")
        check_cli(argv, os.path.join(tmp, "out"))
