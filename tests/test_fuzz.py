"""Each input parser, given any text, returns its object or raises its own error.

The CLI turns exactly these errors into a one-line message and an exit code,
so any other exception would reach the user as a traceback.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from adaptometry.panel import CSV_HEADER, IndicatorPanel, PanelError, parse_panel
from adaptometry.synthgen import SynthConfig, SynthConfigError, parse_synth_config
from adaptometry.variation import GroupedIndicatorTable, VariationError, parse_grouped_table

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
