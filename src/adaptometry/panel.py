"""Panel data model: periods x units x indicators prevalence tables.

The panel is the common input of every downstream computation. It is loaded
from long-format CSV (one row per cell) and kept as a dense, immutable
3-axis array.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from .writers import blocks, csv_field, float_reprs

CSV_HEADER = ("period", "unit", "indicator_id", "indicator_name", "value")

# Characters per chunk of parse_panel (see _line_chunks): each chunk's text,
# lines and field lists are the temporaries beyond the coded arrays. Parse
# time of 400x20x4, 60x300x4 and 300x150x4 synthgen panels was flat from 2**14
# to 2**16 and up to 20% slower at 2**12. The parse peak of 400x20x4 beyond
# its text was 1.15 times the text's length at 2**14, 1.18 at 2**15, 1.58 at
# 2**16 and 2.42 at 2**17.
_CHUNK_CHARS = 2**15

# The characters XML 1.0 cannot hold that strict UTF-8 decoding lets through,
# NUL aside, so no SVG chart can name a period holding one: the rest of C0
# but tab, line feed and carriage return, and the noncharacters U+FFFE, U+FFFF.
_NOT_XML = frozenset(map(chr, (*range(1, 9), 0xB, 0xC, *range(0xE, 0x20), 0xFFFE, 0xFFFF)))


class PanelError(ValueError):
    """Raised when panel input or an operation precondition is invalid."""


@dataclass(frozen=True)
class Indicator:
    id: int
    name: str


@dataclass(frozen=True)
class IndicatorPanel:
    """Dense prevalence table indexed (period, unit, indicator).

    Values are percentages in [0, 100]. The object is immutable; all
    operations return new panels or views.

    ``values`` becomes a read-only float64 C-order array. One that is already
    that is kept as it is, uncopied: read-only arrays are taken not to change,
    as ``values`` itself is. Any other input is copied, so a caller's later
    writes to a writeable array never reach the panel.
    """

    periods: tuple[str, ...]
    units: tuple[str, ...]
    indicators: tuple[Indicator, ...]
    values: np.ndarray  # shape (n_periods, n_units, n_indicators)

    def __post_init__(self):
        arr = self.values
        if not (type(arr) is np.ndarray and arr.dtype == np.float64
                and arr.flags.c_contiguous and not arr.flags.writeable):
            arr = np.array(arr, dtype=float, order="C")
        expected = (len(self.periods), len(self.units), len(self.indicators))
        if arr.shape != expected:
            raise PanelError(f"values shape {arr.shape} != {expected}")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n_periods(self) -> int:
        return len(self.periods)

    @property
    def n_units(self) -> int:
        return len(self.units)

    @property
    def n_indicators(self) -> int:
        return len(self.indicators)

    @property
    def indicator_ids(self) -> tuple[int, ...]:
        return tuple(ind.id for ind in self.indicators)


@dataclass(frozen=True)
class PeriodSlice:
    """Units x indicators matrix for one period."""

    period: str
    units: tuple[str, ...]
    indicator_ids: tuple[int, ...]
    matrix: np.ndarray  # shape (n_units, n_indicators)

    @property
    def n_units(self) -> int:
        return len(self.units)

    @property
    def n_indicators(self) -> int:
        return len(self.indicator_ids)


@dataclass
class ValidationReport:
    errors: list[tuple[str, str]] = field(default_factory=list)
    warnings: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def parse_panel(csv_text: str) -> IndicatorPanel:
    """Parse long-format panel CSV into a dense IndicatorPanel.

    Expected header: ``period,unit,indicator_id,indicator_name,value``.
    Lines starting with ``#`` are ignored. Ordering of periods, units and
    indicators follows first appearance. Every (period, unit, indicator)
    combination must appear exactly once. Rows are numbered by source line
    and a row never spans lines; lines holding ``"`` are read with standard
    CSV quoting, and surrounding whitespace in a field is dropped.

    The text is read one slice of whole lines at a time (see _line_chunks),
    a column at a time, so beyond the text only one slice's lines and the
    coded arrays are held. An error names the first bad row and, on it, the
    first check that fails, in this order: CSV quoting, field count,
    indicator id, value, range, indicator name, duplicate cell. Each check
    reads only the rows before the earliest failure found so far. With no bad
    row, a missing cell is named, the first in (period, unit, indicator) order.
    One stable sort of the rows' cells finds both duplicates and gaps, in
    memory that follows the rows, not the number of cells their labels span.
    """
    chunks = _line_chunks(csv_text)
    lines, linenos, quoted = next(chunks, ([], (), False))  # every chunk holds a line
    if not lines:
        raise PanelError("empty input")
    header = _csv_row(lines[0])
    if isinstance(header, str):
        raise PanelError(f"row {linenos[0]}: {header}")
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise PanelError(f"malformed header {header!r}, expected {','.join(CSV_HEADER)}")

    periods: dict[str, int] = {}  # label -> position, in first-appearance order
    units: dict[str, int] = {}
    ind_index: dict[int, int] = {}  # id -> position
    names: dict[int, str] = {}  # id -> name
    codes: tuple[list, ...] = ([], [], [], [], [])  # positions, values, line numbers; per chunk
    error = None  # the message for the row at the cut
    for chunk, nos, quoted in chain([(lines[1:], linenos[1:], quoted)], chunks):
        fields = None
        if not quoted and set(map(str.count, chunk, repeat(","))) == {4}:
            fields = ",".join(chunk).split(",")
        if fields is None or "" in map(str.strip, fields[2::5]):  # blank rows have no id
            fields, nos, error = _split_lines(chunk, nos)
        period, unit, raw_id, name, raw_value = (
            list(map(str.strip, fields[k::5])) for k in range(5)
        )
        ind_id = _read_prefix(int, raw_id)
        cut = len(ind_id)
        if cut < len(raw_id):
            error = f"row {nos[cut]}: non-integer indicator_id {raw_id[cut]!r}"
        value = _read_prefix(float, raw_value[:cut])
        if len(value) < cut:
            cut = len(value)
            error = f"row {nos[cut]}: non-numeric value {raw_value[cut]!r}"
        value = np.array(value, dtype=float)
        outside = ~((value >= 0.0) & (value <= 100.0))  # also true for NaN
        if outside.any():
            cut = int(np.argmax(outside))
            error = f"row {nos[cut]}: value {float(value[cut])} outside [0, 100]"
        for label, known in dict.fromkeys(zip(ind_id[:cut], name)):  # first appearance order
            first = names.setdefault(label, known)
            if first != known:
                cut = list(zip(ind_id, name)).index((label, known))
                error = f"row {nos[cut]}: indicator {label} renamed {first!r} -> {known!r}"
                break
            ind_index.setdefault(label, len(ind_index))
        period, unit, ind_id = period[:cut], unit[:cut], ind_id[:cut]
        for index, column in ((periods, period), (units, unit)):
            for label in dict.fromkeys(column):
                index.setdefault(label, len(index))
        for pieces, piece in zip(codes, (
            np.fromiter(map(periods.__getitem__, period), np.int32, cut),
            np.fromiter(map(units.__getitem__, unit), np.int32, cut),
            np.fromiter(map(ind_index.__getitem__, ind_id), np.int32, cut),
            value[:cut],
            nos[:cut],
        )):
            pieces.append(piece)
        if error is not None:
            break

    *arrays, row_nos = codes
    if error is None and not sum(map(len, arrays[3])):
        raise PanelError("no data rows")
    shape = (len(periods), len(units), len(ind_index))
    # no array holds more entries than the file has rows; each is deleted
    # once read for the last time
    order, pu, i = _rows_by_cell(*arrays[:3], shape[1])
    value = _joined(arrays[3])

    def cell(pu, i):  # the labels of the cell keyed (pu, i), on an error path only
        return list(periods)[pu // shape[1]], list(units)[pu % shape[1]], list(ind_index)[i]

    again = np.flatnonzero((pu[1:] == pu[:-1]) & (i[1:] == i[:-1])) + 1
    if again.size:  # places whose cell the place before holds: take the earliest row
        s = again[np.argmin(order[again])]
        row = list(chain.from_iterable(row_nos))[order[s]]
        raise PanelError(f"row {row}: duplicate cell {cell(int(pu[s]), int(i[s]))}")
    if error is not None:
        raise PanelError(error)
    if value.size != shape[0] * shape[1] * shape[2]:
        # cells rise strictly in C order, and the j-th is at position j or
        # after it, so those at their own j are a prefix, and the first gap
        # in C order is their count
        j = np.arange(order.size)
        gap = cell(*divmod(np.count_nonzero((pu == j // shape[2]) & (i == j % shape[2])),
                           shape[2]))
        raise PanelError("missing cell (period={}, unit={}, indicator={})".format(*gap))
    values = value[order]
    del pu, i, order, value
    values.flags.writeable = False  # so the panel keeps it, uncopied
    return IndicatorPanel(
        periods=tuple(periods),
        units=tuple(units),
        indicators=tuple(Indicator(i, name) for i, name in names.items()),
        values=values.reshape(shape),
    )


def _rows_by_cell(
    p_pieces: list, u_pieces: list, i_pieces: list, n_units: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows in the C order of their cells, those of one cell in file
    order, and the keys (period and unit, indicator) of their cells in that
    order, from the pieces of each row's int32 codes (the lists are emptied).
    The first key is under 2**62 however many cells the labels span."""
    pu_at = _joined(p_pieces).astype(np.intp) * n_units
    pu_at += _joined(u_pieces)
    i_at = _joined(i_pieces)
    order = np.lexsort((i_at, pu_at))
    return order, pu_at[order], i_at[order]


def _line_chunks(text: str) -> Iterator[tuple[list[str], Sequence[int], bool]]:
    """The lines of ``text`` as ``str.splitlines`` cuts them, in chunks, each
    with the 1-based line numbers of its lines and whether it holds a ``"``.

    A chunk is the text from the end of the last one to just after the first
    ``\\n`` at least _CHUNK_CHARS characters on, or to the end. A cut right
    after a ``\\n`` never splits a ``\\r\\n``, so the lines and their numbers
    are those of the whole text. Lines starting with ``#`` are dropped, and a
    chunk left with no lines is skipped.
    """
    start, lineno = 0, 1
    while start < len(text):
        end = text.find("\n", start + _CHUNK_CHARS) + 1 or len(text)
        piece = text[start:end]
        lines = piece.splitlines()
        linenos: Sequence[int] = range(lineno, lineno + len(lines))
        start, lineno = end, lineno + len(lines)
        if "#" in piece:
            kept = [not line.lstrip().startswith("#") for line in lines]
            lines, linenos = list(compress(lines, kept)), list(compress(linenos, kept))
        if lines:
            yield lines, linenos, '"' in piece


def _joined(pieces: list) -> np.ndarray:
    """The pieces as one array; the list is emptied, so they can be freed
    before the next column is joined."""
    out = np.concatenate(pieces)
    pieces.clear()
    return out


def _split_lines(
    chunk: list[str], linenos: Sequence[int]
) -> tuple[list[str], list[int], str | None]:
    """The fields of a chunk read one line at a time, blank rows dropped, up
    to the first row that csv cannot read or that has not 5 fields; the line
    numbers of the rows read; and that row's error, if any."""
    fields: list[str] = []
    kept: list[int] = []
    for lineno, line in zip(linenos, chunk):
        row = _csv_row(line) if '"' in line else line.split(",")
        if isinstance(row, str):
            return fields, kept, f"row {lineno}: {row}"
        if not "".join(row).strip():
            continue
        if len(row) != 5:
            return fields, kept, f"row {lineno}: expected 5 fields, got {len(row)}"
        fields += row
        kept.append(lineno)
    return fields, kept, None


def _read_prefix(kind: type, fields: list[str]) -> list:
    """``kind`` of each field, up to the first field it does not read."""
    out: list = []
    try:
        out.extend(map(kind, fields))
    except ValueError:
        pass  # out holds every field before that one, converted
    return out


def serialize_panel(panel: IndicatorPanel) -> str:
    """Emit the panel in the same long-format CSV accepted by parse_panel:
    the text of panel_csv_chunks, in one string."""
    return "".join(panel_csv_chunks(panel))


def panel_csv_chunks(panel: IndicatorPanel) -> Iterator[str]:
    """The long-format CSV of the panel in pieces: the header, then one text
    per block of whole units of one period (writers.blocks, a cell per
    entry), each formatted in one pass. A value reads as an integer where it
    is one, else as ``repr`` writes it, the shortest text that reads back as
    it (float_reprs: exact numpy digits from 1e-2 to 1e15, repr elsewhere).

    parse_panel reads one row per ``str.splitlines`` line and strips each
    field, so a label holding a line boundary (``\\n``, ``\\r``, ``\\x0b``,
    ``\\x85``, ``\\u2028``, ...) or starting or ending in whitespace raises
    PanelError. It raises here, before the first piece is asked for. It
    drops a line that starts with ``#`` as a comment, so a period label that
    starts with one is quoted (synth writes none: its config cuts at ``#``).
    """
    for label in (*panel.periods, *panel.units, *(ind.name for ind in panel.indicators)):
        if "".join(label.splitlines()).strip() != label:
            raise PanelError(
                f"label {label!r} holds a line break or surrounding whitespace, "
                "so parse_panel could not read it back"
            )
    # parse_panel drops a line starting with "#"; csv_field quotes no such field
    periods = [f'"{f}"' if f.startswith("#") else f for f in map(csv_field, panel.periods)]
    units = [csv_field(unit) for unit in panel.units]
    indicators = [f",{ind.id},{csv_field(ind.name)}," for ind in panel.indicators]
    return chain([",".join(CSV_HEADER) + "\n"], (
        _panel_block([f"{period},{unit}" for unit in units[rows]], indicators, values[rows])
        for period, values in zip(periods, panel.values)
        for rows in blocks(len(units), len(indicators))
    ))


def _panel_block(prefixes: list[str], indicators: list[str], block: np.ndarray) -> str:
    """The rows of a units x indicators block, one per cell, each line
    ``prefix,id,name,value``: four texts per line, joined in one go. The
    block is whole units, one writers.blocks block of cells (or one unit), so
    only one block's texts are held at once."""
    flat = block.ravel()
    texts = ["\n"] * (4 * flat.size)
    texts[0::4] = [prefix for prefix in prefixes for _ in indicators]
    texts[1::4] = indicators * len(prefixes)
    texts[2::4] = float_reprs(flat)
    # float.is_integer, vectorized: finite and integral
    whole = np.flatnonzero(np.isfinite(flat) & (flat == np.trunc(flat)))
    for k, v in zip(whole.tolist(), flat[whole].tolist()):
        texts[4 * k + 2] = str(int(v))
    return "".join(texts)


def validate(panel: IndicatorPanel) -> ValidationReport:
    """Check panel invariants; returns a report instead of raising.

    Errors: non-finite or out-of-range values, period labels not strictly
    increasing, unusable as file names or equal under ``str.casefold``,
    duplicate unit or indicator labels, fewer than 2 units. Warnings:
    zero-variance (period, indicator) pairs, for which Pearson correlation
    downstream is undefined.
    """
    report = ValidationReport(errors=period_label_errors(panel.periods))
    if len(set(panel.units)) != panel.n_units:
        report.errors.append(("units", "duplicate unit labels"))
    if len(set(panel.indicator_ids)) != panel.n_indicators:
        report.errors.append(("indicators", "duplicate indicator ids"))
    if panel.n_units < 2:
        report.errors.append(("units", f"need at least 2 units, got {panel.n_units}"))
    bad = ~np.isfinite(panel.values) | (panel.values < 0) | (panel.values > 100)
    for p_i, u_i, i_i in zip(*np.nonzero(bad)):
        report.errors.append(
            (
                f"({panel.periods[p_i]}, {panel.units[u_i]}, "
                f"{panel.indicators[i_i].id})",
                f"value {panel.values[p_i, u_i, i_i]} outside [0, 100]",
            )
        )
    # across fewer than 2 units every variance is zero, and the run fails anyway
    if panel.n_units >= 2:
        for p_i, i_i in zip(*np.nonzero(zero_variance(panel.values, 1))):
            loc = f"({panel.periods[p_i]}, {panel.indicators[i_i].id})"
            report.warnings.append((loc, "zero variance across units"))
    return report


def zero_variance(values: np.ndarray, units_axis: int) -> np.ndarray:
    """Whether all values along the units axis are equal, tested exactly.

    Not through the variance: a constant with an inexact mean (0.7 over 3
    units) has a computed variance of about 1e-32, not 0.
    """
    return values.min(axis=units_axis) == values.max(axis=units_axis)


def period_label_errors(periods: Sequence[str]) -> list[tuple[str, str]]:
    """(location, message) for each period label that cannot name an output
    file: empty, ``.`` or ``..``, holding ``/``, ``\\`` or NUL, holding a
    character that XML 1.0, and so an SVG chart, cannot carry, over 251 bytes of
    UTF-8, or equal to an earlier label under ``str.casefold``; then one for
    each label not greater than the one before it."""
    errors = []
    folded: dict[str, str] = {}  # casefolded label -> first label with it
    for period in periods:
        if period in ("", ".", "..") or "/" in period or "\\" in period or "\0" in period:
            errors.append((
                f"period {period!r}",
                "period labels name output files: not empty, '.' or '..', no '/', '\\' or NUL",
            ))
        if not _NOT_XML.isdisjoint(period):
            errors.append((
                f"period {period!r}",
                "period labels are chart text: no character XML 1.0 cannot hold "
                "(U+0001-U+0008, U+000B, U+000C, U+000E-U+001F, U+FFFE, U+FFFF)",
            ))
        # "<label>.csv" may not exceed 255 bytes, the file-name limit of ext4,
        # xfs, btrfs and tmpfs
        if len(period.encode()) > 251:
            errors.append((
                f"period {period!r}",
                "period labels name output files: at most 251 bytes of UTF-8, so that "
                "'<label>.csv' fits a 255-byte file name",
            ))
        first = folded.setdefault(period.casefold(), period)
        if first != period:
            errors.append((
                f"period {period!r}",
                f"period labels {first!r} and {period!r} differ only in case, so their "
                "output files collide on case-insensitive file systems",
            ))
    for a, b in zip(periods, periods[1:]):
        if not a < b:
            errors.append(
                (f"period {b!r}", f"period labels not strictly increasing ({a!r} then {b!r})")
            )
    return errors


def exclude_indicators(panel: IndicatorPanel, ids: Iterable[int]) -> IndicatorPanel:
    """Return a panel with the given indicator columns removed everywhere."""
    ids = set(ids)
    if not ids:
        return panel  # immutable, so no copy is needed
    unknown = ids - set(panel.indicator_ids)
    if unknown:
        raise PanelError(f"unknown indicator ids: {sorted(unknown)}")
    keep = [i for i, ind in enumerate(panel.indicators) if ind.id not in ids]
    values = np.take(panel.values, keep, axis=2)  # C order, unlike values[:, :, keep]
    values.flags.writeable = False  # so the panel keeps it, uncopied
    return IndicatorPanel(
        periods=panel.periods,
        units=panel.units,
        indicators=tuple(panel.indicators[i] for i in keep),
        values=values,
    )


def slice_period(panel: IndicatorPanel, period: str) -> PeriodSlice:
    """Units x indicators view of one period."""
    try:
        p_i = panel.periods.index(period)
    except ValueError:
        raise PanelError(f"unknown period {period!r}") from None
    return PeriodSlice(
        period=period,
        units=panel.units,
        indicator_ids=panel.indicator_ids,
        matrix=panel.values[p_i],
    )


def _csv_row(line: str) -> list[str] | str:
    """The fields of ``line`` read as CSV, or csv's complaint about it."""
    try:
        return next(csv.reader([line]), [])
    except csv.Error as exc:  # a quoted field longer than csv.field_size_limit()
        return str(exc)
