"""Panel data model: periods x units x indicators prevalence tables.

The panel is the common input of every downstream computation. It is loaded
from long-format CSV (one row per cell) and kept as a dense, immutable
3-axis array.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import Iterable, Sequence

import numpy as np

CSV_HEADER = ("period", "unit", "indicator_id", "indicator_name", "value")

# Entries in one row block of fixed_decimal_rows. On a 400 x 400 matrix,
# blocks of 2**14 were as fast as 2**16 and held a quarter of the
# temporaries: 0.9 MiB at peak beyond the result, against 3.3.
_FORMAT_BLOCK_ELEMENTS = 2**14

# fixed_decimal_rows rounds y = |x| * 10**d in numpy only where y < 2**31 and
# d <= 22. Then 10**d is an exact double, so y is the exact product Y rounded
# once to nearest; y < 2**31 implies Y < 2**31, so |y - Y| is at most half an
# ulp below 2**31, 2**(30 - 52) / 2 = 2**-23. Where the fraction of y lies
# further than _TIE_MARGIN (> 2**-23) from .5, Y is on the same side of
# floor(y) + .5 as y and is no tie, so "%.{d}f", which rounds Y to nearest,
# writes the digits of floor(y) + (fraction > .5). "%" writes every other entry.
_FAST_LIMIT = 2.0**31
_TIE_MARGIN = 1e-6

# Lines per chunk of _parse_plain: each chunk's joined text and field lists
# are the temporaries beyond the result. Parse time was flat from 2**9 to
# 2**13 lines; peak RSS of a whole 400x20x4 analyze was 53.3 MiB at 2**10
# (54.6 with the line parser alone), 55.2 at 2**12 and 58.0 at 2**13.
_PLAIN_CHUNK_LINES = 2**10


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
    """

    periods: tuple[str, ...]
    units: tuple[str, ...]
    indicators: tuple[Indicator, ...]
    values: np.ndarray  # shape (n_periods, n_units, n_indicators)

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        expected = (len(self.periods), len(self.units), len(self.indicators))
        if arr.shape != expected:
            raise PanelError(f"values shape {arr.shape} != {expected}")
        arr = arr.copy()
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
    CSV quoting.
    """
    panel = _parse_plain(csv_text)
    return _parse_lines(csv_text) if panel is None else panel


def _parse_plain(csv_text: str) -> IndicatorPanel | None:
    """The panel of a plain file, read a column at a time; None where
    _parse_lines must decide.

    Plain: the exact header first, no ``"`` or ``#`` anywhere, 5 fields on
    every other line, and a complete, duplicate-free grid of in-range values
    with one name per id. Each field goes through the same ``str.strip``,
    ``int`` and ``float`` as in _parse_lines, so a plain file gives the panel
    _parse_lines gives; every other file, valid or not, is left to it, the
    only source of error messages.
    """
    if '"' in csv_text or "#" in csv_text:
        return None
    lines = csv_text.splitlines()
    if len(lines) < 2 or lines[0] != ",".join(CSV_HEADER):
        return None
    if set(map(str.count, islice(lines, 1, None), repeat(","))) != {4}:
        return None  # before any chunk: a blank line at the end is common
    periods: dict[str, int] = {}  # label -> position, in first-appearance order
    units: dict[str, int] = {}
    ind_index: dict[int, int] = {}  # id -> position
    names: dict[int, str] = {}  # id -> name
    codes: list[tuple[np.ndarray, ...]] = []  # per chunk: positions and values
    try:
        for start in range(1, len(lines), _PLAIN_CHUNK_LINES):
            chunk = lines[start:start + _PLAIN_CHUNK_LINES]
            fields = ",".join(chunk).split(",")
            period, unit, ind_id, name = (
                list(map(str.strip, fields[k::5])) for k in range(4)
            )
            ind_id = list(map(int, ind_id))
            for label, known in dict.fromkeys(zip(ind_id, name)):
                if names.setdefault(label, known) != known:
                    return None  # renamed
                ind_index.setdefault(label, len(ind_index))
            for index, column in ((periods, period), (units, unit)):
                for label in dict.fromkeys(column):
                    index.setdefault(label, len(index))
            codes.append((
                np.fromiter(map(periods.__getitem__, period), np.intp, len(chunk)),
                np.fromiter(map(units.__getitem__, unit), np.intp, len(chunk)),
                np.fromiter(map(ind_index.__getitem__, ind_id), np.intp, len(chunk)),
                np.fromiter(map(float, map(str.strip, fields[4::5])), float, len(chunk)),
            ))
    except ValueError:  # a field int or float does not read
        return None
    p_at, u_at, i_at, value = map(np.concatenate, zip(*codes))
    if not ((value >= 0.0) & (value <= 100.0)).all():  # also false for NaN
        return None
    shape = (len(periods), len(units), len(ind_index))
    size = shape[0] * shape[1] * shape[2]
    at = (p_at * shape[1] + u_at) * shape[2] + i_at
    if value.size != size or not (np.bincount(at, minlength=size) == 1).all():
        return None  # a duplicate or a missing cell
    values = np.empty(size)
    values[at] = value
    return IndicatorPanel(
        periods=tuple(periods),
        units=tuple(units),
        indicators=tuple(Indicator(i, name) for i, name in names.items()),
        values=values.reshape(shape),
    )


def _parse_lines(csv_text: str) -> IndicatorPanel:
    """parse_panel one line at a time, with an error message for each way a
    file can be wrong."""
    lines = enumerate(csv_text.splitlines(), start=1)
    first = next(((n, line) for n, line in lines if not line.lstrip().startswith("#")), None)
    if first is None:
        raise PanelError("empty input")
    header = _csv_row(*first)
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise PanelError(
            f"malformed header {header!r}, expected {','.join(CSV_HEADER)}"
        )

    indicators: dict[int, str] = {}  # id -> name
    # label -> position, in first-appearance order
    periods: dict[str, int] = {}
    units: dict[str, int] = {}
    ind_index: dict[int, int] = {}
    cells: dict[tuple[int, int, int], float] = {}  # (period, unit, indicator) positions
    for lineno, line in lines:
        if "#" in line and line.lstrip().startswith("#"):
            continue
        row = _csv_row(lineno, line) if '"' in line else line.split(",")
        if not "".join(row).strip():
            continue
        if len(row) != 5:
            raise PanelError(f"row {lineno}: expected 5 fields, got {len(row)}")
        period, unit, raw_id, name, raw_value = map(str.strip, row)
        try:
            ind_id = int(raw_id)
        except ValueError:
            raise PanelError(f"row {lineno}: non-integer indicator_id {raw_id!r}") from None
        try:
            value = float(raw_value)
        except ValueError:
            raise PanelError(f"row {lineno}: non-numeric value {raw_value!r}") from None
        if not 0.0 <= value <= 100.0:  # also false for NaN
            raise PanelError(f"row {lineno}: value {value} outside [0, 100]")
        known = indicators.setdefault(ind_id, name)
        if known != name:
            raise PanelError(f"row {lineno}: indicator {ind_id} renamed {known!r} -> {name!r}")
        cell = (
            periods.setdefault(period, len(periods)),
            units.setdefault(unit, len(units)),
            ind_index.setdefault(ind_id, len(ind_index)),
        )
        if cell in cells:
            raise PanelError(f"row {lineno}: duplicate cell {(period, unit, ind_id)}")
        cells[cell] = value

    if not cells:
        raise PanelError("no data rows")
    shape = (len(periods), len(units), len(indicators))
    at = tuple(np.array(list(cells), dtype=np.intp).T)
    seen = np.zeros(shape, dtype=bool)
    seen[at] = True
    if not seen.all():
        p_i, u_i, i_i = np.unravel_index(np.argmin(seen), shape)  # first gap, C order
        raise PanelError(
            f"missing cell (period={list(periods)[p_i]}, unit={list(units)[u_i]}, "
            f"indicator={list(indicators)[i_i]})"
        )
    values = np.empty(shape)
    values[at] = list(cells.values())
    return IndicatorPanel(
        periods=tuple(periods),
        units=tuple(units),
        indicators=tuple(Indicator(i, name) for i, name in indicators.items()),
        values=values,
    )


def serialize_panel(panel: IndicatorPanel) -> str:
    """Emit the panel in the same long-format CSV accepted by parse_panel.

    parse_panel reads one row per ``str.splitlines`` line, so a label holding
    a line boundary (``\\n``, ``\\r``, ``\\x0b``, ``\\x85``, ``\\u2028``, ...)
    raises PanelError.
    """
    for label in (*panel.periods, *panel.units, *(ind.name for ind in panel.indicators)):
        if "".join(label.splitlines()) != label:
            raise PanelError(
                f"label {label!r} holds a line break, so parse_panel could not read it back"
            )
    buf = io.StringIO()
    buf.write(",".join(CSV_HEADER) + "\n")
    units = [csv_field(unit) for unit in panel.units]
    indicators = [f",{ind.id},{csv_field(ind.name)}," for ind in panel.indicators]
    for period, block in zip(panel.periods, panel.values):
        period = csv_field(period)
        for unit, row in zip(units, block):
            prefix = f"{period},{unit}"
            buf.write("".join(
                [f"{prefix}{ind}{_format_value(v)}\n" for ind, v in zip(indicators, row.tolist())]
            ))
    return buf.getvalue()


def validate(panel: IndicatorPanel) -> ValidationReport:
    """Check panel invariants; returns a report instead of raising.

    Errors: non-finite or out-of-range values, period labels not strictly
    increasing, unusable as file names or equal under ``str.casefold``,
    duplicate unit or indicator labels, fewer than 2 units. Warnings:
    zero-variance (period, indicator) pairs, for which Pearson correlation
    downstream is undefined.
    """
    report = ValidationReport()
    folded: dict[str, str] = {}  # casefolded label -> first label with it
    for period in panel.periods:
        if period in ("", ".", "..") or "/" in period or "\\" in period:
            report.errors.append((
                f"period {period!r}",
                "period labels name output files: not empty, '.' or '..', no '/' or '\\'",
            ))
        first = folded.setdefault(period.casefold(), period)
        if first != period:
            report.errors.append((
                f"period {period!r}",
                f"period labels {first!r} and {period!r} differ only in case, so their "
                "output files collide on case-insensitive file systems",
            ))
    for a, b in zip(panel.periods, panel.periods[1:]):
        if not a < b:
            report.errors.append(
                (f"period {b}", f"period labels not strictly increasing ({a!r} then {b!r})")
            )
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
    # across fewer than 2 units every variance is zero, and the run fails anyway;
    # all values equal, tested exactly: a constant with an inexact mean (0.7
    # over 3 units) has a variance of about 1e-32, not 0
    if panel.n_units >= 2:
        for p_i, i_i in zip(*np.nonzero(panel.values.min(axis=1) == panel.values.max(axis=1))):
            loc = f"({panel.periods[p_i]}, {panel.indicators[i_i].id})"
            report.warnings.append((loc, "zero variance across units"))
    return report


def exclude_indicators(panel: IndicatorPanel, ids: Iterable[int]) -> IndicatorPanel:
    """Return a panel with the given indicator columns removed everywhere."""
    ids = set(ids)
    if not ids:
        return panel  # immutable, so no copy is needed
    unknown = ids - set(panel.indicator_ids)
    if unknown:
        raise PanelError(f"unknown indicator ids: {sorted(unknown)}")
    keep = [i for i, ind in enumerate(panel.indicators) if ind.id not in ids]
    return IndicatorPanel(
        periods=panel.periods,
        units=panel.units,
        indicators=tuple(panel.indicators[i] for i in keep),
        values=panel.values[:, :, keep],
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


def csv_field(label: str) -> str:
    """``label`` as ``csv.writer`` writes it among other fields of a row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([label, ""])
    return buf.getvalue()[:-2]


def fixed_decimal_rows(labels: Sequence[str], values: np.ndarray, decimals: int) -> str:
    """CSV rows ``label,v,...,v``, one per row of ``values``, each ending in a newline.

    Each entry reads exactly as ``"%.{decimals}f" % v`` writes it, and NaN as
    an empty field. Rows go in blocks of at most _FORMAT_BLOCK_ELEMENTS
    entries (or one row), so the temporaries stay bounded whatever the
    matrix size.
    """
    if decimals < 0:
        raise ValueError(f"decimals must be >= 0, got {decimals}")
    values = np.asarray(values, dtype=float)
    step = max(1, _FORMAT_BLOCK_ELEMENTS // max(values.shape[1], 1))
    return "".join(
        _fixed_decimal_block(labels[s:s + step], values[s:s + step], decimals)
        for s in range(0, len(values), step)
    )


def _fixed_decimal_block(labels: Sequence[str], block: np.ndarray, decimals: int) -> str:
    """Round each entry in numpy and lay out its ASCII text right-aligned in a
    uint8 grid, one fixed-width slot per entry, padded with spaces that are
    then dropped: no other byte of the output is a space."""
    nan = np.isnan(block)
    with np.errstate(over="ignore"):  # an inf product only fails the guard
        y = np.abs(block) * float(10 ** min(decimals, 22))
    fast = y < (_FAST_LIMIT if decimals <= 22 else -1.0)  # False for NaN and inf
    y[~fast] = 0.0
    whole = np.floor(y)
    frac = y - whole  # exact
    slow = (np.abs(frac - 0.5) <= _TIE_MARGIN) | ~(fast | nan)
    fast &= ~slow
    k = whole.astype(np.uint32) + (frac > 0.5)  # at most 2**31

    point = 1 if decimals else 0
    width = max(decimals + 1, len(str(k.max(initial=0))))  # digits in the widest entry
    slot = 2 + width + point  # comma, sign, then digits and point
    rows, n = block.shape
    lines = np.full((rows, n * slot + 1), ord(" "), np.uint8)
    lines[:, -1] = ord("\n")
    grid = lines[:, :-1].reshape(rows, n, slot)  # a view: one slot per entry
    grid[..., 0] = ord(",")
    rest = k
    for j in range(width):  # j-th digit from the right
        col = slot - 1 - j - (point if j >= decimals else 0)
        quotient = rest // 10
        digit = (rest - 10 * quotient + ord("0")).astype(np.uint8)
        # the first decimals + 1 digits always show, the rest up to the leading one
        grid[..., col] = digit if j <= decimals else np.where(rest > 0, digit, ord(" "))
        rest = quotient
    if point:
        grid[..., slot - 1 - decimals] = ord(".")
    grid[~fast, 2:] = ord(" ")  # NaN and "%" entries
    grid[..., 1] = np.where(fast & np.signbit(block), ord("-"), ord(" "))
    grid[slow, 1] = 0  # NUL marks where a "%" text goes

    text = lines.tobytes().translate(None, b" ").decode("ascii")
    patches = iter([f"%.{decimals}f" % v for v in block[slow].tolist()])  # row-major, as the NULs
    out = []
    for label, row, patched in zip(labels, text.split("\n"), slow.any(axis=1).tolist()):
        if patched:
            head, *tail = row.split("\0")
            row = head + "".join(next(patches) + part for part in tail)
        out.append(f"{label}{row}\n")
    return "".join(out)


def _csv_row(lineno: int, line: str) -> list[str]:
    try:
        return next(csv.reader([line]), [])
    except csv.Error as exc:  # a quoted field longer than csv.field_size_limit()
        raise PanelError(f"row {lineno}: {exc}") from None


def _format_value(v: float) -> str:
    return str(int(v)) if v.is_integer() else repr(v)
