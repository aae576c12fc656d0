"""Panel data model: periods x units x indicators prevalence tables.

The panel is the common input of every downstream computation. It is loaded
from long-format CSV (one row per cell) and kept as a dense, immutable
3-axis array.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

CSV_HEADER = ("period", "unit", "indicator_id", "indicator_name", "value")


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
    """Emit the panel in the same long-format CSV accepted by parse_panel."""
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
    increasing or unusable as file names, duplicate unit or indicator labels,
    fewer than 2 units. Warnings: zero-variance (period, indicator) pairs, for
    which Pearson correlation downstream is undefined.
    """
    report = ValidationReport()
    for period in panel.periods:
        if period in ("", ".", "..") or "/" in period or "\\" in period:
            report.errors.append((
                f"period {period!r}",
                "period labels name output files: not empty, '.' or '..', no '/' or '\\'",
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
    # across fewer than 2 units every variance is zero, and the run fails anyway
    for p_i, period in enumerate(panel.periods if panel.n_units >= 2 else ()):
        col_var = panel.values[p_i].var(axis=0)
        for i_i in np.nonzero(col_var == 0.0)[0]:
            report.warnings.append(
                (
                    f"({period}, {panel.indicators[i_i].id})",
                    "zero variance across units",
                )
            )
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


def _csv_row(lineno: int, line: str) -> list[str]:
    try:
        return next(csv.reader([line]), [])
    except csv.Error as exc:  # a quoted field longer than csv.field_size_limit()
        raise PanelError(f"row {lineno}: {exc}") from None


def _format_value(v: float) -> str:
    return str(int(v)) if v.is_integer() else repr(v)
