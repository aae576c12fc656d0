"""Coefficient-of-variation profiling over an alternative grouping axis.

Indicators whose prevalence varies strongly across the alternative grouping
(e.g. political-party support) characterize only part of the population and
are candidates for exclusion from the stress index.

Two CV estimators are provided. ``sample`` divides the sample standard
deviation (ddof=1) by the mean. ``unnormalized`` skips the 1/(L-1)
normalization, i.e. sqrt of the raw sum of squared deviations over the
mean; it is kept because published reference tables for the bundled
dataset are closer to this variant.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

ESTIMATORS = ("sample", "unnormalized")


class VariationError(ValueError):
    """Raised for invalid grouped tables or undefined CV inputs."""


@dataclass(frozen=True)
class GroupedIndicatorTable:
    """n indicators x L groups matrix of prevalence rates."""

    indicator_ids: tuple[int, ...]
    groups: tuple[str, ...]
    values: np.ndarray  # (n, L)

    def __post_init__(self):
        arr = np.array(self.values, dtype=float, order="C")
        if arr.shape != (len(self.indicator_ids), len(self.groups)):
            raise VariationError(
                f"values shape {arr.shape} != "
                f"({len(self.indicator_ids)}, {len(self.groups)})"
            )
        if len(self.groups) < 2:
            raise VariationError("need at least 2 groups")
        if not np.isfinite(arr).all() or (arr < 0).any():
            raise VariationError("values must be finite and >= 0")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)


@dataclass
class VariationProfile:
    """Per-indicator CV scores and the resulting ranking.

    ``ranking`` is descending by the selected estimator's score, ties broken
    by ascending indicator id. Indicators whose CV is undefined (mean <= 0)
    are listed in ``errors`` and omitted from the ranking.
    """

    estimator: str
    cv_sample: dict[int, float]
    cv_unnormalized: dict[int, float]
    ranking: tuple[int, ...]
    errors: list[tuple[int, str]] = field(default_factory=list)

    @property
    def selected(self) -> dict[int, float]:
        return self.cv_sample if self.estimator == "sample" else self.cv_unnormalized

    @classmethod
    def from_scores(cls, scores: Mapping[int, float]):
        """Build a ``sample`` profile from externally supplied CV scores.

        Useful for ranking published CV columns that cannot be recomputed.
        """
        scores = {int(k): float(v) for k, v in scores.items()}
        return cls(estimator="sample", cv_sample=scores, cv_unnormalized={},
                   ranking=rank_by_score(scores))


def coefficient_of_variation(values: Sequence[float], estimator: str = "sample") -> float:
    """CV of a value vector across groups.

    ``sample``: sqrt(sum (x - mean)^2 / (L - 1)) / mean.
    ``unnormalized``: sqrt(sum (x - mean)^2) / mean.
    """
    if estimator not in ESTIMATORS:
        raise VariationError(f"unknown estimator {estimator!r}")
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise VariationError("need at least 2 values")
    cvs, (error,) = _row_cvs(x[None])
    if error:
        raise VariationError(error)
    return cvs[estimator][0]


def _row_cvs(rows: np.ndarray) -> tuple[dict[str, list[float]], list[str | None]]:
    """Each row's CV by each estimator, from one sum of squares, and None or
    why it is undefined (a mean <= 0)."""
    # a CV does not depend on a row's scale, so each row is scaled by a power
    # of two to a max |value| in [0.5, 1), as correlation_matrix scales its
    # columns: its sum cannot overflow nor its squares underflow, and a CV
    # that did neither before keeps every bit
    _, exponent = np.frexp(np.maximum(rows.max(axis=1), -rows.min(axis=1)))
    scaled = np.ldexp(rows, -exponent[:, None])
    mean = scaled.mean(axis=1)
    ss = ((scaled - mean[:, None]) ** 2).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # a mean of 0 is an error
        cvs = {"sample": (np.sqrt(ss / (rows.shape[1] - 1)) / mean).tolist(),
               "unnormalized": (np.sqrt(ss) / mean).tolist()}
    return cvs, [f"mean {unscaled} <= 0, CV undefined" if m <= 0.0 else None
                 for m, unscaled in zip(mean.tolist(), np.ldexp(mean, exponent).tolist())]


def rank_by_score(scores: Mapping[int, float]) -> tuple[int, ...]:
    """Indicator ids descending by score, ties broken by ascending id."""
    return tuple(sorted(scores, key=lambda i: (-scores[i], i)))


def variation_table(
    table: GroupedIndicatorTable, estimator: str = "sample"
) -> VariationProfile:
    """CV per indicator over the group columns, both estimators, ranked."""
    if estimator not in ESTIMATORS:
        raise VariationError(f"unknown estimator {estimator!r}")
    cvs, errors = _row_cvs(table.values)
    ids = table.indicator_ids
    scores = {name: {i: cv for i, cv, e in zip(ids, row, errors) if e is None}
              for name, row in cvs.items()}
    return VariationProfile(
        estimator=estimator, cv_sample=scores["sample"], cv_unnormalized=scores["unnormalized"],
        ranking=rank_by_score(scores[estimator]),
        errors=[(i, e) for i, e in zip(ids, errors) if e is not None],
    )


def parse_flag_policy(policy: str, count: int | None = None) -> tuple[str, int | float]:
    """The kind and number of a flagging policy, ``topk:K`` or ``threshold:T``.

    K must lie in [0, ``count``], the number of ranked indicators; with no
    count, it must be >= 0.
    """
    kind, _, arg = policy.partition(":")
    read = {"topk": int, "threshold": float}.get(kind)
    if read is None:
        raise VariationError(f"unknown flag policy {policy!r}")
    try:
        n = read(arg)
    except ValueError:
        raise VariationError(f"bad {kind} policy {policy!r}") from None
    if kind == "threshold" and not n >= 0:  # written so that NaN fails it
        raise VariationError(f"threshold t={n} must be >= 0")
    if kind == "topk" and (n < 0 or count is not None and n > count):
        bound = "must be >= 0" if count is None else f"outside [0, {count}]"
        raise VariationError(f"topk k={n} {bound}")
    return kind, n


def flag_exclusions(profile: VariationProfile, policy: str) -> set[int]:
    """Indicator ids to exclude under a flagging policy.

    ``policy`` is ``topk:K`` (K highest-ranked ids) or ``threshold:T``
    (all ids with CV strictly above T).
    """
    kind, n = parse_flag_policy(policy, len(profile.ranking))
    if kind == "topk":
        return set(profile.ranking[:n])
    scores = profile.selected
    return {i for i in profile.ranking if scores[i] > n}


def parse_grouped_table(csv_text: str) -> GroupedIndicatorTable:
    """Parse ``indicator_id,group,value`` CSV into a grouped table.

    Ordering of indicators and groups follows first appearance; the table
    must be dense.
    """
    lines = [
        ln for ln in csv_text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")
    ]
    try:  # one row per line, as in parse_panel: an open quote ends with its line
        rows = [next(csv.reader([ln])) if '"' in ln else ln.split(",") for ln in lines]
    except csv.Error as exc:  # a quoted field longer than csv.field_size_limit()
        raise VariationError(str(exc)) from None
    if not rows:
        raise VariationError("empty input")
    header = rows[0]
    if tuple(h.strip() for h in header) != ("indicator_id", "group", "value"):
        raise VariationError(f"malformed header {header!r}")
    cells: dict[tuple[int, str], float] = {}
    for row in rows[1:]:
        if not "".join(row).strip():  # a blank row, as parse_panel skips
            continue
        if len(row) != 3:
            raise VariationError(f"expected 3 fields, got {row!r}")
        try:
            ind_id = int(row[0])
            value = float(row[2])
        except ValueError:
            raise VariationError(f"bad row {row!r}") from None
        key = (ind_id, row[1].strip())
        if key in cells:
            raise VariationError(f"duplicate cell {key}")
        cells[key] = value
    if not cells:
        raise VariationError("no data rows")
    ids = dict.fromkeys(i for i, _ in cells)  # first-appearance order
    groups = dict.fromkeys(g for _, g in cells)
    try:
        values = np.array([[cells[(i, g)] for g in groups] for i in ids])
    except KeyError as exc:
        raise VariationError(f"missing cell {exc.args[0]}") from None
    return GroupedIndicatorTable(
        indicator_ids=tuple(ids), groups=tuple(groups), values=values
    )


def profile_to_csv(profile: VariationProfile, flagged: Iterable[int] = ()) -> str:
    """Render ``indicator_id,cv_sample,cv_unnormalized,rank,flagged`` CSV."""
    flagged = set(flagged)
    return "indicator_id,cv_sample,cv_unnormalized,rank,flagged\n" + "".join(
        f"{ind_id},{_fmt(profile.cv_sample.get(ind_id))},"
        f"{_fmt(profile.cv_unnormalized.get(ind_id))},{rank},{int(ind_id in flagged)}\n"
        for rank, ind_id in enumerate(profile.ranking, start=1)
    )


def _fmt(v: float | None) -> str:
    return "" if v is None else f"{v:.6f}"
