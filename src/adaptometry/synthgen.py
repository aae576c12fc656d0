"""Seeded synthetic-panel generator with baseline and stressed regimes.

Each unit's indicator values follow a one-factor model
``x = mean_i + lambda * f_unit + noise``; raising the shared-factor loading
under stress lifts all pairwise correlations jointly while also widening the
spread of the unit points, so the generated panels exhibit the joint
correlation-and-dispersion escalation the toolkit is meant to detect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .correlation import correlation_matrix, total_weight
from .dispersion import max_distance
from .panel import Indicator, IndicatorPanel, period_label_errors, slice_period

REGIMES = ("baseline", "stressed")

# Largest panel synth builds, in units x indicators x periods cells; the
# largest benchmark ladder size is 1.6M cells.
MAX_PANEL_CELLS = 10**8


class SynthConfigError(ValueError):
    """Raised for inconsistent generator configuration."""


def _check_size(units: int, indicators: int, periods: int) -> None:
    # counts below 1 are rejected later, so they must not hide a huge one here
    if max(units, 1) * max(indicators, 1) * max(periods, 1) > MAX_PANEL_CELLS:
        raise SynthConfigError(
            f"{units} units x {indicators} indicators x {periods} periods"
            f" exceeds {MAX_PANEL_CELLS} cells"
        )


@dataclass(frozen=True)
class SynthConfig:
    units: int
    indicators: int
    periods: tuple[tuple[str, str], ...]  # (label, regime)
    baseline_means: tuple[float, ...]  # one per indicator
    noise_sd: float
    loading_baseline: float  # shared-factor loading outside stress
    loading_stressed: float  # shared-factor loading under stress
    variance_multiplier: float  # noise-variance multiplier under stress
    seed: int

    def __post_init__(self):
        if self.units < 2:
            raise SynthConfigError("need at least 2 units (correlation needs m >= 2)")
        if self.indicators < 1:
            raise SynthConfigError("need at least 1 indicator")
        if not self.periods:
            raise SynthConfigError("need at least 1 period")
        _check_size(self.units, self.indicators, len(self.periods))
        label_errors = period_label_errors([p for p, _ in self.periods])
        if label_errors:  # the first only: a config error is one line
            raise SynthConfigError(": ".join(label_errors[0]))
        for _, regime in self.periods:
            if regime not in REGIMES:
                raise SynthConfigError(f"unknown regime {regime!r}")
        if len(self.baseline_means) != self.indicators:
            raise SynthConfigError(
                f"{len(self.baseline_means)} means for {self.indicators} indicators"
            )
        if not all(0.0 <= m <= 100.0 for m in self.baseline_means):
            raise SynthConfigError("baseline means must lie in [0, 100]")
        # written so that NaN fails each test
        if not 0 < self.noise_sd < math.inf:
            raise SynthConfigError("noise_sd must be finite and > 0")
        if not 0 <= self.loading_baseline <= self.loading_stressed < math.inf:
            raise SynthConfigError(
                "loadings must be finite and satisfy 0 <= loading_baseline <= loading_stressed"
            )
        if not 1 <= self.variance_multiplier < math.inf:
            raise SynthConfigError("variance_multiplier must be finite and >= 1")
        if self.seed < 0:
            raise SynthConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class StressContrast:
    w_baseline: float
    w_stressed: float
    d_max_baseline: float
    d_max_stressed: float


def generate_panel(config: SynthConfig) -> IndicatorPanel:
    """Deterministic synthetic panel for the given config and seed.

    Per period: one shared standard-normal factor draw per unit, one
    independent noise draw per cell. Stressed periods use the stressed
    loading and multiply the noise variance; values are clamped to [0, 100].
    Raises SynthConfigError where a cell's factor and noise terms overflow
    with opposite signs, so that the cell has no value.
    """
    rng = np.random.default_rng(config.seed)
    m, n = config.units, config.indicators
    means = np.asarray(config.baseline_means)
    values = np.empty((len(config.periods), m, n))
    for p_i, (label, regime) in enumerate(config.periods):
        stressed = regime == "stressed"
        loading = config.loading_stressed if stressed else config.loading_baseline
        sd = config.noise_sd * (
            math.sqrt(config.variance_multiplier) if stressed else 1.0
        )
        factor = rng.standard_normal(m)
        noise = rng.standard_normal((m, n))
        # a term that overflows to +-inf has the sign of the exact sum, which
        # the clamp takes to 0 or 100; two opposite infinite terms give NaN
        with np.errstate(over="ignore", invalid="ignore"):
            x = means + loading * factor[:, None] + sd * noise
        if np.isnan(x).any():
            raise SynthConfigError(f"period {label}: loading and noise_sd overflow")
        values[p_i] = np.clip(x, 0.0, 100.0)
    width = len(str(m))
    return IndicatorPanel(
        periods=tuple(label for label, _ in config.periods),
        units=tuple(f"u{k + 1:0{width}d}" for k in range(m)),
        indicators=tuple(Indicator(i + 1, f"indicator_{i + 1}") for i in range(n)),
        values=values,
    )


def stress_contrast(config: SynthConfig) -> StressContrast:
    """Generate a panel and compare indicators between the two regimes.

    Returns regime means of the network total weight, at the default
    threshold, and of d_max; requires at least one baseline and one
    stressed period. Each period's two figures equal those of ``analyze``
    bit for bit, but no network or distance matrix is built: total_weight
    sums the weights, and max_distance screens the unit pairs.
    """
    regimes = [regime for _, regime in config.periods]
    if "baseline" not in regimes or "stressed" not in regimes:
        raise SynthConfigError("need at least one baseline and one stressed period")
    w = {"baseline": [], "stressed": []}
    d = {"baseline": [], "stressed": []}
    panel = generate_panel(config)
    for regime, period in zip(regimes, panel.periods):
        s = slice_period(panel, period)
        w[regime].append(total_weight(correlation_matrix(s)))
        d[regime].append(max_distance(s))
    return StressContrast(
        w_baseline=float(np.mean(w["baseline"])),
        w_stressed=float(np.mean(w["stressed"])),
        d_max_baseline=float(np.mean(d["baseline"])),
        d_max_stressed=float(np.mean(d["stressed"])),
    )


# The numeric SynthConfig fields and their types, in the order they are
# read, so the first bad value is the one reported.
_NUMERIC_KEYS = (
    ("units", int), ("indicators", int), ("seed", int), ("noise_sd", float),
    ("loading_baseline", float), ("loading_stressed", float), ("variance_multiplier", float),
)


def parse_synth_config(text: str) -> SynthConfig:
    """Parse a plain ``key = value`` config file.

    The keys are SynthConfig's fields, each given once: periods is a comma
    list of ``label:regime``, baseline_means a comma list or a single value
    applied to all indicators. ``#`` starts a comment.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = map(str.strip, line.partition("="))
        if not sep:
            raise SynthConfigError(f"line {lineno}: expected key = value")
        if key in raw:
            raise SynthConfigError(f"line {lineno}: duplicate config key {key!r}")
        raw[key] = value
    required = {f.name for f in fields(SynthConfig)}
    missing = required - raw.keys()
    if missing:
        raise SynthConfigError(f"missing config keys: {sorted(missing)}")
    unknown = raw.keys() - required
    if unknown:
        raise SynthConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        numbers = {key: kind(raw[key]) for key, kind in _NUMERIC_KEYS}
    except ValueError as exc:
        raise SynthConfigError(f"bad numeric value: {exc}") from None
    periods = []
    for tok in raw["periods"].split(","):
        label, sep, regime = tok.strip().partition(":")
        if not sep:
            raise SynthConfigError(f"bad period token {tok!r}, expected label:regime")
        periods.append((label.strip(), regime.strip()))
    _check_size(numbers["units"], numbers["indicators"], len(periods))
    means = _parse_means(raw["baseline_means"], numbers["indicators"])
    return SynthConfig(periods=tuple(periods), baseline_means=means, **numbers)


def _parse_means(spec: str, n: int) -> tuple[float, ...]:
    try:
        parts = tuple(float(tok) for tok in spec.split(","))
    except ValueError:
        raise SynthConfigError(f"bad baseline_means {spec!r}") from None
    if len(parts) == 1:
        return parts * n
    return parts
