"""Seeded synthetic-panel generator with baseline and stressed regimes.

Each unit's indicator values follow a one-factor model
``x = mean_i + lambda * f_unit + noise``; raising the shared-factor loading
under stress lifts all pairwise correlations jointly while also widening the
spread of the unit points, so the generated panels exhibit the joint
correlation-and-dispersion escalation the toolkit is meant to detect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analysis import analyze
from .panel import Indicator, IndicatorPanel

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
        labels = [p for p, _ in self.periods]
        if sorted(labels) != labels or len(set(labels)) != len(labels):
            raise SynthConfigError("period labels must be strictly increasing")
        for _, regime in self.periods:
            if regime not in REGIMES:
                raise SynthConfigError(f"unknown regime {regime!r}")
        if len(self.baseline_means) != self.indicators:
            raise SynthConfigError(
                f"{len(self.baseline_means)} means for {self.indicators} indicators"
            )
        if not all(0.0 <= m <= 100.0 for m in self.baseline_means):
            raise SynthConfigError("baseline means must lie in [0, 100]")
        if self.noise_sd <= 0:
            raise SynthConfigError("noise_sd must be > 0")
        if self.loading_baseline < 0 or self.loading_stressed < self.loading_baseline:
            raise SynthConfigError(
                "loadings must satisfy 0 <= loading_baseline <= loading_stressed"
            )
        if self.variance_multiplier < 1:
            raise SynthConfigError("variance_multiplier must be >= 1")


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
    """
    rng = np.random.default_rng(config.seed)
    m, n = config.units, config.indicators
    means = np.asarray(config.baseline_means)
    values = np.empty((len(config.periods), m, n))
    for p_i, (_, regime) in enumerate(config.periods):
        stressed = regime == "stressed"
        loading = config.loading_stressed if stressed else config.loading_baseline
        sd = config.noise_sd * (
            math.sqrt(config.variance_multiplier) if stressed else 1.0
        )
        factor = rng.standard_normal(m)
        noise = rng.standard_normal((m, n))
        values[p_i] = np.clip(means + loading * factor[:, None] + sd * noise, 0.0, 100.0)
    width = len(str(m))
    return IndicatorPanel(
        periods=tuple(label for label, _ in config.periods),
        units=tuple(f"u{k + 1:0{width}d}" for k in range(m)),
        indicators=tuple(Indicator(i + 1, f"indicator_{i + 1}") for i in range(n)),
        values=values,
    )


def stress_contrast(config: SynthConfig, r0: float = 0.7) -> StressContrast:
    """Generate a panel and compare indicators between the two regimes.

    Returns regime means of the network total weight and of d_max; requires
    at least one baseline and one stressed period.
    """
    regimes = [regime for _, regime in config.periods]
    if "baseline" not in regimes or "stressed" not in regimes:
        raise SynthConfigError("need at least one baseline and one stressed period")
    w = {"baseline": [], "stressed": []}
    d = {"baseline": [], "stressed": []}
    for regime, result in zip(regimes, analyze(generate_panel(config), r0)):
        w[regime].append(result.network.total_weight)
        d[regime].append(result.dispersion.d_max)
    return StressContrast(
        w_baseline=float(np.mean(w["baseline"])),
        w_stressed=float(np.mean(w["stressed"])),
        d_max_baseline=float(np.mean(d["baseline"])),
        d_max_stressed=float(np.mean(d["stressed"])),
    )


def parse_synth_config(text: str) -> SynthConfig:
    """Parse a plain ``key = value`` config file.

    Keys: units, indicators, periods (comma list of ``label:regime``),
    baseline_means (comma list, or a single value applied to all
    indicators), noise_sd, loading_baseline, loading_stressed,
    variance_multiplier, seed. ``#`` starts a comment.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise SynthConfigError(f"line {lineno}: expected key = value")
        raw[key.strip()] = value.strip()
    required = {
        "units", "indicators", "periods", "baseline_means", "noise_sd",
        "loading_baseline", "loading_stressed", "variance_multiplier", "seed",
    }
    missing = required - raw.keys()
    if missing:
        raise SynthConfigError(f"missing config keys: {sorted(missing)}")
    unknown = raw.keys() - required
    if unknown:
        raise SynthConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        units = int(raw["units"])
        indicators = int(raw["indicators"])
        seed = int(raw["seed"])
        noise_sd = float(raw["noise_sd"])
        loading_baseline = float(raw["loading_baseline"])
        loading_stressed = float(raw["loading_stressed"])
        variance_multiplier = float(raw["variance_multiplier"])
    except ValueError as exc:
        raise SynthConfigError(f"bad numeric value: {exc}") from None
    periods = []
    for tok in raw["periods"].split(","):
        label, sep, regime = tok.strip().partition(":")
        if not sep:
            raise SynthConfigError(f"bad period token {tok!r}, expected label:regime")
        periods.append((label, regime))
    _check_size(units, indicators, len(periods))
    means = _parse_means(raw["baseline_means"], indicators)
    return SynthConfig(
        units=units,
        indicators=indicators,
        periods=tuple(periods),
        baseline_means=means,
        noise_sd=noise_sd,
        loading_baseline=loading_baseline,
        loading_stressed=loading_stressed,
        variance_multiplier=variance_multiplier,
        seed=seed,
    )


def _parse_means(spec: str, n: int) -> tuple[float, ...]:
    try:
        parts = tuple(float(tok) for tok in spec.split(","))
    except ValueError:
        raise SynthConfigError(f"bad baseline_means {spec!r}") from None
    if len(parts) == 1:
        return parts * n
    return parts
