"""Correlation adaptometry toolkit for panel data.

Builds per-period correlation networks over a panel of indicators, tracks
their total weight as a stress index, computes inter-unit dispersion
estimates, and profiles indicators by coefficient of variation over an
alternative grouping axis.
"""

__version__ = "0.1.0"

from .analysis import PeriodResult, analyze, weight_series
from .correlation import (
    CorrelationMatrix,
    CorrelationNetwork,
    build_network,
    correlation_matrix,
    degree_counts,
    pearson,
)
from .dispersion import (
    DispersionSummary,
    ball_diameter,
    distance_matrix,
    log_gamma_half_integer,
)
from .panel import (
    Indicator,
    IndicatorPanel,
    PanelError,
    PeriodSlice,
    ValidationReport,
    exclude_indicators,
    parse_panel,
    serialize_panel,
    slice_period,
    validate,
)
from .synthgen import SynthConfig, StressContrast, generate_panel, stress_contrast
from .variation import (
    GroupedIndicatorTable,
    VariationProfile,
    coefficient_of_variation,
    flag_exclusions,
    variation_table,
)
