"""ballmax: a desk-scale numerical laboratory for the partially centered
maximal operator on radial nonincreasing step profiles.

The operator averages over closed balls whose lam-shrunk copy contains the
evaluation point (lam = 0: centered balls, lam = 1: all balls containing the
point).  On radial nonincreasing profiles its weak-(1,1) constant is
(1 + lam)^d; the analysis module estimates that constant from exact ball
averages and the verify module audits every supporting geometric fact with
independent oracles.
"""

from .geometry import (
    MAX_DIMENSION,
    GeometryDomainError,
    cap_volume,
    intersection_volume,
    unit_ball_volume,
)
from .profiles import (
    OperatorConfig,
    ProfileError,
    StepProfile,
    evaluate,
    indicator_decomposition,
    l1_norm,
    levels_at,
    normalized_indicator,
    parse_profile,
    profile_digest,
    random_profile,
    serialize_profile,
)
from .maximal import (
    BallParams,
    MaximalResult,
    OptimizerSettings,
    RegionKind,
    UsageError,
    average_over_ball,
    feasible,
    maximal_value,
    maximal_value_batch,
    maximal_value_detailed,
)
from .analysis import (
    AnalysisWarning,
    ConstantEstimate,
    RadialScan,
    SweepResult,
    default_t_grid,
    level_set_radius_bound,
    radial_scan,
    sharpness_experiment,
    superlevel_measure,
    sweep,
    weak_constant_estimate,
)
from .verify import (
    CheckReport,
    McConfig,
    check_band_regions,
    check_centered_shell_gap,
    check_homothety_identity,
    check_lens_enclosure,
    check_mc_geometry,
    check_random_ball_domination,
    check_shrink_overlap_inequality,
    mc_intersection_volume,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_DIMENSION",
    "GeometryDomainError",
    "cap_volume",
    "intersection_volume",
    "unit_ball_volume",
    "OperatorConfig",
    "ProfileError",
    "StepProfile",
    "evaluate",
    "indicator_decomposition",
    "l1_norm",
    "levels_at",
    "normalized_indicator",
    "parse_profile",
    "profile_digest",
    "random_profile",
    "serialize_profile",
    "BallParams",
    "MaximalResult",
    "OptimizerSettings",
    "RegionKind",
    "UsageError",
    "average_over_ball",
    "feasible",
    "maximal_value",
    "maximal_value_batch",
    "maximal_value_detailed",
    "AnalysisWarning",
    "ConstantEstimate",
    "RadialScan",
    "SweepResult",
    "default_t_grid",
    "level_set_radius_bound",
    "radial_scan",
    "sharpness_experiment",
    "superlevel_measure",
    "sweep",
    "weak_constant_estimate",
    "CheckReport",
    "McConfig",
    "check_band_regions",
    "check_centered_shell_gap",
    "check_homothety_identity",
    "check_lens_enclosure",
    "check_mc_geometry",
    "check_random_ball_domination",
    "check_shrink_overlap_inequality",
    "mc_intersection_volume",
]
