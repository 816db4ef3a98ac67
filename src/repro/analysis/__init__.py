"""Analysis utilities: verification, empirical constants, scaling sweeps."""

from .chaos import REGIME_POINTS, SCHEDULES, ChaosOutcome, ChaosReport, run_chaos
from .constants import MeasuredConstant, case_remainder, constant_series, measure_constant
from .integrality import GapPoint, GapProfile, gap_profile, integrality_gap
from .large_p import LARGE_P_POINTS, LargePPoint, LargePResult, run_large_p_sweep
from .oracle import (
    ORACLE_ALGORITHMS,
    OraclePrediction,
    collective_rounds,
    oracle_supported,
    predict_cost,
)
from .report import CheckResult, ReproductionReport, reproduction_report
from .scaling_laws import (
    FittedLaw,
    THEORY_EXPONENTS,
    alg1_cost_exponents,
    fit_exponent,
    regime_exponents,
)
from .projections import (
    assignment_projection_sizes,
    grid_assignment_brick,
    grid_projection_sizes,
    is_computation_balanced,
    total_projection_words,
)
from .strong_scaling import ScalingPoint, communication_efficiency, scaling_sweep
from .sweep import SweepRecord, sweep
from .tables import format_number, format_series, format_table
from .verification import (
    BackendCrossCheck,
    BoundCheck,
    OracleCrossCheck,
    check_cost_against_bound,
    check_grid_projections,
    cross_check_backends,
    cross_check_oracle,
    relative_gap,
)

__all__ = [
    "BackendCrossCheck",
    "BoundCheck",
    "ORACLE_ALGORITHMS",
    "OracleCrossCheck",
    "OraclePrediction",
    "ChaosOutcome",
    "ChaosReport",
    "CheckResult",
    "FittedLaw",
    "GapPoint",
    "GapProfile",
    "LARGE_P_POINTS",
    "LargePPoint",
    "LargePResult",
    "REGIME_POINTS",
    "SCHEDULES",
    "ReproductionReport",
    "MeasuredConstant",
    "ScalingPoint",
    "THEORY_EXPONENTS",
    "SweepRecord",
    "assignment_projection_sizes",
    "case_remainder",
    "check_cost_against_bound",
    "alg1_cost_exponents",
    "check_grid_projections",
    "communication_efficiency",
    "constant_series",
    "fit_exponent",
    "format_number",
    "format_series",
    "format_table",
    "gap_profile",
    "integrality_gap",
    "grid_assignment_brick",
    "grid_projection_sizes",
    "is_computation_balanced",
    "collective_rounds",
    "cross_check_backends",
    "cross_check_oracle",
    "measure_constant",
    "oracle_supported",
    "predict_cost",
    "relative_gap",
    "reproduction_report",
    "run_chaos",
    "run_large_p_sweep",
    "regime_exponents",
    "scaling_sweep",
    "sweep",
    "total_projection_words",
]
