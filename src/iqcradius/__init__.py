"""Certified spectral-radius analysis of constrained linear systems.

The package computes the smallest rate ``rho`` at which a discrete-time
LTI system, together with a family of integral quadratic constraints,
admits a rate-``rho`` Lyapunov certificate; decides whether that
optimum is attained; extracts a non-convergent worst-case trajectory
when the radius sits at the stability boundary; rewrites filtered
constraints as static ones on an augmented state; and re-verifies every
certificate and witness independently of the solver that produced it.
"""

from .dynamic_iqc import (
    IqcFilter,
    PlantData,
    augment,
    augment_all,
    filtered_signal,
)
from .model import (
    DimensionMismatchError,
    IqcSet,
    SystemData,
    Trajectory,
    iqc_partial_sums,
    lyapunov_adjoint,
    lyapunov_operator,
    margin_matrix,
    quadratic_form,
    simulate,
)
from .radius import (
    ExponentialRateResult,
    RadiusCertificate,
    StabilityVerdict,
    attainment_check,
    classify,
    exponential_rate_certificate,
    spectral_radius,
)
from .sdp_engine import (
    SdpProblem,
    SdpSolution,
    dual_feasibility_margin,
    solve,
    solve_margin_dual,
    solve_margin_primal,
)
from .verify import (
    LyapunovTrace,
    TrajectoryDiagnostics,
    WitnessCheck,
    check_witness,
    lyapunov_trace,
    strengthen_certificate,
    trajectory_diagnostics,
)
from .worstcase import (
    DualWitnessResult,
    EigenGroup,
    TechnicalConditionResult,
    WitnessOutcome,
    WitnessReport,
    WorstCaseModes,
    build_trajectory,
    build_witness,
    eigen_group,
    extract_dual_witness,
    feedback_gain,
    hard_iqc_shift,
    iqc_sum_lower_bound,
    pointwise_check,
    rank_factor,
    recover_orthogonal_factor,
    technical_condition,
    verify_direction,
)

__version__ = "0.1.0"

__all__ = [
    "DimensionMismatchError",
    "DualWitnessResult",
    "EigenGroup",
    "ExponentialRateResult",
    "IqcFilter",
    "IqcSet",
    "LyapunovTrace",
    "PlantData",
    "RadiusCertificate",
    "SdpProblem",
    "SdpSolution",
    "StabilityVerdict",
    "SystemData",
    "TechnicalConditionResult",
    "Trajectory",
    "TrajectoryDiagnostics",
    "WitnessCheck",
    "WitnessOutcome",
    "WitnessReport",
    "WorstCaseModes",
    "attainment_check",
    "augment",
    "augment_all",
    "build_trajectory",
    "build_witness",
    "check_witness",
    "classify",
    "dual_feasibility_margin",
    "eigen_group",
    "exponential_rate_certificate",
    "extract_dual_witness",
    "feedback_gain",
    "filtered_signal",
    "hard_iqc_shift",
    "iqc_partial_sums",
    "iqc_sum_lower_bound",
    "lyapunov_adjoint",
    "lyapunov_operator",
    "lyapunov_trace",
    "margin_matrix",
    "pointwise_check",
    "quadratic_form",
    "rank_factor",
    "recover_orthogonal_factor",
    "simulate",
    "solve",
    "solve_margin_dual",
    "solve_margin_primal",
    "spectral_radius",
    "strengthen_certificate",
    "technical_condition",
    "trajectory_diagnostics",
    "verify_direction",
    "__version__",
]
