"""Weighted harmonic kernels on the unit ball: series evaluation, integral
transforms, exact boundedness classification, and numerical probes.

The pieces fit together like this: `kernel` evaluates the weighted zonal
series R_alpha(x, y) with a certified truncation bound; `expansion` holds
finite zonal-anchored harmonic expansions and their exact fractional
derivative/integral maps; `quadrature` supplies product rules on the ball
plus the log-space refinement ladders that decide integral finiteness;
`operators` builds the weighted transform T_{b,c}, the projection, the
radial test family, and smoothness norms on top; `classifier` is the pure
inequality system deciding boundedness of T_{b,c} between weighted spaces;
`probe` cross-checks those verdicts against observed numerics; `cli` exposes
everything as subcommands.
"""

from .classifier import (
    ExtExponent,
    Inequality,
    OperatorParams,
    Target,
    Verdict,
    classify,
    conjugate,
    reduce_to_unweighted,
)
from .expansion import HarmonicExpansion, apply_D, apply_I, evaluate, evaluate_many
from .expansion import from_json as expansion_from_json
from .expansion import to_json as expansion_to_json
from .kernel import (
    MAX_DEGREE,
    KernelDivergenceError,
    KernelSpec,
    TruncationLimitError,
    gamma_coef,
    gamma_coefs,
    harmonic_dim,
    kernel_eval,
    kernel_eval_batch,
    truncation_degree,
    zonal_harmonic,
)
from .operators import (
    NormResult,
    TestFunction,
    TransformReport,
    apply_T,
    apply_T_derivative,
    apply_T_report,
    as_ball_function,
    besov_norm,
    besov_smoothing_order,
    bloch_norm,
    bloch_smoothing_order,
    lp_membership,
    lp_membership_analytic,
    projection_Q,
    sup_membership,
    test_function_eval,
    test_function_lp_norm,
    transform_finite_analytic,
)
from .probe import (
    ProbeEvidence,
    ProbeReport,
    boundary_suite,
    default_ratio_family,
    finiteness_probe,
    kernel_floor_probe,
    ratio_probe,
)
from .quadrature import (
    BallQuadrature,
    ConvergenceError,
    LadderResult,
    integrate_ball,
    integrate_sphere,
    lp_norm,
    normalization_V,
    radial_power_log_ladder,
    weighted_sup_ladder,
)
from .specfun import PoleError, log_gamma, log_pochhammer, pochhammer

__version__ = "0.1.0"

__all__ = [
    "ExtExponent", "Inequality", "OperatorParams", "Target", "Verdict",
    "classify", "conjugate", "reduce_to_unweighted",
    "HarmonicExpansion", "apply_D", "apply_I", "evaluate", "evaluate_many",
    "expansion_from_json", "expansion_to_json",
    "MAX_DEGREE", "KernelDivergenceError", "KernelSpec", "TruncationLimitError",
    "gamma_coef", "gamma_coefs", "harmonic_dim", "kernel_eval", "kernel_eval_batch",
    "truncation_degree", "zonal_harmonic",
    "NormResult", "TestFunction", "TransformReport", "apply_T",
    "apply_T_derivative", "apply_T_report", "as_ball_function", "besov_norm",
    "besov_smoothing_order", "bloch_norm", "bloch_smoothing_order",
    "lp_membership", "lp_membership_analytic", "projection_Q",
    "sup_membership", "test_function_eval", "test_function_lp_norm",
    "transform_finite_analytic",
    "ProbeEvidence", "ProbeReport", "boundary_suite", "default_ratio_family",
    "finiteness_probe", "kernel_floor_probe", "ratio_probe",
    "BallQuadrature", "ConvergenceError", "LadderResult", "integrate_ball",
    "integrate_sphere", "lp_norm", "normalization_V",
    "radial_power_log_ladder", "weighted_sup_ladder",
    "PoleError", "log_gamma", "log_pochhammer", "pochhammer",
    "__version__",
]
