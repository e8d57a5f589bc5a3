"""Weighted harmonic kernels on the unit ball: series evaluation, integral
transforms, exact boundedness classification, and numerical probes.

The pieces fit together like this: `kernel` evaluates the weighted zonal
series R_alpha(x, y) with a certified truncation bound; `expansion` holds
finite zonal-anchored harmonic expansions and their exact fractional
derivative/integral maps; `quadrature` supplies product rules on the ball;
`radial` holds the radial test family f_{u,v} and its 1-D integrals, whose
finiteness an exact dichotomy decides and the refinement ladders only
observe; `operators` builds the weighted transform T_{b,c}, the projection,
and smoothness norms on top; `classifier` is the pure
inequality system deciding boundedness of T_{b,c} between weighted spaces;
`probe` cross-checks those verdicts against observed numerics; `cli` exposes
everything as subcommands.

Each public name is imported from its submodule on first access (PEP 562),
so `import bergbesov` loads no submodule.  The classifier and `radial` run
without NumPy, and `kernel` imports it only in the functions that need it,
so its certificate, and its closed forms at a pair of lists, run without it
too.
"""

import importlib

__version__ = "0.1.0"

# Every public name by the submodule it comes from.
_EXPORTS = {
    "classifier": (
        "ExtExponent", "Inequality", "OperatorParams", "Target", "Verdict",
        "classify", "conjugate", "reduce_to_unweighted",
    ),
    "expansion": (
        "HarmonicExpansion", "apply_D", "apply_I", "evaluate", "evaluate_many",
        "expansion_from_json", "expansion_to_json",
    ),
    "kernel": (
        "MAX_DEGREE", "KernelDivergenceError", "KernelSpec", "TruncationLimitError",
        "gamma_coef", "gamma_coefs", "harmonic_dim", "kernel_eval", "kernel_eval_batch",
        "truncation_degree", "zonal_harmonic",
    ),
    "operators": (
        "apply_T", "apply_T_derivative", "apply_T_report", "as_ball_function",
        "besov_norm", "bloch_norm", "projection_Q",
    ),
    "probe": (
        "ProbeEvidence", "ProbeReport", "boundary_suite", "default_ratio_family",
        "finiteness_probe", "kernel_floor_probe", "ratio_probe",
    ),
    "quadrature": (
        "BallQuadrature", "ConvergenceError", "integrate_ball", "integrate_sphere", "lp_norm",
    ),
    "radial": (
        "LadderResult", "NormResult", "TestFunction", "TransformReport",
        "besov_smoothing_order", "bloch_smoothing_order", "lp_membership_analytic",
        "normalization_V", "radial_power_log_ladder", "test_function_eval",
        "test_function_lp_norm", "transform_finite_analytic", "weighted_sup_ladder",
    ),
    "specfun": ("PoleError", "log_gamma", "log_pochhammer", "pochhammer"),
}
# Public names that differ from the submodule's own name.
_RENAMED = {"expansion_from_json": "from_json", "expansion_to_json": "to_json"}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), _RENAMED.get(name, name))
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__all__ = [*_ORIGIN, "__version__"]
