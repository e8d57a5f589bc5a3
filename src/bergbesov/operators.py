"""Weighted kernel transforms on the ball and norms of their images.

The transform with parameters (b, c) integrates a function against the
order-c kernel with boundary weight (1 - |y|^2)^b over the normalized
volume measure:

    (T f)(x) = int_B R_c(x, y) f(y) (1 - |y|^2)^b dnu(y).

T is diagonal on zonal harmonics (Axler, Bourdon & Ramey, Harmonic Function
Theory, ch. 5), so two kinds of input have an exact image:

- A harmonic expansion is scaled degree by degree by its multipliers
  (expansion.transform; None, divergent, for b <= -1 on any nonzero term).
- A radial input lies in degree 0: the spherical mean of R_c(x, .) over a
  centered sphere is R_c(x, 0) = 1, so T sends every radial function to the
  constant int_B f (1 - |y|^2)^b dnu, independent of c and x.  For the test
  family f_{u,v}(x) = (1 - |x|^2)^u (1 + log(1/(1 - |x|^2)))^{-v} that
  constant is radial.radial_power_log_value(b + u, v), divergent exactly
  when b+u < -1, or b+u = -1 with v <= 1.

The family itself (TestFunction, and test_function_eval, which evaluates
it on points), its memberships, the finiteness of its transform and its
source norms live in the radial module, and so does every answer for it,
on Python floats: its image (radial._radial_image), the report of
apply_T_report with the cutoff-ladder rungs of its radial integral
(_radial_report), and its image norms (_radial_norm).  Each entry point
here sends a TestFunction there, once.  The radial module also holds the
result types TransformReport and NormResult, the smoothing orders and the
choice or check of t that every image norm shares; all are re-exported
here as the same objects.  This module adds the transforms and image norms
of every other input.

An expansion's answers are read from its image, with no kernel series and
no inner quadrature.  An image of degree 0 is a constant c: its value at
every x is c, its Besov norm |c| (V_{beta+qt} / V_beta)^{1/q} and its Bloch
norm |c| (radial._constant_norm, as for a radial input).  Otherwise a
point value is the image at x, a q = 2 Besov norm the finite sum
expansion.square_integral, and the other norms read the image on their
outer grids.

The Besov norms (finite q) and the Bloch norm (their q = inf endpoint,
weight beta + t) share one driver, _image_norm; every image norm read on a
grid is one call of quadrature._weighted_norm on the outer grid.

Every other input (a callable) goes through one evaluator, _image_polar,
whether the caller wants the transform at a single point (apply_T,
apply_T_report, projection_Q) or on the outer grid of an image norm: the
full product rule, with the kernel's zonal series split into the
evaluation radius and a zonal table over the sphere rule, and the series
capped at the sphere rule's exactness degree (unresolved degrees alias, so
they are dropped).  apply_T_report flags such inputs divergent on value
growth under radial node doubling.

Weighted-space norms of transform images use the exact shift identity
D_c^t (T_{b,c} f) = T_{b,c+t} f, so no derivative is ever formed
numerically.  Normalization follows the V_a = 1 convention for weight
exponents a <= -1 (the weighted measure is no longer finite there).
"""

import math
from dataclasses import replace
from functools import partial

import numpy as np

from . import _accel
from .classifier import OperatorParams
from .errors import _check_ball_point, _check_finite, _check_int
from .expansion import HarmonicExpansion, evaluate, evaluate_many, square_integral, transform
from .expansion import from_json as expansion_from_json
from .kernel import KernelSpec, gamma_coefs, truncation_degree
from .quadrature import BallQuadrature, _on_polar_grid, _values, _weighted_norm, _weighted_radial_rule
from .radial import (
    DIVERGENCE_CAP,
    GROWTH_FACTOR,
    NormResult,
    TestFunction,
    TransformReport,
    _besov_exponent,
    _constant_norm,
    _parse_radial,
    _radial_image,
    _radial_norm,
    _radial_report,
    _smoothing_order,
    _v_or_one,
    besov_smoothing_order,
    bloch_smoothing_order,
    lp_membership_analytic,
    normalization_V,
    test_function_eval,
    test_function_lp_norm,
    transform_finite_analytic,
)

__all__ = [
    "TestFunction",
    "OperatorParams",
    "TransformReport",
    "NormResult",
    "test_function_eval",
    "as_ball_function",
    "apply_T",
    "apply_T_report",
    "apply_T_derivative",
    "projection_Q",
    "besov_norm",
    "bloch_norm",
    "besov_smoothing_order",
    "bloch_smoothing_order",
    "transform_finite_analytic",
    "lp_membership_analytic",
    "test_function_lp_norm",
]

# Outer-grid caps for norm integrals of transform images: every outer node
# costs a full inner quadrature, so the outer resolution stays modest.
_OUTER_RADIAL = 24
_OUTER_SPHERE = 32
# Default inner rule when the caller supplies none (norm paths only).
_INNER_RADIAL = 48
_INNER_SPHERE = 48


# Inputs with an exact image; _ball_input returns every other callable as is.
_EXACT_INPUTS = (TestFunction, HarmonicExpansion)


def _parse_text(f):
    """The string forms "const1", "fuv:u,v" (radial._parse_radial) and
    expansion JSON text as a TestFunction or a HarmonicExpansion; any other
    f is returned as is."""
    if not isinstance(f, str):
        return f
    tf = _parse_radial(f)
    if tf is not None:
        return tf
    s = f.strip()
    if s.startswith(("{", "[")):
        return expansion_from_json(s)
    raise ValueError(f"unknown function spec {f!r}; "
                     "use 'const1', 'fuv:u,v', or expansion JSON")


def _ball_input(f, dim):
    """f as a TestFunction, a HarmonicExpansion of dimension dim, or a
    callable, returned as is: the quadrature layer checks its output shape
    at every call (quadrature._values).  Accepts what as_ball_function
    accepts."""
    f = _parse_text(f)
    if isinstance(f, HarmonicExpansion) and f.dim != dim:
        raise ValueError(f"expansion dim {f.dim} != requested dim {dim}")
    if isinstance(f, _EXACT_INPUTS) or callable(f):
        return f
    raise TypeError(f"cannot interpret {type(f).__name__} as a ball function")


def as_ball_function(f, dim):
    """Coerce f to (vectorized callable on (m, dim) points, TestFunction or None).

    Accepts TestFunction, HarmonicExpansion, a callable mapping an (m, dim)
    array to m values, or the string forms "const1", "fuv:u,v", and
    serialized-expansion JSON text (an object or a bare record array).  The
    returned callable gives a float array of m values, and raises
    ValueError when a callable f gives another shape.  The quadrature layer
    passes f its points as column-major (F-contiguous) float64 blocks, so a
    callable f must not assume C order.  The returned TestFunction, when
    present, selects the exact radial route (radial._radial_image).
    """
    g = _ball_input(f, dim)
    if isinstance(g, TestFunction):
        return (lambda pts: test_function_eval(g, pts)), g
    if isinstance(g, HarmonicExpansion):
        return (lambda pts: evaluate_many(g, pts)), None
    return partial(_values, g), None


# ---------------------------------------------------------------------------
# Transform evaluation.


def _constant(image):
    """The value of an image of degree 0 (0 for the zero expansion), or None
    when some term has a higher degree."""
    return None if np.any(image.degrees) else float(np.sum(image.coefs))


def _image_value(image, x):
    """T f at x from its exact image: inf where there is none, else its value."""
    if image is None:
        return math.inf
    const = _constant(image)
    return evaluate(image, x) if const is None else const


def _setup_point(x, rule):
    x = np.asarray(x, dtype=float).ravel()
    if x.size < 2:
        raise ValueError(f"points must have dimension >= 2, got shape {x.shape}")
    _check_ball_point(x)
    if rule is None:
        return x, BallQuadrature(x.size)
    if rule.dim != x.size:
        raise ValueError(f"rule dim {rule.dim} != point dim {x.size}")
    return x, rule


def _image_polar(b, fvec, r_out, dirs, kspec, rule):
    """Transform image on the polar grid r_out x dirs as a (radii, dirs) array.

    This is the one evaluator behind every callable input (the inputs with
    an exact image never get here): the norms use their outer grids, and
    apply_T, apply_T_report and projection_Q use a 1x1 grid (_image_at).
    The inner radial nodes are _weighted_radial_rule's for the weight
    exponent b: folded into them for b > -1, applied at them below.  The
    zonal series separates the evaluation radius from everything else: with
    S_k the degree-k moment of the inner integrand against one outer
    direction, the image at radius r is sum_k gamma_k r^k S_k.  Each
    direction therefore costs one zonal table over the inner sphere rule
    instead of one series per quadrature node.  The truncation degree is
    certified at the largest radius pair and shared, capped at the sphere
    rule's exactness: degrees the rule cannot integrate would alias onto
    lower ones, so they are dropped, and the certificate is not searched
    past the cap.
    """
    r_in, wr = _weighted_radial_rule(rule, b)
    zeta_in, ws_in = rule.sphere_rule()
    rest_w = _on_polar_grid(fvec, r_in, zeta_in) * ws_in[None, :]
    r_out = np.asarray(r_out, dtype=float)
    kmax = truncation_degree(kspec, float(r_out.max()), float(r_in.max()),
                             cap=rule.sphere_exactness())
    gam = gamma_coefs(kmax, kspec.alpha, kspec.dim)
    ks = np.arange(kmax + 1, dtype=float)
    in_pow = np.power(r_in[None, :], ks[:, None])
    out_pow = np.power(r_out[:, None], ks[None, :])
    vals = np.empty((r_out.size, len(dirs)))
    for j, zeta in enumerate(dirs):
        table = _accel.zonal_table(kmax, zeta_in @ zeta, kspec.dim)
        moments = ((table @ rest_w.T) * in_pow) @ wr
        vals[:, j] = out_pow @ (gam * moments)
    return vals


def _image_at(b, fvec, x, kspec, rule):
    """Transform value at the single point x: _image_polar on the 1x1 grid
    of radius |x| and direction x/|x| (any unit vector when x = 0).

    x is input, so a point too close to the sphere for the kernel series
    to be certified within MAX_DEGREE terms is refused with
    TruncationLimitError, although the sum stops at the sphere rule's
    exactness.
    """
    r = float(np.linalg.norm(x))
    truncation_degree(kspec, r, float(_weighted_radial_rule(rule, b)[0].max()))
    zeta = x / r if r > 0.0 else np.eye(x.size)[0]
    return float(_image_polar(b, fvec, [r], zeta[None, :], kspec, rule)[0, 0])


def apply_T(b, c, f, x, rule=None):
    """Transform value at x: int_B R_c(x,y) f(y) (1-|y|^2)^b dnu(y).

    f may be anything as_ball_function accepts.  A TestFunction or a
    HarmonicExpansion (an object or text) is answered from its exact image
    (radial._radial_image or expansion.transform): inf where the transform
    diverges, the constant of a degree-0 image, and the image evaluated at
    x otherwise; rule is unused.
    Every other input is integrated by the product quadrature rule as given,
    with the order-c kernel at KernelSpec's default tolerance; a callable
    receives the rule's points as column-major (F-contiguous) float64
    (m, dim) blocks, and must not assume C order.  Convergence diagnostics
    live in apply_T_report.  b and c must be finite.
    """
    b, c = _check_finite("b", b), _check_finite("c", c)
    x, rule = _setup_point(x, rule)
    g = _ball_input(f, x.size)
    if isinstance(g, TestFunction):
        return _radial_image(b, g, x.size)
    if isinstance(g, HarmonicExpansion):
        return _image_value(transform(b, c, g), x)
    return _image_at(b, g, x, KernelSpec(c, x.size), rule)


def apply_T_report(b, c, f, x, rule=None):
    """Transform value with a divergence verdict.

    An input with an exact image gets apply_T's value, divergent exactly
    when it is inf, and rule is unused.  A TestFunction reports the
    cutoff-ladder rungs of its radial integral (radial._radial_report,
    method "radial-ladder"); a HarmonicExpansion has no refinements (method
    "spectral").  Other inputs
    are evaluated at 1x, 2x, and 4x the rule's radial nodes and flagged
    divergent when the magnitude grows beyond GROWTH_FACTOR across the two
    doublings, exceeds DIVERGENCE_CAP, or becomes non-finite (method
    "node-doubling").  b and c must be finite.
    """
    b, c = _check_finite("b", b), _check_finite("c", c)
    x, rule = _setup_point(x, rule)
    g = _ball_input(f, x.size)
    if isinstance(g, TestFunction):
        return _radial_report(b, c, g, x)
    if isinstance(g, HarmonicExpansion):
        value = _image_value(transform(b, c, g), x)
        return TransformReport(value, not math.isfinite(value), (), "spectral")
    kspec = KernelSpec(c, x.size)
    refinements = []
    for mult in (1, 2, 4):
        nodes = rule.radial_nodes * mult
        val = _image_at(b, g, x, kspec, rule.with_radial_nodes(nodes))
        refinements.append((nodes, val))
    value = refinements[-1][1]
    first, last = abs(refinements[0][1]), abs(value)
    divergent = (not math.isfinite(value) or last > DIVERGENCE_CAP
                 or (first > 1e-12 and last / first > GROWTH_FACTOR))
    return TransformReport(value, divergent, tuple(refinements), "node-doubling")


def apply_T_derivative(b, c, t, f, x, rule=None):
    """Order-t derivative of the transform at base c, via the exact shift
    identity: equals the (b, c+t) transform at x."""
    return apply_T(b, float(c) + float(t), f, x, rule=rule)


def projection_Q(alpha, f, x, rule=None):
    """Weighted projection: (1/V_alpha) times the (alpha, alpha) transform.

    Reproduces harmonic inputs and maps anything integrable to a harmonic
    function; requires alpha > -1.  A HarmonicExpansion is reproduced to
    rounding, since its multipliers over V_alpha are 1 up to a few ulps
    (rule is unused for it).
    """
    alpha = float(alpha)
    if not alpha > -1.0:
        raise ValueError(f"projection requires alpha > -1, got {alpha}")
    x = np.asarray(x, dtype=float).ravel()
    return apply_T(alpha, alpha, f, x, rule=rule) / normalization_V(alpha, x.size)


# ---------------------------------------------------------------------------
# Norms of transform images.


def _default_inner(dim):
    return BallQuadrature(dim, radial_nodes=_INNER_RADIAL, sphere_nodes=_INNER_SPHERE)


def _default_outer(inner):
    return replace(inner,
                   radial_nodes=min(inner.radial_nodes, _OUTER_RADIAL),
                   sphere_nodes=max(min(inner.sphere_nodes, _OUTER_SPHERE), 4))


def _image_norm(g, q, beta, rule, dim, t):
    """besov_norm of g = (b, c, f) for finite q, bloch_norm at q = inf: the
    image of f read with the weight w = beta + q t (beta + t at q = inf).

    Returns the NormResult and the inner rule it read (rule, or the default
    inner rule where rule is None): None for a radial input, and for an
    expansion whose image diverges, is a constant, or is summed over its
    degrees at q = 2.
    """
    b, c, f = g
    b, c = _check_finite("b", b), _check_finite("c", c)
    beta = _check_finite("beta", beta)
    t, w = _smoothing_order(beta, q, t)
    f = _parse_text(f)
    if rule is None and dim is None and not isinstance(f, HarmonicExpansion):
        raise ValueError("pass rule= or dim= to fix the ambient dimension")
    n = rule.dim if rule is not None else _check_int("dim", dim, 2) if dim is not None else f.dim
    h = _ball_input(f, n)
    if isinstance(h, TestFunction):
        return _radial_norm(b, c, h, q, beta, n, t), None
    expansion = isinstance(h, HarmonicExpansion)
    if expansion:
        image = transform(b, c + t, h)
        if image is None:
            return NormResult(math.inf, c, t, True), None
        const = _constant(image)
        if const is not None:
            return NormResult(_constant_norm(const, q, beta, w, n), c, t, False), None
    if expansion and q == 2.0:
        raw, inner = square_integral(image, w), None
    else:
        inner = rule if rule is not None else _default_inner(n)
        if expansion:
            values = partial(_on_polar_grid, partial(evaluate_many, image))
        else:
            values = partial(_image_polar, b, h, kspec=KernelSpec(c + t, n), rule=inner)
        raw = _weighted_norm(values, q, w, _default_outer(inner))
    if not math.isfinite(raw):
        return NormResult(math.inf, c, t, True), inner
    value = raw if q == math.inf else (raw / _v_or_one(beta, n)) ** (1.0 / q)
    return NormResult(float(value), c, t, False), inner


def besov_norm(g, q, beta, rule=None, dim=None, t=None):
    """q-integral smoothness norm of the transform image g = (b, c, f).

    With t the smallest non-negative integer making beta + q t > -1 and the
    derivative base s = c, the norm is

        ((1/V_beta) int_B |T_{b,c+t} f|^q (1-|x|^2)^{beta+qt} dnu)^{1/q},

    using V_beta = 1 when beta <= -1.  Any admissible non-negative integer t
    may be forced instead (all choices give equivalent norms).  An exact
    image T_{b,c+t} f (radial._radial_norm for f_{u,v}, expansion.transform
    for an expansion) gives inf and divergent where the transform diverges, |c| (V_{beta+qt} / V_beta)^{1/q} when it is a
    constant c, the finite sum expansion.square_integral for q = 2, and
    otherwise its integral on the outer grid.  A callable's transform is
    evaluated on a reduced outer grid, so expect desk-scale accuracy only;
    rule is its inner quadrature and sets the outer grid.  The callable
    receives the inner rule's points as column-major (F-contiguous) float64
    (m, dim) blocks, and must not assume C order.  The dimension is
    rule's, else dim (an integer >= 2), else an expansion's own (JSON text
    is parsed for it).  b, c and beta must be finite.
    """
    return _image_norm(g, _besov_exponent(q), beta, rule, dim, t)[0]


def bloch_norm(g, beta, rule=None, dim=None, t=None):
    """Weighted sup-type norm of the transform image g = (b, c, f).

    With t the smallest non-negative integer making beta + t > 0 and base
    s = c, returns sup (1-|x|^2)^{beta+t} |T_{b,c+t} f| over a log-spaced
    radial grid times the outer rule's sphere directions (a lower estimate
    of the true supremum).  Any admissible non-negative integer t may be
    forced instead.  An exact image (as in besov_norm) gives inf and divergent
    where the transform diverges, |c| when it is a constant c (the weight
    peaks at 1 at the origin), and otherwise its sup on the grid.  rule and
    the dimension are as in besov_norm.  b, c and beta must be finite.
    """
    return _image_norm(g, math.inf, beta, rule, dim, t)[0]
