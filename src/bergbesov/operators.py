"""Weighted kernel transforms on the ball and norms of their images.

The transform with parameters (b, c) integrates a function against the
order-c kernel with boundary weight (1 - |y|^2)^b over the normalized
volume measure:

    (T f)(x) = int_B R_c(x, y) f(y) (1 - |y|^2)^b dnu(y).

Each kind of input has one exact or one numerical route:

- Radial inputs collapse: the spherical mean of R_c(x, .) over a centered
  sphere equals R_c(x, 0) = 1, so T sends every radial function to the
  constant int_B f (1 - |y|^2)^b dnu, independent of both c and x.  Every
  input of the radial test family

      f_{u,v}(x) = (1 - |x|^2)^u (1 + log(1/(1 - |x|^2)))^{-v}

  is therefore answered by quadrature.radial_power_log_value(b + u, v), at
  every x and in every norm of the image: the full-interval 1-D integral,
  inf exactly when b+u < -1, or b+u = -1 with v <= 1.  apply_T_report adds
  the cutoff-ladder rungs of the same integral.
- Harmonic expansions are transformed exactly: T is diagonal on zonal
  harmonics, and expansion.transform scales each degree-k coefficient by
  its multiplier (inf and divergent for b <= -1 on any nonzero term).  A
  point value is the image expansion evaluated at x, a q = 2 Besov norm is
  the finite sum expansion.square_integral, and the other norms read the
  image from evaluate_many on their outer grids.  No kernel series and no
  inner quadrature is involved, so spec and the inner rule go unused.
- Every other input (a callable) goes through one evaluator, _image_polar,
  whether the caller wants the transform at a single point (apply_T,
  apply_T_report, projection_Q) or on the outer grid of an image norm: the
  full product rule, with the kernel's zonal series split into the
  evaluation radius and a zonal table over the sphere rule, and the series
  capped at the sphere rule's exactness degree (unresolved degrees alias,
  so they are dropped).  apply_T_report flags such inputs divergent on
  value growth under radial node doubling.

Weighted-space norms of transform images use the exact shift identity
D_c^t (T_{b,c} f) = T_{b,c+t} f, so no derivative is ever formed
numerically.  Normalization follows the V_a = 1 convention for weight
exponents a <= -1 (the weighted measure is no longer finite there).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _accel
from .classifier import OperatorParams
from .expansion import HarmonicExpansion, evaluate, evaluate_many, square_integral, transform
from .expansion import from_json as expansion_from_json
from .kernel import KernelSpec, gamma_coefs, truncation_degree
from .quadrature import (
    _SUP_GRID,
    DIVERGENCE_CAP,
    GROWTH_FACTOR,
    BallQuadrature,
    _radial_integral_finite,
    _sup_finite,
    _v_or_one,
    normalization_V,
    radial_power_log_ladder,
    radial_power_log_value,
    weighted_sup_ladder,
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


@dataclass(frozen=True)
class TestFunction:
    """The radial family f_{u,v}; positive on the open ball, f(0) = 1."""

    u: float
    v: float

    def __post_init__(self):
        object.__setattr__(self, "u", float(self.u))
        object.__setattr__(self, "v", float(self.v))
        if not (math.isfinite(self.u) and math.isfinite(self.v)):
            raise ValueError(f"u and v must be finite, got u={self.u}, v={self.v}")

    def __call__(self, x):
        return test_function_eval(self, x)


def test_function_eval(tf, x):
    """(1-|x|^2)^u (1 + log 1/(1-|x|^2))^{-v} at a point or an (m, dim) batch."""
    pts = np.asarray(x, dtype=float)
    scalar = pts.ndim == 1
    rr = np.sum(np.atleast_2d(pts) ** 2, axis=1)
    if np.any(rr >= 1.0):
        raise ValueError("test functions are defined on the open unit ball")
    w = -np.log1p(-rr)  # log 1/(1-|x|^2), stable near 0
    vals = (1.0 - rr) ** tf.u * (1.0 + w) ** (-tf.v)
    return float(vals[0]) if scalar else vals


def _ball_input(f, dim):
    """f as a TestFunction, a HarmonicExpansion of dimension dim, or a
    vectorized callable whose output shape is checked; accepts what
    as_ball_function accepts."""
    if isinstance(f, str):
        s = f.strip()
        if s == "const1":
            f = TestFunction(0.0, 0.0)
        elif s.startswith("fuv:"):
            parts = s[len("fuv:"):].split(",")
            if len(parts) != 2:
                raise ValueError(f"expected 'fuv:u,v', got {f!r}")
            f = TestFunction(float(parts[0]), float(parts[1]))
        elif s.startswith(("{", "[")):
            f = expansion_from_json(s)
        else:
            raise ValueError(f"unknown function spec {f!r}; "
                             "use 'const1', 'fuv:u,v', or expansion JSON")
    if isinstance(f, TestFunction):
        return f
    if isinstance(f, HarmonicExpansion):
        if f.dim != dim:
            raise ValueError(f"expansion dim {f.dim} != requested dim {dim}")
        return f
    if callable(f):
        raw = f

        def fun(pts):
            vals = np.asarray(raw(pts), dtype=float)
            if vals.shape != (len(pts),):
                raise ValueError("callable must map an (m, dim) array to m values")
            return vals

        return fun
    raise TypeError(f"cannot interpret {type(f).__name__} as a ball function")


def as_ball_function(f, dim):
    """Coerce f to (vectorized callable on (m, dim) points, TestFunction or None).

    Accepts TestFunction, HarmonicExpansion, a callable mapping an (m, dim)
    array to m values, or the string forms "const1", "fuv:u,v", and
    serialized-expansion JSON text (an object or a bare record array).  The
    returned TestFunction, when present, selects the exact radial route
    (radial_power_log_value).
    """
    g = _ball_input(f, dim)
    if isinstance(g, TestFunction):
        return (lambda pts: test_function_eval(g, pts)), g
    if isinstance(g, HarmonicExpansion):
        return (lambda pts: evaluate_many(g, pts)), None
    return g, None


@dataclass(frozen=True)
class TransformReport:
    """Transform value plus divergence analysis.

    refinements lists (resolution, value) pairs: ladder cutoffs for the
    radial path, radial node counts for the node-doubling path; the exact
    spectral path of expansions has none.
    """

    value: float
    divergent: bool
    refinements: tuple
    method: str

    def to_dict(self):
        return {"value": self.value, "divergent": self.divergent,
                "refinements": [list(r) for r in self.refinements],
                "method": self.method}


def transform_finite_analytic(b, tf):
    """Exact finiteness of the transform of f_{u,v} under weight b: finite
    iff b+u > -1, or b+u = -1 and v > 1."""
    return _radial_integral_finite(float(b) + tf.u, tf.v)


def lp_membership_analytic(tf, p, alpha):
    """Exact membership of f_{u,v} in the alpha-weighted p-space: for finite
    p, alpha + pu > -1 or (= -1 with pv > 1); for p = inf, alpha + u > 0 or
    (alpha + u = 0 with v >= 0)."""
    alpha = float(alpha)
    if p == math.inf:
        return _sup_finite(alpha + tf.u, tf.v)
    return _radial_integral_finite(alpha + p * tf.u, p * tf.v)


def test_function_lp_norm(tf, p, alpha, dim):
    """Norm of f_{u,v} in the alpha-weighted p-space.  For finite p, the
    full-interval double-exponential integral, inf exactly on the divergent
    side (alpha + pu < -1, or = -1 with pv <= 1); weight normalization uses
    V_alpha, or 1 for alpha <= -1.  For p = inf, the closed-form sup
    weighted_sup_ladder(alpha + u, v).  alpha must be finite."""
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if p == math.inf:
        return weighted_sup_ladder(alpha + tf.u, tf.v).value
    raw = radial_power_log_value(alpha + p * tf.u, p * tf.v, dim=dim)
    return (raw / _v_or_one(alpha, dim)) ** (1.0 / p)


# ---------------------------------------------------------------------------
# Transform evaluation.


def _setup_point(x, rule):
    x = np.asarray(x, dtype=float).ravel()
    if x.size < 2:
        raise ValueError(f"points must have dimension >= 2, got shape {x.shape}")
    if not float(x @ x) < 1.0:  # also rejects nan
        raise ValueError("evaluation point must lie in the open unit ball")
    if rule is None:
        return x, BallQuadrature(x.size)
    if rule.dim != x.size:
        raise ValueError(f"rule dim {rule.dim} != point dim {x.size}")
    return x, rule


def _finite_orders(b, c):
    """(b, c) as floats; a transform has no value at a non-finite order."""
    b, c = float(b), float(c)
    for name, value in (("b", b), ("c", c)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    return b, c


def _kernel_spec(c, dim, spec):
    c = float(c)
    if spec is not None and spec.alpha == c and spec.dim == dim:
        return spec
    tol = spec.tol if spec is not None else 1e-10
    return KernelSpec(c, dim, tol)


def _inner_rule(b, rule):
    """The rule with a weight exponent b > -1 folded into its radial nodes."""
    return rule.with_jacobi_exponent(b if b > -1.0 else 0.0)


def _image_polar(b, fvec, r_out, dirs, kspec, rule):
    """Transform image on the polar grid r_out x dirs as a (radii, dirs) array.

    This is the one evaluator behind every callable input (expansions are
    transformed exactly by expansion.transform, TestFunctions by their 1-D
    integral): the norms use their outer grids, and apply_T, apply_T_report
    and projection_Q use a 1x1 grid (_image_at).  A weight exponent b > -1 is
    folded into the inner radial nodes; below -1 the weight is applied at
    the nodes.  The zonal series separates the evaluation radius from
    everything else: with S_k the degree-k moment of the inner integrand
    against one outer direction, the image at radius r is
    sum_k gamma_k r^k S_k.  Each direction therefore costs one zonal table
    over the inner sphere rule instead of one series per quadrature node.
    The truncation degree is certified at the largest radius pair and
    shared, capped at the sphere rule's exactness: degrees the rule cannot
    integrate would alias onto lower ones, so they are dropped, and the
    certificate is not searched past the cap.
    """
    b = float(b)
    inner = _inner_rule(b, rule)
    r_in, wr_in = inner.radial_rule()
    zeta_in, ws_in = inner.sphere_rule()
    leftover = b - inner.jacobi_exponent
    wr = wr_in * (1.0 - r_in**2) ** leftover if leftover != 0.0 else wr_in
    pts = (r_in[:, None, None] * zeta_in[None, :, :]).reshape(-1, kspec.dim)
    rest_w = np.asarray(fvec(pts), dtype=float).reshape(len(r_in), len(ws_in))
    rest_w = rest_w * ws_in[None, :]
    r_out = np.asarray(r_out, dtype=float)
    kmax = truncation_degree(kspec, float(r_out.max()), float(r_in.max()),
                             cap=inner.sphere_exactness())
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
    truncation_degree(kspec, r, float(_inner_rule(b, rule).radial_rule()[0].max()))
    zeta = x / r if r > 0.0 else np.eye(x.size)[0]
    return float(_image_polar(b, fvec, [r], zeta[None, :], kspec, rule)[0, 0])


def _spectral_value(b, c, exp, x):
    """T_{b,c} exp at x, exactly: the image expansion at x, or inf where
    expansion.transform finds the transform divergent."""
    image = transform(b, c, exp)
    return math.inf if image is None else evaluate(image, x)


def apply_T(b, c, f, x, spec=None, rule=None):
    """Transform value at x: int_B R_c(x,y) f(y) (1-|y|^2)^b dnu(y).

    f may be anything as_ball_function accepts.  A TestFunction f_{u,v} has
    the constant image radial_power_log_value(b + u, v) at every x (inf when
    divergent).  A HarmonicExpansion (an object or JSON text) is transformed
    exactly by its multipliers (expansion.transform) and evaluated at x; it
    is inf for b <= -1 unless every term is zero, and spec and rule are
    unused.  Every other input is integrated by the product quadrature rule
    as given.  Convergence diagnostics live in apply_T_report.  b and c must
    be finite.
    """
    b, c = _finite_orders(b, c)
    x, rule = _setup_point(x, rule)
    g = _ball_input(f, x.size)
    if isinstance(g, TestFunction):
        return radial_power_log_value(b + g.u, g.v, dim=x.size)
    if isinstance(g, HarmonicExpansion):
        return _spectral_value(b, c, g, x)
    return _image_at(b, g, x, _kernel_spec(c, x.size, spec), rule)


def apply_T_report(b, c, f, x, spec=None, rule=None):
    """Transform value with a divergence verdict.

    TestFunction inputs (radial, so the transform is the same constant at
    every x) get radial_power_log_value, divergent exactly when it is inf,
    plus the cutoff-ladder rungs of the same integral (method
    "radial-ladder").  HarmonicExpansion inputs get apply_T's exact value,
    divergent exactly when it is inf (b <= -1 and some term nonzero), with
    no refinements (method "spectral"; spec and rule are unused).  Other
    inputs are evaluated at 1x, 2x, and 4x the rule's radial nodes and
    flagged divergent when the magnitude grows beyond GROWTH_FACTOR across
    the two doublings, exceeds DIVERGENCE_CAP, or becomes non-finite
    (method "node-doubling").  b and c must be finite.
    """
    b, c = _finite_orders(b, c)
    x, rule = _setup_point(x, rule)
    g = _ball_input(f, x.size)
    if isinstance(g, TestFunction):
        bexp = b + g.u
        value = radial_power_log_value(bexp, g.v, dim=x.size)
        rungs = radial_power_log_ladder(bexp, g.v, dim=x.size).rungs
        return TransformReport(value, not math.isfinite(value), rungs, "radial-ladder")
    if isinstance(g, HarmonicExpansion):
        value = _spectral_value(b, c, g, x)
        return TransformReport(value, not math.isfinite(value), (), "spectral")
    kspec = _kernel_spec(c, x.size, spec)
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


def apply_T_derivative(b, c, t, f, x, spec=None, rule=None):
    """Order-t derivative of the transform at base c, via the exact shift
    identity: equals the (b, c+t) transform at x."""
    return apply_T(b, float(c) + float(t), f, x, spec=spec, rule=rule)


def projection_Q(alpha, f, x, spec=None, rule=None):
    """Weighted projection: (1/V_alpha) times the (alpha, alpha) transform.

    Reproduces harmonic inputs and maps anything integrable to a harmonic
    function; requires alpha > -1.  A HarmonicExpansion is reproduced to
    rounding, since its multipliers over V_alpha are 1 up to a few ulps
    (spec and rule are unused for it).
    """
    alpha = float(alpha)
    if not alpha > -1.0:
        raise ValueError(f"projection requires alpha > -1, got {alpha}")
    x = np.asarray(x, dtype=float).ravel()
    return apply_T(alpha, alpha, f, x, spec=spec, rule=rule) / normalization_V(alpha, x.size)


# ---------------------------------------------------------------------------
# Norms of transform images.


@dataclass(frozen=True)
class NormResult:
    """Norm value with the derivative base s and order t actually used."""

    value: float
    s: float
    t: int
    divergent: bool

    def to_dict(self):
        return {"value": self.value, "s": self.s, "t": self.t,
                "divergent": self.divergent}


def besov_smoothing_order(beta, q):
    """Smallest non-negative integer t with beta + q t > -1."""
    beta, q = float(beta), float(q)
    t = 0
    while beta + q * t <= -1.0:
        t += 1
    return t


def bloch_smoothing_order(beta):
    """Smallest non-negative integer t with beta + t > 0."""
    beta = float(beta)
    t = 0
    while beta + t <= 0.0:
        t += 1
    return t


def _constant_besov_norm(const, q, beta, t, dim):
    """q-integral smoothness norm of the constant function const: every
    derivative D_s^t of a constant is the constant itself, so the norm is
    |const| (V_{beta+qt} / V_beta)^{1/q}, with V_beta = 1 when beta <= -1."""
    return abs(const) * (normalization_V(beta + q * t, dim) / _v_or_one(beta, dim)) ** (1.0 / q)


def _resolve_dim(f, rule, dim):
    if rule is not None:
        return rule.dim
    if isinstance(f, HarmonicExpansion):
        return f.dim
    if dim is not None:
        return int(dim)
    raise ValueError("pass rule= or dim= to fix the ambient dimension")


def _default_inner(dim):
    return BallQuadrature(dim, radial_nodes=_INNER_RADIAL, sphere_nodes=_INNER_SPHERE)


def _default_outer(inner):
    return replace(inner,
                   radial_nodes=min(inner.radial_nodes, _OUTER_RADIAL),
                   sphere_nodes=max(min(inner.sphere_nodes, _OUTER_SPHERE), 4))


def _polar_values(exp, r, dirs):
    """The expansion exp on the polar grid r x dirs, as a (radii, dirs) array."""
    pts = (np.asarray(r, dtype=float)[:, None, None] * dirs[None, :, :]).reshape(-1, exp.dim)
    return evaluate_many(exp, pts).reshape(len(r), len(dirs))


def besov_norm(g, q, beta, spec=None, rule=None, outer_rule=None, dim=None, t=None):
    """q-integral smoothness norm of the transform image g = (b, c, f).

    With t the smallest non-negative integer making beta + q t > -1 and the
    derivative base s = c, the norm is

        ((1/V_beta) int_B |T_{b,c+t} f|^q (1-|x|^2)^{beta+qt} dnu)^{1/q},

    using V_beta = 1 when beta <= -1.  Any admissible non-negative integer t
    may be forced instead (all choices give equivalent norms).  A TestFunction
    f_{u,v} has the constant image radial_power_log_value(b + u, v), whose
    norm is exactly its absolute value times (V_{beta+qt} / V_beta)^{1/q}.
    A HarmonicExpansion's image T_{b,c+t} f is exact (expansion.transform;
    inf and divergent for b <= -1 unless every term is zero): for q = 2 the
    norm is the finite sum expansion.square_integral, and for other q the
    exact image is integrated on the outer grid.  Other inputs evaluate the
    transform on a reduced outer grid, so expect desk-scale accuracy only.
    rule is the inner quadrature for the transform, and sets the default
    outer grid; outer_rule overrides the norm grid.  An expansion uses
    neither spec nor the inner rule.  b and c must be finite.
    """
    b, c, f = g
    b, c = _finite_orders(b, c)
    q = float(q)
    if not 1.0 <= q < math.inf:
        raise ValueError(f"q must be in [1, inf), got {q}")
    beta = float(beta)
    if t is None:
        t = besov_smoothing_order(beta, q)
    elif t != int(t) or t < 0 or not beta + q * t > -1.0:
        raise ValueError(f"t must be a non-negative integer with beta + q t > -1, got {t}")
    t = int(t)
    n = _resolve_dim(f, rule, dim)
    h = _ball_input(f, n)
    s = c
    if isinstance(h, TestFunction):
        const = radial_power_log_value(b + h.u, h.v, dim=n)
        if not math.isfinite(const):
            return NormResult(math.inf, s, t, True)
        return NormResult(_constant_besov_norm(const, q, beta, t, n), s, t, False)
    if isinstance(h, HarmonicExpansion):
        image = transform(b, s + t, h)
        if image is None:
            return NormResult(math.inf, s, t, True)
    if isinstance(h, HarmonicExpansion) and q == 2.0:
        raw = square_integral(image, beta + 2.0 * t)
    else:
        inner = rule if rule is not None else _default_inner(n)
        outer = outer_rule if outer_rule is not None else _default_outer(inner)
        outer = outer.with_jacobi_exponent(beta + q * t)
        r_out, wr_out = outer.radial_rule()
        zeta_out, ws_out = outer.sphere_rule()
        if isinstance(h, HarmonicExpansion):
            img = _polar_values(image, r_out, zeta_out)
        else:
            img = _image_polar(b, h, r_out, zeta_out, _kernel_spec(s + t, n, spec), inner)
        raw = float((np.abs(img) ** q @ ws_out) @ wr_out)
    if not math.isfinite(raw):
        return NormResult(math.inf, s, t, True)
    value = (raw / _v_or_one(beta, n)) ** (1.0 / q)
    return NormResult(float(value), s, t, False)


def bloch_norm(g, beta, spec=None, rule=None, outer_rule=None, dim=None, t=None):
    """Weighted sup-type norm of the transform image g = (b, c, f).

    With t the smallest non-negative integer making beta + t > 0 and base
    s = c, returns sup (1-|x|^2)^{beta+t} |T_{b,c+t} f| over a log-spaced
    radial grid times the outer rule's sphere directions (a lower estimate
    of the true supremum).  Any admissible non-negative integer t may be
    forced instead.  A TestFunction f_{u,v} has the constant image
    radial_power_log_value(b + u, v), so the sup is its absolute value: the
    weight (1-|x|^2)^{beta+t} peaks at 1 at the origin.  A HarmonicExpansion's
    image is exact (expansion.transform; inf and divergent for b <= -1
    unless every term is zero) and evaluated on the grid by evaluate_many,
    without spec or an inner rule.  rule sets the default outer grid, which
    outer_rule overrides.  b and c must be finite.
    """
    b, c, f = g
    b, c = _finite_orders(b, c)
    beta = float(beta)
    if t is None:
        t = bloch_smoothing_order(beta)
    elif t != int(t) or t < 0 or not beta + t > 0.0:
        raise ValueError(f"t must be a non-negative integer with beta + t > 0, got {t}")
    t = int(t)
    n = _resolve_dim(f, rule, dim)
    h = _ball_input(f, n)
    s = c
    if isinstance(h, TestFunction):
        const = radial_power_log_value(b + h.u, h.v, dim=n)
        if not math.isfinite(const):
            return NormResult(math.inf, s, t, True)
        return NormResult(abs(const), s, t, False)
    inner = rule if rule is not None else _default_inner(n)
    outer = outer_rule if outer_rule is not None else _default_outer(inner)
    r = np.sqrt(-np.expm1(-_SUP_GRID))
    zeta, _ = outer.sphere_rule()
    if isinstance(h, HarmonicExpansion):
        image = transform(b, s + t, h)
        if image is None:
            return NormResult(math.inf, s, t, True)
        img = _polar_values(image, r, zeta)
    else:
        img = _image_polar(b, h, r, zeta, _kernel_spec(s + t, n, spec), inner)
    weighted = (1.0 - r * r)[:, None] ** (beta + t) * np.abs(img)
    value = float(np.max(weighted))
    if not math.isfinite(value):
        return NormResult(math.inf, s, t, True)
    return NormResult(value, s, t, False)
