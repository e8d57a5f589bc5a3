"""Product quadrature on the unit ball, weighted norms, and radial ladders.

Geometry: the ball integral with normalized volume measure factorizes as

    int_B f (1-|x|^2)^w dnu = (n/2) int_0^1 u^{n/2-1} (1-u)^w F(sqrt(u)) du,

u = r^2, F the spherical mean.  The radial factor is handled by Gauss-Jacobi
nodes in u so that an integrable weight singularity at the boundary
(w in (-1, 0)) is absorbed into the rule rather than sampled.  The spherical
mean uses one recursive product rule in every dimension (Stroud, Approximate
Calculation of Multiple Integrals, 1971): the uniform trapezoid rule on the
circle, and for each further dimension a polar factor of Gauss-Jacobi nodes.
Every rule integrates spherical harmonics exactly up to a known degree,
BallQuadrature.sphere_exactness().

Radial profiles with boundary weight (1-r^2)^B (1 + log 1/(1-r^2))^{-V} get a
dedicated 1-D treatment in the variable w = log 1/(1-r^2).  Their integral is
finite iff B > -1, or B = -1 and V > 1, and their weighted sup has a closed
form.  A refinement ladder, a double-exponential rule over [0, L] with the
cutoff L doubling, observes the integral numerically: divergence is declared on
value growth beyond a fixed factor across two doublings (or a hard cap).

Everything here runs on numpy and the math module.  The Gauss rules come from
gauss_jacobi (Golub & Welsch, Math. Comp. 23 (1969): eigenvalues of the Jacobi
matrix, then Newton steps); the w-integrals from tanh-sinh and exp-sinh rules
(Takahasi & Mori, 1974) that halve their step until two levels agree, and
raise ConvergenceError when they do not.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .errors import ConvergenceError

__all__ = [
    "BallQuadrature",
    "ConvergenceError",
    "DEFAULT_RADIAL_NODES",
    "DEFAULT_SPHERE_NODES",
    "GROWTH_FACTOR",
    "gauss_jacobi",
    "normalization_V",
    "integrate_ball",
    "integrate_sphere",
    "lp_norm",
    "LadderResult",
    "radial_power_log_ladder",
    "radial_power_log_value",
    "weighted_sup_ladder",
    "DEFAULT_LEVELS",
]

DEFAULT_RADIAL_NODES = 128
DEFAULT_SPHERE_NODES = 256
# Node budget of a sphere rule in dim >= 4: without it the default
# sphere_nodes would give 524 288 nodes in dim 4 and 33.5 M in dim 5.
_SPHERE_BUDGET = 4096

# Factor-of-growth across two ladder doublings that flags divergence.
GROWTH_FACTOR = 4.0
# Value cap beyond which an integral is declared divergent outright.
DIVERGENCE_CAP = 1e12
# Cutoff ladder in w = log 1/(1-r^2); deepest rung resolves boundary
# exponents within ~0.05 of the convergence threshold.
DEFAULT_LEVELS = (32.0, 64.0, 128.0, 256.0, 512.0)

# Double-exponential rules: t runs over [-_DE_T, _DE_T] with step 2^-level,
# from level 0 up to _DE_MAX_LEVEL, until two levels agree to _DE_RTOL.  At
# |t| = 5 the weights are below 1e-49, so an integrand bounded near the ends
# of its interval loses nothing there; the nodes stay 1e-101 away from the
# ends, so the head piece's z^2 does not underflow.  The ladder integrands carry rounding
# noise of up to 4e-15 relative (from e^{-bexp w} at bexp w ~ 700), so
# agreement to 1e-15 is not always reachable; once two levels agree to 1e-14
# the finer one is converged to that noise, as the error of a level is about
# the square of its change.
_DE_T = 5.0
_DE_MAX_LEVEL = 10
_DE_RTOL = 1e-14
# Radii of the sup-norm grid: w = log 1/(1-r^2) on 97 points of [0, 16].
_SUP_RADII = np.sqrt(-np.expm1(-np.linspace(0.0, 16.0, 97)))


@dataclass(frozen=True)
class BallQuadrature:
    """Descriptor for the product rule; node arrays are built lazily and cached.

    sphere_nodes is the circle count for dim 2; for dim 3 it is split into a
    sphere_nodes//4 polar by sphere_nodes//2 azimuth product (each at least
    8).  In dim >= 4 every polar factor starts from dim 3's count, with twice
    as many azimuth points, and the polar count drops until the rule has at
    most 4 096 nodes (but stays >= 2).  The rule carries no weight: each
    integral takes its own (1-|x|^2)^w through _weighted_radial_rule.
    """

    dim: int
    radial_nodes: int = DEFAULT_RADIAL_NODES
    sphere_nodes: int = DEFAULT_SPHERE_NODES

    def __post_init__(self):
        if int(self.dim) != self.dim or self.dim < 2:
            raise ValueError(f"dim must be an integer >= 2, got {self.dim}")
        if self.radial_nodes < 1:
            raise ValueError("radial_nodes must be >= 1")
        if self.sphere_nodes < 4:
            raise ValueError("sphere_nodes must be >= 4")
        object.__setattr__(self, "dim", int(self.dim))

    def with_radial_nodes(self, m):
        return replace(self, radial_nodes=int(m))

    def radial_rule(self):
        """(radii, weights): sum_i w_i g(r_i) approximates the radial factor of
        int_B g(|x|) dnu."""
        return _radial_rule(self.dim, self.radial_nodes, 0.0)

    def sphere_rule(self):
        """(unit vectors (S, dim), weights (S,)): weights sum to 1."""
        return _sphere_rule(self.dim, self.sphere_nodes)

    def sphere_exactness(self):
        """Largest spherical-harmonic degree the sphere rule integrates
        exactly: azim - 1 for the circle, and min(2 polar - 1, azim - 1) for
        the product rules.  Kernel-quadrature callers cap their series here:
        degrees the rule cannot integrate alias onto lower ones instead of
        averaging to zero, so dropping them is the smaller error.
        """
        polar, azim = _sphere_counts(self.dim, self.sphere_nodes)
        return azim - 1 if self.dim == 2 else min(2 * polar - 1, azim - 1)

    def describe(self):
        return {
            "dim": self.dim,
            "radial_nodes": self.radial_nodes,
            "sphere_nodes": self.sphere_nodes,
        }


def _endpoint_coefs(m, a, b):
    """Coefficients of the recurrence for P_k^{(a,b)}(1-y) / P_k(1) in differences."""
    k = np.arange(1.0, m)
    t = 2.0 * k + a + b
    den = (k + a + 1.0) * (k + a + b + 1.0)
    return (a + b + 2.0) / (2.0 * (a + 1.0)), (t + 1.0) * (t + 2.0) / (2.0 * den), \
        k * (k + b) * (t + 2.0) / (den * t)


def gauss_jacobi(m, a, b):
    """m-point Gauss rule (x, w) for the weight (1-x)^a (1+x)^b on [-1, 1].

    The nodes start as eigenvalues of the Jacobi matrix and take two Newton
    steps.  Each node is carried as its distance y to the nearer endpoint,
    and P_m is evaluated there by a recurrence in the differences of
    P_k(1-y)/P_k(1), which keeps y to full relative precision: a weight
    (1-x)^a with a near -1 puts most of the mass on a node within 1e-7 of
    x = 1, and its weight follows y relatively.  The weights are
    1/((1-x^2) P_m'(x)^2), scaled to the exact zeroth moment
    2^{a+b+1} B(a+1, b+1).  Requires m >= 1 and a, b > -1.
    """
    m, a, b = int(m), float(a), float(b)
    k = np.arange(m, dtype=float)
    s = 2.0 * k + a + b
    with np.errstate(divide="ignore", invalid="ignore"):
        diag = (b * b - a * a) / (s * (s + 2.0))
        sub_sq = 4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0))
    diag[0] = (b - a) / (a + b + 2.0)
    if m > 1:
        sub_sq[1] = 4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + a + b) ** 2 * (3.0 + a + b))
    x0 = np.linalg.eigvalsh(np.diag(diag) + np.diag(np.sqrt(sub_sq[1:]), -1))
    # nodes right of 0 use (a, b) from x = 1; the others (b, a) from x = -1
    right = x0 > 0.0
    side = np.where(right, 1.0, -1.0)
    (c_r, a_r, b_r), (c_l, a_l, b_l) = _endpoint_coefs(m, a, b), _endpoint_coefs(m, b, a)
    c0 = np.where(right, c_r, c_l)
    rec_a = np.where(right, a_r[:, None], a_l[:, None])
    rec_b = np.where(right, b_r[:, None], b_l[:, None])
    y = 1.0 - side * x0
    for _ in range(2):
        d, dd = -c0 * y, -c0
        p, dp = 1.0 + d, dd
        for j in range(m - 1):
            d, dd = rec_b[j] * d - rec_a[j] * y * p, rec_b[j] * dd - rec_a[j] * (p + y * dp)
            p, dp = p + d, dp + dd
        # the derivative at the last-but-one iterate serves the weights, as
        # the nodes have converged to rounding by then
        y, slope = y - p / dp, dp
    kk = np.arange(1.0, m + 1)
    log_p1 = np.where(right, math.fsum(np.log1p(a / kk)), math.fsum(np.log1p(b / kk)))
    logw = -np.log(y * (2.0 - y)) - 2.0 * (log_p1 + np.log(np.abs(slope)))
    w = np.exp(logw - logw.max())
    return side * (1.0 - y), w * (_jacobi_mass(a, b) / w.sum())


def _jacobi_mass(a, b):
    """Zeroth moment 2^{a+b+1} B(a+1, b+1) of (1-x)^a (1+x)^b on [-1, 1]."""
    return math.exp((a + b + 1.0) * math.log(2.0) + math.lgamma(a + 1.0) + math.lgamma(b + 1.0)
                    - math.lgamma(a + b + 2.0))


@lru_cache(maxsize=256)
def _radial_rule(dim, m, exponent):
    x, w = gauss_jacobi(m, exponent, 0.5 * dim - 1.0)
    r = np.sqrt(0.5 * (1.0 + x))
    scale = 0.5 * dim * 2.0 ** (-(exponent + 0.5 * dim))
    return r, scale * w


def _weighted_radial_rule(rule, w):
    """(radii, weights) of the radial factor of int_B g(|x|) (1-|x|^2)^w dnu
    on rule's radial node count, as radial_rule gives them for w = 0.  A
    weight w > -1 is folded into the Gauss-Jacobi nodes, so an integrable
    boundary singularity is absorbed rather than sampled; any other w is
    applied at the nodes of the unweighted rule, which is what makes value
    growth under refinement observable for a non-integrable weight."""
    w = float(w)
    if w > -1.0:
        return _radial_rule(rule.dim, rule.radial_nodes, w)
    r, wr = rule.radial_rule()
    return r, wr * (1.0 - r**2) ** w


def _sphere_counts(dim, sphere_nodes):
    """(polar, azimuth) node counts of the sphere rule; dim 2 has no polar
    factor.  In dim >= 4 the polar count starts from dim 3's and drops until
    the rule's 2 polar^(dim-1) nodes fit _SPHERE_BUDGET, stopping at 2."""
    if dim == 2:
        return 0, sphere_nodes
    polar = max(sphere_nodes // 4, 8)
    if dim == 3:
        return polar, max(sphere_nodes // 2, 8)
    while polar > 2 and 2 * polar ** (dim - 1) > _SPHERE_BUDGET:
        polar -= 1
    return polar, 2 * polar


@lru_cache(maxsize=64)
def _sphere_rule(dim, sphere_nodes):
    """Recursive product rule on S^{dim-1} (Stroud 1971): the circle
    trapezoid rule, then for d = 3..dim a polar factor of Gauss-Jacobi nodes
    t for the weight (1-t^2)^{(d-3)/2}, with the (d-1)-rule scaled by
    sqrt(1-t^2) and t appended as the last coordinate.  Polar weights are
    divided by the weight's exact zeroth moment and the product by the
    azimuth count last, so that dim 3 is the Gauss-Legendre x trapezoid
    product bit for bit."""
    polar, azim = _sphere_counts(dim, sphere_nodes)
    theta = 2.0 * np.pi * np.arange(azim) / azim
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    wts = np.ones(azim)
    for d in range(3, dim + 1):
        a = 0.5 * d - 1.5
        t, v = gauss_jacobi(polar, a, a)
        ring = (np.sqrt(1.0 - t**2)[:, None, None] * pts[None, :, :]).reshape(-1, d - 1)
        pts = np.column_stack([ring, np.repeat(t, len(wts))])
        wts = np.outer(v / _jacobi_mass(a, a), wts).ravel()
    return pts, wts / azim


def integrate_sphere(f, rule):
    """Normalized spherical mean of f on the rule's sphere nodes; exact for
    polynomials of degree up to rule.sphere_exactness()."""
    pts, wts = rule.sphere_rule()
    return float(np.sum(np.asarray(f(pts), dtype=float) * wts))


def _on_polar_grid(f, r, dirs):
    """f on the polar grid r x dirs as a (radii, dirs) array; f maps an
    (m, dim) array of points to m values."""
    r = np.asarray(r, dtype=float)
    pts = (r[:, None, None] * dirs[None, :, :]).reshape(-1, dirs.shape[1])
    return np.asarray(f(pts), dtype=float).reshape(len(r), len(dirs))


def integrate_ball(f, weight_exponent, rule):
    """Approximate int_B f(x) (1-|x|^2)^weight_exponent dnu(x).

    f maps an (m, dim) array of points to m values.  The weight takes the
    radial nodes of _weighted_radial_rule: folded into them for
    weight_exponent > -1, applied at them otherwise.  Non-finite node values
    propagate into the result.
    """
    r, wr = _weighted_radial_rule(rule, weight_exponent)
    zeta, ws = rule.sphere_rule()
    vals = _on_polar_grid(f, r, zeta)
    return float(np.sum(np.sum(vals * ws[None, :], axis=1) * wr))


def normalization_V(alpha, dim):
    """V_alpha = Gamma(n/2+1) Gamma(alpha+1) / Gamma(n/2+alpha+1), alpha > -1.

    This is int_B (1-|x|^2)^alpha dnu, the constant making the weighted
    probability measure; callers apply the convention V_alpha = 1 for
    alpha <= -1 themselves.
    """
    if not alpha > -1.0:
        raise ValueError(f"normalization requires alpha > -1, got {alpha}")
    n2 = 0.5 * dim
    return math.exp(math.lgamma(n2 + 1.0) + math.lgamma(alpha + 1.0) - math.lgamma(n2 + alpha + 1.0))


def _grid_sup(polar, alpha, dirs):
    """Max of (1-|x|^2)^alpha |g| over the sup grid's radii times the unit
    vectors dirs, with polar(r, dirs) the values of g on that polar grid as
    a (radii, dirs) array: a lower estimate of the weighted sup of g."""
    r = _SUP_RADII
    weighted = (1.0 - r * r)[:, None] ** alpha * np.abs(polar(r, dirs))
    return float(np.max(weighted))


def _v_or_one(alpha, dim):
    """normalization_V(alpha, dim), or 1 under the alpha <= -1 convention."""
    return normalization_V(alpha, dim) if alpha > -1.0 else 1.0


def lp_norm(f, p, alpha, rule):
    """Norm of f in the alpha-weighted Lebesgue space over the ball.

    Finite p: ((1/V_alpha) int_B |f|^p (1-|x|^2)^alpha dnu)^(1/p), requiring
    alpha > -1.  p = inf: sup of (1-|x|^2)^alpha |f| over a log-spaced radial
    grid times the rule's sphere directions (a documented lower estimate).
    """
    if p != math.inf and not p >= 1.0:
        raise ValueError(f"p must be in [1, inf], got {p}")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if p == math.inf:
        return _grid_sup(partial(_on_polar_grid, f), float(alpha), rule.sphere_rule()[0])
    if not alpha > -1.0:
        raise ValueError(f"finite-p norm requires alpha > -1, got {alpha}")
    v = normalization_V(alpha, rule.dim)
    raw = integrate_ball(lambda pts: np.abs(f(pts)) ** p, alpha, rule)
    return float((raw / v) ** (1.0 / p))


# ---------------------------------------------------------------------------
# 1-D radial profiles with log-weight: exact cutoffs and refinement ladders.


@dataclass(frozen=True)
class LadderResult:
    finite: bool
    value: float
    rungs: tuple


@lru_cache(maxsize=None)
def _de_level(level, infinite):
    """The t of a level not in the levels before it (every integer t at
    level 0, the odd multiples of 2^-level after), mapped: (offsets, dx/dt,
    left-half mask).  tanh-sinh offsets are distances to the nearer end of
    [-1, 1]; exp-sinh offsets are x - lo on [lo, inf), with no mask."""
    h = 2.0 ** -level
    t = np.arange(-_DE_T, _DE_T + 0.5) if level == 0 else np.arange(-_DE_T + h, _DE_T, 2.0 * h)
    u = 0.5 * np.pi * np.sinh(t)
    if infinite:
        e = np.exp(u)
        return e, 0.5 * np.pi * np.cosh(t) * e, None
    return 2.0 / (1.0 + np.exp(2.0 * np.abs(u))), 0.5 * np.pi * np.cosh(t) / np.cosh(u) ** 2, t < 0.0


def _de_terms(f, lo, hi, level):
    off, dxdt, left = _de_level(level, hi == math.inf)
    if left is None:
        return f(lo + off) * dxdt
    half = 0.5 * (hi - lo)
    return f(np.where(left, lo + half * off, hi - half * off)) * (half * dxdt)


def _de_integrate(f, lo, hi):
    """int_lo^hi f for a vectorized f: tanh-sinh on a finite [lo, hi],
    exp-sinh when hi is inf.

    The step in t starts at 1 and halves, reusing the earlier nodes, until
    two levels agree to _DE_RTOL relative.  Raises ConvergenceError when
    they still differ at _DE_MAX_LEVEL.  Where the end of the t-range would
    cut off a visible part of the integral, the terms there vary too fast
    for the levels to agree, so that raises too: (1+w)^{-v} on [1, inf)
    raises for v <= 1.2 and is within 2.3e-14 at v = 1.25.
    """
    total = new = float(np.sum(_de_terms(f, lo, hi, 0)))
    for level in range(1, _DE_MAX_LEVEL + 1):
        total += float(np.sum(_de_terms(f, lo, hi, level)))
        prev, new = new, total * 2.0 ** -level
        if abs(new - prev) <= _DE_RTOL * abs(new):
            return new
    raise ConvergenceError(f"double-exponential rule on [{lo}, {hi}] missed rel {_DE_RTOL:g}: "
                           f"{prev!r} and {new!r} at steps 2^-{_DE_MAX_LEVEL - 1} and 2^-{_DE_MAX_LEVEL}")


def _integrand(coef, expo, bexp, v):
    """w -> coef (1-e^-w)^expo e^{-bexp w} (1+w)^{-v} on arrays, formed in log
    space so that no factor overflows on its own."""
    return lambda w: coef * np.exp(expo * np.log(-np.expm1(-w)) - bexp * w - v * np.log1p(w))


def _wspace_piece(coef, expo, bexp, v, lo, hi):
    """coef * int_{lo}^{hi} (1-e^-w)^expo e^{-bexp w} (1+w)^{-v} dw."""
    f = _integrand(coef, expo, bexp, v)
    if lo == 0.0:
        # substitute w = z^2 to flatten the (1-e^-w)^expo endpoint behavior
        return _de_integrate(lambda z: 2.0 * z * f(z * z), 0.0, math.sqrt(hi))
    return _de_integrate(f, lo, hi)


def _wspace_tail(coef, expo, bexp, v):
    """coef * int_1^inf (1-e^-w)^expo e^{-bexp w} (1+w)^{-v} dw, for bexp > 0,
    or bexp = 0 and v > 1."""
    if bexp > 0.0:
        return _de_integrate(_integrand(coef, expo, bexp, v), 1.0, math.inf)
    # (1+w)^{-v} alone decays too slowly for the rule: its tail is exact, and
    # the rest, ((1-e^-w)^expo - 1)(1+w)^{-v}, decays like e^{-w}
    tail = coef * 2.0 ** (1.0 - v) / (v - 1.0)
    if expo != 0.0:
        tail += _de_integrate(lambda w: coef * np.expm1(expo * np.log1p(-np.exp(-w))) * (1.0 + w) ** -v,
                              1.0, math.inf)
    return tail


def _log_peek(coef, bexp, v, w):
    """log of the integrand magnitude at w, ignoring the bounded (1-e^-w) part."""
    return math.log(coef) - bexp * w - v * math.log1p(w)


def _radial_integral_finite(bexp_minus_1, v):
    """Whether int_0^1 (1-t^2)^B (1 + log 1/(1-t^2))^{-V} t^{n-1} dt is finite
    (in every dim n >= 1): iff B > -1, or B = -1 and V > 1.  NaN has no
    answer, so it raises ValueError."""
    if math.isnan(bexp_minus_1) or math.isnan(v):
        raise ValueError(f"radial exponents must not be NaN, got B={bexp_minus_1}, V={v}")
    return bexp_minus_1 > -1.0 or (bexp_minus_1 == -1.0 and v > 1.0)


def _sup_finite(eexp, v):
    """Whether sup_{w >= 0} exp(-E w - V log(1+w)) is finite: iff E > 0, or E = 0 and V >= 0."""
    if not (math.isfinite(eexp) and math.isfinite(v)):
        raise ValueError(f"sup exponents must be finite, got E={eexp}, V={v}")
    return eexp > 0.0 or (eexp == 0.0 and v >= 0.0)


def radial_power_log_ladder(bexp_minus_1, v, dim=1):
    """Cutoff ladder for radial integrals with weight (1-t^2)^B (1+log 1/(1-t^2))^{-V}.

    Computes n int_0^{t_L} t^{n-1} (1-t^2)^B ... dt with n = dim (the radial
    factor of a ball integral of a radial profile, normalized measure); the
    default dim 1 is the plain interval integral int_0^{t_L} (1-t^2)^B ... dt.
    Cutoffs t_L = sqrt(1 - e^-L) for L in DEFAULT_LEVELS.  Divergence is
    flagged when the value exceeds DIVERGENCE_CAP (checked in log space
    before evaluating a piece, so nothing overflows) or grows by more than
    GROWTH_FACTOR across the final two ladder doublings.  This observes
    finiteness numerically; _radial_integral_finite decides it.
    """
    bexp, v = float(bexp_minus_1) + 1.0, float(v)
    coef, expo = 0.5 * dim, 0.5 * dim - 1.0
    rungs = []
    total = 0.0
    for lo, hi in zip((0.0,) + DEFAULT_LEVELS[:-1], DEFAULT_LEVELS):
        if _log_peek(coef, bexp, v, hi) > 500.0 or total > DIVERGENCE_CAP:
            return LadderResult(False, math.inf, tuple(rungs))
        total += _wspace_piece(coef, expo, bexp, v, lo, hi)
        rungs.append((hi, total))
    if total > DIVERGENCE_CAP or (rungs[-3][1] > 0.0 and rungs[-1][1] / rungs[-3][1] > GROWTH_FACTOR):
        return LadderResult(False, math.inf, tuple(rungs))
    return LadderResult(True, total, tuple(rungs))


def radial_power_log_value(bexp_minus_1, v, dim=1):
    """Full-interval value of the ladder integrand: the [0, 1] head piece via
    the z-substitution plus an exp-sinh tail on [1, inf).  Complements
    radial_power_log_ladder, whose finite cutoffs leave percent-level
    truncation for boundary-marginal exponents.  The integrand is positive,
    so a divergent case (_radial_integral_finite false) is inf.
    """
    b, v = float(bexp_minus_1), float(v)
    if not _radial_integral_finite(b, v):
        return math.inf
    bexp = b + 1.0
    coef, expo = 0.5 * dim, 0.5 * dim - 1.0
    head = _wspace_piece(coef, expo, bexp, v, 0.0, 1.0)
    tail = _wspace_tail(coef, expo, bexp, v)
    return head + tail


def weighted_sup_ladder(eexp, v):
    """Exact sup over 0 <= r < 1 of (1-r^2)^E (1 + log 1/(1-r^2))^{-V}.

    In w = log 1/(1-r^2) this is the sup over w >= 0 of exp(-E w - V log(1+w)):
    1 when E >= 0 and V >= 0 (at w = 0); the value at the stationary point
    w* = max(0, -V/E - 1) when E > 0 and V < 0; inf when E < 0, or E = 0 and
    V < 0.  E and V must be finite.  A finite sup above the largest double
    has value inf with finite True.  rungs is empty: there is no ladder.
    """
    e, v = float(eexp), float(v)
    if not _sup_finite(e, v):
        return LadderResult(False, math.inf, ())
    if v >= 0.0:
        return LadderResult(True, 1.0, ())
    w = max(0.0, -v / e - 1.0)
    if w < math.inf:
        log_sup = -e * w - v * math.log1p(w)
    else:  # -V/E overflowed: E w* = -V - E and log1p(w*) = log(-V/E)
        log_sup = e + v - v * (math.log(-v) - math.log(e))
    try:
        return LadderResult(True, math.exp(log_sup), ())
    except OverflowError:
        return LadderResult(True, math.inf, ())
