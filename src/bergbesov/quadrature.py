"""Product quadrature on the unit ball and weighted norms over it.

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

The rules run on numpy and the math module.  They come from gauss_jacobi
(Golub & Welsch, Math. Comp. 23 (1969): eigenvalues of the Jacobi matrix,
then Newton steps).

_weighted_norm is the one weighted |g|^p integral, or sup at p = inf, on a
polar grid: lp_norm's, and the image norms' of operators on their outer
grid.  integrate_ball serves signed integrals.  Every grid of values, theirs
and the callable transforms' inner grid in operators, is evaluated by
_on_polar_grid, in blocks of whole radii of at most GRID_POINTS points: the
dim-3 grid of the default rule has 1 048 576 points, 25 MB at once.  Every
integrand, on a grid block or on integrate_sphere's nodes, receives its
points as one column-major (F-contiguous) float64 (m, dim) array, whose
columns pts[:, d] are contiguous, and must return m values (_values).

The 1-D radial layer (the profiles (1-r^2)^B (1 + log 1/(1-r^2))^{-V}, their
finiteness, cutoff ladders, full-interval values and closed-form sups, and
normalization_V) lives in the radial module on Python floats; every public
name of it that this module has always offered is re-exported here as the
same object.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .errors import ConvergenceError, _check_finite, _check_int
from .radial import (
    DEFAULT_LEVELS,
    DIVERGENCE_CAP,
    GROWTH_FACTOR,
    LadderResult,
    normalization_V,
    radial_power_log_ladder,
    radial_power_log_value,
    weighted_sup_ladder,
)

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

# Points per call of the integrand in _on_polar_grid: a block of whole radii
# whose points and the callable's temporaries stay in cache (768 KB of points
# in dim 3), where the whole dim-3 grid of the default rule is 1 048 576
# points (25 MB).  On column-major blocks, a round of the perfbench
# transforms workload took 173.0, 170.8 and 181.6 ms (medians of 12
# interleaved rounds; quartiles 170.0-174.3, 169.4-175.0 and
# 178.7-184.2 ms) at 2^14, 2^15 and 2^16 points (2-CPU Xeon, Python 3.11,
# NumPy 2.4).  2^14 and 2^15 are equally fast within that spread, and 2^15
# keeps the dim-2 grid of the default rule (128 x 256 points) one call.
GRID_POINTS = 2**15

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
        object.__setattr__(self, "dim", _check_int("dim", self.dim, 2))
        object.__setattr__(self, "radial_nodes", _check_int("radial_nodes", self.radial_nodes, 1))
        object.__setattr__(self, "sphere_nodes", _check_int("sphere_nodes", self.sphere_nodes, 4))

    def with_radial_nodes(self, m):
        return replace(self, radial_nodes=m)

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
    polynomials of degree up to rule.sphere_exactness().

    f maps an (m, dim) array of points to m values.  It receives the nodes
    as one column-major (F-contiguous) float64 array, as every integrand of
    this module does, so it must not assume C order.
    """
    pts, wts = rule.sphere_rule()
    return float(np.sum(_values(f, np.asfortranarray(pts)) * wts))


def _values(f, pts):
    """f(pts) as a float array of one value per row of pts; any other shape
    raises ValueError.  Every integrand call of this module goes through it."""
    vals = np.asarray(f(pts), dtype=float)
    if vals.shape != (len(pts),):
        raise ValueError("callable must map an (m, dim) array to m values")
    return vals


def _on_polar_grid(f, r, dirs):
    """f on the polar grid r x dirs as a (radii, dirs) array; f maps an
    (m, dim) array of points to m values.

    The points are formed and passed to f in blocks of whole radii, each of
    at most GRID_POINTS points, or of one radius where dirs alone has more,
    and the values are written into one (radii, dirs) array.  A grid of at
    most GRID_POINTS points is one call of f, whose values are returned
    without a copy.  f receives each block as a column-major (F-contiguous)
    float64 array, and must not assume C order.  Every point is the same
    product r_i zeta_j, in the same row, in either case, so a callable
    whose value at a row does not depend on the other rows of its call
    gives the same grid bit for bit.  A callable whose own matrix products
    or row sums round by layout (pts @ a from dim 3, the row sums of NumPy
    from dim 8) moves in its last bits against C-ordered points of the same
    values; evaluate_many and test_function_eval read them in C order, so
    theirs do not.  NumPy's C-ordered matrix-vector product also depends on
    the other rows from dim 8 on, where a call's row count is not a
    multiple of 4, but every block here holds whole radii and the sphere
    rules have 2^dim directions there.
    """
    r = np.asarray(r, dtype=float)
    step = max(1, GRID_POINTS // len(dirs))
    if step >= len(r):
        return _grid_block(f, r, dirs)
    out = np.empty((len(r), len(dirs)))
    for lo in range(0, len(r), step):
        out[lo:lo + step] = _grid_block(f, r[lo:lo + step], dirs)
    return out


def _grid_block(f, r, dirs):
    """f on r x dirs, with the point r_i zeta_j in row i S + j of one
    column-major (R S, dim) array: the transpose of the C-ordered
    (dim, R, S) array of the products r_i zeta_j[d]."""
    n_dirs, dim = dirs.shape
    coords = np.empty((dim, len(r), n_dirs))
    np.multiply(np.ascontiguousarray(dirs.T)[:, None, :], r[:, None], out=coords)
    return _values(f, coords.reshape(dim, -1).T).reshape(len(r), n_dirs)


def integrate_ball(f, weight_exponent, rule):
    """Approximate int_B f(x) (1-|x|^2)^weight_exponent dnu(x).

    f maps an (m, dim) array of points to m values; it receives the points
    in column-major (F-contiguous) float64 blocks (_on_polar_grid), and
    must not assume C order.  The weight takes the radial nodes of
    _weighted_radial_rule: folded into them for weight_exponent > -1,
    applied at them otherwise; weight_exponent must be finite.  Non-finite
    node values propagate into the result.
    """
    r, wr = _weighted_radial_rule(rule, _check_finite("weight_exponent", weight_exponent))
    zeta, ws = rule.sphere_rule()
    vals = _on_polar_grid(f, r, zeta)
    return float(np.sum(np.sum(vals * ws[None, :], axis=1) * wr))


def _weighted_norm(polar, p, w, rule):
    """int_B |g|^p (1-|x|^2)^w dnu on rule's polar grid, summed over the
    sphere first, for finite p; for p = inf the max of (1-|x|^2)^w |g| over
    _SUP_RADII times rule's sphere nodes, a lower estimate of the weighted
    sup.  polar(r, dirs) is g on the grid r x dirs as a (radii, dirs) array."""
    dirs, ws = rule.sphere_rule()
    if p == math.inf:
        r = _SUP_RADII
        return float(np.max((1.0 - r * r)[:, None] ** w * np.abs(polar(r, dirs))))
    r, wr = _weighted_radial_rule(rule, w)
    return float((np.abs(polar(r, dirs)) ** p @ ws) @ wr)


def lp_norm(f, p, alpha, rule):
    """Norm of f in the alpha-weighted Lebesgue space over the ball.

    Finite p: ((1/V_alpha) int_B |f|^p (1-|x|^2)^alpha dnu)^(1/p), requiring
    alpha > -1.  p = inf: sup of (1-|x|^2)^alpha |f| over a log-spaced radial
    grid times the rule's sphere directions (a documented lower estimate).
    f maps an (m, dim) array of points to m values; it receives the points
    in column-major (F-contiguous) float64 blocks (_on_polar_grid), and
    must not assume C order.
    """
    if p != math.inf and not p >= 1.0:
        raise ValueError(f"p must be in [1, inf], got {p}")
    alpha = _check_finite("alpha", alpha)
    if p != math.inf and not alpha > -1.0:
        raise ValueError(f"finite-p norm requires alpha > -1, got {alpha}")
    raw = _weighted_norm(partial(_on_polar_grid, f), p, alpha, rule)
    return raw if p == math.inf else float((raw / normalization_V(alpha, rule.dim)) ** (1.0 / p))
