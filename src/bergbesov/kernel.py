"""Harmonic Bergman-Besov kernels on the unit ball of R^n, n >= 2.

The kernel with parameter alpha is the zonal series

    R_alpha(x, y) = sum_k gamma_k(alpha) Z_k(x, y),

where Z_k is the degree-k zonal harmonic and the coefficient gamma_k follows a
two-branch Pochhammer-ratio formula (reproducing-kernel branch for
alpha > -(1 + n/2), factorial-compensated branch below).  Evaluation truncates
the series at a degree K backed by a certified tail bound built from the sup
estimate |Z_k(x, y)| <= h_k (|x||y|)^k, h_k the dimension of the degree-k
spherical harmonic space.

Three families have elementary closed forms (Axler, Bourdon & Ramey,
Harmonic Function Theory, ch. 8), and kernel_eval and kernel_eval_batch
evaluate them instead of summing the series: alpha = -1, the extended
Poisson kernel, and alpha = 0, the harmonic Bergman kernel, in every
dimension, and every alpha > -2 in the disc (has_closed_form).  The
truncation degree is still certified for them, so both entry points raise
the same errors and report the same degree whichever way they evaluate.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _accel
from .errors import KernelDivergenceError, TruncationLimitError

__all__ = [
    "KernelSpec",
    "KernelDivergenceError",
    "TruncationLimitError",
    "gamma_coef",
    "gamma_coefs",
    "harmonic_dim",
    "zonal_harmonic",
    "truncation_degree",
    "has_closed_form",
    "kernel_eval",
    "kernel_eval_degree",
    "kernel_eval_batch",
]

# Hard ceiling on series degree; reached only for |x||y| extremely close to 1.
MAX_DEGREE = 200_000


@dataclass(frozen=True)
class KernelSpec:
    """Kernel parameter set: series parameter alpha (finite), dimension, tail
    tolerance."""

    alpha: float
    dim: int
    tol: float = 1e-10

    def __post_init__(self):
        if not math.isfinite(float(self.alpha)):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        if int(self.dim) != self.dim or self.dim < 2:
            raise ValueError(f"dim must be an integer >= 2, got {self.dim}")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "tol", float(self.tol))


def _uses_factorial_branch(alpha, dim):
    return alpha <= -(1.0 + 0.5 * dim)


def gamma_coefs(kmax, alpha, dim):
    """Coefficient table gamma_0..gamma_kmax as an array.

    Computed by the exact ratio recurrence (incremental finite products of the
    defining Pochhammer ratios): no overflow, no log-space cancellation, and
    gamma_0 = 1 exactly.  Both branches produce strictly positive values.
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    n2 = 0.5 * dim
    ks = np.arange(kmax, dtype=float)
    if _uses_factorial_branch(alpha, dim):
        big_a = 1.0 - (n2 + alpha)
        factors = (ks + 1.0) ** 2 / ((big_a + ks) * (n2 + ks))
    else:
        a = 1.0 + n2 + alpha
        factors = (a + ks) / (n2 + ks)
    out = np.empty(kmax + 1)
    out[0] = 1.0
    np.cumprod(factors, out=out[1:])
    return out


def gamma_coef(k, alpha, dim):
    """Scalar gamma_k(alpha) for the given dimension."""
    if k != int(k) or k < 0:
        raise ValueError(f"degree must be a non-negative integer, got {k}")
    return float(gamma_coefs(int(k), float(alpha), int(dim))[-1])


def harmonic_dim(k, dim):
    """Dimension h_k of the space of degree-k spherical harmonics on S^{dim-1}.

    Equals the coincident-boundary-point value Z_k(zeta, zeta), which is the
    sup-bound constant in the truncation certificate.
    """
    if k != int(k) or k < 0:
        raise ValueError(f"degree must be a non-negative integer, got {k}")
    k = int(k)
    if k == 0:
        return 1.0
    if dim == 2:
        return 2.0
    return float(math.comb(dim + k - 1, dim - 1) - math.comb(dim + k - 3, dim - 1))


def zonal_harmonic(k, x, y, dim):
    """Zonal harmonic Z_k(x, y) (real, symmetric, harmonic in each argument).

    Z_0 = 1.  For k >= 1 and either argument zero the value is 0.  Otherwise
    it is (|x||y|)^k times row k of the one-column zonal table at the cosine
    of the angle between x and y.
    """
    if k != int(k) or k < 0:
        raise ValueError(f"degree must be a non-negative integer, got {k}")
    k = int(k)
    if k == 0:
        return 1.0
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rx = float(np.linalg.norm(x))
    ry = float(np.linalg.norm(y))
    if rx == 0.0 or ry == 0.0:
        return 0.0
    t = float(np.dot(x, y)) / (rx * ry)
    t = min(1.0, max(-1.0, t))
    return rx**k * ry**k * float(_accel.zonal_table(k, np.array([t]), dim)[k, 0])


def _harmonic_dims(ks, dim):
    """harmonic_dim over a float array of degrees >= 1."""
    if dim == 2:
        return np.full(ks.shape, 2.0)
    out = (2.0 * ks + dim - 2.0) / math.factorial(dim - 2)
    for j in range(1, dim - 2):
        out = out * (ks + j)
    return out


def truncation_degree(spec, rx, ry, cap=None):
    """Smallest K whose certified tail bound falls below spec.tol.

    The tail sum_{j>K} gamma_j h_j t^j (t = rx*ry < 1) is dominated by the
    first omitted term times a geometric series with certified ratio; K is
    minimal with respect to that certificate.  Monotone: nondecreasing in
    rx*ry, nonincreasing in tol.  Degrees are scanned in doubling vectorized
    blocks so near-boundary products (K in the tens of thousands) stay cheap.

    A caller that sums no further than degree cap passes it: the scan stops
    there and returns min(K, cap), so a K past MAX_DEGREE raises
    TruncationLimitError only when cap is None or not below MAX_DEGREE.
    """
    if rx < 0.0 or ry < 0.0:
        raise ValueError("radii must be non-negative")
    t = rx * ry
    if t >= 1.0:
        raise KernelDivergenceError(f"|x||y| = {t} >= 1: series does not converge")
    if t == 0.0:
        return 0
    alpha, dim, tol = spec.alpha, spec.dim, spec.tol
    n2 = 0.5 * dim
    factorial_branch = _uses_factorial_branch(alpha, dim)
    big_a = 1.0 - (n2 + alpha)
    a = 1.0 + n2 + alpha
    last = MAX_DEGREE if cap is None else min(int(cap), MAX_DEGREE)
    gam_prev = 1.0
    lo = 1
    block = 512
    while lo <= last:
        hi = min(lo + block - 1, last)
        ks = np.arange(lo, hi + 1, dtype=float)
        km1 = ks - 1.0
        if factorial_branch:
            factors = ks * ks / ((big_a + km1) * (n2 + km1))
            g = (ks + 1.0) / (ks + n2)
        else:
            factors = (a + km1) / (n2 + km1)
            g = np.maximum(1.0, (a + ks) / (n2 + ks))
        gam = gam_prev * np.cumprod(factors)
        h = _harmonic_dims(ks, dim)
        first_omitted = gam * h * np.power(t, ks)
        rho = t * g * (_harmonic_dims(ks + 1.0, dim) / h)
        hit = np.flatnonzero((rho < 1.0) & (first_omitted <= tol * (1.0 - rho)))
        if hit.size:
            return lo + int(hit[0]) - 1
        gam_prev = float(gam[-1])
        lo = hi + 1
        block = min(2 * block, 65536)
    if last < MAX_DEGREE:
        return last
    raise TruncationLimitError(
        f"tail bound did not reach tol={tol} within {MAX_DEGREE} terms (t={t})"
    )


def _series(gam, rho, cost, dim):
    if dim == 2:
        return _accel.series_disk(gam, rho, cost)
    return _accel.series_ball(gam, rho, cost, dim)


def has_closed_form(spec):
    """Whether kernel_eval and kernel_eval_batch evaluate R_alpha in closed
    form: alpha = -1 or alpha = 0 in every dimension, and alpha > -2 in the
    disc.  Every other order sums the zonal series."""
    return spec.alpha in (-1.0, 0.0) or (spec.dim == 2 and spec.alpha > -2.0)


def _closed_form(spec, x, pts):
    """R_alpha(x, y_j) for the rows y_j of pts, for an order has_closed_form
    accepts.  With s = |x|^2|y|^2 and d = 1 - 2 x.y + s:

        alpha = -1:         (1 - s) / d^{n/2}
        alpha = 0:          ((1 - s)^2 - (4/n) s d) / d^{1+n/2}
        n = 2, alpha > -2:  2 Re (1 - z)^{-(2+alpha)} - 1,  z = x conj(y).

    d is formed as the squared norm | |y| x - y/|y| |^2, which keeps its
    relative accuracy where 1 - 2 x.y + s cancels.  A row y = 0 gives
    exactly 1.
    """
    n, alpha = spec.dim, spec.alpha
    if alpha not in (-1.0, 0.0):
        # the disc: 1 - z = (1 - x.y) + i (x_1 y_2 - x_2 y_1)
        one_minus_z = (1.0 - pts @ x) + 1j * (x[0] * pts[:, 1] - x[1] * pts[:, 0])
        return 2.0 * np.power(one_minus_z, -(2.0 + alpha)).real - 1.0
    ry_sq = np.einsum("ij,ij->i", pts, pts)
    ry = np.sqrt(ry_sq)
    zero = ry == 0.0
    w = ry[:, None] * x - pts / np.where(zero, 1.0, ry)[:, None]
    d = np.einsum("ij,ij->i", w, w)
    d[zero] = 1.0
    s = float(x @ x) * ry_sq
    if alpha == -1.0:
        return (1.0 - s) / d ** (0.5 * n)
    return ((1.0 - s) ** 2 - (4.0 / n) * s * d) / d ** (1.0 + 0.5 * n)


def kernel_eval(spec, x, y):
    """Evaluate R_alpha(x, y); truncation error below spec.tol.

    Either argument may lie on the unit sphere, but not both (the series has
    no convergent truncation there and KernelDivergenceError is raised).
    Orders with a closed form (has_closed_form) are evaluated by it; the
    truncation degree is certified for them all the same.
    """
    return kernel_eval_degree(spec, x, y)[0]


def kernel_eval_degree(spec, x, y):
    """(R_alpha(x, y), K): kernel_eval's value and the degree K at which
    truncation_degree cut its series (0 when x or y is 0).  Where K is 0 the
    value is gamma_0 = 1; otherwise a closed-form order takes its closed
    form and every other order the series summed to degree K."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (spec.dim,) or y.shape != (spec.dim,):
        raise ValueError(f"points must have shape ({spec.dim},)")
    rx = float(np.linalg.norm(x))
    ry = float(np.linalg.norm(y))
    if rx * ry == 0.0:
        return 1.0, 0
    kmax = truncation_degree(spec, rx, ry)
    if kmax == 0:
        return 1.0, 0
    if has_closed_form(spec):
        return float(_closed_form(spec, x, y[None, :])[0]), kmax
    gam = gamma_coefs(kmax, spec.alpha, spec.dim)
    t = float(np.dot(x, y)) / (rx * ry)
    t = min(1.0, max(-1.0, t))
    rho = np.array([rx * ry])
    cost = np.array([t])
    return float(_series(gam, rho, cost, spec.dim)[0]), kmax


def kernel_eval_batch(spec, x, pts):
    """Evaluate R_alpha(x, y_j) for a fixed x against rows y_j of pts.

    The truncation degree is certified for the largest |x||y_j| and shared
    across the batch; smaller products only gain accuracy.  Orders with a
    closed form (has_closed_form) are evaluated by it, row by row, once the
    degree is certified; every other order is summed by _accel.zonal_series.
    Either way the batch agrees with kernel_eval to rounding, not bit for
    bit, except where the certified degree is 0 and both return 1.
    """
    x = np.asarray(x, dtype=float)
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != spec.dim:
        raise ValueError(f"pts must have shape (m, {spec.dim})")
    rx = float(np.linalg.norm(x))
    ry = np.linalg.norm(pts, axis=1)
    if rx == 0.0:
        return np.ones(pts.shape[0])
    ry_max = float(ry.max()) if ry.size else 0.0
    kmax = truncation_degree(spec, rx, ry_max)
    if kmax == 0:
        return np.ones(pts.shape[0])
    if has_closed_form(spec):
        return _closed_form(spec, x, pts)
    gam = gamma_coefs(kmax, spec.alpha, spec.dim)
    safe = np.where(ry == 0.0, 1.0, ry)
    cost = (pts @ x) / (rx * safe)
    cost = np.where(ry == 0.0, 0.0, np.clip(cost, -1.0, 1.0))
    return _accel.zonal_series(gam, rx * ry, cost, spec.dim)
