"""The block scan that certified the kernel's truncation degree before the
closed-form search, kept as a test oracle.

    from truncation_reference import scan_truncation_degree

It walks the degrees 1, 2, ... in doubling vectorized blocks, forming
gamma_k by a running product and the certificate

    rho_k < 1  and  gamma_k h_k t^k <= tol (1 - rho_k)

at every degree, and returns one less than the first degree that meets it.
tests/test_kernel.py compares bergbesov.kernel.truncation_degree with it on
a grid of dimensions, orders, tolerances, products t = |x||y| and caps.
Its float running product overflows for large orders and its power t^k
underflows far out; there the two may differ, and the test decides the case
by the certificate evaluated in 40 digits.
"""

import math

import numpy as np

from bergbesov.kernel import MAX_DEGREE, KernelDivergenceError, TruncationLimitError


def _uses_factorial_branch(alpha, dim):
    return alpha <= -(1.0 + 0.5 * dim)


def _harmonic_dims(ks, dim):
    """harmonic_dim over a float array of degrees >= 1."""
    if dim == 2:
        return np.full(ks.shape, 2.0)
    out = (2.0 * ks + dim - 2.0) / math.factorial(dim - 2)
    for j in range(1, dim - 2):
        out = out * (ks + j)
    return out


def scan_truncation_degree(spec, rx, ry, cap=None):
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
