"""Hot loops for zonal series evaluation.

The zonal recurrence exists in two forms.  `series_point` runs it on Python
floats at one node, which is what `kernel_eval` passes at an order without a
closed form (the closed-form orders sum no series): NumPy calls on
one-element arrays cost 8 to 14 us per degree.  `kernel_eval` reaches
`series_point` once per call through `series_disk` (dimension 2) or
`series_ball` (dimension >= 3), its one-node entry points.  `zonal_table`
runs the recurrence on node arrays as a degree-by-node table, and
`zonal_series` sums such tables, times a coefficient and a power of |x||y|
per degree, by Horner's rule over column blocks of at most TABLE_ENTRIES
entries; `kernel_eval_batch` makes one such call over its rows.  Every
node's |x||y| and cosine come from the kernel module's float geometry, the
same for a pair and for a batch row.
"""

import numpy as np

# Entries of one zonal table in zonal_series: 8 MB of float64 per block.
TABLE_ENTRIES = 2**20


def series_disk(gam, rho, cost):
    """Sum_k gam[k] * (2 - (k==0)) * rho**k * cos(k*theta) at one node, dim 2.

    gam is the coefficient table (length K+1), rho = [|x||y|] and
    cost = [cos of the angle between x and y], one-element arrays.
    """
    return np.full(rho.shape, series_point(gam, rho.item(), cost.item(), 2))


def series_ball(gam, rho, cost, dim):
    """Sum_k gam[k] * rho**k * ((dim+2k-2)/(dim-2)) * C_k^{(dim-2)/2}(cost) at
    one node, dim >= 3; the arguments are those of series_disk."""
    return np.full(rho.shape, series_point(gam, rho.item(), cost.item(), dim))


def series_point(gam, rho, t, dim):
    """The zonal series of `series_disk` (dim 2) or `series_ball` (dim >= 3)
    at the single node rho = |x||y|, t = cos of the angle (Python floats),
    as a float.

    The recurrence runs on Python floats.  Its per-degree factors, which do
    not depend on the running terms, are formed first by NumPy and read back
    as floats through a memoryview; the terms are then accumulated in
    ascending degree order.
    """
    kmax = gam.shape[0] - 1
    acc = float(gam[0])
    if kmax == 0:
        return acc
    cm1 = 1.0
    rk = rho
    if dim == 2:
        c = t
        acc += float(gam[1]) * 2.0 * rk * c
        t2 = 2.0 * t
        for g2 in memoryview(gam[2:] * 2.0):
            cm1, c = c, t2 * c - cm1
            rk = rk * rho
            acc += g2 * rk * c
        return acc
    lam = 0.5 * (dim - 2.0)
    c = 2.0 * lam * t
    acc += float(gam[1]) * (dim / (dim - 2.0)) * rk * c
    ks = np.arange(2.0, kmax + 1.0)
    a = 2.0 * t * (ks + lam - 1.0)
    b = ks + 2.0 * lam - 2.0
    g = gam[2:] * ((dim + 2.0 * ks - 2.0) / (dim - 2.0))
    for k, ak, bk, gk in zip(memoryview(ks), memoryview(a), memoryview(b), memoryview(g)):
        cm1, c = c, (ak * c - bk * cm1) / k
        rk = rk * rho
        acc += gk * rk * c
    return acc


def zonal_table(kmax, u, dim):
    """Table P[k, j] of the zonal harmonic between unit vectors with inner
    product u[j]: P[k, j] = Z_k(zeta, eta_j), degrees 0..kmax.

    Row 0 is 1.  Dimension 2 rows are 2 T_k(u), with the Chebyshev
    recurrence of series_point; higher dimensions use its Gegenbauer
    recurrence with parameter (dim-2)/2.
    """
    m = u.shape[0]
    out = np.empty((kmax + 1, m))
    out[0] = 1.0
    if kmax == 0:
        return out
    cm1 = np.ones(m)
    if dim == 2:
        c = u
        out[1] = 2.0 * c
        u2 = 2.0 * u
        for k in range(2, kmax + 1):
            cm1, c = c, u2 * c - cm1
            out[k] = 2.0 * c
        return out
    lam = 0.5 * (dim - 2.0)
    c = 2.0 * lam * u
    out[1] = (dim / (dim - 2.0)) * c
    for k in range(2, kmax + 1):
        cm1, c = c, (2.0 * u * (k + lam - 1.0) * c - (k + 2.0 * lam - 2.0) * cm1) / k
        out[k] = ((dim + 2.0 * k - 2.0) / (dim - 2.0)) * c
    return out


def zonal_series(coef, prod, u, dim):
    """Sum_k coef[k] * prod**k * Z_k(u) per node, Z_k the rows of zonal_table.

    prod[j] = |x||y_j| and u[j] = cos of the angle between x and y_j.  The
    table rows are summed by Horner's rule in prod, over column blocks of at
    most TABLE_ENTRIES table entries (at least one column).
    """
    kmax = coef.shape[0] - 1
    out = np.empty(u.shape[0])
    step = max(1, TABLE_ENTRIES // (kmax + 1))
    for lo in range(0, u.shape[0], step):
        p = prod[lo:lo + step]
        table = zonal_table(kmax, u[lo:lo + step], dim)
        acc = coef[kmax] * table[kmax]
        for k in range(kmax - 1, -1, -1):
            acc = acc * p + coef[k] * table[k]
        out[lo:lo + step] = acc
    return out
