"""Hot loops for zonal series evaluation.

`series_disk` (dimension 2) and `series_ball` (dimension >= 3) sum the
degree-summed zonal series at an array of nodes.  Quadrature grids of 10^4 to
10^6 nodes run the recurrence on whole arrays (`series_disk_nodes`,
`series_ball_nodes`).  A single node, which is what every `kernel_eval` call
passes, runs it on Python floats in `series_point`: NumPy calls on
one-element arrays cost 8 to 14 us per degree.  Each node's sum is
accumulated with the same expressions in ascending degree order, so the two
loops give the same value at one node bit for bit.  `zonal_table` is the
degree-by-node zonal table behind the polar-grid image evaluator.
"""

import numpy as np


def backend():
    """Name of the series backend, echoed by the `kernel` CLI command."""
    return "numpy"


def series_disk(gam, rho, cost):
    """Sum_k gam[k] * (2 - (k==0)) * rho**k * cos(k*theta) per node, dim 2.

    gam is the coefficient table (length K+1), rho[j] = |x||y_j| and
    cost[j] = cos of the angle between x and y_j.  One node is summed by
    series_point, more by series_disk_nodes.
    """
    if rho.size == 1:
        return np.full(rho.shape, series_point(gam, rho.item(), cost.item(), 2))
    return series_disk_nodes(gam, rho, cost)


def series_disk_nodes(gam, rho, cost):
    """series_disk with the recurrence run on the node arrays."""
    kmax = gam.shape[0] - 1
    acc = np.full(rho.shape, gam[0])
    if kmax == 0:
        return acc
    cm1 = np.ones_like(cost)
    c = cost.copy()
    rk = rho.copy()
    acc += gam[1] * 2.0 * rk * c
    for k in range(2, kmax + 1):
        cm1, c = c, 2.0 * cost * c - cm1
        rk = rk * rho
        acc += gam[k] * 2.0 * rk * c
    return acc


def series_ball(gam, rho, cost, dim):
    """Sum_k gam[k] * rho**k * ((dim+2k-2)/(dim-2)) * C_k^{(dim-2)/2}(cost), dim >= 3.

    One node is summed by series_point, more by series_ball_nodes.
    """
    if rho.size == 1:
        return np.full(rho.shape, series_point(gam, rho.item(), cost.item(), dim))
    return series_ball_nodes(gam, rho, cost, dim)


def series_ball_nodes(gam, rho, cost, dim):
    """series_ball with the recurrence run on the node arrays."""
    kmax = gam.shape[0] - 1
    lam = 0.5 * (dim - 2.0)
    acc = np.full(rho.shape, gam[0])
    if kmax == 0:
        return acc
    cm1 = np.ones_like(cost)
    c = 2.0 * lam * cost
    rk = rho.copy()
    acc += gam[1] * (dim / (dim - 2.0)) * rk * c
    for k in range(2, kmax + 1):
        cm1, c = c, (2.0 * cost * (k + lam - 1.0) * c - (k + 2.0 * lam - 2.0) * cm1) / k
        rk = rk * rho
        acc += gam[k] * ((dim + 2.0 * k - 2.0) / (dim - 2.0)) * rk * c
    return acc


def series_point(gam, rho, t, dim):
    """The zonal series of `series_disk` (dim 2) or `series_ball` (dim >= 3)
    at the single node rho = |x||y|, t = cos of the angle (Python floats),
    as a float.

    The recurrence runs on Python floats.  Its per-degree factors, which do
    not depend on the running terms, are formed first by NumPy with the same
    IEEE operations as the array forms and read back as floats through a
    memoryview.  Every term is then the same expression evaluated in the same
    order, so the result equals series_disk_nodes(gam, [rho], [t])[0] (resp.
    series_ball_nodes) exactly.
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

    Row 0 is 1; dimension 2 rows are 2 cos(k theta); higher dimensions use the
    Gegenbauer form, same recurrence as the series evaluators.
    """
    m = u.shape[0]
    out = np.empty((kmax + 1, m))
    out[0] = 1.0
    if kmax == 0:
        return out
    if dim == 2:
        theta = np.arccos(np.clip(u, -1.0, 1.0))
        ks = np.arange(1.0, kmax + 1.0)
        out[1:] = 2.0 * np.cos(ks[:, None] * theta[None, :])
        return out
    lam = 0.5 * (dim - 2.0)
    cm1 = np.ones(m)
    c = 2.0 * lam * u
    out[1] = (dim / (dim - 2.0)) * c
    for k in range(2, kmax + 1):
        cm1, c = c, (2.0 * u * (k + lam - 1.0) * c - (k + 2.0 * lam - 2.0) * cm1) / k
        out[k] = ((dim + 2.0 * k - 2.0) / (dim - 2.0)) * c
    return out
