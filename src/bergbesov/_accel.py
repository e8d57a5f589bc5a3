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
entries; `kernel_eval_batch` makes one such call over its rows.
`zonal_point` runs zonal_table's recurrence on floats at one cosine, for
`zonal_harmonic`, and returns that table's last row bit for bit.  Every
node's |x||y| and cosine come from the kernel module's float geometry, the
same for a pair and for a batch row.

Dimension 2 runs the Chebyshev recurrence; every dimension n >= 3 runs the
recurrence of the zonal harmonics normalized at the pole, Y_k = Z_k / h_k,
whose coefficients and h_k both drivers read from `_zonal_coefficients`.
`series_point` spends five float operations per degree there, and
`zonal_table` forms each row in place and scales the rows by h_k once.
"""

from functools import lru_cache

import numpy as np

# Entries of one zonal table in zonal_series: 8 MB of float64 per block.
TABLE_ENTRIES = 2**20
# Largest length of a cached coefficient table (_zonal_coefficients): the
# power of two above the kernel's MAX_DEGREE = 200 000.
CACHED_SIZE = 2**18


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
    ascending degree order.  Above dimension 2 those factors are a_k t and
    b_k of _zonal_coefficients and c_k = rho^k gamma_k h_k:

        Y_k = (a_k t) Y_{k-1} - b_k Y_{k-2},  acc += c_k Y_k.
    """
    kmax = gam.shape[0] - 1
    acc = float(gam[0])
    if kmax == 0:
        return acc
    if dim == 2:
        cm1 = 1.0
        rk = rho
        c = t
        acc += float(gam[1]) * 2.0 * rk * c
        t2 = 2.0 * t
        for g2 in memoryview(gam[2:] * 2.0):
            cm1, c = c, t2 * c - cm1
            rk = rk * rho
            acc += g2 * rk * c
        return acc
    a, b, h = _zonal_coefficients(dim, 1 << kmax.bit_length())
    c = rho ** np.arange(1.0, kmax + 1.0)
    c *= gam[1:]
    c *= h[1:kmax + 1]
    y2, y1 = 0.0, 1.0
    for ak, bk, ck in zip(memoryview(a[1:kmax + 1] * t), memoryview(b)[1:kmax + 1], memoryview(c)):
        y2, y1 = y1, ak * y1 - bk * y2
        acc += ck * y1
    return acc


def _zonal_coefficients(dim, size):
    """_coefficients(dim, size), the one source of both drivers' dimension
    >= 3 recurrence: cached where size <= CACHED_SIZE, which holds every
    degree the kernel certifies (MAX_DEGREE), and formed afresh and freed
    after the call above it, where callers such as zonal_harmonic and
    expansions choose the degree."""
    if size > CACHED_SIZE:
        return _coefficients(dim, size)
    return _cached_coefficients(dim, size)


def _coefficients(dim, size):
    """(a, b, h), read-only arrays over the degrees k < size, for dimension
    n = dim >= 3: the recurrence of the zonal harmonics normalized at the
    pole, Y_k = Z_k / h_k,

        Y_k = a_k t Y_{k-1} - b_k Y_{k-2},  Y_0 = 1,  Y_1 = t,

    and h_k = Z_k(1), the dimension of the degree-k spherical harmonics.
    Y_k = C_k^lam(t) / C_k^lam(1) for the Gegenbauer polynomials, lam =
    (n-2)/2, so their recurrence (Axler, Bourdon & Ramey, Harmonic Function
    Theory, ch. 5; DLMF 18.9.1) gives

        a_k = (2k+n-4)/(k+n-3),  b_k = (k-1)/(k+n-3) = a_k - 1.

    b_k is formed as a_k - 1, which is exact since 1 <= a_k < 2, so the
    rounded coefficients keep a_k - b_k = 1: Y_k(+-1) = (+-1)^k exactly,
    and no rounding of a coefficient shifts the double root the recurrence
    has at t = +-1, where x = +-y.  The recurrence on Z_k itself, a_k =
    (2k+n-2)/k, keeps no such identity: at |x||y| = 0.9995 in dimension 3
    (K = 146 383) its x = y sum was 8e-11 off, this one's 1.4e-12.  a_1 = 1
    and b_1 = 0 start the recurrence from Y_0; a_0 = b_0 = 0 are unused.
    h_k = (2k+n-2) C(k+n-3, n-3) / (n-2) is formed through the integers
    (2k+n-2) C(k+j, j), j = 1..n-3, each exact below 2^53.

    Callers ask for the first power of two above their top degree kmax,
    `1 << kmax.bit_length()`, so every kmax below that power shares one
    entry of _cached_coefficients; an entry holds at most 3 x CACHED_SIZE
    doubles (6 MB), and the cache at most 32 entries.
    """
    ks = np.arange(float(size))
    a = np.zeros(size)
    a[1:] = (2.0 * ks[1:] + dim - 4.0) / (ks[1:] + dim - 3.0)
    b = a - 1.0
    b[0] = 0.0
    h = 2.0 * ks + dim - 2.0
    for j in range(1, dim - 2):
        h *= ks + j
        h /= j
    h /= dim - 2.0
    for v in (a, b, h):
        v.flags.writeable = False
    return a, b, h


_cached_coefficients = lru_cache(maxsize=32)(_coefficients)


def zonal_table(kmax, u, dim):
    """Table P[k, j] of the zonal harmonic between unit vectors with inner
    product u[j]: P[k, j] = Z_k(zeta, eta_j), degrees 0..kmax.

    Row 0 is 1.  Dimension 2 rows are 2 T_k(u), with the Chebyshev
    recurrence of series_point; higher dimensions run the recurrence of
    _zonal_coefficients on the normalized Y_k, each row formed in place
    from the two above it, and scale row k by h_k at the end.
    """
    m = u.shape[0]
    out = np.empty((kmax + 1, m))
    out[0] = 1.0
    if kmax == 0:
        return out
    if dim == 2:
        cm1 = np.ones(m)
        c = u
        out[1] = 2.0 * c
        u2 = 2.0 * u
        for k in range(2, kmax + 1):
            cm1, c = c, u2 * c - cm1
            out[k] = 2.0 * c
        return out
    a, b, h = _zonal_coefficients(dim, 1 << kmax.bit_length())
    out[1] = u
    scratch = np.empty(m)
    for k, ak, bk in zip(range(2, kmax + 1), memoryview(a)[2:kmax + 1], memoryview(b)[2:kmax + 1]):
        row = out[k]
        np.multiply(u, ak, out=row)
        row *= out[k - 1]
        np.multiply(out[k - 2], bk, out=scratch)
        row -= scratch
    out *= h[:kmax + 1, None]
    return out


def zonal_point(kmax, t, dim):
    """Z_kmax(zeta, eta) for unit vectors with inner product t, a Python
    float: row kmax of zonal_table at the single cosine t, bit for bit.

    It runs zonal_table's recurrence on floats, operation for operation:
    in dimension 2, c_k = (2t) c_{k-1} - c_{k-2} and Z_k = 2 c_k; above,
    Y_k = (t a_k) Y_{k-1} - Y_{k-2} b_k and Z_k = Y_k h_k.
    """
    if kmax == 0:
        return 1.0
    if dim == 2:
        cm1, c = 1.0, t
        t2 = 2.0 * t
        for _ in range(kmax - 1):
            cm1, c = c, t2 * c - cm1
        return 2.0 * c
    a, b, h = _zonal_coefficients(dim, 1 << kmax.bit_length())
    y2, y1 = 1.0, t
    for ak, bk in zip(memoryview(a)[2:kmax + 1], memoryview(b)[2:kmax + 1]):
        y2, y1 = y1, t * ak * y1 - y2 * bk
    return y1 * float(h[kmax])


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
