"""Values the benchmark checks the program against, computed apart from it.

Nothing here imports bergbesov.  The kernel references are the closed forms
of the harmonic Poisson kernel (order -1) and of the harmonic Bergman kernel
(order 0), the complex form of the order-c kernel of the disc, and for every
other order a direct sum of the zonal series with gamma_k from math.lgamma and
Z_k from scipy.special.eval_gegenbauer.  The transform references use the
diagonal action of T_{b,c} on zonal harmonics.  See Axler, Bourdon and
Ramey, Harmonic Function Theory, ch. 5 (zonal harmonics) and ch. 8
(Bergman kernels), and the README next to this file.
"""

import cmath
import math

import numpy as np
from scipy.special import eval_gegenbauer

EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# Special numbers.


def beta_fn(p, q):
    """Euler's Beta function B(p, q) for p, q > 0."""
    return math.exp(math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q))


def volume(w, n):
    """V_w = int_B (1-|x|^2)^w dnu = (n/2) B(n/2, w+1) for w > -1, else 1."""
    return 0.5 * n * beta_fn(0.5 * n, w + 1.0) if w > -1.0 else 1.0


def harmonic_dim(k, n):
    """Dimension h_k of the degree-k spherical harmonics on S^{n-1}."""
    if k == 0:
        return 1
    return math.comb(n + k - 1, n - 1) - math.comb(n + k - 3, n - 1)


def log_gamma_k(k, c, n):
    """log of the kernel coefficient gamma_k(c) in dimension n.

    gamma_k = (1+n/2+c)_k / (n/2)_k when c > -(1+n/2), and
    gamma_k = (k!)^2 / ((1-n/2-c)_k (n/2)_k) otherwise; both are positive.
    """
    h = 0.5 * n
    if c > -(1.0 + h):
        a = 1.0 + h + c
        return math.lgamma(a + k) - math.lgamma(a) - math.lgamma(h + k) + math.lgamma(h)
    big_a = 1.0 - h - c
    return (2.0 * math.lgamma(k + 1.0) - math.lgamma(big_a + k) + math.lgamma(big_a)
            - math.lgamma(h + k) + math.lgamma(h))


def gamma_k(k, c, n):
    return math.exp(log_gamma_k(k, c, n))


def gamma_table(kmax, c, n):
    return np.array([math.exp(log_gamma_k(k, c, n)) for k in range(kmax + 1)])


# ---------------------------------------------------------------------------
# Kernel values.


def _geometry(x, y):
    """(s, t, d, rho, cos) with s = |x|^2|y|^2, t = x.y and
    d = 1 - 2t + s = | |y| x - y/|y| |^2, formed as a norm to avoid the
    cancellation of 1 - 2t + s near the diagonal of the sphere."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rx = math.sqrt(float(x @ x))
    ry = math.sqrt(float(y @ y))
    s = (rx * ry) ** 2
    t = float(x @ y)
    d = float(np.sum((ry * x - y / ry) ** 2)) if ry > 0.0 else 1.0
    cos = max(-1.0, min(1.0, t / (rx * ry))) if rx * ry > 0.0 else 1.0
    return s, t, d, rx * ry, cos


def has_closed_form(c, n):
    return c in (-1.0, 0.0) or (n == 2 and c > -2.0)


def kernel_closed_form(c, x, y):
    """R_c(x, y) in closed form, for c = -1, c = 0, or n = 2 with c > -2."""
    n = len(x)
    s, t, d, _, _ = _geometry(x, y)
    if c == -1.0:
        return (1.0 - s) / d ** (0.5 * n)
    if c == 0.0:
        num = (n - 4.0) * s * s + (8.0 * t - 2.0 * n - 4.0) * s + n
        return num / (n * d ** (1.0 + 0.5 * n))
    if n == 2 and c > -2.0:
        z = complex(x[0], x[1]) * complex(y[0], -y[1])
        return 2.0 * cmath.exp(-(2.0 + c) * cmath.log(1.0 - z)).real - 1.0
    raise ValueError(f"no closed form for order {c} in dimension {n}")


def _zonal_profile(kmax, cos, n):
    """Z_k(zeta, eta) for unit vectors with inner product cos, k = 0..kmax."""
    ks = np.arange(kmax + 1)
    if n == 2:
        out = 2.0 * np.cos(ks * math.acos(cos))
    else:
        lam = 0.5 * (n - 2.0)
        out = (n + 2.0 * ks - 2.0) / (n - 2.0) * eval_gegenbauer(ks, lam, cos)
    out[0] = 1.0
    return out


def kernel_series(c, x, y, kmax):
    """(sum, sum of |terms|) of the zonal series of R_c(x, y) to degree kmax."""
    n = len(x)
    _, _, _, rho, cos = _geometry(x, y)
    terms = gamma_table(kmax, c, n) * rho ** np.arange(kmax + 1.0) * _zonal_profile(kmax, cos, n)
    return float(np.sum(terms)), float(np.sum(np.abs(terms)))


def term_sums(c, x, y, kmax):
    """(S0, S1, D) over k <= kmax, with a_k = gamma_k(c) rho^k Z_k(x', y'):

    S0 = sum |a_k|, the scale of the rounding of any evaluation of the
    truncated series;
    S1 = sum k a_k = rho dR/drho;
    D = sum gamma_k rho^k Z_k'(cos) = dR/dcos, with
    Z_k' = (n+2k-2) C_{k-1}^{n/2} (2k U_{k-1} when n = 2).

    Z_k comes from the cosine form (n = 2) or the three-term recurrence of
    C_k^{(n-2)/2}; these sums size a tolerance and are never a reference.
    """
    n = len(x)
    _, _, _, rho, cos = _geometry(x, y)
    gam = gamma_table(kmax, c, n) * rho ** np.arange(kmax + 1.0)
    ks = np.arange(kmax + 1.0)
    if n == 2:
        theta = math.acos(cos)
        z = 2.0 * np.cos(ks * theta)
        if math.sin(theta) > 1e-8:
            dz = 2.0 * ks * np.sin(ks * theta) / math.sin(theta)
        else:
            dz = 2.0 * ks * ks * (1.0 if cos > 0.0 else (-1.0) ** (ks - 1.0))
        z[0] = 1.0
        return float(gam @ np.abs(z)), float((ks * gam) @ z), float(gam @ dz)
    lam = 0.5 * (n - 2.0)
    mu = lam + 1.0
    z = np.empty(kmax + 1)
    dz = np.zeros(kmax + 1)
    z[0] = 1.0
    cm1, cur = 1.0, 2.0 * lam * cos  # C_{k-1}^lam, C_k^lam
    dm1, dcur = 0.0, 1.0  # C_{k-2}^mu, C_{k-1}^mu
    for k in range(1, kmax + 1):
        if k >= 2:
            cm1, cur = cur, (2.0 * cos * (k + lam - 1.0) * cur - (k + 2.0 * lam - 2.0) * cm1) / k
            j = k - 1
            dm1, dcur = dcur, (2.0 * cos * (j + mu - 1.0) * dcur - (j + 2.0 * mu - 2.0) * dm1) / j
        z[k] = (n + 2.0 * k - 2.0) / (n - 2.0) * cur
        dz[k] = (n + 2.0 * k - 2.0) * dcur
    return float(gam @ np.abs(z)), float((ks * gam) @ z), float(gam @ dz)


def rounding_allowance(scale, kmax):
    """Rounding budget of a kmax-term series whose terms sum in magnitude to
    scale: each term carries O(k eps) relative error from its recurrences,
    and independent errors add up like sqrt(kmax) of them."""
    return 16.0 * EPS * math.sqrt(kmax + 1.0) * scale


def input_allowance(n, dcos, rho_drho):
    """What rounding the inputs moves R by.  Any evaluation from the double
    points x, y forms cos = x.y / (|x||y|) with an error up to (2n+4) eps and
    rho = |x||y| with a relative error up to (n+3) eps; dcos = dR/dcos and
    rho_drho = rho dR/drho.  Near the diagonal of the sphere R is
    ill-conditioned in cos (|dR/dcos| grows like (1-rho)^-2 R), so this
    term can outweigh tol by far.  Doubled, as the program and the series
    reference each round their inputs."""
    return 2.0 * EPS * ((2.0 * n + 4.0) * abs(dcos) + (n + 3.0) * abs(rho_drho))


def kernel_reference(c, x, y, tol, certified_degree):
    """(reference value, allowed deviation) for the program's R_c(x, y).

    The allowance is the certified tail tol plus the rounding of the truncated
    series and of the reference, plus the effect of the rounded inputs.  The
    series reference runs 25% + 64 degrees past the program's certified
    degree so its own tail is far below tol.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    if float(x @ x) * float(y @ y) == 0.0:
        return 1.0, 0.0
    kref = int(1.25 * certified_degree) + 64
    scale, rho_drho, dcos = term_sums(c, x, y, certified_degree)
    if has_closed_form(c, n):
        value = kernel_closed_form(c, x, y)
    else:
        value, scale = kernel_series(c, x, y, kref)
    return value, tol + rounding_allowance(scale, kref) + input_allowance(n, dcos, rho_drho)


# ---------------------------------------------------------------------------
# Zonal and solid harmonics, and the transform on them.


def zonal(k, x, a):
    """Z_k(x, a) for points x of shape (m, n) or (n,), anchor a."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    a = np.asarray(a, dtype=float)
    n = x.shape[1]
    if k == 0:
        return np.ones(len(x))
    rx = np.linalg.norm(x, axis=1)
    ra = float(np.linalg.norm(a))
    prod = rx * ra
    cos = np.clip((x @ a) / np.where(prod == 0.0, 1.0, prod), -1.0, 1.0)
    if n == 2:
        prof = 2.0 * np.cos(k * np.arccos(cos))
    else:
        prof = (n + 2.0 * k - 2.0) / (n - 2.0) * eval_gegenbauer(k, 0.5 * (n - 2.0), cos)
    return prod**k * prof


def transform_multiplier(k, b, c, n):
    """T_{b,c} Z_k(., a) = multiplier * Z_k(., a), for b > -1."""
    return gamma_k(k, c, n) * 0.5 * n * beta_fn(0.5 * n + k, b + 1.0)


def radial_image(b, u, n):
    """T_{b,c} f_{u,0}: the constant (n/2) B(n/2, b+u+1), any c."""
    return 0.5 * n * beta_fn(0.5 * n, b + u + 1.0)


def besov_smoothing(beta, q):
    t = 0
    while beta + q * t <= -1.0:
        t += 1
    return t


def bloch_smoothing(beta):
    t = 0
    while beta + t <= 0.0:
        t += 1
    return t


def besov_zonal_q2(b, c, k, a, beta, n):
    """Exact q = 2 Besov norm of T_{b,c} Z_k(., a) with the smallest admissible t:
    |C| (|a|^{2k} h_k (n/2) B(n/2+k, beta+2t+1) / V_beta)^{1/2}, C the
    multiplier at order c+t; h_k = int_S Z_k(zeta, eta)^2 dsigma(zeta)."""
    t = besov_smoothing(beta, 2.0)
    mult = transform_multiplier(k, b, c + t, n)
    ra2 = float(np.dot(a, a))
    radial = 0.5 * n * beta_fn(0.5 * n + k, beta + 2.0 * t + 1.0)
    return abs(mult) * math.sqrt(ra2**k * harmonic_dim(k, n) * radial / volume(beta, n))


def bloch_zonal_sup(b, c, k, a, beta, n):
    """Exact sup of (1-r^2)^{beta+t} |T_{b,c+t} Z_k(., a)| over the ball: the
    sphere sup of |Z_k(r zeta, a)| is h_k (r |a|)^k, and r^k (1-r^2)^w peaks
    at r^2 = k / (k + 2w)."""
    t = bloch_smoothing(beta)
    w = beta + t
    mult = transform_multiplier(k, b, c + t, n)
    ra = math.sqrt(float(np.dot(a, a)))
    if k == 0:
        return abs(mult)
    r2 = k / (k + 2.0 * w)
    return abs(mult) * harmonic_dim(k, n) * ra**k * r2 ** (0.5 * k) * (1.0 - r2) ** w


def radial_besov(b, u, q, beta, n):
    """Besov norm of the constant image of f_{u,0}: |C| (V_{beta+qt}/V_beta)^{1/q}."""
    t = besov_smoothing(beta, q)
    return radial_image(b, u, n) * (volume(beta + q * t, n) / volume(beta, n)) ** (1.0 / q)


def lp_norm_fu0(u, p, alpha, n):
    """Norm of f_{u,0} in L^p_alpha: (V_{alpha+pu} / V_alpha)^{1/p}."""
    return (volume(alpha + p * u, n) / volume(alpha, n)) ** (1.0 / p)


# ---------------------------------------------------------------------------
# The paper's inequalities, regime 1 < p <= q < inf of the finite-q targets.


def bounded_regime_i(b, c, alpha, beta, p, q, n):
    """T_{b,c}: L^p_alpha -> b^q_beta bounded iff alpha+1 < p(b+1) and
    c <= b + (n+beta)/q - (n+alpha)/p (1 < p <= q < inf)."""
    return alpha + 1.0 < p * (b + 1.0) and c <= b + (n + beta) / q - (n + alpha) / p


def weight_shift(b, c, alpha, beta, p, q):
    """(b - alpha/p~, c - beta/q~): the tuple with both weights moved to 0,
    x/p~ meaning x/p for finite p and x at p = inf."""
    return (b - (alpha if math.isinf(p) else alpha / p),
            c - (beta if math.isinf(q) else beta / q))
