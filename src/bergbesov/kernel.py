"""Harmonic Bergman-Besov kernels on the unit ball of R^n, n >= 2.

The kernel with parameter alpha is the zonal series

    R_alpha(x, y) = sum_k gamma_k(alpha) Z_k(x, y),

where Z_k is the degree-k zonal harmonic and the coefficient gamma_k follows a
two-branch Pochhammer-ratio formula (reproducing-kernel branch for
alpha > -(1 + n/2), factorial-compensated branch below).  Evaluation truncates
the series at a degree K backed by a certified tail bound built from the sup
estimate |Z_k(x, y)| <= h_k (|x||y|)^k, h_k the dimension of the degree-k
spherical harmonic space.  The certificate is monotone in the degree, so
truncation_degree finds K by a galloping and bisecting search over single
degrees, each checked in closed form from log-gamma values, from a
Newton estimate of K: usually two checks, and at most a few dozen, however
large K is.  What the checks read of the order alone (the estimate's
constants, log (n-2)! and the constant halves of the paired log-Pochhammer
ratios) is formed once per (alpha, dim) by _order_constants, and the
certifying degree's log gamma_K serves the overflow check.

Three families have elementary closed forms (Axler, Bourdon & Ramey,
Harmonic Function Theory, ch. 8), and kernel_eval and kernel_eval_batch
evaluate them instead of summing the series: alpha = -1, the extended
Poisson kernel, and alpha = 0, the harmonic Bergman kernel, in every
dimension, and every alpha > -2 in the disc (has_closed_form).  Their value
reads of the truncation degree only whether it is positive (where it is 0
the value is gamma_0 = 1), and _degree_is_positive settles that, and that
the search would not raise, from the certificate at degrees 1 and
MAX_DEGREE, whose log-gamma terms are formed once per order
(_last_degree_logs); in every other case it runs truncation_degree itself.
So a closed-form value, and every error raised on the way to it, is the
one the search would give, and kernel_eval_degree, which reports the
degree, still searches for it.

Every pair is evaluated on Python floats, one at a time or as a row of
kernel_eval_batch: once the shapes are checked the points become lists (a
batch's BATCH_ROWS rows at a time), and the norms, the cosine and the
closed forms are formed on them by _dot, _pair_cosine and
_pair_closed_form, since NumPy calls on one-row arrays would cost more than
the rest of a closed-form evaluation.  So at a
closed-form order the batch returns kernel_eval's value bit for bit
wherever the pair's own certified degree is positive.  That branch of the
batch, _closed_form_rows, reads lists and needs no NumPy, so the floor
probe runs it on rows it forms as lists.  NumPy is left to the
coefficient tables and the series: a single pair's series runs in
_accel.series_point, which weights its degrees by a running product of the
coefficient ratios gamma_k/gamma_{k-1} (_gamma_ratios) and so forms no
coefficient table, a batch's in one _accel.zonal_series call over its
rows' cosines with the table of gamma_coefs, and zonal_harmonic runs the
zonal table's recurrence on floats (_accel.zonal_point).

NumPy and _accel are imported on first use, by _load_numpy, not with the
module: the certificate, the closed forms and a pair given as lists or
tuples of numbers need neither, so `bergbesov kernel` at a closed-form
order starts without NumPy.  The binding is module-level, not an import
inside kernel_eval, which would cost every call.
"""

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

from .errors import KernelDivergenceError, TruncationLimitError, _check_finite, _check_int

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
# Rows of kernel_eval_batch held as Python lists at a time (about 6 MB in
# dim 3).
BATCH_ROWS = 2**15
# log of the largest finite double: a coefficient above it overflows
_LOG_MAX_FLOAT = math.log(sys.float_info.max)
# NumPy and the _accel loops, bound by _load_numpy on first use
np = None
_accel = None


def _load_numpy():
    """Bind the module globals np and _accel, importing them on the first
    call; once they are bound it imports nothing.  Every function that
    reads either binds them first: _gamma_ratios, on the path of every
    series kernel_eval, calls this only while _accel is None, which saves
    the call."""
    global np, _accel
    if _accel is None:
        import numpy

        from . import _accel as accel

        np, _accel = numpy, accel


@dataclass(frozen=True)
class KernelSpec:
    """Kernel parameter set: series parameter alpha (finite), dimension, tail
    tolerance."""

    alpha: float
    dim: int
    tol: float = 1e-10

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_finite("alpha", self.alpha))
        object.__setattr__(self, "dim", _check_int("dim", self.dim, 2))
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        object.__setattr__(self, "tol", float(self.tol))


def _uses_factorial_branch(alpha, dim):
    return alpha <= -(1.0 + 0.5 * dim)


def gamma_coefs(kmax, alpha, dim):
    """Coefficient table gamma_0..gamma_kmax as an array.

    Computed by the exact ratio recurrence (incremental finite products of the
    defining Pochhammer ratios): the running product of _gamma_ratios, with
    no overflow, no log-space cancellation, and gamma_0 = 1 exactly.  Both
    branches produce strictly positive values.  ValueError unless kmax is an
    integer >= 0, dim an integer >= 2 and alpha finite.
    """
    kmax = _check_int("kmax", kmax, 0)
    dim = _check_int("dim", dim, 2)
    alpha = _check_finite("alpha", alpha)
    out = _gamma_ratios(kmax, alpha, dim)
    return np.cumprod(out, out=out)


def _gamma_ratios(kmax, alpha, dim):
    """The ratios [1, gamma_1/gamma_0, ..., gamma_kmax/gamma_{kmax-1}] as an
    array of kmax + 1 entries, for checked arguments: a single pair's series
    (_accel.series_point) weights its degrees by their running product, and
    gamma_coefs is that product.

    The ratio at degree k + 1 is (k+1)^2 / ((1 - (n/2 + alpha) + k) (n/2 + k))
    on the factorial branch and (1 + n/2 + alpha + k) / (n/2 + k) on the
    reproducing one.
    """
    if _accel is None:
        _load_numpy()
    n2 = 0.5 * dim
    ks = np.arange(float(kmax))
    out = np.empty(kmax + 1)
    out[0] = 1.0
    factors = out[1:]
    if _uses_factorial_branch(alpha, dim):
        np.add(ks, 1.0, out=factors)
        factors *= factors
        factors /= (ks + (1.0 - (n2 + alpha))) * (ks + n2)
    else:
        np.add(ks, 1.0 + n2 + alpha, out=factors)
        factors /= ks + n2
    return out


def gamma_coef(k, alpha, dim):
    """Scalar gamma_k(alpha) for the given dimension; the checks of
    gamma_coefs."""
    return float(gamma_coefs(_check_int("degree", k, 0), alpha, dim)[-1])


def harmonic_dim(k, dim):
    """Dimension h_k of the space of degree-k spherical harmonics on S^{dim-1}.

    Equals the coincident-boundary-point value Z_k(zeta, zeta), which is the
    sup-bound constant in the truncation certificate.
    """
    k, dim = _check_int("degree", k, 0), _check_int("dim", dim, 2)
    if k == 0:
        return 1.0
    if dim == 2:
        return 2.0
    return float(math.comb(dim + k - 1, dim - 1) - math.comb(dim + k - 3, dim - 1))


def zonal_harmonic(k, x, y, dim):
    """Zonal harmonic Z_k(x, y) (real, symmetric, harmonic in each argument).

    Z_0 = 1.  For k >= 1 and either argument zero the value is 0.  Otherwise
    it is (|x||y|)^k times _accel.zonal_point at the cosine of the angle
    between x and y, which is row k of the zonal table at that cosine.
    """
    k, dim = _check_int("degree", k, 0), _check_int("dim", dim, 2)
    x, y = _as_point(x, dim), _as_point(y, dim)
    if k == 0:
        return 1.0
    rx = math.sqrt(_dot(x, x))
    ry = math.sqrt(_dot(y, y))
    if rx == 0.0 or ry == 0.0:
        return 0.0
    t = _pair_cosine(x, rx, y, ry)
    _load_numpy()
    return rx**k * ry**k * _accel.zonal_point(k, t, dim)


def _pair_cosine(x, rx, y, ry):
    """The cosine of the angle between x and y, lists of floats with norms
    rx, ry > 0.

    It is 1 - |u - v|^2/2 where x.y >= 0 and |u + v|^2/2 - 1 elsewhere, for
    the unit vectors u = x/|x| and v = y/|y|, so it never leaves [-1, 1] by
    more than rounding.  Near x = +-y that keeps the distance to +-1 to its
    relative accuracy, and parallel points give +-1 exactly, where
    x.y/(|x||y|) would round an ulp off; the zonal recurrences amplify that
    ulp by about k^2 at degree k.
    """
    sign = 1.0 if _dot(x, y) >= 0.0 else -1.0
    w = [a / rx - sign * (b / ry) for a, b in zip(x, y)]
    return sign * (1.0 - 0.5 * _dot(w, w))


def _dot(a, b):
    """a.b for two lists of floats, summed in order."""
    acc = 0.0
    for p, q in zip(a, b):
        acc += p * q
    return acc


def _log_rising(x, d):
    """log Gamma(x + d) - log Gamma(x) for x > 0 and x + d > 0.

    Where x or x + d is below 1000 it is the difference of two math.lgamma
    values.  Where both are above, that difference would lose about eps
    x log x to cancellation, so it is the difference of the two Stirling
    series instead, whose leading terms cancel in closed form; the first
    omitted term, (y^-5 - x^-5)/1260, is below 1e-18 there.
    """
    y = x + d
    if min(x, y) < 1000.0:
        return math.lgamma(y) - math.lgamma(x)
    return ((x - 0.5) * math.log1p(d / x) + d * math.log(y) - d
            + (1.0 / y - 1.0 / x) / 12.0 - (y**-3 - x**-3) / 360.0)


def _log_pochhammer_ratio(ratio, k):
    """log((p)_k / (q)_k) for p, q > 0, ratio = (p, q, p - q, const) from
    _order_constants.

    Both of its forms as differences of _log_rising are exact; the one
    taken keeps every term small.  Where |p - q| <= k it pairs the Gamma
    values at p + k and q + k, which are large and close, instead of
    subtracting log (q)_k, of size k log k, from log (p)_k; the other half
    of that pair, _log_rising(q, p - q), does not depend on k and is const."""
    p, q, d, const = ratio
    if abs(d) <= k:
        return _log_rising(q + k, d) - const
    return _log_rising(p, k) - _log_rising(q, k)


def _tail_ratio(k, t, order):
    """rho_k = t g_k h_{k+1}/h_k, the certified ratio of the tail past
    degree k >= 1 for the _Order order: g_k = (k+1)/(k+n/2) on the factorial
    branch and max(1, (a+k)/(n/2+k)) on the reproducing branch (a = 1 + n/2
    + alpha) bound every later coefficient ratio gamma_{j+1}/gamma_j, and
    h_{k+1}/h_k every later ratio of harmonic dimensions.  Each factor, and
    so rho_k, is nonincreasing in k."""
    dim, n2 = order.dim, order.n2
    # h_k = (2k+n-2) (k+n-3)! / (k! (n-2)!)
    hr = (2.0 * k + dim) * (k + dim - 2.0) / ((2.0 * k + dim - 2.0) * (k + 1.0))
    if order.factorial:
        g = (k + 1.0) / (k + n2)
    else:
        g = max(1.0, (order.a + k) / (n2 + k))
    return t * g * hr


@dataclass(frozen=True)
class _Order:
    """What truncation_degree's arithmetic reads of an order (alpha, dim)
    alone, formed once per order by _order_constants.

    n2 = n/2; factorial tells the coefficient branch; a = 1 + n/2 + alpha.
    ratios holds (p, q, p - q, _log_rising(q, p - q)) for each Pochhammer
    ratio (p)_k/(q)_k of gamma_k: (a, n/2) on the reproducing branch,
    (1, 1 - (n/2 + alpha)) and (1, n/2) on the factorial one.  Its last
    entry is None where |p - q| > MAX_DEGREE: no degree the search checks
    pairs the Gamma values there, and it may not be finite.  log_fact =
    lgamma(n - 1) = log (n-2)!, of h_k.  newton is the (exponent, constant)
    of _degree_estimate's large-k form, None where lgamma overflows."""

    dim: int
    n2: float
    factorial: bool
    a: float
    ratios: tuple
    log_fact: float
    newton: tuple


@lru_cache(maxsize=1024)
def _order_constants(alpha, dim):
    """The _Order of (alpha, dim).  Each constant is the expression that
    formed it at every degree before, so every sum it enters rounds as it
    did."""
    n2 = 0.5 * dim
    factorial = _uses_factorial_branch(alpha, dim)
    big_a, a = 1.0 - (n2 + alpha), 1.0 + n2 + alpha
    pairs = ((1.0, big_a), (1.0, n2)) if factorial else ((a, n2),)
    ratios = tuple((p, q, p - q, _log_rising(q, p - q) if abs(p - q) <= MAX_DEGREE else None)
                   for p, q in pairs)
    log_fact = math.lgamma(dim - 1.0)
    try:
        if factorial:
            expo, const = 2.0 - big_a - n2, math.lgamma(big_a) + math.lgamma(n2)
        else:
            expo, const = a - n2, math.lgamma(n2) - math.lgamma(a)
        # h_k ~ 2 k^{n-2} / (n-2)!
        newton = (expo + dim - 2.0, const + math.log(2.0) - log_fact)
    except OverflowError:  # |alpha| above about 2.5e305
        newton = None
    return _Order(dim, n2, factorial, a, ratios, log_fact, newton)


def _log_gamma_coef(k, order):
    """log gamma_k(alpha), from the Pochhammer ratios that define it."""
    ratios = order.ratios
    if order.factorial:
        return _log_pochhammer_ratio(ratios[0], k) + _log_pochhammer_ratio(ratios[1], k)
    return _log_pochhammer_ratio(ratios[0], k)


def _degree_logs(k, order):
    """(log gamma_k, log gamma_k + log h_k): what the certificate at degree
    k reads of the order alone."""
    # h_k = (2k+n-2) (k+1)_{n-3} / (n-2)!
    dim = order.dim
    log_h = math.log(2.0 * k + dim - 2.0) + _log_rising(k + 1.0, dim - 3.0) - order.log_fact
    log_gamma = _log_gamma_coef(k, order)
    return log_gamma, log_gamma + log_h


@lru_cache(maxsize=1024)
def _last_degree_logs(alpha, dim):
    """_degree_logs at MAX_DEGREE, formed once per order (alpha, dim)."""
    return _degree_logs(MAX_DEGREE, _order_constants(alpha, dim))


def _certifies(k, t, log_t, log_tol, order, logs=None):
    """The truncation certificate at first omitted degree k >= 1:

        rho_k < 1  and  gamma_k h_k t^k <= tol (1 - rho_k),

    rho_k the tail ratio of _tail_ratio.  The first omitted term is
    compared in logs, from log-gamma values, so no coefficient is formed;
    logs, where given, is _degree_logs(k, order), which is formed here
    otherwise.  Returns log gamma_k where the certificate holds, None where
    it fails.
    """
    rho = _tail_ratio(k, t, order)
    if not rho < 1.0:
        return None
    log_gamma, log_term = _degree_logs(k, order) if logs is None else logs
    if log_term + k * log_t <= log_tol + math.log(1.0 - rho):
        return log_gamma
    return None


def _degree_estimate(t, log_t, log_tol, order):
    """A starting degree for the search: where the first omitted term
    meets tol (1 - rho_k) with gamma_k h_k replaced by its large-k form
    C k^E, by Newton steps from log(tol)/log(t), each doubling the degree
    instead while the terms still grow, until a step is below 1/2 (at most
    eight)."""
    k = max(1.0, log_tol / log_t)
    if order.newton is None:
        return k
    expo, const = order.newton
    for _ in range(8):
        rho = _tail_ratio(k, t, order)
        slope = log_t + expo / k
        if rho < 1.0 and slope < 0.0:
            step = (expo * math.log(k) + const + k * log_t - log_tol - math.log(1.0 - rho)) / slope
        else:
            step = -k
        k = min(float(MAX_DEGREE), max(1.0, k - step))
        if abs(step) < 0.5:
            break
    return k


def truncation_degree(spec, rx, ry, cap=None):
    """Smallest K whose certified tail bound falls below spec.tol.

    The tail sum_{j>K} gamma_j h_j t^j (t = rx*ry < 1) is dominated by the
    first omitted term times a geometric series with certified ratio rho;
    K is one less than the first degree k >= 1 at which

        rho_k < 1  and  gamma_k h_k t^k <= tol (1 - rho_k),

    so K is minimal with respect to that certificate.  Monotone:
    nondecreasing in rx*ry, nonincreasing in tol.

    The certificate holds at every degree past the first that meets it:
    rho_k is nonincreasing in k (each of its factors is), and the next term
    is at most rho_k times this one, so gamma_{k+1} h_{k+1} t^{k+1} <=
    tol rho_k (1 - rho_k) <= tol (1 - rho_{k+1}).  So the first degree is
    found by a search that evaluates the certificate at single degrees in
    closed form, from log-gamma values: galloping by doubling steps from
    _degree_estimate, then bisecting.  The estimate is usually within one
    degree, so two evaluations settle most calls; from any start the search
    takes at most 2 ceil(log2 MAX_DEGREE) + 4, and it builds no per-degree
    array.
    The log-space bound is rounded by about eps times the magnitude of the
    logs it adds, log gamma_k, log h_k and k log t (the Pochhammer ratios
    are paired so that no log of size k log k cancels), so K can differ
    from an exact evaluation only where the first omitted term lies within
    that relative distance of tol (1 - rho).

    A caller that sums no further than degree cap, an integer >= 0, passes
    it: the search stops there and returns min(K, cap), so a K past
    MAX_DEGREE raises TruncationLimitError only when cap is None or not
    below MAX_DEGREE.  Any other cap (negative, fractional, NaN or
    infinite) raises ValueError before the radii are looked at.
    TruncationLimitError is raised as well, at once, when the coefficient
    gamma_{K+1} at the first omitted degree is not a finite double, or, when
    the search stops at the cap, when gamma_cap is not.  NaN radii, or the
    NaN product inf * 0, raise ValueError before any degree is checked.
    """
    if cap is not None:
        cap = _check_int("cap", cap, 0)
    t = rx * ry
    if math.isnan(t):
        raise ValueError(f"radii must be numbers, got |x| = {rx}, |y| = {ry}")
    if rx < 0.0 or ry < 0.0:
        raise ValueError("radii must be non-negative")
    if t >= 1.0:
        raise KernelDivergenceError(f"|x||y| = {t} >= 1: series does not converge")
    if t == 0.0:
        return 0
    alpha, tol = spec.alpha, spec.tol
    order = _order_constants(alpha, spec.dim)
    last = MAX_DEGREE if cap is None else min(cap, MAX_DEGREE)
    log_t, log_tol = math.log(t), math.log(tol)
    # the first certifying degree lies in (fail, hit]: fail = 0 while no
    # failing degree is known, hit = last + 1 while no certifying one is.
    # Gallop from the estimate by doubling steps, then bisect
    fail, hit = 0, last + 1
    k = min(last, math.ceil(_degree_estimate(t, log_t, log_tol, order)))
    step = 1
    while hit - fail > 1:
        log_gamma = _certifies(k, t, log_t, log_tol, order)
        if log_gamma is None:
            fail = k
        else:
            hit, hit_log_gamma = k, log_gamma
        if hit > last:
            k = min(fail + step, last)
        elif fail == 0:
            k = max(1, hit - step)
        else:
            k = (fail + hit) // 2
        step *= 2
    if hit <= last:
        if hit_log_gamma >= _LOG_MAX_FLOAT:
            raise TruncationLimitError(
                f"coefficient gamma_{hit}({alpha}) at the first omitted degree overflows a "
                f"double: the kernel series cannot be certified in floating point (t={t})"
            )
        return hit - 1
    if last < MAX_DEGREE:
        if last > 0 and _log_gamma_coef(last, order) >= _LOG_MAX_FLOAT:
            raise TruncationLimitError(
                f"coefficient gamma_{last}({alpha}) at the cap overflows a double: the "
                f"capped kernel series cannot be summed in floating point (t={t})"
            )
        return last
    raise TruncationLimitError(
        f"tail bound did not reach tol={tol} within {MAX_DEGREE} terms (t={t})"
    )


def _degree_is_positive(spec, rx, ry):
    """truncation_degree(spec, rx, ry) > 0 for an order with a closed form
    (has_closed_form), raising whatever the search raises.

    The certificate holds at every degree past the first that meets it, so
    where it holds at degree 1, with log gamma_1 below _LOG_MAX_FLOAT, the
    search returns K = 0.  Where it holds at MAX_DEGREE but not at 1, the
    search returns a K in [1, MAX_DEGREE), and it cannot raise if log
    gamma_MAX_DEGREE is below _LOG_MAX_FLOAT: every closed-form order is on
    the reproducing branch, where gamma_k is monotone in k, so no
    coefficient up to MAX_DEGREE overflows.  Every other case (a zero, NaN,
    negative or divergent product, no certificate at MAX_DEGREE, or a
    coefficient past the double range) runs the search.
    """
    t = rx * ry
    if 0.0 < t < 1.0 and rx > 0.0:
        order = _order_constants(spec.alpha, spec.dim)
        log_t, log_tol = math.log(t), math.log(spec.tol)
        log_gamma = _certifies(1, t, log_t, log_tol, order)
        if log_gamma is None:
            logs = _last_degree_logs(spec.alpha, spec.dim)
            log_gamma = _certifies(MAX_DEGREE, t, log_t, log_tol, order, logs)
            if log_gamma is not None and log_gamma < _LOG_MAX_FLOAT:
                return True
        elif log_gamma < _LOG_MAX_FLOAT:
            return False
    return truncation_degree(spec, rx, ry) > 0


def has_closed_form(spec):
    """Whether kernel_eval and kernel_eval_batch evaluate R_alpha in closed
    form: alpha = -1 or alpha = 0 in every dimension, and alpha > -2 in the
    disc.  Every other order sums the zonal series."""
    return spec.alpha in (-1.0, 0.0) or (spec.dim == 2 and spec.alpha > -2.0)


def _closed_form(spec, s, d, one_minus_z):
    """R_alpha for an order has_closed_form accepts, from s = |x|^2|y|^2 and
    d = 1 - 2 x.y + s, or in the disc from 1 - z:

        alpha = -1:         (1 - s) / d^{n/2}
        alpha = 0:          ((1 - s)^2 - (4/n) s d) / d^{1+n/2}
        n = 2, alpha > -2:  2 Re (1 - z)^{-(2+alpha)} - 1,  z = x conj(y).

    Only the arguments its order reads are needed.  _pair_closed_form forms
    them on Python floats, or on NumPy scalars where a Python power would
    leave the double range.
    """
    n, alpha = spec.dim, spec.alpha
    if alpha == -1.0:
        return (1.0 - s) / d ** (0.5 * n)
    if alpha == 0.0:
        return ((1.0 - s) ** 2 - (4.0 / n) * s * d) / d ** (1.0 + 0.5 * n)
    return 2.0 * (one_minus_z ** -(2.0 + alpha)).real - 1.0


def _pair_closed_form(spec, x, rx_sq, y, ry_sq):
    """_closed_form at one pair, x and y lists of floats with squared norms
    rx_sq and ry_sq > 0.  d is formed as the squared norm | |y| x - y/|y| |^2,
    which keeps its relative accuracy where 1 - 2 x.y + s cancels, and 1 - z
    as (1 - x.y) + i (x_1 y_2 - x_2 y_1)."""
    if spec.alpha not in (-1.0, 0.0):
        geometry = (None, None, complex(1.0 - _dot(x, y), x[0] * y[1] - x[1] * y[0]))
    else:
        ry = math.sqrt(ry_sq)
        w = [ry * a - b / ry for a, b in zip(x, y)]
        geometry = (rx_sq * ry_sq, _dot(w, w), None)
    try:
        return _closed_form(spec, *geometry)
    except (OverflowError, ZeroDivisionError):
        # a Python power past the double range raises, or underflows to a
        # zero divisor; NumPy's gives inf or 0 (d^{1+n/2} overflows in high
        # dimensions)
        _load_numpy()
        return float(_closed_form(spec, *(g if g is None else np.asarray(g) for g in geometry)))


def _as_point(v, dim):
    """The point v as a list of dim Python floats; ValueError unless its
    shape is (dim,).  A list or tuple of ints and floats is converted
    directly, without NumPy; any other array-like goes through np.asarray."""
    if isinstance(v, (list, tuple)) and all(isinstance(a, (int, float)) for a in v):
        shape, v = (len(v),), [float(a) for a in v]
    else:
        if _accel is None:
            _load_numpy()
        v = np.asarray(v, dtype=float)
        shape, v = v.shape, v.tolist()
    if shape != (dim,):
        raise ValueError(f"points must have shape ({dim},)")
    return v


def _pair(spec, x, y):
    """x and y as lists of floats (_as_point) with their squared norms and
    norms: (x, |x|^2, |x|, y, |y|^2, |y|)."""
    x, y = _as_point(x, spec.dim), _as_point(y, spec.dim)
    rx_sq, ry_sq = _dot(x, x), _dot(y, y)
    return x, rx_sq, math.sqrt(rx_sq), y, ry_sq, math.sqrt(ry_sq)


def kernel_eval(spec, x, y):
    """Evaluate R_alpha(x, y); truncation error below spec.tol.

    Either argument may lie on the unit sphere, but not both (the series has
    no convergent truncation there and KernelDivergenceError is raised).
    Orders with a closed form (has_closed_form) are evaluated by it, and
    read of the truncation degree only whether it is positive, which
    _degree_is_positive answers without the search but in edge cases; the
    value, or the error raised, is kernel_eval_degree's.  Every other order
    is kernel_eval_degree's value.
    """
    if not has_closed_form(spec):
        return kernel_eval_degree(spec, x, y)[0]
    x, rx_sq, rx, y, ry_sq, ry = _pair(spec, x, y)
    if rx * ry == 0.0 or not _degree_is_positive(spec, rx, ry):
        return 1.0
    return _pair_closed_form(spec, x, rx_sq, y, ry_sq)


def kernel_eval_degree(spec, x, y):
    """(R_alpha(x, y), K): kernel_eval's value and the degree K at which
    truncation_degree cut its series (0 when x or y is 0).  Where K is 0 the
    value is gamma_0 = 1; otherwise a closed-form order takes its closed
    form and every other order the series summed to degree K.

    Both points are converted by _as_point, without NumPy for a list or
    tuple of ints and floats.  Then x and y are lists of Python floats:
    the norms, x.y, and either the closed form's s, d or 1 - z (_pair_closed_form) or
    the series' cosine (_pair_cosine) are formed on them, sums taken in
    coordinate order.  The series itself goes through _accel.series_disk or
    series_ball, which run series_point on the floats, given the K+1
    coefficient ratios of _gamma_ratios and |x||y| and the cosine as
    one-element tuples."""
    x, rx_sq, rx, y, ry_sq, ry = _pair(spec, x, y)
    if rx * ry == 0.0:
        return 1.0, 0
    kmax = truncation_degree(spec, rx, ry)
    if kmax == 0:
        return 1.0, 0
    if has_closed_form(spec):
        return _pair_closed_form(spec, x, rx_sq, y, ry_sq), kmax
    ratios = _gamma_ratios(kmax, spec.alpha, spec.dim)  # binds np and _accel
    rho, cost = (rx * ry,), (_pair_cosine(x, rx, y, ry),)
    if spec.dim == 2:
        return _accel.series_disk(ratios, rho, cost), kmax
    return _accel.series_ball(ratios, rho, cost, spec.dim), kmax


def kernel_eval_batch(spec, x, pts):
    """Evaluate R_alpha(x, y_j) for a fixed x against rows y_j of pts.

    Each row's norm, cosine and closed-form arguments are formed as
    kernel_eval forms them, on Python floats.  The truncation degree is
    certified once, for the largest |x||y_j|, and shared across the batch;
    smaller products only gain accuracy.  Orders with a closed form
    (has_closed_form) are evaluated by it row by row where that degree is
    positive, which _degree_is_positive tells as kernel_eval's value reads
    it, so a row equals kernel_eval's value for its pair bit for bit,
    except where that pair's own certified degree is 0 and kernel_eval
    returns gamma_0 = 1 (a zero row gives 1 here too).  Every other order
    is summed by one _accel.zonal_series call over the rows' cosines, which
    agrees with kernel_eval to rounding and the difference of the degrees.
    The certificate sees every row, x = 0 included, and its largest norm is
    taken with np.max, which keeps a NaN, so a NaN or infinite row raises
    as kernel_eval does (ValueError where |x||y_j| is NaN).

    The rows become lists BATCH_ROWS at a time: a first pass forms their
    squared norms into a float array, and a second pass forms the closed
    forms (_closed_form_rows, whose certificate reads the largest norm of
    the whole batch, once per block) or the cosines, after the series'
    certificate has read that norm.  A batch of at most BATCH_ROWS rows
    converts its rows once.
    """
    x = _as_point(x, spec.dim)
    _load_numpy()
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != spec.dim:
        raise ValueError(f"pts must have shape (m, {spec.dim})")
    m = len(pts)
    starts = range(0, m, BATCH_ROWS)
    ry_sq = np.empty(m)
    rows = []
    for lo in starts:
        rows = pts[lo:lo + BATCH_ROWS].tolist()
        ry_sq[lo:lo + BATCH_ROWS] = [_dot(y, y) for y in rows]
    # np.sqrt rounds as math.sqrt does, both correctly
    ry = np.sqrt(ry_sq)
    ry_max = float(np.max(ry, initial=0.0))
    out = np.empty(m)
    if has_closed_form(spec):
        # an empty batch is one empty block, whose certificate still runs
        for lo in starts or range(1):
            hi = lo + BATCH_ROWS
            if len(starts) > 1:
                rows = pts[lo:hi].tolist()
            out[lo:hi] = _closed_form_rows(spec, x, rows, ry_sq[lo:hi].tolist(), ry_max)
        return out
    rx = math.sqrt(_dot(x, x))
    kmax = truncation_degree(spec, rx, ry_max)
    if not kmax:
        return np.ones(m)
    for lo in starts:
        hi = lo + BATCH_ROWS
        if len(starts) > 1:
            rows = pts[lo:hi].tolist()
        # a zero row takes its cosine at norm 1: its product |x||y| = 0
        # removes it from every degree above 0
        out[lo:hi] = [_pair_cosine(x, rx, y, r or 1.0) for y, r in zip(rows, ry[lo:hi].tolist())]
    gam = gamma_coefs(kmax, spec.alpha, spec.dim)
    return _accel.zonal_series(gam, rx * ry, out, spec.dim)


def _closed_form_rows(spec, x, rows, ry_sq, ry_max):
    """kernel_eval_batch's values at an order with a closed form, as a list,
    for x and rows lists of floats, ry_sq the rows' squared norms (_dot)
    and ry_max the largest norm of the batch's rows: one
    _degree_is_positive at |x| and ry_max, then, where the degree is
    positive, _pair_closed_form row by row (1 where |x||y| is 0), and
    elsewhere gamma_0 = 1 for every row.  It needs no NumPy, so the floor
    probe calls it on its own rows."""
    rx_sq = _dot(x, x)
    rx = math.sqrt(rx_sq)
    if not _degree_is_positive(spec, rx, ry_max):
        return [1.0] * len(rows)
    return [1.0 if rx * math.sqrt(s) == 0.0 else _pair_closed_form(spec, x, rx_sq, y, s)
            for y, s in zip(rows, ry_sq)]
