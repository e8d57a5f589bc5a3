"""Radial profiles with a logarithmic boundary weight, on Python floats.

The radial family f_{u,v}(x) = (1-|x|^2)^u (1 + log 1/(1-|x|^2))^{-v} and
every 1-D integral it leads to live here.  A profile (1-r^2)^B
(1 + log 1/(1-r^2))^{-V} is integrated in the variable w = log 1/(1-r^2).
Its integral is finite iff B > -1, or B = -1 and V > 1, and its weighted sup
has a closed form.  A refinement ladder, a double-exponential rule over
[0, L] with the cutoff L doubling, observes the integral numerically:
divergence is declared on value growth beyond a fixed factor across two
doublings (or a hard cap).

The w-integrals use tanh-sinh and exp-sinh rules (Takahasi & Mori, 1974)
that halve their step until two levels agree, and raise ConvergenceError
when they do not, or when a node value or a level sum leaves the doubles.
Each level is one math.fsum over cached (offset, weight, left) tuples.

Every T_{b,c} sends f_{u,v} to a constant, radial_power_log_value(b+u, v)
(see the operators module), so every answer for a radial input is formed
here once: the transform report of apply_T_report (_radial_report), the
Besov and Bloch norms of the image (_radial_norm, with the choice or check
of the smoothing order t that every image norm shares) and their result
types TransformReport and NormResult, which operators re-exports.

Everything here runs on Python floats and the math module, so the source
norms of the radial family, the finiteness and ratio probes, and the
transforms and image norms of a radial input start without NumPy.  Only
test_function_eval, which TestFunction.__call__ uses to evaluate f_{u,v}
on arrays of points, imports NumPy, when it runs.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import ConvergenceError, _check_ball_point, _check_finite, _check_int

__all__ = [
    "DEFAULT_LEVELS",
    "DIVERGENCE_CAP",
    "GROWTH_FACTOR",
    "LadderResult",
    "NormResult",
    "TestFunction",
    "TransformReport",
    "besov_smoothing_order",
    "bloch_smoothing_order",
    "lp_membership_analytic",
    "normalization_V",
    "radial_power_log_ladder",
    "radial_power_log_value",
    "test_function_eval",
    "test_function_lp_norm",
    "transform_finite_analytic",
    "weighted_sup_ladder",
]

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
_LOG_MAX_DOUBLE = 709.782712893384  # log of the largest double


@dataclass(frozen=True)
class LadderResult:
    finite: bool
    value: float
    rungs: tuple


class _PastTheDoubles(ConvergenceError):
    """A double-exponential level sum that is not finite: the integral may
    be a finite number past the largest double."""


@lru_cache(maxsize=None)
def _de_level(level, infinite):
    """The t of a level not in the levels before it (every integer t at
    level 0, the odd multiples of 2^-level after), mapped: a tuple of
    (offset, dx/dt, left half) per t.  tanh-sinh offsets are distances to
    the nearer end of [-1, 1]; exp-sinh offsets are x - lo on [lo, inf),
    with left False."""
    if level == 0:
        ts = [float(i) for i in range(-int(_DE_T), int(_DE_T) + 1)]
    else:
        h = 2.0 ** -level
        ts = [-_DE_T + h + 2.0 * h * i for i in range(int(_DE_T) << level)]
    nodes = []
    for t in ts:
        u = 0.5 * math.pi * math.sinh(t)
        if infinite:
            e = math.exp(u)
            nodes.append((e, 0.5 * math.pi * math.cosh(t) * e, False))
        else:
            nodes.append((2.0 / (1.0 + math.exp(2.0 * abs(u))),
                          0.5 * math.pi * math.cosh(t) / math.cosh(u) ** 2, t < 0.0))
    return tuple(nodes)


def _de_terms(f, lo, hi, level):
    """The sum of a level's terms f(x) dx/dt, inf when a term or a partial
    sum overflows (math.exp and math.fsum raise OverflowError there).  The
    nodes lie strictly inside the interval, so the integrands' logarithms
    stay in their domains."""
    nodes = _de_level(level, hi == math.inf)
    try:
        if hi == math.inf:
            return math.fsum(f(lo + off) * dxdt for off, dxdt, _ in nodes)
        half = 0.5 * (hi - lo)
        return math.fsum(f(lo + half * off if left else hi - half * off) * (half * dxdt)
                         for off, dxdt, left in nodes)
    except OverflowError:
        return math.inf


def _de_integrate(f, lo, hi):
    """int_lo^hi f for a float function f: tanh-sinh on a finite [lo, hi],
    exp-sinh when hi is inf.

    The step in t starts at 1 and halves, reusing the earlier nodes, until
    two levels agree to _DE_RTOL relative.  Raises ConvergenceError when
    they still differ at _DE_MAX_LEVEL, or as soon as a level's sum is not
    finite, which no later level can undo.  Where the end of the t-range
    would cut off a visible part of the integral, the terms there vary too
    fast for the levels to agree, so that raises too: (1+w)^{-v} on
    [1, inf) raises for v <= 1.2 and is within 2.3e-14 at v = 1.25.
    """
    # -0.0 is the exact additive identity, so level 0's sum is kept bit for bit
    total = new = -0.0
    for level in range(_DE_MAX_LEVEL + 1):
        total += _de_terms(f, lo, hi, level)
        # checked after every add: an overflowing level would otherwise pass
        # the stop test below as inf <= rtol * inf
        if not math.isfinite(total):
            raise _PastTheDoubles(f"double-exponential rule on [{lo}, {hi}] has no finite value: "
                                   f"its terms sum to {total!r} at step 2^-{level}")
        prev, new = new, total * 2.0 ** -level
        if level and abs(new - prev) <= _DE_RTOL * abs(new):
            return new
    raise ConvergenceError(f"double-exponential rule on [{lo}, {hi}] missed rel {_DE_RTOL:g}: "
                           f"{prev!r} and {new!r} at steps 2^-{_DE_MAX_LEVEL - 1} and 2^-{_DE_MAX_LEVEL}")


def _integrand(coef, expo, bexp, v, peak=0.0):
    """w -> coef (1-e^-w)^expo e^{-bexp w} (1+w)^{-v} on floats, formed in
    log space so that no factor overflows on its own.  A peak w* > 0 divides
    it by its value there, in terms of w - w*, which is exact near w*."""
    exp, log, log1p, expm1 = math.exp, math.log, math.log1p, math.expm1
    if peak == 0.0:
        return lambda w: coef * exp(expo * log(-expm1(-w)) - bexp * w - v * log1p(w))
    return lambda w: coef * exp(expo * log(-expm1(-w)) - bexp * (w - peak)
                                - v * log1p((w - peak) / (1.0 + peak)))


def _wspace_piece(coef, expo, bexp, v, lo, hi):
    """coef * int_{lo}^{hi} (1-e^-w)^expo e^{-bexp w} (1+w)^{-v} dw."""
    f = _integrand(coef, expo, bexp, v)
    if lo == 0.0:
        # substitute w = z^2 to flatten the (1-e^-w)^expo endpoint behavior
        return _de_integrate(lambda z: 2.0 * z * f(z * z), 0.0, math.sqrt(hi))
    return _de_integrate(f, lo, hi)


def _wspace_tail(coef, expo, bexp, v, peak=0.0):
    """coef * int_1^inf (1-e^-w)^expo e^{-bexp w} (1+w)^{-v} dw, for bexp > 0,
    or bexp = 0 and v > 1; divided by its value at a peak w* > 0 as
    _integrand divides it, which needs bexp > 0."""
    if bexp > 0.0:
        return _de_integrate(_integrand(coef, expo, bexp, v, peak), 1.0, math.inf)
    # (1+w)^{-v} alone decays too slowly for the rule: its tail is exact, and
    # the rest, ((1-e^-w)^expo - 1)(1+w)^{-v}, decays like e^{-w}
    tail = coef * 2.0 ** (1.0 - v) / (v - 1.0)
    if expo != 0.0:
        tail += _de_integrate(
            lambda w: coef * math.expm1(expo * math.log1p(-math.exp(-w))) * (1.0 + w) ** -v,
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
    eexp, v = _check_finite("E", eexp), _check_finite("V", v)
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
    try:
        return LadderResult(True, math.exp(_log_sup(e, v)), ())
    except OverflowError:
        return LadderResult(True, math.inf, ())


def _log_sup(e, v):
    """log sup_{w >= 0} exp(-E w - V log(1+w)) for E > 0 and V < 0, at the
    stationary point w* = max(0, -V/E - 1)."""
    w = max(0.0, -v / e - 1.0)
    if w < math.inf:
        return -e * w - v * math.log1p(w)
    # -V/E overflowed: E w* = -V - E and log1p(w*) = log(-V/E)
    return e + v - v * (math.log(-v) - math.log(e))


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


def _v_or_one(alpha, dim):
    """normalization_V(alpha, dim), or 1 under the alpha <= -1 convention."""
    return normalization_V(alpha, dim) if alpha > -1.0 else 1.0


# ---------------------------------------------------------------------------
# The radial family f_{u,v}: finiteness, memberships and source norms.


@dataclass(frozen=True)
class TestFunction:
    """The radial family f_{u,v}; positive on the open ball, f(0) = 1."""

    u: float
    v: float

    def __post_init__(self):
        object.__setattr__(self, "u", _check_finite("u", self.u))
        object.__setattr__(self, "v", _check_finite("v", self.v))

    def __call__(self, x):
        return test_function_eval(self, x)


def test_function_eval(tf, x):
    """(1-|x|^2)^u (1 + log 1/(1-|x|^2))^{-v} at a point or an (m, dim)
    batch: array work, so NumPy is imported here, when it runs.  The batch
    is read in C order, since NumPy's row sums round by layout from dim 8:
    the column-major blocks of the quadrature grids give the same values."""
    import numpy as np

    pts = np.asarray(x, dtype=float, order="C")
    scalar = pts.ndim == 1
    rr = np.sum(np.atleast_2d(pts) ** 2, axis=1)
    if np.any(rr >= 1.0):
        raise ValueError("test functions are defined on the open unit ball")
    w = -np.log1p(-rr)  # log 1/(1-|x|^2), stable near 0
    vals = (1.0 - rr) ** tf.u * (1.0 + w) ** (-tf.v)
    return float(vals[0]) if scalar else vals


def _parse_radial(text):
    """The string forms "const1" and "fuv:u,v" as a TestFunction, or None
    for any other text; a malformed "fuv:" spec raises ValueError."""
    s = text.strip()
    if s == "const1":
        return TestFunction(0.0, 0.0)
    if not s.startswith("fuv:"):
        return None
    parts = s[len("fuv:"):].split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'fuv:u,v', got {text!r}")
    return TestFunction(float(parts[0]), float(parts[1]))


def transform_finite_analytic(b, tf):
    """Exact finiteness of the transform of f_{u,v} under weight b: finite
    iff b+u > -1, or b+u = -1 and v > 1.  b must be finite."""
    return _radial_integral_finite(_check_finite("b", b) + tf.u, tf.v)


def lp_membership_analytic(tf, p, alpha):
    """Exact membership of f_{u,v} in the alpha-weighted p-space: for finite
    p, alpha + pu > -1 or (= -1 with pv > 1); for p = inf, alpha + u > 0 or
    (alpha + u = 0 with v >= 0).  alpha must be finite."""
    alpha = _check_finite("alpha", alpha)
    if p == math.inf:
        return _sup_finite(alpha + tf.u, tf.v)
    return _radial_integral_finite(alpha + p * tf.u, p * tf.v)


def test_function_lp_norm(tf, p, alpha, dim):
    """Norm of f_{u,v} in the alpha-weighted p-space.  For finite p, the
    full-interval double-exponential integral, inf exactly on the divergent
    side (alpha + pu < -1, or = -1 with pv <= 1); weight normalization uses
    V_alpha, or 1 for alpha <= -1.  For p = inf, the closed-form sup
    weighted_sup_ladder(alpha + u, v).  alpha must be finite and dim an
    integer >= 2.

    Where the integral is past the doubles and its integrand peaks at some
    w* > 0 (_log_sup), its tail on [1, inf), which holds the peak, is
    integrated divided by it, and the norm formed from logarithms: inf past
    the doubles, else good to a few |log peak| 2^-53 / p relative.  The
    integral is taken as it is first wherever the peak is a double."""
    alpha, dim = _check_finite("alpha", alpha), _check_int("dim", dim, 2)
    if p == math.inf:
        return weighted_sup_ladder(alpha + tf.u, tf.v).value
    b, v = alpha + p * tf.u, p * tf.v
    log_peak = _log_sup(b + 1.0, v) if v < 0.0 and _radial_integral_finite(b, v) else 0.0
    if log_peak < _LOG_MAX_DOUBLE:
        try:
            raw = radial_power_log_value(b, v, dim=dim)
            return (raw / _v_or_one(alpha, dim)) ** (1.0 / p)
        except _PastTheDoubles:
            if log_peak == 0.0:  # the peak is at w = 0: nothing to divide by
                raise
    coef, expo = 0.5 * dim, 0.5 * dim - 1.0
    head = _wspace_piece(coef, expo, b + 1.0, v, 0.0, 1.0)
    tail = _wspace_tail(coef, expo, b + 1.0, v, peak=-v / (b + 1.0) - 1.0)
    log_raw = log_peak + math.log(tail + head * math.exp(-log_peak))
    try:
        return math.exp((log_raw - math.log(_v_or_one(alpha, dim))) / p)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# Transforms of the radial family and the norms of their images.


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


def _besov_exponent(q):
    """q as a float; ValueError unless 1 <= q < inf."""
    q = float(q)
    if not 1.0 <= q < math.inf:
        raise ValueError(f"q must be in [1, inf), got {q}")
    return q


def _smoothing_order(beta, q, t):
    """(t, w) for an image norm of exponent q (inf for the Bloch norm) at
    the finite weight beta: the smallest admissible t, or a forced t
    checked, and the weight w = beta + q t (beta + t at q = inf) it gives."""
    bloch = q == math.inf
    if t is None:
        t = bloch_smoothing_order(beta) if bloch else besov_smoothing_order(beta, q)
    else:
        try:
            whole = _check_int("t", t, 0)
        except ValueError:  # fractional, negative, NaN or infinite
            whole = None
        if whole is None or not (beta + whole > 0.0 if bloch else beta + q * whole > -1.0):
            admissible = "beta + t > 0" if bloch else "beta + q t > -1"
            raise ValueError(f"t must be a non-negative integer with {admissible}, got {t}")
        t = whole
    return t, beta + t if bloch else beta + q * t


def _constant_norm(const, q, beta, w, dim):
    """The norm, of exponent q at weight w = beta + q t, of the constant
    image const: |const| (V_w / V_beta)^{1/q}, which is |const| at q = inf."""
    ratio = normalization_V(w, dim) / _v_or_one(beta, dim)
    return abs(const) * ratio ** (1.0 / q)


def _radial_image(b, tf, dim):
    """The image of f_{u,v} under every T_{b,c} in dimension dim, the
    constant radial_power_log_value(b + u, v): inf exactly where the
    transform diverges."""
    return radial_power_log_value(b + tf.u, tf.v, dim=dim)


def _radial_report(b, c, tf, x):
    """apply_T_report of f_{u,v} at x: its constant image, divergent exactly
    when inf, with the cutoff-ladder rungs of its radial integral (method
    "radial-ladder").  b and c must be finite and x in the open ball."""
    b = _check_finite("b", b)
    _check_finite("c", c)
    n = len(_check_ball_point(x))
    value = _radial_image(b, tf, n)
    rungs = radial_power_log_ladder(b + tf.u, tf.v, dim=n).rungs
    return TransformReport(value, not math.isfinite(value), rungs, "radial-ladder")


def _radial_norm(b, c, tf, q, beta, dim, t=None):
    """besov_norm (finite q) or bloch_norm (q = inf) of (b, c, f_{u,v}) in
    dimension dim: inf and divergent where the transform diverges, else
    _constant_norm of its constant image, with t as _smoothing_order gives
    it.  b, c and beta must be finite and dim an integer >= 2."""
    b, c = _check_finite("b", b), _check_finite("c", c)
    beta = _check_finite("beta", beta)
    t, w = _smoothing_order(beta, q, t)
    dim = _check_int("dim", dim, 2)
    const = _radial_image(b, tf, dim)
    if not math.isfinite(const):
        return NormResult(math.inf, c, t, True)
    return NormResult(_constant_norm(const, q, beta, w, dim), c, t, False)
