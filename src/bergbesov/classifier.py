"""Exact boundedness classification for the operators T_{b,c}: L^p_alpha -> target.

Every decision is a finite list of strict or non-strict inequalities among the
parameters (b, c, alpha, beta, p, q, n), compared exactly in double precision
with no tolerance: the theorems characterize boundedness with sharp boundary
behavior, and a tolerance would misclassify points sitting exactly on a
boundary.  Extended exponents in [1, inf] are carried by ExtExponent rather
than bare floats so quantities like (n+alpha)/p are well defined (zero at
p = inf) without tripping over IEEE inf/nan arithmetic.

Five targets share two inequality skeletons:

* finite-q targets (weighted Bergman-Besov spaces with full weight range, and
  weighted Lebesgue spaces restricted to beta > -1): a four-part family split
  by the (p, q) regime;
* sup-type targets (weighted Bloch beta > 0 at the weighted end, bounded
  harmonic functions, and the weighted-sup space beta >= 0): a three-part
  family, where the bounded-harmonic case is the beta = 0 endpoint at which
  the non-strict c-inequality tightens to strict, exactly as the weighted-sup
  target does at beta = 0.

Out-of-range target weights (Lebesgue with beta <= -1, weighted-sup with
beta < 0) are unbounded outright: no nonzero harmonic function lies in the
target, and the verdict records that obstruction instead of a part.

Each part is planned once per (target, n, alpha, beta, p, q) by _plan as
plain data: the part, its notes, each term's name and relation, and one
function of (b, c) alone that gives each term's (lhs, rhs).  What reads
neither b nor c, such as (n+beta)/q or alpha+1, is formed with the plan, in
the order of operations the inequality is written in, so every lhs, rhs
and slack is the double a tuple-by-tuple evaluation gives.  _decide reads a
plan at (b, c) with the same comparisons, min and max for every caller:
classify wraps the result in Inequality and Verdict objects, and the
command-line sweep plans each (alpha, beta, p, q) of its grid once and runs
its (b, c) rows against the plans without building any, after checking
each grid value once with the checks OperatorParams and classify apply.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum

from .errors import _check_finite, _check_int

__all__ = [
    "ExtExponent",
    "conjugate",
    "Target",
    "OperatorParams",
    "Inequality",
    "Verdict",
    "classify",
    "reduce_to_unweighted",
]


@dataclass(frozen=True)
class ExtExponent:
    """An exponent in [1, inf]; raw is a float, math.inf allowed."""

    raw: float

    def __post_init__(self):
        raw = float(self.raw)
        if not (raw >= 1.0):
            raise ValueError(f"exponent must be in [1, inf], got {raw}")
        object.__setattr__(self, "raw", raw)

    @property
    def is_inf(self):
        return math.isinf(self.raw)

    @classmethod
    def parse(cls, text):
        s = str(text).strip().lower()
        if s in ("inf", "infinity", "oo"):
            return cls(math.inf)
        return cls(float(s))

    def __str__(self):
        return "inf" if self.is_inf else ("%.17g" % self.raw)


def conjugate(p):
    """Holder conjugate: 1 <-> inf, p -> p/(p-1) otherwise."""
    if not isinstance(p, ExtExponent):
        p = ExtExponent(p)
    if p.raw == 1.0:
        return ExtExponent(math.inf)
    if p.is_inf:
        return ExtExponent(1.0)
    return ExtExponent(p.raw / (p.raw - 1.0))


class Target(Enum):
    BESOV = "besov"
    BLOCH = "bloch"
    HINF = "hinf"
    LEBESGUE = "lebesgue"
    WLINF = "wlinf"

    @classmethod
    def parse(cls, text):
        try:
            return cls(str(text).strip().lower())
        except ValueError:
            raise ValueError(f"unknown target {text!r}; expected one of "
                             + ", ".join(t.value for t in cls)) from None


_FINITE_Q_TARGETS = (Target.BESOV, Target.LEBESGUE)


def _as_ext(x):
    return x if isinstance(x, ExtExponent) else ExtExponent.parse(x)


def _check_q(target, q):
    """ValueError unless the ExtExponent q is finite for a finite-q target
    and inf for a sup-type one."""
    if target in _FINITE_Q_TARGETS:
        if q.is_inf:
            raise ValueError(f"target {target.value} requires finite q")
    elif not q.is_inf:
        raise ValueError(f"target {target.value} requires q = inf")


@dataclass(frozen=True)
class OperatorParams:
    b: float
    c: float
    alpha: float
    beta: float
    p: ExtExponent
    q: ExtExponent
    dim: int

    def __post_init__(self):
        for name in ("b", "c", "alpha", "beta"):
            object.__setattr__(self, name, _check_finite(name, getattr(self, name)))
        object.__setattr__(self, "p", _as_ext(self.p))
        object.__setattr__(self, "q", _as_ext(self.q))
        object.__setattr__(self, "dim", _check_int("dim", self.dim, 2))

    def to_dict(self):
        return {
            "b": self.b, "c": self.c, "alpha": self.alpha, "beta": self.beta,
            "p": math.inf if self.p.is_inf else self.p.raw,
            "q": math.inf if self.q.is_inf else self.q.raw,
            "dim": self.dim,
        }


@dataclass(frozen=True)
class Inequality:
    name: str
    lhs: float
    rel: str  # "<" or "<="
    rhs: float

    @property
    def ok(self):
        return self.lhs < self.rhs if self.rel == "<" else self.lhs <= self.rhs

    @property
    def slack(self):
        return self.rhs - self.lhs

    def to_dict(self):
        return {"name": self.name, "lhs": self.lhs, "rel": self.rel,
                "rhs": self.rhs, "ok": self.ok}


@dataclass(frozen=True)
class Verdict:
    bounded: bool
    part: str
    inequalities: tuple
    binding_slack: float
    notes: str = ""

    def to_dict(self):
        return {
            "bounded": self.bounded,
            "theorem_part": self.part,
            "inequalities": [iq.to_dict() for iq in self.inequalities],
            "binding_slack": self.binding_slack,
            "notes": self.notes,
        }


_EITHER_PAIR_NOTE = "p=1 regime: bounded iff either inequality pair holds"


def _plan(target, n, al, be, p, q):
    """The inequality system of T_{b,c}: L^p_alpha -> target at fixed
    (n, alpha, beta, p, q) as plain data, (part, notes, either_pair, heads,
    sides): heads holds each term's (name, rel), and sides(b, c) each
    term's (lhs, rhs).  target is a Target, p and q are ExtExponents, q
    already checked by _check_q.  A weight obstruction is one term, which
    fails.

    Every part's c-threshold is (b + x) - y, x and y formed here once from
    what reads neither b nor c: x = (n+beta)/q, (beta+1)/q or (1+beta)/q
    for a finite-q target and beta for a sup-type one (0 for hinf), and y
    = n+alpha, (n+alpha)/p, (1+alpha)/p or alpha.  The source side depends
    on p alone: alpha < b and alpha <= b (the two pairs of p = 1),
    alpha - 1 < b (p = inf), alpha + 1 < p(b+1) (1 < p < inf)."""
    if target is Target.LEBESGUE and be <= -1.0:
        return ("lebesgue(beta<=-1)", "no nonzero harmonic function is q-integrable against this weight",
                False, (("-1<beta", "<"),), lambda b, c: ((-1.0, be),))
    if target is Target.WLINF and be < 0.0:
        return ("wlinf(beta<0)", "weighted sup weight must be non-negative",
                False, (("0<=beta", "<="),), lambda b, c: ((0.0, be),))
    if target in _FINITE_Q_TARGETS:
        if p.raw == 1.0:
            part, notes, rel, tail = "(ii)", _EITHER_PAIR_NOTE, None, "+(n+beta)/q-(n+alpha)"
            x, y = (n + be) / q.raw, n + al
        elif p.is_inf:
            part, notes, rel, tail = "(iv)", "sup-source regime 1<=q<p=inf", "<", "+(beta+1)/q-alpha"
            x, y = (be + 1.0) / q.raw, al
        elif p.raw <= q.raw:
            part, notes, rel, tail = "(i)", "regime 1<p<=q<inf", "<=", "+(n+beta)/q-(n+alpha)/p"
            x, y = (n + be) / q.raw, (n + al) / p.raw
        else:
            part, notes, rel, tail = "(iii)", "regime 1<=q<p<inf", "<", "+(1+beta)/q-(1+alpha)/p"
            x, y = (1.0 + be) / q.raw, (1.0 + al) / p.raw
    else:
        # hinf is the beta = 0 endpoint, where the c-inequality is strict,
        # as it is for wlinf at beta = 0
        if target is Target.HINF:
            x, plus_beta, rel = 0.0, "", "<"
        else:
            x, plus_beta = be, "+beta"
            rel = "<" if target is Target.WLINF and be == 0.0 else "<="
        if p.raw == 1.0:
            part, notes, tail, y = "(ii)", _EITHER_PAIR_NOTE, f"{plus_beta}-(n+alpha)", n + al
        elif p.is_inf:
            part, notes, tail, y = "(iii)", "sup-source regime p=inf", f"{plus_beta}-alpha", al
        else:
            part, tail, y = "(i)", f"{plus_beta}-(n+alpha)/p", (n + al) / p.raw
            notes = "regime 1<p<inf" + ("; strict c-inequality at beta=0" if rel == "<" and plus_beta else "")
    if p.raw == 1.0:
        return (target.value + part, notes, True,
                (("alpha<b", "<"), (f"c<=b{tail}", "<="), ("alpha<=b", "<="), (f"c<b{tail}", "<")),
                lambda b, c: ((al, b), (c, b + x - y)) * 2)
    if p.is_inf:
        am1 = al - 1.0
        return (target.value + part, notes, False, (("alpha-1<b", "<"), (f"c{rel}b{tail}", rel)),
                lambda b, c: ((am1, b), (c, b + x - y)))
    ap1, pr = al + 1.0, p.raw
    return (target.value + part, notes, False, (("alpha+1<p(b+1)", "<"), (f"c{rel}b{tail}", rel)),
            lambda b, c: ((ap1, pr * (b + 1.0)), (c, b + x - y)))


def _decide(plan, b, c):
    """(bounded, binding_slack, sides) of a _plan at (b, c), sides its
    terms' (lhs, rhs).  Bounded iff every term holds, with the least
    rhs - lhs as the slack; in the p = 1 form (either_pair) the four terms
    are two pairs, bounded iff either pair holds, with the larger of the
    pairs' least slacks."""
    _, _, either_pair, heads, sides_at = plan
    sides = sides_at(b, c)
    if either_pair:
        holds, slacks = [], []
        for (_, rel), (lhs, rhs) in zip(heads, sides):
            holds.append(lhs < rhs if rel == "<" else lhs <= rhs)
            slacks.append(rhs - lhs)
        return ((holds[0] and holds[1]) or (holds[2] and holds[3]),
                max(min(slacks[0], slacks[1]), min(slacks[2], slacks[3])), sides)
    # all() and min() of the terms in one pass (the sweep's hot loop); the
    # running min keeps the first least slack, as min() does
    bounded, slack = True, math.inf
    for (_, rel), (lhs, rhs) in zip(heads, sides):
        if rhs - lhs < slack:
            slack = rhs - lhs
        if not (lhs < rhs if rel == "<" else lhs <= rhs):
            bounded = False
    return bounded, slack, sides


def classify(params, target):
    """Exact bounded/unbounded verdict for T_{b,c}: L^p_alpha -> target."""
    target = target if isinstance(target, Target) else Target.parse(target)
    _check_q(target, params.q)
    plan = _plan(target, params.dim, params.alpha, params.beta, params.p, params.q)
    part, notes, _, heads, _ = plan
    bounded, slack, sides = _decide(plan, params.b, params.c)
    return Verdict(bounded, part, tuple(Inequality(name, lhs, rel, rhs)
                                        for (name, rel), (lhs, rhs) in zip(heads, sides)),
                   slack, notes)


def reduce_to_unweighted(params, target=None):
    """Shift (b, c) so that both weights become 0: b -> b - alpha/p~ and
    c -> c - beta/q~, with x/p~ meaning x/p for finite p and x at p = inf.

    The inequality systems of the finite-q and sup-type families are invariant
    under this shift, which is the metamorphic check the classifier tests
    lean on.  For the unweighted bounded-harmonic target there is no target
    weight to shift, so c is left alone (pass target to get that behavior;
    otherwise the shift is inferred from q).
    """
    if target is not None and not isinstance(target, Target):
        target = Target.parse(target)
    p, q = params.p, params.q
    ashift = params.alpha if p.is_inf else params.alpha / p.raw
    if target is Target.HINF:
        bshift = 0.0
    else:
        bshift = params.beta if q.is_inf else params.beta / q.raw
    return replace(params, b=params.b - ashift, c=params.c - bshift, alpha=0.0, beta=0.0)
