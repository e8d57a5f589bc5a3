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

Each part is plain data, (name, lhs, rel, rhs) terms, decided by _decide
with the same comparisons, min and max for every caller: classify wraps the
result in Inequality and Verdict objects, and the command-line sweep reads
it tuple by tuple without building any, after checking each grid value
once with the checks OperatorParams and classify apply.
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


def _finite_q_parts(prefix, n, b, c, al, be, p, q):
    if p.raw == 1.0:
        x = b + (n + be) / q.raw - (n + al)
        return (f"{prefix}(ii)", _EITHER_PAIR_NOTE, True, (
            ("alpha<b", al, "<", b),
            ("c<=b+(n+beta)/q-(n+alpha)", c, "<=", x),
            ("alpha<=b", al, "<=", b),
            ("c<b+(n+beta)/q-(n+alpha)", c, "<", x),
        ))
    if p.is_inf:
        return (f"{prefix}(iv)", "sup-source regime 1<=q<p=inf", False, (
            ("alpha-1<b", al - 1.0, "<", b),
            ("c<b+(beta+1)/q-alpha", c, "<", b + (be + 1.0) / q.raw - al),
        ))
    if p.raw <= q.raw:
        return (f"{prefix}(i)", "regime 1<p<=q<inf", False, (
            ("alpha+1<p(b+1)", al + 1.0, "<", p.raw * (b + 1.0)),
            ("c<=b+(n+beta)/q-(n+alpha)/p", c, "<=", b + (n + be) / q.raw - (n + al) / p.raw),
        ))
    return (f"{prefix}(iii)", "regime 1<=q<p<inf", False, (
        ("alpha+1<p(b+1)", al + 1.0, "<", p.raw * (b + 1.0)),
        ("c<b+(1+beta)/q-(1+alpha)/p", c, "<", b + (1.0 + be) / q.raw - (1.0 + al) / p.raw),
    ))


def _sup_parts(prefix, n, b, c, al, be, p, strict_c, uses_beta):
    beta_tag = "beta" if uses_beta else ""
    plus_beta = "+beta" if uses_beta else ""
    rel = "<" if strict_c else "<="
    if p.raw == 1.0:
        x = b + be - (n + al)
        return (f"{prefix}(ii)", _EITHER_PAIR_NOTE, True, (
            ("alpha<b", al, "<", b),
            (f"c<=b{plus_beta}-(n+alpha)", c, "<=", x),
            ("alpha<=b", al, "<=", b),
            (f"c<b{plus_beta}-(n+alpha)", c, "<", x),
        ))
    if p.is_inf:
        return (f"{prefix}(iii)", "sup-source regime p=inf", False, (
            ("alpha-1<b", al - 1.0, "<", b),
            (f"c{rel}b{plus_beta}-alpha", c, rel, b + be - al),
        ))
    return (f"{prefix}(i)",
            "regime 1<p<inf" + (f"; strict c-inequality at {beta_tag}=0" if strict_c and uses_beta else ""),
            False, (
                ("alpha+1<p(b+1)", al + 1.0, "<", p.raw * (b + 1.0)),
                (f"c{rel}b{plus_beta}-(n+alpha)/p", c, rel, b + be - (n + al) / p.raw),
            ))


def _system(target, n, b, c, al, be, p, q):
    """The inequality system of T_{b,c}: L^p_alpha -> target as plain data,
    (part, notes, either_pair, terms), each term a (name, lhs, rel, rhs)
    tuple.  target is a Target, p and q are ExtExponents, q already checked
    by _check_q.  A weight obstruction is one term, which fails."""
    if target is Target.LEBESGUE and be <= -1.0:
        return ("lebesgue(beta<=-1)", "no nonzero harmonic function is q-integrable against this weight",
                False, (("-1<beta", -1.0, "<", be),))
    if target is Target.WLINF and be < 0.0:
        return ("wlinf(beta<0)", "weighted sup weight must be non-negative",
                False, (("0<=beta", 0.0, "<=", be),))
    if target in _FINITE_Q_TARGETS:
        return _finite_q_parts(target.value, n, b, c, al, be, p, q)
    if target is Target.BLOCH:
        return _sup_parts("bloch", n, b, c, al, be, p, strict_c=False, uses_beta=True)
    if target is Target.HINF:
        return _sup_parts("hinf", n, b, c, al, 0.0, p, strict_c=True, uses_beta=False)
    return _sup_parts("wlinf", n, b, c, al, be, p, strict_c=(be == 0.0), uses_beta=True)


def _decide(target, n, b, c, al, be, p, q):
    """The verdict of _system's inequalities as plain data: (bounded,
    binding_slack, part, notes, terms).  Bounded iff every term holds, with
    the least rhs - lhs as the slack; in the p = 1 form (either_pair) the
    four terms are two pairs, bounded iff either pair holds, with the larger
    of the pairs' least slacks."""
    part, notes, either_pair, terms = _system(target, n, b, c, al, be, p, q)
    holds = [lhs < rhs if rel == "<" else lhs <= rhs for _, lhs, rel, rhs in terms]
    slacks = [rhs - lhs for _, lhs, _, rhs in terms]
    if either_pair:
        bounded = (holds[0] and holds[1]) or (holds[2] and holds[3])
        slack = max(min(slacks[0], slacks[1]), min(slacks[2], slacks[3]))
    else:
        bounded, slack = all(holds), min(slacks)
    return bounded, slack, part, notes, terms


def classify(params, target):
    """Exact bounded/unbounded verdict for T_{b,c}: L^p_alpha -> target."""
    target = target if isinstance(target, Target) else Target.parse(target)
    _check_q(target, params.q)
    bounded, slack, part, notes, terms = _decide(target, params.dim, params.b, params.c,
                                                 params.alpha, params.beta, params.p, params.q)
    return Verdict(bounded, part, tuple(Inequality(*term) for term in terms), slack, notes)


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
