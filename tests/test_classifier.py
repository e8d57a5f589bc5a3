"""Boundedness classifier: extended exponents, the five target families,
boundary strictness, and the weight-shift invariances."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergbesov.classifier import (
    ExtExponent,
    Inequality,
    OperatorParams,
    Target,
    Verdict,
    classify,
    conjugate,
    reduce_to_unweighted,
)

INF = math.inf


def make(b=0.0, c=0.0, alpha=0.0, beta=0.0, p=2.0, q=2.0, dim=2):
    return OperatorParams(b=b, c=c, alpha=alpha, beta=beta, p=p, q=q, dim=dim)


# ---------------------------------------------------------------- exponents


def test_ext_exponent_validation_and_parse():
    assert ExtExponent(1.0).raw == 1.0
    assert ExtExponent(INF).is_inf
    for bad in (0.5, 0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            ExtExponent(bad)
    for text in ("inf", "INF", "Infinity", "oo"):
        assert ExtExponent.parse(text).is_inf
    assert ExtExponent.parse(" 2 ").raw == 2.0
    assert str(ExtExponent(INF)) == "inf"
    assert str(ExtExponent(2.0)) == "2"
    # round-trip through the string form is exact
    assert ExtExponent.parse(str(ExtExponent(1.7))).raw == 1.7


def test_conjugate_values():
    assert conjugate(ExtExponent(2.0)).raw == 2.0
    assert conjugate(ExtExponent(1.0)).is_inf
    assert conjugate(ExtExponent(INF)).raw == 1.0
    assert conjugate(ExtExponent(4.0)).raw == 4.0 / 3.0
    assert conjugate(4.0).raw == 4.0 / 3.0  # bare floats accepted


@given(st.floats(min_value=1.05, max_value=100.0))
def test_conjugate_involution_and_identity(p):
    pe = ExtExponent(p)
    pc = conjugate(pe)
    assert conjugate(pc).raw == pytest.approx(p, rel=1e-12)
    assert 1.0 / p + 1.0 / pc.raw == pytest.approx(1.0, rel=1e-12)


def test_target_parse():
    assert Target.parse("Besov") is Target.BESOV
    assert Target.parse(" hinf ") is Target.HINF
    with pytest.raises(ValueError):
        Target.parse("hardy")


def test_params_validation_and_dict():
    with pytest.raises(ValueError):
        make(dim=1)
    with pytest.raises(ValueError):
        make(p=0.5)
    par = make(b=1.0, p="inf", q=2.0, dim=3)
    assert par.p.is_inf and par.q.raw == 2.0
    d = par.to_dict()
    assert d["p"] == INF and d["q"] == 2.0 and d["dim"] == 3
    # the operator parameters must be finite; only the exponents take inf
    for name in ("b", "c", "alpha", "beta"):
        for bad in (math.nan, INF, -INF):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                make(**{name: bad})


def test_target_q_consistency_errors():
    for target in ("besov", "lebesgue"):
        with pytest.raises(ValueError):
            classify(make(q=INF), target)
    for target in ("bloch", "hinf", "wlinf"):
        with pytest.raises(ValueError):
            classify(make(q=2.0), target)


# ------------------------------------------------------------ worked verdicts


def test_unweighted_l2_to_besov_is_bounded_part_i():
    v = classify(make(), Target.BESOV)
    assert v.bounded and v.part == "besov(i)"
    assert [iq.ok for iq in v.inequalities] == [True, True]
    # both weights zero, p = q: the c-threshold sits exactly at 0
    assert v.inequalities[1].lhs == 0.0
    assert v.inequalities[1].rhs == 0.0
    assert v.inequalities[1].rel == "<="


def test_besov_boundary_is_non_strict():
    assert classify(make(c=0.0), Target.BESOV).bounded
    assert not classify(make(c=0.01), Target.BESOV).bounded


def test_bounded_harmonic_p1_corner():
    for dim in (2, 3):
        par = make(c=-float(dim), p=1.0, q=INF, dim=dim)
        v = classify(par, Target.HINF)
        assert not v.bounded and v.part == "hinf(ii)"
        bounded = classify(make(c=-dim - 0.1, p=1.0, q=INF, dim=dim), Target.HINF)
        assert bounded.bounded


def test_sup_source_to_bloch_example():
    v = classify(make(b=0.0, c=1.0, beta=1.0, p=INF, q=INF), Target.BLOCH)
    assert v.bounded and v.part == "bloch(iii)"
    assert v.inequalities[1].rel == "<="
    assert v.binding_slack == 0.0


def test_lebesgue_weight_obstruction():
    for b, c, alpha in ((0.0, -10.0, 0.0), (5.0, -50.0, -0.9), (-2.0, 3.0, 4.0)):
        v = classify(make(b=b, c=c, alpha=alpha, beta=-1.5), Target.LEBESGUE)
        assert not v.bounded
        assert v.part == "lebesgue(beta<=-1)"
        assert len(v.inequalities) == 1 and not v.inequalities[0].ok
        assert "harmonic" in v.notes
    # beta = -1 is already out of range, beta just above is not
    assert classify(make(beta=-1.0), Target.LEBESGUE).part == "lebesgue(beta<=-1)"
    assert classify(make(beta=-0.999), Target.LEBESGUE).part.startswith("besov(") is False


def test_wlinf_weight_obstruction():
    v = classify(make(beta=-0.2, q=INF), Target.WLINF)
    assert not v.bounded and v.part == "wlinf(beta<0)"
    assert len(v.inequalities) == 1
    assert classify(make(beta=0.0, q=INF), Target.WLINF).part == "wlinf(i)"


# ------------------------------------------------------- regime bookkeeping


def expected_part(target, p, q, beta):
    if target is Target.LEBESGUE and beta <= -1.0:
        return "lebesgue(beta<=-1)"
    if target is Target.WLINF and beta < 0.0:
        return "wlinf(beta<0)"
    if target in (Target.BESOV, Target.LEBESGUE):
        if p == 1.0:
            roman = "ii"
        elif math.isinf(p):
            roman = "iv"
        elif p <= q:
            roman = "i"
        else:
            roman = "iii"
    else:
        roman = "ii" if p == 1.0 else ("iii" if math.isinf(p) else "i")
    return f"{target.value}({roman})"


FINITE_Q = [1.0, 1.3, 2.0, 3.7]
ALL_P = FINITE_Q + [INF]


@st.composite
def param_target_pairs(draw):
    target = draw(st.sampled_from(list(Target)))
    reals = st.floats(min_value=-4.0, max_value=4.0)
    q = draw(st.sampled_from(FINITE_Q)) if target in (Target.BESOV, Target.LEBESGUE) else INF
    par = make(b=draw(reals), c=draw(reals), alpha=draw(reals), beta=draw(reals),
               p=draw(st.sampled_from(ALL_P)), q=q, dim=draw(st.sampled_from([2, 3, 5])))
    return par, target


@settings(max_examples=300, deadline=None)
@given(param_target_pairs())
def test_every_tuple_selects_the_regime_part(pair):
    par, target = pair
    v = classify(par, target)
    assert v.part == expected_part(target, par.p.raw, par.q.raw, par.beta)


@settings(max_examples=300, deadline=None)
@given(param_target_pairs())
def test_verdict_consistent_with_its_inequalities(pair):
    par, target = pair
    v = classify(par, target)
    oks = [iq.ok for iq in v.inequalities]
    if len(oks) == 4:
        assert v.bounded == ((oks[0] and oks[1]) or (oks[2] and oks[3]))
        mins = (min(v.inequalities[0].slack, v.inequalities[1].slack),
                min(v.inequalities[2].slack, v.inequalities[3].slack))
        assert v.binding_slack == max(mins)
    else:
        assert v.bounded == all(oks)
        assert v.binding_slack == min(iq.slack for iq in v.inequalities)
    # off the boundary the slack sign decides; on it the relation does
    if v.binding_slack > 0.0:
        assert v.bounded
    elif v.binding_slack < 0.0:
        assert not v.bounded


def test_binding_slack_frozen_values():
    v = classify(make(b=0.5), Target.BESOV)
    assert [iq.slack for iq in v.inequalities] == [2.0, 0.5]
    assert v.binding_slack == 0.5
    alt = classify(make(b=1.0, c=-0.25, p=1.0), Target.BESOV)
    assert alt.part == "besov(ii)" and len(alt.inequalities) == 4
    assert alt.binding_slack == 0.25


# -------------------------------------------------------- boundary strictness

# one representative per theorem part; rel is the expected c-relation
PART_CASES = [
    ("besov", 2.0, 3.0, 0.5, "besov(i)", "<="),
    ("besov", 3.0, 2.0, 0.5, "besov(iii)", "<"),
    ("besov", INF, 2.0, 0.5, "besov(iv)", "<"),
    ("lebesgue", 2.0, 3.0, 0.5, "lebesgue(i)", "<="),
    ("lebesgue", 3.0, 2.0, 0.5, "lebesgue(iii)", "<"),
    ("lebesgue", INF, 2.0, 0.5, "lebesgue(iv)", "<"),
    ("bloch", 2.0, INF, 0.5, "bloch(i)", "<="),
    ("bloch", INF, INF, 0.5, "bloch(iii)", "<="),
    ("hinf", 2.0, INF, 0.0, "hinf(i)", "<"),
    ("hinf", INF, INF, 0.0, "hinf(iii)", "<"),
    ("wlinf", 2.0, INF, 0.7, "wlinf(i)", "<="),
    ("wlinf", INF, INF, 0.7, "wlinf(iii)", "<="),
    ("wlinf", 2.0, INF, 0.0, "wlinf(i)", "<"),
    ("wlinf", INF, INF, 0.0, "wlinf(iii)", "<"),
]


@pytest.mark.parametrize("target,p,q,beta,part,rel", PART_CASES)
def test_c_boundary_flip_every_pair_part(target, p, q, beta, part, rel):
    base = make(b=0.7, c=0.0, alpha=0.2, beta=beta, p=p, q=q, dim=3)
    probe = classify(base, target)
    assert probe.part == part
    cineq = probe.inequalities[1]
    assert cineq.rel == rel and cineq.name.startswith("c")
    on = classify(make(b=0.7, c=cineq.rhs, alpha=0.2, beta=beta, p=p, q=q, dim=3), target)
    assert on.bounded == (rel == "<=")
    assert on.binding_slack == 0.0
    above = classify(make(b=0.7, c=cineq.rhs + 1e-9, alpha=0.2, beta=beta, p=p, q=q, dim=3), target)
    assert not above.bounded
    below = classify(make(b=0.7, c=cineq.rhs - 1e-9, alpha=0.2, beta=beta, p=p, q=q, dim=3), target)
    assert below.bounded


@pytest.mark.parametrize("target,q,beta", [
    ("besov", 2.0, 0.5), ("lebesgue", 2.0, 0.5), ("bloch", INF, 0.5),
    ("hinf", INF, 0.0), ("wlinf", INF, 0.5), ("wlinf", INF, 0.0),
])
def test_p1_alternative_four_quadrants(target, q, beta):
    """p = 1 parts accept either (alpha < b, c <= x) or (alpha <= b, c < x)."""
    strict = classify(make(b=0.7, alpha=0.2, beta=beta, p=1.0, q=q, dim=3), target)
    assert strict.part.endswith("(ii)") and len(strict.inequalities) == 4
    x = strict.inequalities[1].rhs
    assert strict.inequalities[3].rhs == x

    def verdict(alpha, c):
        return classify(make(b=0.7, c=c, alpha=alpha, beta=beta, p=1.0, q=q, dim=3), target)

    assert verdict(0.2, x).bounded          # alpha < b: non-strict c wins
    assert not verdict(0.2, x + 1e-9).bounded
    # alpha = b shifts x by 0.5; re-read the threshold at that corner
    xe = classify(make(b=0.7, alpha=0.7, beta=beta, p=1.0, q=q, dim=3), target).inequalities[3].rhs
    assert not verdict(0.7, xe).bounded     # only the strict alternative is live
    assert verdict(0.7, xe - 1e-9).bounded
    assert not verdict(0.7 + 1e-9, xe - 1e-9).bounded  # alpha > b kills both


@pytest.mark.parametrize("target,q", [("besov", 2.0), ("bloch", INF)])
@pytest.mark.parametrize("p", [1.0, 2.0, INF])
def test_source_condition_flip(target, q, p):
    """First inequality threshold in alpha: p(b+1)-1, b at p=1, b+1 at p=inf."""
    b = 0.7
    astar = b if p == 1.0 else (b + 1.0 if math.isinf(p) else p * (b + 1.0) - 1.0)
    low_c = -50.0  # keep the c-inequalities comfortably satisfied throughout
    at = classify(make(b=b, c=low_c, alpha=astar, p=p, q=q), target)
    inside = classify(make(b=b, c=low_c, alpha=astar - 1e-9, p=p, q=q), target)
    assert inside.bounded
    if p == 1.0:
        assert at.bounded  # alpha = b is allowed through the second alternative
        beyond = classify(make(b=b, c=low_c, alpha=astar + 1e-9, p=p, q=q), target)
        assert not beyond.bounded
    else:
        assert not at.bounded


# ---------------------------------------------------------- shift invariances


def test_reduce_to_unweighted_examples():
    par = make()
    assert reduce_to_unweighted(par) == par
    red = reduce_to_unweighted(make(b=1.0, c=1.0, alpha=2.0, beta=2.0))
    assert (red.b, red.c, red.alpha, red.beta) == (0.0, 0.0, 0.0, 0.0)
    assert red.p.raw == 2.0 and red.q.raw == 2.0
    red = reduce_to_unweighted(make(b=5.0, alpha=3.0, p=INF))
    assert red.b == 2.0
    # bounded-harmonic target: no target weight, c stays put
    red = reduce_to_unweighted(make(c=1.5, beta=2.0, q=INF), target="hinf")
    assert red.c == 1.5 and red.beta == 0.0


def dyadic(lo, hi):
    """Multiples of 1/64: the shift identities hold in real arithmetic, and on
    this grid the double-precision comparisons are exact too, so boundary hits
    cannot flip on representation noise."""
    return st.integers(round(lo * 64), round(hi * 64)).map(lambda k: k / 64.0)


@st.composite
def shiftable_pairs(draw):
    target = draw(st.sampled_from([Target.BESOV, Target.BLOCH, Target.HINF]))
    reals = dyadic(-3.0, 3.0)
    # dyadic q keeps the beta/q shift exact; continuous-q boundary hits are
    # measure zero and are exercised by the random-grid acceptance sweep
    q = draw(st.sampled_from([1.0, 2.0, 4.0])) if target is Target.BESOV else INF
    par = make(b=draw(reals), c=draw(reals), alpha=draw(reals), beta=draw(reals),
               p=draw(st.sampled_from(ALL_P)), q=q, dim=draw(st.sampled_from([2, 3])))
    return par, target


@settings(max_examples=400, deadline=None)
@given(shiftable_pairs())
def test_metamorphic_weight_shift_preserves_verdict(pair):
    par, target = pair
    red = reduce_to_unweighted(par, target)
    assert red.alpha == 0.0 and red.beta == 0.0
    assert classify(par, target).bounded == classify(red, target).bounded


@settings(max_examples=400, deadline=None)
@given(b=dyadic(-3, 3), c=dyadic(-3, 3), alpha=dyadic(-3, 3),
       beta=dyadic(-0.984375, 3), p=st.sampled_from(ALL_P),
       q=st.sampled_from([1.0, 2.0, 4.0]),  # dyadic q keeps beta/q exact
       dim=st.sampled_from([2, 3]))
def test_besov_verdict_composes_through_lebesgue(b, c, alpha, beta, p, q, dim):
    par = make(b=b, c=c, alpha=alpha, beta=beta, p=p, q=q, dim=dim)
    shifted = make(b=b, c=c - beta / q, alpha=alpha, beta=0.0, p=p, q=q, dim=dim)
    assert classify(par, "besov").bounded == classify(shifted, "lebesgue").bounded


@settings(max_examples=400, deadline=None)
@given(b=dyadic(-3, 3), c=dyadic(-3, 3), alpha=dyadic(-3, 3),
       beta=dyadic(-3, 3), p=st.sampled_from(ALL_P), dim=st.sampled_from([2, 3]))
def test_bloch_verdict_composes_through_weighted_sup(b, c, alpha, beta, p, dim):
    par = make(b=b, c=c, alpha=alpha, beta=beta, p=p, q=INF, dim=dim)
    shifted = make(b=b, c=c - beta + 1.0, alpha=alpha, beta=1.0, p=p, q=INF, dim=dim)
    assert classify(par, "bloch").bounded == classify(shifted, "wlinf").bounded


# ---------------------------------------------------------------- reporting


def test_verdict_serialization():
    v = classify(make(b=0.5, c=0.25, p=1.0), Target.BESOV)
    d = v.to_dict()
    assert set(d) == {"bounded", "theorem_part", "inequalities", "binding_slack", "notes"}
    assert d["theorem_part"] == v.part
    assert all(set(iq) == {"name", "lhs", "rel", "rhs", "ok"} for iq in d["inequalities"])
    text = json.dumps(d)
    assert json.loads(text)["bounded"] == v.bounded


def test_inequality_fields():
    iq = Inequality("c<=x", 1.0, "<=", 1.0)
    assert iq.ok and iq.slack == 0.0
    assert not Inequality("c<x", 1.0, "<", 1.0).ok
