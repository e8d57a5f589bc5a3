"""Probes: finiteness and norm-ratio cross-checks against verdicts, the
kernel floor search, and the curated boundary suite."""

import json
import math

import pytest

from bergbesov import operators
from bergbesov.classifier import OperatorParams, Target, classify
from bergbesov.operators import TestFunction as Fuv
from bergbesov.probe import (
    BOUNDARY_BAND,
    GROWTH_THRESHOLD,
    PLATEAU_BAND,
    ProbeReport,
    boundary_suite,
    default_ratio_family,
    finiteness_probe,
    kernel_floor_probe,
    ratio_probe,
)

INF = math.inf


def make(b=0.0, c=0.0, alpha=0.0, beta=0.0, p=2.0, q=2.0, dim=2):
    return OperatorParams(b=b, c=c, alpha=alpha, beta=beta, p=p, q=q, dim=dim)


# ------------------------------------------------------------- finiteness


def test_finiteness_inside_regime_plateaus():
    rep = finiteness_probe(make())
    ev = rep.evidence[0]
    assert ev.probe == "finiteness"
    assert ev.observed == "finite-plateau" and ev.agree
    assert ev.detail["u"] == -0.5 and ev.detail["v"] == 1.0
    assert ev.detail["analytic_finite"] and not ev.detail["exempt"]
    assert rep.verdict.bounded


def test_finiteness_on_dichotomy_edge_is_exempt():
    # u = -(1+alpha)/p = -1 makes b+u sit exactly on the marginal line, where
    # the cutoff ladder cannot decide; the probe declines to score it
    rep = finiteness_probe(make(alpha=1.0))
    ev = rep.evidence[0]
    assert ev.observed == "boundary-band" and ev.agree
    assert ev.detail["b_plus_u"] == -1.0
    assert not ev.detail["analytic_finite"]


def test_finiteness_divergence_matches_failed_first_condition():
    rep = finiteness_probe(make(alpha=1.5))
    ev = rep.evidence[0]
    assert ev.observed == "divergent-growth" and ev.agree
    assert not ev.detail["first_condition_strict"]
    assert ev.detail["b_plus_u"] == -1.25
    assert rep.refinement_ladder[-1][1] > rep.refinement_ladder[0][1]


def test_finiteness_sup_source_constant_image():
    # p = inf picks u = -alpha, so b = alpha integrates the plain weight and
    # the cumulative ladder climbs to the full normalized mass 1
    rep = finiteness_probe(make(b=0.7, c=-5.0, alpha=0.7, beta=0.5, p=INF, q=INF))
    ev = rep.evidence[0]
    assert ev.observed == "finite-plateau" and ev.agree
    assert ev.detail["u"] == -0.7 and ev.detail["v"] == 0.0
    assert ev.detail["b_plus_u"] == 0.0
    assert rep.refinement_ladder[-1][1] == pytest.approx(1.0, abs=1e-3)


# ------------------------------------------------------------- norm ratios


def test_ratio_bounded_tuple_plateaus_within_band():
    fam = [Fuv(u, 1.0) for u in (-0.1, -0.2, -0.3, -0.4)]
    rep = ratio_probe(make(), family=fam, target="besov")
    ev = rep.evidence[0]
    assert ev.observed == "plateau" and ev.agree
    assert ev.detail["ratios"] == pytest.approx(
        [0.9571719618214267, 0.9744166639307271, 0.9875752788505727, 0.9886307980949692],
        rel=1e-8,
    )
    assert ev.detail["plateau_spread"] < PLATEAU_BAND
    assert not ev.detail["c_blind"]
    assert rep.refinement_ladder == tuple(zip((-0.1, -0.2, -0.3, -0.4),
                                              ev.detail["ratios"]))


def test_ratio_c_only_failure_is_c_blind():
    # c past its threshold with the first condition healthy: radial images
    # are constants, so no radial family can witness this unboundedness
    rep = ratio_probe(make(c=0.2), target="besov")
    ev = rep.evidence[0]
    assert not rep.verdict.bounded
    assert ev.detail["c_blind"] and not ev.detail["predicted_growth"]
    assert ev.observed == "plateau" and ev.agree


def test_ratio_first_condition_failure_grows():
    rep = ratio_probe(make(c=-10.0, alpha=1.5), target="besov")
    ev = rep.evidence[0]
    assert not rep.verdict.inequalities[0].ok
    assert ev.detail["predicted_growth"] and not ev.detail["c_blind"]
    assert ev.observed == "growth" and ev.agree
    assert any(math.isinf(r) for r in ev.detail["ratios"])


def test_ratio_empty_family():
    rep = ratio_probe(make(), family=[], target="besov")
    assert rep.evidence == () and rep.refinement_ladder == ()
    assert rep.agree  # vacuous


def test_ratio_rejects_non_member():
    with pytest.raises(ValueError):
        ratio_probe(make(), family=[Fuv(-0.6, 1.0)], target="besov")
    with pytest.raises(ValueError):
        ratio_probe(make(), family=[Fuv(-2.0, 0.0)], target="besov")
    # the log factor keeps the u = -(1+alpha)/p boundary member in the space
    assert ratio_probe(make(), family=[Fuv(-0.5, 1.0)], target="besov").agree


def test_default_ratio_family_descends_toward_membership_edge():
    fam = default_ratio_family(make(alpha=0.5, p=2.0))
    base = -0.75
    assert [tf.u for tf in fam] == pytest.approx(
        [base + d for d in (0.4, 0.2, 0.1, 0.05, 0.025, 0.0125)])
    assert all(tf.v == 1.0 for tf in fam)
    assert all(tf.u > base for tf in fam)
    supfam = default_ratio_family(make(alpha=0.5, p=INF, q=INF))
    assert supfam[0].u == pytest.approx(-0.1)


# ------------------------------------------------------------ kernel floor


def test_kernel_floor_regression_values():
    assert kernel_floor_probe(0.0, 3) == 0.125
    assert kernel_floor_probe(-5.0, 2) == 0.5
    assert kernel_floor_probe(2.5, 2) == 0.0625


def test_kernel_floor_positive_across_alpha():
    for alpha, dim in ((-2.5, 2), (1.0, 3), (4.0, 2)):
        assert kernel_floor_probe(alpha, dim) > 0.0


# ------------------------------------------------------------ curated suite


def test_boundary_suite_shape_and_split():
    suite = boundary_suite()
    assert len(suite) == 60
    verdicts = [classify(par, t) for par, t in suite]
    assert sum(v.bounded for v in verdicts) == 26
    targets = {t for _, t in suite}
    assert targets == {Target.BESOV, Target.BLOCH, Target.HINF}
    parts = {v.part for v in verdicts}
    for roman in ("(i)", "(ii)", "(iii)", "(iv)"):
        assert any(p == f"besov{roman}" for p in parts)
    for tag in ("bloch", "hinf"):
        for roman in ("(i)", "(ii)", "(iii)"):
            assert any(p == f"{tag}{roman}" for p in parts)


def test_finiteness_probe_agrees_across_suite():
    exempt = 0
    for par, target in boundary_suite():
        rep = finiteness_probe(par, target)
        assert rep.agree, (par, target)
        exempt += rep.evidence[0].detail["exempt"]
    assert exempt == 0


@pytest.mark.parametrize("target, beta, q", [
    (Target.BESOV, 0.5, 3.0), (Target.BESOV, -2.0, 1.5), (Target.LEBESGUE, 0.5, 2.0),
    (Target.LEBESGUE, -1.5, 2.0), (Target.BLOCH, 0.7, INF), (Target.HINF, 0.0, INF),
    (Target.WLINF, 0.3, INF), (Target.WLINF, -0.5, INF),
])
def test_ratio_probe_reads_its_target_norms_from_the_operators(target, beta, q):
    # the probe forms its target norms on the radial route, without the
    # operators; each ratio is still the operators' besov_norm (at t = 0
    # for a Lebesgue target) or bloch_norm over the source norm, by repr,
    # and inf where the target weight admits no nonzero image
    params = make(b=1.0, c=0.5, alpha=0.3, beta=beta, p=2.0, q=q, dim=3)
    family = default_ratio_family(params)
    ratios = ratio_probe(params, target=target).evidence[0].detail["ratios"]
    assert len(ratios) == len(family) == 6
    obstructed = len(classify(params, target).inequalities) == 1
    for ratio, tf in zip(ratios, family):
        g = (1.0, 0.5, tf)
        if target is Target.BESOV:
            res = operators.besov_norm(g, q, beta, dim=3)
        elif target is Target.LEBESGUE and beta > -1.0:
            res = operators.besov_norm(g, q, beta, dim=3, t=0)
        else:
            res = operators.bloch_norm(g, beta, dim=3)
        src = operators.test_function_lp_norm(tf, 2.0, 0.3, 3)
        assert res.s == 0.5 and not res.divergent and 0.0 < res.value < INF
        assert repr(ratio) == repr(INF if obstructed else res.value / src)


def test_ratio_probe_agrees_across_suite():
    c_blind = 0
    for par, target in boundary_suite():
        rep = ratio_probe(par, target=target)
        assert rep.agree, (par, target)
        c_blind += rep.evidence[0].detail["c_blind"]
    # the just-past-the-c-boundary tuples, and nothing else, are c-blind
    assert c_blind == 14


# --------------------------------------------------------------- reporting


def test_probe_report_serializes():
    rep = finiteness_probe(make())
    d = rep.to_dict()
    assert set(d) == {"params", "verdict", "evidence", "refinement_ladder"}
    assert isinstance(rep, ProbeReport)
    text = json.dumps(d)
    back = json.loads(text)
    assert back["evidence"][0]["observed"] == "finite-plateau"
    assert back["verdict"]["bounded"] is True


def test_probe_constants_sane():
    assert GROWTH_THRESHOLD == 10.0
    assert PLATEAU_BAND == 0.10
    assert 0.0 < BOUNDARY_BAND < 0.1
