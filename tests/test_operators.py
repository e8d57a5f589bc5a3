"""Operator layer: the weighted kernel transform, projection, test-function
family, membership ladders, and norms of transform images."""

import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import beta as sbeta
from scipy.special import eval_chebyt, eval_gegenbauer

from bergbesov import operators, quadrature
from bergbesov.classifier import OperatorParams
from bergbesov.expansion import (HarmonicExpansion, apply_D, evaluate, square_integral, to_json,
                                 transform)
from bergbesov.kernel import (
    MAX_DEGREE,
    KernelSpec,
    gamma_coef,
    gamma_coefs,
    kernel_eval_batch,
    truncation_degree,
    zonal_harmonic,
)
from bergbesov.operators import (
    NormResult,
    TestFunction as Fuv,
    TransformReport,
    _image_polar,
    apply_T,
    apply_T_derivative,
    apply_T_report,
    as_ball_function,
    besov_norm,
    besov_smoothing_order,
    bloch_norm,
    bloch_smoothing_order,
    lp_membership_analytic,
    projection_Q,
    test_function_eval as fuv_eval,
    test_function_lp_norm as fuv_lp_norm,
    transform_finite_analytic,
)
from bergbesov.probe import ratio_probe
from bergbesov.quadrature import BallQuadrature, integrate_ball, normalization_V, radial_power_log_ladder

RNG = np.random.default_rng(61)
SMALL_RULE_2 = BallQuadrature(dim=2, radial_nodes=64, sphere_nodes=64)
SMALL_RULE_3 = BallQuadrature(dim=3, radial_nodes=64, sphere_nodes=64)


def _ball_point(dim, radius):
    v = RNG.normal(size=dim)
    return v * (radius / np.linalg.norm(v))


# ---------------------------------------------------------------------------
# test functions


def test_function_frozen_values():
    assert fuv_eval(Fuv(0.0, 0.0), np.array([0.3, -0.1])) == 1.0
    assert fuv_eval(Fuv(2.5, -1.0), np.zeros(3)) == 1.0
    x = np.array([math.sqrt(1.0 - math.exp(-1.0)), 0.0])
    got = fuv_eval(Fuv(1.0, 1.0), x)
    assert got == pytest.approx(math.exp(-1.0) / 2.0, rel=1e-12)


def test_function_batch_and_domain():
    tf = Fuv(-0.5, 1.0)
    pts = np.vstack([np.zeros(2), [0.5, 0.0], [0.0, -0.9]])
    vals = fuv_eval(tf, pts)
    assert vals.shape == (3,)
    assert vals[0] == 1.0
    with pytest.raises(ValueError):
        fuv_eval(tf, np.array([1.0, 0.0]))


def test_as_ball_function_coercions():
    fvec, tf = as_ball_function("const1", 2)
    assert tf == Fuv(0.0, 0.0)
    fvec, tf = as_ball_function("fuv:-0.5,1", 3)
    assert tf == Fuv(-0.5, 1.0)
    exp = HarmonicExpansion.from_terms(2, [(1, np.array([0.5, 0.0]), 2.0)])
    fvec, tf = as_ball_function(exp, 2)
    assert tf is None
    pts = np.array([[0.2, 0.1]])
    assert fvec(pts)[0] == pytest.approx(2.0 * zonal_harmonic(1, pts[0], [0.5, 0.0], 2))
    from bergbesov.expansion import to_json

    fvec, tf = as_ball_function(to_json(exp), 2)
    assert tf is None
    with pytest.raises(ValueError):
        as_ball_function(exp, 3)
    with pytest.raises(ValueError):
        as_ball_function("huh", 2)
    with pytest.raises(ValueError):
        as_ball_function("fuv:1", 2)
    with pytest.raises(TypeError):
        as_ball_function(42, 2)


def test_as_ball_function_shape_guard():
    fvec, _ = as_ball_function(lambda pts: np.ones((len(pts), 2)), 2)
    with pytest.raises(ValueError):
        fvec(np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# the transform


def test_apply_T_constant_is_one():
    for dim, rule in ((2, SMALL_RULE_2), (3, SMALL_RULE_3)):
        for c in (-0.7, 0.0, 1.3):
            got = apply_T(0.0, c, "const1", np.zeros(dim), rule=rule)
            assert got == pytest.approx(1.0, rel=1e-10)


def test_apply_T_radial_gives_normalization_constant():
    for dim in (2, 3):
        for b, u in [(0.0, 0.5), (1.2, -0.4), (-0.3, 0.0)]:
            got = apply_T(b, 0.0, Fuv(u, 0.0), np.zeros(dim))
            assert got == pytest.approx(normalization_V(b + u, dim), rel=1e-9)


def test_apply_T_marginal_log_value():
    # b+u = -1, v = 2, n = 2: the w-space integrand is exactly (1+w)^-2
    got = apply_T(0.0, 5.0, Fuv(-1.0, 2.0), np.zeros(2))
    assert got == pytest.approx(1.0, rel=1e-10)


def test_apply_T_divergent_radial_is_inf():
    # the image of a radial input is the same constant at every x, so a
    # divergent one is inf everywhere, not only at the origin
    for x in (np.zeros(2), np.array([0.3, 0.2])):
        x3 = np.append(x, 0.1 if x.any() else 0.0)
        assert apply_T(0.0, 0.0, Fuv(-1.0, 1.0), x) == math.inf
        assert apply_T(0.0, 0.0, Fuv(-2.0, 0.0), x3) == math.inf
        assert apply_T(-1.5, 0.0, "const1", x) == math.inf
        assert apply_T(0.0, 0.0, Fuv(-2.0, 0.0), x) == math.inf
        assert projection_Q(0.0, Fuv(-1.0, 1.0), x) == math.inf
        assert projection_Q(0.5, "fuv:-1.5,0.5", x3) == math.inf
    with pytest.raises(ValueError):
        apply_T(0.0, 0.0, "const1", np.array([math.nan, 0.0]))


def test_apply_T_radial_image_is_the_same_constant_off_origin():
    # a TestFunction takes the 1-D route at every x, bit for bit; the same
    # function as a plain callable goes through the kernel quadrature, whose
    # radial nodes cannot absorb its (1-|y|^2)^{-1/2} factor, so it gets 128
    tf = Fuv(-0.5, 1.0)
    x = np.array([0.3, 0.2])
    const = apply_T(0.0, 0.0, tf, np.zeros(2))
    assert apply_T(0.0, 0.0, tf, x, rule=SMALL_RULE_2) == const
    assert apply_T(0.0, 3.0, tf, x) == const
    rule = BallQuadrature(dim=2, radial_nodes=128, sphere_nodes=64)
    wrapped = apply_T(0.0, 0.0, lambda pts: fuv_eval(tf, pts), x, rule=rule)
    assert wrapped == pytest.approx(const, rel=1e-3)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_apply_T_at_origin_is_the_ball_integral(dim):
    # R_c(0, y) = 1, so the one-point evaluator at x = 0 is the plain
    # weighted integral of f over the same nodes
    f = lambda pts: np.cos(pts[:, 0]) + pts[:, -1] ** 2 - 0.3 * pts[:, 1]
    base = BallQuadrature(dim, radial_nodes=24, sphere_nodes=32)
    for b in (0.0, 0.5, -1.5):
        # the evaluator folds b > -1 into the radial nodes; below -1 it
        # applies the weight at the nodes, as integrate_ball does
        want = integrate_ball(f, b, base)
        assert apply_T(b, 1.3, f, np.zeros(dim), rule=base) == pytest.approx(want, rel=1e-12)


def _image_at_point(f, x, spec, rule):
    """_image_polar on the 1x1 grid (|x|, x/|x|), b = 0."""
    r = float(np.linalg.norm(x))
    return _image_polar(0.0, f, [r], (x / r)[None, :], spec, rule)[0, 0]


def test_image_polar_caps_degree_at_sphere_exactness(monkeypatch):
    spec = KernelSpec(alpha=0.3, dim=2)
    x = _ball_point(2, 0.6)
    f = lambda pts: np.exp(pts[:, 0]) + pts[:, 1]
    # four circle nodes integrate degrees up to E = 3 exactly, far below
    # the certified degree; 512 nodes reach past it
    coarse = BallQuadrature(dim=2, radial_nodes=16, sphere_nodes=4)
    fine = BallQuadrature(dim=2, radial_nodes=16, sphere_nodes=512)
    cap = coarse.sphere_exactness()
    certified = truncation_degree(spec, 0.6, float(coarse.radial_rule()[0].max()))
    assert cap == 3 and cap < certified < fine.sphere_exactness()

    capped = _image_at_point(f, x, spec, coarse)
    gam = gamma_coefs(cap, spec.alpha, 2)

    def partial_sum(pts):
        series = [sum(gam[k] * zonal_harmonic(k, x, y, 2) for k in range(cap + 1)) for y in pts]
        return np.asarray(series) * f(pts)

    assert capped == pytest.approx(integrate_ball(partial_sum, 0.0, coarse), rel=1e-12)
    fine_capped = _image_at_point(f, x, spec, fine)

    # without the cap the evaluator sums the full certified series, which
    # on four circle nodes aliases the dropped degrees back in
    monkeypatch.setattr(BallQuadrature, "sphere_exactness", lambda self: MAX_DEGREE)
    uncapped = _image_at_point(f, x, spec, coarse)
    full = integrate_ball(lambda pts: kernel_eval_batch(spec, x, pts) * f(pts), 0.0, coarse)
    assert uncapped == pytest.approx(full, rel=1e-12)
    assert abs(capped - uncapped) > 10.0 * spec.tol
    # a cap above the certified degree is inert
    assert fine_capped == _image_at_point(f, x, spec, fine)


def test_apply_T_single_zonal_term_closed_form():
    # T maps c_k Z_k(., y0) to gamma_k(c) (n/2) B(n/2+k, b+1) Z_k(x, y0)
    for (dim, k, b, c) in [(2, 0, 0.4, -0.7), (2, 2, 0.4, 1.3), (3, 1, 0.0, -0.7)]:
        y0 = _ball_point(dim, 0.8)
        x = _ball_point(dim, 0.5)
        f = HarmonicExpansion.from_terms(dim, [(k, y0, 1.0)])
        rule = SMALL_RULE_2 if dim == 2 else SMALL_RULE_3
        got = apply_T(b, c, f, x, rule=rule)
        want = gamma_coef(k, c, dim) * (dim / 2) * sbeta(dim / 2 + k, b + 1) * zonal_harmonic(
            k, x, y0, dim
        )
        assert got == pytest.approx(want, rel=1e-13, abs=1e-15)


def _zonal_ref(k, pts, a, dim):
    """Z_k(x, a) on the rows x of pts, from scipy's Chebyshev (dim 2) and
    Gegenbauer polynomials."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if k == 0:
        return np.ones(len(pts))
    prod = np.linalg.norm(pts, axis=1) * np.linalg.norm(a)
    u = np.clip((pts @ a) / np.where(prod > 0.0, prod, 1.0), -1.0, 1.0)
    if dim == 2:
        angular = 2.0 * eval_chebyt(k, u)
    else:
        angular = (dim + 2.0 * k - 2.0) / (dim - 2.0) * eval_gegenbauer(k, 0.5 * (dim - 2), u)
    return prod**k * angular


def _multi_term_expansion(dim, degrees):
    terms = [(k, _ball_point(dim, RNG.uniform(0.3, 1.0)), float(RNG.uniform(0.5, 2.0) * RNG.choice((-1, 1))))
             for k in degrees]
    return terms, HarmonicExpansion.from_terms(dim, terms)


@pytest.mark.parametrize("dim", range(2, 9))
def test_projection_reproduces_multi_term_expansions(dim):
    # Q_alpha's multiplier on degree k is gamma_k(alpha) R_k(alpha) = 1 up
    # to a few ulps, so Q reproduces an expansion to rel 1e-13 of the sum of
    # its terms' magnitudes (the scale of the value's own rounding)
    for alpha in (0.0, 1.0, 2.5):
        terms, exp = _multi_term_expansion(dim, (0, 1, 2, 3, 5, 8, 8))
        for r in (0.0, 0.3, 0.7, 0.99, 0.999):
            x = _ball_point(dim, r)
            want = evaluate(exp, x)
            size = sum(abs(cf * _zonal_ref(k, x, a, dim)[0]) for k, a, cf in terms)
            for f in (exp, to_json(exp)):
                got = projection_Q(alpha, f, x)
                assert abs(got - want) <= 1e-13 * size
                if abs(want) >= 0.01 * size:  # no cancellation among the terms
                    assert got == pytest.approx(want, rel=1e-13)


def test_projection_dim4_two_term_expansion_is_exact():
    # quadrature took 116 ms here and was 5.3e-4 off relative
    exp = HarmonicExpansion.from_terms(4, [(2, [0.3, -0.5, 0.2, 0.4], 1.5), (3, [0.0, 0.6, 0.6, 0.1], -0.8)])
    x = 0.7 * np.array([0.5, 0.5, 0.5, 0.5])
    assert projection_Q(0.0, exp, x) == pytest.approx(evaluate(exp, x), rel=1e-13)


@pytest.mark.parametrize("b", [-1.0, -1.5, -3.0])
def test_expansion_transforms_diverge_for_b_at_most_minus_one(b):
    x = np.array([0.3, 0.1])
    z1 = HarmonicExpansion.from_terms(2, [(1, [0.6, 0.3], 1.0)])
    for f in (z1, to_json(z1)):
        assert apply_T(b, 0.25, f, x) == math.inf
        assert apply_T_derivative(b, 0.25, 1.0, f, x) == math.inf
        assert apply_T_report(b, 0.25, f, x) == TransformReport(math.inf, True, (), "spectral")
        for q in (2.0, 3.0):
            assert besov_norm((b, 0.25, f), q, -2.0, dim=2) == NormResult(math.inf, 0.25, 1, True)
        assert bloch_norm((b, 0.25, f), 0.5, dim=2) == NormResult(math.inf, 0.25, 0, True)
    # zero terms are a zero coefficient, or degree k >= 1 anchored at 0: the
    # image of such terms is 0, and beside a nonzero term they change nothing
    zero = HarmonicExpansion.from_terms(3, [(0, [0.2, 0.1, 0.0], 0.0), (2, [0.0, 0.0, 0.0], 3.0)])
    x3 = np.array([0.3, 0.1, -0.4])
    assert apply_T(b, 0.25, zero, x3) == 0.0
    assert apply_T_report(b, 0.25, zero, x3) == TransformReport(0.0, False, (), "spectral")
    assert besov_norm((b, 0.25, zero), 2.0, 0.0) == NormResult(0.0, 0.25, 0, False)
    assert bloch_norm((b, 0.25, zero), 0.5) == NormResult(0.0, 0.25, 0, False)
    mixed = HarmonicExpansion.from_terms(3, [*zero.terms(), (1, [0.1, 0.5, 0.2], 1.0)])
    assert apply_T_report(b, 0.25, mixed, x3).divergent
    assert apply_T(0.5, 0.25, mixed, x3) == apply_T(0.5, 0.25, HarmonicExpansion.from_terms(
        3, [(1, [0.1, 0.5, 0.2], 1.0)]), x3)
    # just above -1 the transform is finite, however large
    assert math.isfinite(apply_T(-1.0 + 1e-9, 0.25, z1, x))


@pytest.mark.parametrize("dim", range(2, 9))
def test_besov_q2_norm_of_an_expansion_equals_a_fine_quadrature_of_its_image(dim):
    # the finite sum against the product rule on the image built from scipy's
    # beta function and Gegenbauer polynomials: the rule is exact for the
    # squared image when 2 max degree <= sphere exactness.  In dims 2-5 the
    # top degree is past what the norm's own outer grid integrates exactly
    rule = BallQuadrature(dim)
    top = min(12, rule.sphere_exactness() // 2)
    terms, exp = _multi_term_expansion(dim, [min(k, top) for k in (0, 1, 2, 2, 3, top)])
    for b, c, beta in [(0.5, 0.25, 0.0), (-0.4, 1.3, -2.0), (2.0, -0.5 * dim - 1.5, 0.7),
                       (0.0, 0.0, -1.0)]:
        t = besov_smoothing_order(beta, 2.0)
        w = beta + 2.0 * t

        def image(pts):
            return sum(cf * gamma_coef(k, c + t, dim) * (dim / 2) * sbeta(dim / 2 + k, b + 1.0)
                       * _zonal_ref(k, pts, a, dim) for k, a, cf in terms)

        raw = integrate_ball(lambda pts: image(pts) ** 2, w, rule)
        want = math.sqrt(raw / _ball_V(beta, dim))
        res = besov_norm((b, c, exp), 2.0, beta)
        assert res.t == t and not res.divergent
        assert res.value == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_bloch_norm_of_a_zonal_term_is_below_its_exact_sup(dim):
    # the sphere sup of |Z_k(r zeta, a)| is h_k (r |a|)^k, at zeta = a/|a|,
    # and r^k (1-r^2)^w peaks at r^2 = k/(k+2w).  The grid estimate falls
    # short where no outer direction is a/|a| (by up to 15 % on the coarse
    # dim-3 and dim-4 grids), but it never exceeds the sup, as the
    # quadrature of the image did
    a = 0.67 * np.eye(dim)[0]
    for k, b, c, beta in [(1, 0.5, 0.25, 0.5), (3, 0.5, 0.25, 0.5), (2, -0.3, 1.5, -1.2)]:
        t = bloch_smoothing_order(beta)
        w = beta + t
        mult = gamma_coef(k, c + t, dim) * (dim / 2) * sbeta(dim / 2 + k, b + 1.0)
        r2 = k / (k + 2.0 * w)
        sup = mult * zonal_harmonic(k, a / 0.67, a, dim) * r2 ** (0.5 * k) * (1.0 - r2) ** w
        res = bloch_norm((b, c, HarmonicExpansion.from_terms(dim, [(k, a, 1.0)])), beta)
        assert res.t == t and not res.divergent
        assert 0.8 * sup <= res.value <= sup * (1.0 + 1e-12)


def test_apply_T_point_validation():
    with pytest.raises(ValueError):
        apply_T(0.0, 0.0, "const1", np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        apply_T(0.0, 0.0, "const1", np.array([0.5]))
    with pytest.raises(ValueError):
        apply_T(0.0, 0.0, "const1", np.zeros(3), rule=SMALL_RULE_2)


def test_apply_T_report_radial_dichotomy():
    rep = apply_T_report(0.0, 0.0, Fuv(-1.0, 1.0), np.zeros(2))
    assert rep.divergent and rep.value == math.inf
    assert rep.method == "radial-ladder"
    assert len(rep.refinements) >= 1
    rep = apply_T_report(0.0, 0.0, Fuv(-1.0, 2.0), np.zeros(2))
    assert not rep.divergent and rep.value == pytest.approx(1.0, rel=1e-10)
    d = rep.to_dict()
    assert d["method"] == "radial-ladder" and d["divergent"] is False


def test_apply_T_report_dichotomy_grid():
    for b_plus_u in (-0.8, -1.2):
        for v in (0.0, 2.0):
            rep = apply_T_report(0.0, 0.0, Fuv(b_plus_u, v), np.zeros(2))
            assert rep.divergent == (b_plus_u <= -1.0)
    assert apply_T_report(0.0, 0.0, Fuv(-1.0, 0.5), np.zeros(2)).divergent
    assert apply_T_report(0.0, 0.0, Fuv(-1.0, 1.0), np.zeros(3)).divergent
    assert not apply_T_report(0.0, 0.0, Fuv(-1.0, 1.5), np.zeros(3)).divergent


def test_apply_T_report_node_doubling_generic():
    rule = BallQuadrature(dim=2, radial_nodes=16, sphere_nodes=8)

    def blowup(pts):
        return (1.0 - np.sum(pts * pts, axis=1)) ** -2.0

    rep = apply_T_report(0.0, 0.0, blowup, np.zeros(2), rule=rule)
    assert rep.method == "node-doubling"
    assert rep.divergent
    nodes = [n for n, _ in rep.refinements]
    assert nodes == [16, 32, 64]

    def benign(pts):
        return np.sum(pts * pts, axis=1)

    rep = apply_T_report(0.4, 0.0, benign, np.zeros(2), rule=rule)
    assert not rep.divergent
    want = (2 / 2) * sbeta(2 / 2 + 1, 0.4 + 1)
    assert rep.value == pytest.approx(want, rel=1e-9)


def test_apply_T_derivative_is_shift():
    x = np.array([0.25, -0.1])
    f = Fuv(0.3, 0.0)
    a = apply_T_derivative(0.2, -0.5, 0.0, f, x, rule=SMALL_RULE_2)
    b = apply_T(0.2, -0.5, f, x, rule=SMALL_RULE_2)
    assert a == b
    assert apply_T_derivative(0.0, 0.3, 1.1, "const1", np.zeros(2)) == pytest.approx(
        1.0, rel=1e-10
    )


def test_apply_T_derivative_matches_expansion_route():
    # surrogate: the transform of a single zonal term is known in closed form,
    # so applying the degree-shift operator to it must match the (b, c+t) call
    dim, k, b, c, t = 2, 2, 0.4, -0.2, 0.9
    y0 = _ball_point(dim, 0.75)
    radial_factor = (dim / 2) * sbeta(dim / 2 + k, b + 1)
    image = HarmonicExpansion.from_terms(
        dim, [(k, y0, gamma_coef(k, c, dim) * radial_factor)]
    )
    shifted = apply_D(c, t, image)
    for _ in range(10):
        x = _ball_point(dim, RNG.uniform(0.1, 0.6))
        direct = apply_T_derivative(b, c, t, HarmonicExpansion.from_terms(dim, [(k, y0, 1.0)]),
                                    x, rule=SMALL_RULE_2)
        via_expansion = evaluate(shifted, x)
        assert direct == pytest.approx(via_expansion, rel=1e-6, abs=1e-10)


# ---------------------------------------------------------------------------
# projection


def test_projection_constant():
    for alpha in (0.0, 1.0):
        for x in (np.zeros(2), np.array([0.4, 0.1])):
            got = projection_Q(alpha, "const1", x, rule=SMALL_RULE_2)
            assert got == pytest.approx(1.0, rel=1e-6)


def test_projection_reproduces_degree_one_harmonic():
    e1 = np.array([1.0, 0.0])
    f = HarmonicExpansion.from_terms(2, [(1, e1, 1.0)])
    for _ in range(5):
        x = _ball_point(2, RNG.uniform(0.1, 0.7))
        got = projection_Q(0.0, f, x, rule=SMALL_RULE_2)
        assert got == pytest.approx(evaluate(f, x), rel=1e-6, abs=1e-8)


def test_projection_of_square_splits_into_harmonic_plus_constant():
    # y1^2 = (y1^2 - |y|^2/2) + |y|^2/2 in the plane: harmonic part reproduced,
    # radial part projects to (n/2)/(n/2+alpha+1)/n = 1/4 at alpha=0
    def f(pts):
        return pts[:, 0] ** 2

    for _ in range(3):
        x = _ball_point(2, RNG.uniform(0.1, 0.6))
        got = projection_Q(0.0, f, x, rule=SMALL_RULE_2)
        want = x[0] ** 2 - float(x @ x) / 2.0 + 0.25
        assert got == pytest.approx(want, rel=1e-6, abs=1e-8)


def test_projection_output_is_harmonic():
    def f(pts):
        return pts[:, 0] ** 2

    h = 1e-2
    x = np.array([0.2, 0.15])
    vals = {}
    for dx in (-h, 0.0, h):
        for dy in (-h, 0.0, h):
            if (dx == 0.0) != (dy == 0.0) or (dx == 0.0 and dy == 0.0):
                vals[(dx, dy)] = projection_Q(0.0, f, x + [dx, dy], rule=SMALL_RULE_2)
    lap = (vals[(h, 0.0)] + vals[(-h, 0.0)] + vals[(0.0, h)] + vals[(0.0, -h)]
           - 4.0 * vals[(0.0, 0.0)]) / h**2
    assert abs(lap) < 1e-3


def test_projection_validation():
    with pytest.raises(ValueError):
        projection_Q(-1.0, "const1", np.zeros(2))


# ---------------------------------------------------------------------------
# membership


def test_transform_finite_analytic_dichotomy():
    assert transform_finite_analytic(0.0, Fuv(-0.5, 0.0))
    assert transform_finite_analytic(0.0, Fuv(-1.0, 1.5))
    assert not transform_finite_analytic(0.0, Fuv(-1.0, 1.0))
    assert not transform_finite_analytic(0.0, Fuv(-1.5, 8.0))
    assert not transform_finite_analytic(-1.0, Fuv(0.0, 0.5))


def test_lp_membership_straddles_boundary():
    for p in (1.0, 2.0, 3.5):
        for alpha in (0.0, 1.3):
            for s, expect in ((-0.9, True), (-1.1, False)):
                u = (s - alpha) / p
                tf = Fuv(u, 0.3)
                assert radial_power_log_ladder(alpha + p * tf.u, p * tf.v, dim=2).finite == expect
                assert lp_membership_analytic(tf, p, alpha) == expect


def test_lp_membership_marginal_secondary_condition():
    # alpha + p u = -1 exactly: the analytic call resolves by p v > 1
    p, alpha = 2.0, 0.0
    u = -0.5
    assert lp_membership_analytic(Fuv(u, 1.0), p, alpha)  # pv = 2
    assert not lp_membership_analytic(Fuv(u, 0.25), p, alpha)  # pv = 0.5


def _sup_norm_finite(tf, alpha):
    return math.isfinite(fuv_lp_norm(tf, math.inf, alpha, 2))


def test_sup_membership_straddles_boundary():
    for alpha in (0.0, 2.0):
        assert _sup_norm_finite(Fuv(0.05 - alpha, 0.5), alpha)
        assert not _sup_norm_finite(Fuv(-0.05 - alpha, 0.5), alpha)
    # u = -alpha marginal: decided by the sign of v
    assert lp_membership_analytic(Fuv(-1.0, 0.0), math.inf, 1.0)
    assert lp_membership_analytic(Fuv(-1.0, 0.5), math.inf, 1.0)
    assert not lp_membership_analytic(Fuv(-1.0, -0.5), math.inf, 1.0)
    assert not _sup_norm_finite(Fuv(-1.0, -2.0), 1.0)
    assert _sup_norm_finite(Fuv(-1.0, 0.5), 1.0)


def test_sup_membership_needs_no_representable_sup():
    # the sup of f_{1,-200} is about e^860.7, past the largest double: the
    # verdict is exact and the norm reads inf, with no OverflowError
    assert lp_membership_analytic(Fuv(1.0, -200.0), math.inf, 0.0)
    assert lp_membership_analytic(Fuv(1e-50, -7.0), math.inf, 0.0)
    assert fuv_lp_norm(Fuv(1.0, -200.0), math.inf, 0.0, 2) == math.inf
    with pytest.raises(ValueError, match="finite"):
        lp_membership_analytic(Fuv(1.0, -2.0), math.inf, math.nan)
    # an infinite weight or order is refused, not read as membership
    with pytest.raises(ValueError, match="alpha must be finite, got inf"):
        lp_membership_analytic(Fuv(1.0, -2.0), 2.0, math.inf)
    with pytest.raises(ValueError, match="b must be finite, got inf"):
        transform_finite_analytic(math.inf, Fuv(1.0, -2.0))


def test_test_function_lp_norm_values():
    # exact 1: p u = -1 against alpha = 0 with p v = 2 makes the w-integrand (1+w)^-2
    got = fuv_lp_norm(Fuv(-0.5, 1.0), 2.0, 0.0, 2)
    assert got == pytest.approx(1.0, rel=1e-9)
    assert fuv_lp_norm(Fuv(-1.5, 0.0), 2.0, 0.0, 2) == math.inf
    assert fuv_lp_norm(Fuv(-0.3, 0.0), math.inf, 0.3, 2) == pytest.approx(
        1.0, rel=1e-9
    )
    # constant function: norm 1 in every normalized space
    assert fuv_lp_norm(Fuv(0.0, 0.0), 3.0, 0.7, 3) == pytest.approx(
        1.0, rel=1e-9
    )
    # alpha + p u = -0.99 is just inside the space: the w-integrand is
    # (1+w)^3 e^{-w/100}, whose integral is 606 030 100 for the decimal u
    # (mpmath, 30 digits, at the binary u = -0.99)
    assert fuv_lp_norm(Fuv(-0.99, -3.0), 1.0, 0.0, 2) == pytest.approx(
        606030099.99999785, rel=1e-12
    )


@pytest.mark.parametrize("p", [2.0, math.inf])
@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_test_function_lp_norm_rejects_a_non_finite_weight(p, alpha):
    with pytest.raises(ValueError, match="alpha must be finite"):
        fuv_lp_norm(Fuv(0.3, -2.0), p, alpha, 2)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_image_norms_reject_a_non_finite_weight(beta):
    # a NaN weight read as a divergent Bloch norm, and an infinite one
    # failed inside the Gauss-Jacobi rule
    for f in ("const1", HarmonicExpansion.from_terms(2, [(1, [0.5, 0.0], 1.0)]),
              lambda pts: pts[:, 0]):
        with pytest.raises(ValueError, match=f"beta must be finite, got {beta}"):
            besov_norm((0.5, 0.25, f), 3.0, beta, dim=2)
        with pytest.raises(ValueError, match=f"beta must be finite, got {beta}"):
            bloch_norm((0.5, 0.25, f), beta, dim=2)


@pytest.mark.parametrize("dim", [2.5, 1, 0, math.inf])
def test_norms_refuse_a_dimension_that_is_not_an_integer_at_least_2(dim):
    # besov_norm and bloch_norm took int(dim), so 2.5 ran in dim 2, and the
    # radial source norm ran in any dim, 0 included
    message = f"dim must be an integer >= 2, got {dim}"
    for f in ("const1", "fuv:0.3,1", Fuv(0.3, 1.0), lambda pts: pts[:, 0]):
        with pytest.raises(ValueError, match=message):
            besov_norm((0.5, 0.25, f), 2.0, 0.0, dim=dim)
        with pytest.raises(ValueError, match=message):
            bloch_norm((0.5, 0.25, f), 1.0, dim=dim)
    for p in (2.0, math.inf):
        with pytest.raises(ValueError, match=message):
            fuv_lp_norm(Fuv(0.3, -2.0), p, 0.0, dim)


@pytest.mark.parametrize("f", [Fuv(0.3, 1.0), HarmonicExpansion.from_terms(2, [(1, [0.5, 0.0], 1.0)])],
                         ids=["radial", "expansion"])
@pytest.mark.parametrize("b, c", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0),
                                  (0.0, -math.inf)])
def test_transforms_reject_a_non_finite_order(f, b, c):
    x = np.array([0.1, 0.0])
    name = "b" if not math.isfinite(b) else "c"
    calls = [lambda: apply_T(b, c, f, x), lambda: apply_T_report(b, c, f, x),
             lambda: besov_norm((b, c, f), 2.0, 0.0, dim=2),
             lambda: bloch_norm((b, c, f), 1.0, dim=2)]
    for call in calls:
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            call()


def test_projection_dim4_degree_two_is_exact():
    # x1 x2 is harmonic, so Q reproduces it; the dim-4 sphere rule is exact
    # to degree 23, and a Monte Carlo sphere average missed by 9.8e-3 here
    x = 0.5 * np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2.0)
    got = projection_Q(0.0, lambda pts: pts[:, 0] * pts[:, 1], x)
    assert abs(got - 0.125) < 1e-6


# ---------------------------------------------------------------------------
# norms of transform images


def test_smoothing_orders():
    assert besov_smoothing_order(0.0, 2.0) == 0
    assert besov_smoothing_order(-3.0, 2.0) == 2
    assert besov_smoothing_order(-1.0, 1.0) == 1
    assert bloch_smoothing_order(1.0) == 0
    assert bloch_smoothing_order(0.0) == 1
    assert bloch_smoothing_order(-3.0) == 4


def test_besov_norm_constant_image():
    res = besov_norm((0.0, 0.0, "const1"), 2.0, 0.0, dim=2)
    assert isinstance(res, NormResult)
    assert res.t == 0 and res.s == 0.0 and not res.divergent
    assert res.value == pytest.approx(1.0, rel=1e-10)


def test_besov_norm_t_selection_and_override():
    res = besov_norm((0.0, 0.0, "const1"), 2.0, -3.0, dim=2)
    assert res.t == 2 and not res.divergent
    forced = besov_norm((0.0, 0.0, "const1"), 2.0, 0.0, dim=2, t=1)
    assert forced.t == 1
    # equivalent-norm spot check: different value, same finiteness
    assert forced.value == pytest.approx(math.sqrt(normalization_V(2.0, 2)), rel=1e-10)
    assert forced.value != pytest.approx(1.0, rel=1e-3)
    with pytest.raises(ValueError):
        besov_norm((0.0, 0.0, "const1"), 2.0, -3.0, dim=2, t=1)
    with pytest.raises(ValueError):
        besov_norm((0.0, 0.0, "const1"), math.inf, 0.0, dim=2)


def test_besov_norm_divergent_input():
    res = besov_norm((0.0, 0.0, "fuv:-1.5,0"), 2.0, 0.0, dim=2)
    assert res.divergent and res.value == math.inf


def test_besov_norm_generic_path_agrees_with_fast_path():
    tf = Fuv(0.0, 0.0)
    wrapped = lambda pts: fuv_eval(tf, pts)
    rule = BallQuadrature(dim=2, radial_nodes=32, sphere_nodes=32)
    res = besov_norm((0.0, 0.0, wrapped), 2.0, 0.0, rule=rule, dim=2)
    assert not res.divergent
    assert res.value == pytest.approx(1.0, rel=1e-2)


def test_bloch_norm_constant_image():
    res = bloch_norm((0.0, 0.0, "const1"), 1.0, dim=2)
    assert res.t == 0 and not res.divergent
    assert res.value == pytest.approx(1.0, rel=1e-10)
    assert bloch_norm((0.0, 0.0, "const1"), 0.0, dim=2).t == 1
    with pytest.raises(ValueError):
        bloch_norm((0.0, 0.0, "const1"), 0.0, dim=2, t=0)


def _ball_V(a, dim):
    """V_a = int_B (1-|x|^2)^a dnu = (n/2) B(n/2, a+1), or 1 for a <= -1."""
    return dim / 2.0 * sbeta(dim / 2.0, a + 1.0) if a > -1.0 else 1.0


@pytest.mark.parametrize("dim", range(2, 9))
def test_radial_image_norms_are_exact(dim):
    # the image of f_{u,0} under weight b is the constant V_{b+u}
    for b, c, u, q, beta in [(0.0, 0.25, 0.4, 3.0, -2.5), (0.5, -1.0, -1.2, 2.0, 0.0),
                             (-0.5, 2.0, 0.0, 1.0, -1.0), (0.0, 0.0, 0.3, 2.0, -3.0)]:
        const = _ball_V(b + u, dim)
        res = besov_norm((b, c, Fuv(u, 0.0)), q, beta, dim=dim)
        t = besov_smoothing_order(beta, q)
        want = const * (_ball_V(beta + q * t, dim) / _ball_V(beta, dim)) ** (1.0 / q)
        assert res.t == t and not res.divergent
        assert res.value == pytest.approx(want, rel=1e-12)
        res = bloch_norm((b, c, Fuv(u, 0.0)), beta, dim=dim)
        assert not res.divergent and res.value == pytest.approx(const, rel=1e-12)
    if dim == 4:
        res = besov_norm((0.0, 0.25, Fuv(0.4, 0.0)), 3.0, -2.5, dim=4)
        assert res.value == pytest.approx(0.48271444409312, rel=1e-12)


def test_radial_inputs_never_reach_the_kernel_quadrature(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("a TestFunction reached _image_polar")

    monkeypatch.setattr(operators, "_image_polar", boom)
    for dim in range(2, 7):
        x = np.full(dim, 0.7 / math.sqrt(dim))
        origin = np.zeros(dim)
        for f in (Fuv(-0.3, 0.5), "const1", "fuv:-2,0"):
            values = [apply_T(0.2, 1.5, f, pt) for pt in (origin, x)]
            assert values[0] == values[1]
            values = [projection_Q(0.2, f, pt) for pt in (origin, x)]
            assert values[0] == values[1]
            reports = [apply_T_report(0.2, 1.5, f, pt) for pt in (origin, x)]
            assert reports[0] == reports[1]
            besov_norm((0.2, 1.5, f), 2.0, -2.0, dim=dim)
            bloch_norm((0.2, 1.5, f), -0.5, dim=dim)
        params = OperatorParams(b=1.0, c=0.0, alpha=0.3, beta=0.5, p=2.0, q=3.0, dim=dim)
        assert ratio_probe(params, target="besov").evidence
        assert ratio_probe(replace(params, q=math.inf), target="bloch").evidence


def test_bloch_norm_divergent_input():
    res = bloch_norm((0.0, 0.0, "fuv:-2,0"), 1.0, dim=3)
    assert res.divergent and res.value == math.inf


def test_bloch_norm_dim4_needs_no_certificate_past_the_cap():
    # the sup grid reaches |x| = 1 - 6e-8, where the dim-4 kernel series has
    # no certificate within MAX_DEGREE terms; the image sums only up to the
    # inner sphere rule's exactness E = 23, so no certificate past E is needed
    f = lambda pts: pts[:, 0] * pts[:, 1]
    res = bloch_norm((0.0, 0.0, f), 1.0, dim=4)
    assert not res.divergent
    # Q reproduces x1 x2, so the value is the sup of (1 - r^2) r^2 |zeta_1 zeta_2|
    # over the same grid; the 1.6e-3 left is degrees 22 and 23 aliasing
    # (k + deg f > E), which ROADMAP item 1 removes
    r = quadrature._SUP_RADII
    zeta, _ = operators._default_outer(operators._default_inner(4)).sphere_rule()
    want = np.max((1.0 - r * r)[:, None] * r[:, None] ** 2 * np.abs(zeta[:, 0] * zeta[:, 1]))
    assert res.value == pytest.approx(want, rel=2e-3)


def test_bloch_norm_generic_refinement_plateau():
    tf = Fuv(0.2, 0.0)
    wrapped = lambda pts: fuv_eval(tf, pts)
    coarse = BallQuadrature(dim=2, radial_nodes=24, sphere_nodes=16)
    finer = BallQuadrature(dim=2, radial_nodes=48, sphere_nodes=16)
    a = bloch_norm((0.5, 0.3, wrapped), 1.0, rule=coarse, dim=2)
    b = bloch_norm((0.5, 0.3, wrapped), 1.0, rule=finer, dim=2)
    assert not a.divergent and not b.divergent
    assert a.value == pytest.approx(b.value, rel=2e-2)
    # the image of a radial function is the constant V_{b+u}, sup weight peaks at 0
    assert b.value == pytest.approx(normalization_V(0.7, 2), rel=1e-2)


@pytest.mark.parametrize("dim", range(2, 9))
def test_const1_and_its_degree0_expansion_have_one_image(dim):
    # f = 1 as a radial input and as two degree-0 terms whose coefficients
    # sum to 1: both images are the constant V_b, so every value and norm
    # agrees between the two routes
    a = np.linspace(0.1, 0.6, dim) / dim
    one = HarmonicExpansion.from_terms(dim, [(0, a, 0.25), (0, -a[::-1], 0.75)])
    x = np.full(dim, 0.6 / math.sqrt(dim))
    b, c = 0.4, 1.3
    pairs = [(apply_T(b, c, "const1", x), apply_T(b, c, one, x))]
    for q in (1.5, 2.0, 3.0):
        pairs.append((besov_norm((b, c, "const1"), q, -1.5, dim=dim).value,
                      besov_norm((b, c, one), q, -1.5).value))
    for beta in (-0.5, 0.0, 1.0):
        pairs.append((bloch_norm((b, c, "const1"), beta, dim=dim).value,
                      bloch_norm((b, c, one), beta).value))
    for radial, exact in pairs:
        assert radial == pytest.approx(exact, rel=1e-13, abs=0.0)
    assert pairs[0][1] == pytest.approx(normalization_V(b, dim), rel=1e-13, abs=0.0)
    # the closed form of the q = 2 norm (t = 1, V_beta = 1) against the finite sum
    image = transform(b, c + 1.0, one)
    assert pairs[2][1] == pytest.approx(math.sqrt(square_integral(image, 0.5)), rel=1e-13, abs=0.0)


def test_image_norms_take_the_dimension_of_expansion_json():
    text = '{"dim":3,"terms":[{"k":1,"y":[0.5,0,0],"c":1},{"k":2,"y":[0,0.4,0.3],"c":-2}]}'
    exp = HarmonicExpansion.from_terms(3, [(1, [0.5, 0, 0], 1.0), (2, [0, 0.4, 0.3], -2.0)])
    for q in (2.0, 3.0):
        assert besov_norm((0.5, 0.25, text), q, 0.0) == besov_norm((0.5, 0.25, exp), q, 0.0)
    assert bloch_norm((0.5, 0.25, text), 0.5) == bloch_norm((0.5, 0.25, exp), 0.5)
    for dim in (2, 4):
        with pytest.raises(ValueError, match=f"expansion dim 3 != requested dim {dim}"):
            besov_norm((0.5, 0.25, text), 2.0, 0.0, dim=dim)
        with pytest.raises(ValueError, match=f"expansion dim 3 != requested dim {dim}"):
            bloch_norm((0.5, 0.25, text), 0.5, rule=BallQuadrature(dim))


def _spy_on_weighted_norm(monkeypatch):
    """The (p, w, rule) of every quadrature._weighted_norm call; operators
    holds the same routine under the same name, so both are wrapped."""
    assert operators._weighted_norm is quadrature._weighted_norm
    calls, real = [], quadrature._weighted_norm

    def spy(polar, p, w, rule):
        calls.append((p, w, rule))
        return real(polar, p, w, rule)

    monkeypatch.setattr(quadrature, "_weighted_norm", spy)
    monkeypatch.setattr(operators, "_weighted_norm", spy)
    return calls


SPY_RULE = BallQuadrature(dim=2, radial_nodes=8, sphere_nodes=8)
TWO_TERMS = HarmonicExpansion.from_terms(2, [(1, [0.5, 0.0], 1.0), (2, [0.0, 0.4], -2.0)])
DEGREE_0 = HarmonicExpansion.from_terms(2, [(0, [0.3, 0.1], 1.5)])
CALLABLE = lambda pts: pts[:, 0] * pts[:, 1] + 0.25


@pytest.mark.parametrize("f", [CALLABLE, lambda pts: operators.evaluate_many(TWO_TERMS, pts)],
                         ids=["callable", "expansion"])
@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, math.inf])
def test_lp_norm_runs_the_weighted_norm_once(f, p, monkeypatch):
    calls = _spy_on_weighted_norm(monkeypatch)
    assert quadrature.lp_norm(f, p, 0.5, SPY_RULE) > 0.0
    assert calls == [(p, 0.5, SPY_RULE)]


@pytest.mark.parametrize("f", [TWO_TERMS, CALLABLE], ids=["expansion", "callable"])
@pytest.mark.parametrize("q", [1.0, 3.0, math.inf])
def test_image_norms_run_the_weighted_norm_once_on_the_outer_grid(f, q, monkeypatch):
    calls = _spy_on_weighted_norm(monkeypatch)
    g, beta = (0.5, 0.25, f), -2.5
    if q == math.inf:
        res, t = bloch_norm(g, beta, rule=SPY_RULE), 3
        w = beta + t
    else:
        res, t = besov_norm(g, q, beta, rule=SPY_RULE), besov_smoothing_order(beta, q)
        w = beta + q * t
    assert not res.divergent and res.value > 0.0 and res.t == t
    assert calls == [(q, w, operators._default_outer(SPY_RULE))]


def test_a_callable_besov_norm_at_q_2_runs_the_weighted_norm_once(monkeypatch):
    calls = _spy_on_weighted_norm(monkeypatch)
    assert besov_norm((0.5, 0.25, CALLABLE), 2.0, 0.0, rule=SPY_RULE).value > 0.0
    assert calls == [(2.0, 0.0, operators._default_outer(SPY_RULE))]


@pytest.mark.parametrize("f, b, q, divergent", [
    ("const1", 0.5, 3.0, False),
    ("fuv:0.3,0.5", 0.5, 1.5, False),
    ("fuv:0.3,0.5", 0.5, math.inf, False),
    (DEGREE_0, 0.5, 3.0, False),
    (DEGREE_0, 0.5, math.inf, False),
    (TWO_TERMS, 0.5, 2.0, False),
    (TWO_TERMS, -1.5, 3.0, True),
    (TWO_TERMS, -1.0, math.inf, True),
    ("fuv:-0.3,0.5", -0.8, 3.0, True),
    ("fuv:-0.3,0.5", -0.8, math.inf, True),
], ids=["const1", "fuv", "fuv-bloch", "degree-0", "degree-0-bloch", "q-2-sum", "divergent",
        "divergent-bloch", "fuv-divergent", "fuv-divergent-bloch"])
def test_constant_summed_and_divergent_images_skip_the_weighted_norm(f, b, q, divergent,
                                                                      monkeypatch):
    calls = _spy_on_weighted_norm(monkeypatch)
    g = (b, 0.25, f)
    res = bloch_norm(g, 0.3, dim=2) if q == math.inf else besov_norm(g, q, 0.3, dim=2)
    assert res.divergent is divergent and (res.value == math.inf) is divergent
    assert calls == []


@pytest.mark.parametrize("q, beta, t", [(2.0, 0.0, 0.5), (2.0, 0.0, -1), (2.0, -4.0, 1),
                                        (1.0, -1.0, 0), (3.0, 0.0, 1.0000001)])
def test_besov_norm_rejects_a_forced_t_that_is_not_admissible(q, beta, t):
    with pytest.raises(ValueError) as err:
        besov_norm((0.5, 0.25, TWO_TERMS), q, beta, t=t)
    assert str(err.value) == f"t must be a non-negative integer with beta + q t > -1, got {t}"


@pytest.mark.parametrize("beta, t", [(0.5, 1.5), (0.5, -1), (0.0, 0), (-2.0, 2), (-2.0, 2.5)])
def test_bloch_norm_rejects_a_forced_t_that_is_not_admissible(beta, t):
    with pytest.raises(ValueError) as err:
        bloch_norm((0.5, 0.25, TWO_TERMS), beta, t=t)
    assert str(err.value) == f"t must be a non-negative integer with beta + t > 0, got {t}"


def test_a_forced_admissible_t_is_used_and_reported_as_an_int():
    for t in (1, 2.0):
        res = besov_norm((0.5, 0.25, TWO_TERMS), 3.0, -2.5, t=t)
        assert res.t == t and type(res.t) is int
    res = bloch_norm((0.5, 0.25, TWO_TERMS), -2.0, t=3.0)
    assert res.t == 3 and type(res.t) is int


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("f", [Fuv(0.3, 0.5), "const1", TWO_TERMS, CALLABLE],
                         ids=["fuv", "const1", "expansion", "callable"])
def test_a_forced_t_that_is_not_finite_gets_the_pinned_error(f, t):
    # int(inf) raised OverflowError and int(nan) "cannot convert float NaN
    # to integer"; the one check of t names the admissible range instead
    with pytest.raises(ValueError) as err:
        bloch_norm((0.5, 0.25, f), 0.5, dim=2, t=t)
    assert str(err.value) == f"t must be a non-negative integer with beta + t > 0, got {t}"
    with pytest.raises(ValueError) as err:
        besov_norm((0.5, 0.25, f), 3.0, 0.5, dim=2, t=t)
    assert str(err.value) == f"t must be a non-negative integer with beta + q t > -1, got {t}"


RADIAL_GRID = [(b, c, u, v, dim) for b, c in ((0.5, 0.25), (-0.3, 1.0), (-1.0, 0.0), (-1.5, 0.5))
               for u, v in ((0.0, 0.0), (0.3, 0.5), (-0.8, -1.0), (-0.2, 2.0), (1.5, -3.0))
               for dim in (2, 3, 5)]


@pytest.mark.parametrize("b, c, u, v, dim", RADIAL_GRID)
def test_the_radial_route_is_the_operators_answer_bit_for_bit(b, c, u, v, dim):
    # every answer for f_{u,v} is formed once, in radial: its image K =
    # radial_power_log_value(b+u, v), the report with the ladder rungs, and
    # the norms |K| (V_w / V_beta)^{1/q}, written out here in full; the
    # operators give exactly those, for the object and for its text
    from bergbesov import radial

    tf = Fuv(u, v)
    text = "const1" if u == v == 0.0 else f"fuv:{u!r},{v!r}"
    x = [0.3, -0.2, 0.1, 0.05, 0.0][:dim]
    const = radial.radial_power_log_value(b + u, v, dim=dim)
    divergent = math.isinf(const)
    rungs = radial.radial_power_log_ladder(b + u, v, dim=dim).rungs
    want = TransformReport(const, divergent, rungs, "radial-ladder")
    assert radial._radial_report(b, c, tf, x) == want
    for f in (tf, text):
        assert apply_T_report(b, c, f, np.array(x)) == want
        assert repr(apply_T(b, c, f, x)) == repr(const)
    for beta in (0.3, -2.5, 0.0):
        for q, forced in ((1.0, None), (1.5, None), (2.0, None), (3.0, 2), (math.inf, None), (math.inf, 3)):
            bloch = q == math.inf
            t = forced
            if forced is None:
                t = bloch_smoothing_order(beta) if bloch else besov_smoothing_order(beta, q)
            w = beta + t if bloch else beta + q * t
            v_beta = normalization_V(beta, dim) if beta > -1.0 else 1.0
            value = math.inf if divergent else abs(const) * (normalization_V(w, dim) / v_beta) ** (1.0 / q)
            want = NormResult(value, c, t, divergent)
            got = radial._radial_norm(b, c, tf, q, beta, dim, t)
            assert (repr(got.value), got.s, got.t, got.divergent) == (repr(value), c, t, divergent)
            for f in (tf, text):
                if bloch:
                    res = bloch_norm((b, c, f), beta, dim=dim, t=forced)
                else:
                    res = besov_norm((b, c, f), q, beta, dim=dim, t=forced)
                assert res == want and repr(res.value) == repr(value)


def test_the_open_ball_check_decides_points_near_the_sphere_exactly():
    # |x|^2 rounds to 1.0 for (0.28, 0.96), but the doubles' squares sum to
    # less than 1; for (0.6, 0.8) they sum to more.  Every transform, radial
    # or not, takes the one check, and it decides such points exactly
    from fractions import Fraction

    from bergbesov import radial

    rng = np.random.default_rng(7)
    points = [[0.28, 0.96], [0.96, 0.28], [0.6, 0.8], [1.0, 0.0], [0.36, 0.48, 0.8],
              [math.nextafter(1.0, 0.0), 0.0]]
    for _ in range(40):
        v = rng.normal(size=int(rng.integers(2, 6)))
        points.append(list(v / np.linalg.norm(v) * (1.0 + rng.uniform(-1e-15, 1e-15))))
    inside = 0
    for x in points:
        want = sum(Fraction(v) ** 2 for v in x) < 1
        inside += want
        for call in (lambda: apply_T(0.5, 0.25, TWO_TERMS if len(x) == 2 else "const1", x),
                     lambda: radial._radial_report(0.5, 0.25, Fuv(0.3, 1.0), x).value):
            if want:
                assert math.isfinite(call())
            else:
                with pytest.raises(ValueError, match="^evaluation point must lie in the open unit ball$"):
                    call()
    assert 5 < inside < len(points) - 5


def test_a_dim_16_image_norm_stays_within_its_memory_bound():
    """The q = 3 Besov norm of the image of one degree-2 term in dim 16 reads
    its image on a 24-radius grid over a 65 536-point sphere rule.  Formed
    at once, that grid took 448 MB; in blocks of whole radii the process
    peaks near 70 MB.  The peak is the child's VmHWM, the high-water mark
    of its own address space: Linux carries the peak of the image a process
    replaced by exec into its ru_maxrss, and a child spawned by vfork
    replaced this test process's image."""
    code = (
        "import numpy as np\n"
        "from bergbesov.expansion import HarmonicExpansion\n"
        "from bergbesov.operators import besov_norm\n"
        "y = np.zeros(16); y[0] = 0.6\n"
        "f = HarmonicExpansion.from_terms(16, [(2, y, 1.0)])\n"
        "print(repr(besov_norm((0.5, 0.25, f), 3.0, 0.5).value))\n"
        "print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    value, peak_kb = out.stdout.split()
    assert float(value) == pytest.approx(0.7898126468071746, rel=1e-14)
    assert int(peak_kb) < 200 * 1024
