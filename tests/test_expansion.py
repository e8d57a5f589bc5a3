"""Expansion layer: zonal-anchored harmonic expansions and the radial
differential operators acting on them."""

import json
import math

import mpmath
import numpy as np
import pytest

from bergbesov.expansion import (
    HarmonicExpansion,
    apply_D,
    apply_I,
    evaluate,
    evaluate_many,
    from_json,
    square_integral,
    to_json,
    transform,
)
from bergbesov.kernel import KernelSpec, gamma_coefs, kernel_eval, truncation_degree, zonal_harmonic

RNG = np.random.default_rng(47)


def _ball_point(dim, radius):
    v = RNG.normal(size=dim)
    return v * (radius / np.linalg.norm(v))


def _random_expansion(dim, max_degree=4, nterms=5):
    terms = []
    for _ in range(nterms):
        k = int(RNG.integers(0, max_degree + 1))
        y = _ball_point(dim, RNG.uniform(0.3, 1.0))
        c = float(RNG.normal())
        terms.append((k, y, c))
    return HarmonicExpansion.from_terms(dim, terms)


def _kernel_expansion(spec, y, extra=30):
    ry = float(np.linalg.norm(y))
    K = truncation_degree(spec, 1.0 - 1e-9 if ry == 0 else min(0.95, ry + 0.2), ry)
    K = max(K, truncation_degree(spec, 0.7, ry)) + extra
    gam = gamma_coefs(K, spec.alpha, spec.dim)
    return HarmonicExpansion.from_terms(spec.dim, [(k, y, gam[k]) for k in range(K + 1)])


def test_empty_expansion_evaluates_to_zero():
    f = HarmonicExpansion.from_terms(3, [])
    assert len(f) == 0
    assert evaluate(f, np.array([0.2, 0.1, 0.0])) == 0.0


def test_constant_term():
    y = _ball_point(3, 0.8)
    f = HarmonicExpansion.from_terms(3, [(0, y, 5.0)])
    for r in (0.0, 0.4, 0.9):
        assert evaluate(f, _ball_point(3, r) if r else np.zeros(3)) == 5.0


def test_evaluate_matches_zonal_sum():
    f = _random_expansion(3)
    x = _ball_point(3, 0.6)
    want = sum(c * zonal_harmonic(k, x, y, 3) for k, y, c in f.terms())
    assert evaluate(f, x) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_evaluate_at_origin_sums_constant_terms():
    f = HarmonicExpansion.from_terms(
        2, [(0, _ball_point(2, 0.5), 1.5), (2, _ball_point(2, 0.5), 3.0), (0, _ball_point(2, 0.9), -0.25)]
    )
    assert evaluate(f, np.zeros(2)) == pytest.approx(1.25, rel=1e-14)


def test_evaluate_many_matches_scalar():
    f = _random_expansion(2)
    pts = np.vstack([_ball_point(2, r) for r in (0.1, 0.5, 0.85)])
    many = evaluate_many(f, pts)
    assert many.shape == (3,)
    for j in range(3):
        assert many[j] == pytest.approx(evaluate(f, pts[j]), rel=1e-12, abs=1e-13)


def _zonal_sum(f, x):
    return sum(c * zonal_harmonic(k, x, y, f.dim) for k, y, c in f.terms())


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_evaluate_many_is_the_per_term_zonal_sum(dim):
    spec = KernelSpec(alpha=0.4, dim=dim)
    shared = _ball_point(dim, 0.6)
    kernel_terms = list(_kernel_expansion(spec, shared, extra=0).terms())[:40]
    assert len(kernel_terms) == 40
    # zero anchors, degree-0 terms, a repeated anchor away from the kernel
    # block, and 40 terms on one anchor: every anchor group has its own shape
    other = _ball_point(dim, 0.8)
    terms = kernel_terms + [
        (0, np.zeros(dim), 0.75), (3, np.zeros(dim), 2.0), (0, other, -1.25),
        (2, other, 0.5), (5, other, -0.3), (2, _ball_point(dim, 1.0), 0.9),
    ]
    f = HarmonicExpansion.from_terms(dim, terms)
    pts = np.vstack([np.zeros(dim)] + [_ball_point(dim, r) for r in (0.05, 0.3, 0.6, 0.85, 0.99)])
    many = evaluate_many(f, pts)
    assert many.shape == (len(pts),)
    for j, x in enumerate(pts):
        assert many[j] == pytest.approx(_zonal_sum(f, x), rel=1e-12)
    # at the origin only the degree-0 terms survive
    assert many[0] == pytest.approx(gamma_coefs(0, spec.alpha, dim)[0] + 0.75 - 1.25, rel=1e-15)


def test_evaluate_is_the_one_row_evaluate_many():
    for dim in (2, 3, 4):
        f = _random_expansion(dim, max_degree=6, nterms=7)
        for r in (0.0, 0.4, 0.95):
            x = _ball_point(dim, r) if r else np.zeros(dim)
            assert evaluate(f, x) == evaluate_many(f, x[None])[0]


def test_kernel_expansion_matches_kernel_eval():
    spec = KernelSpec(alpha=-0.6, dim=3)
    y = _ball_point(3, 0.5)
    f = _kernel_expansion(spec, y)
    for r in (0.0, 0.3, 0.7):
        x = _ball_point(3, r) if r else np.zeros(3)
        assert evaluate(f, x) == pytest.approx(kernel_eval(spec, x, y), abs=2 * spec.tol)


def test_apply_D_zero_is_identity():
    f = _random_expansion(3)
    g = apply_D(1.3, 0.0, f)
    for (k1, y1, c1), (k2, y2, c2) in zip(f.terms(), g.terms()):
        assert k1 == k2 and c1 == c2
        assert np.array_equal(y1, y2)


def test_apply_D_inverse():
    f = _random_expansion(3)
    s, t = -0.8, 1.7
    g = apply_D(s + t, -t, apply_D(s, t, f))
    for (_, _, c1), (_, _, c2) in zip(f.terms(), g.terms()):
        assert c2 == pytest.approx(c1, rel=1e-12)


def test_apply_D_additive_composition():
    f = _random_expansion(2)
    s, t, z = 0.4, -1.1, 2.3
    g1 = apply_D(s + t, z, apply_D(s, t, f))
    g2 = apply_D(s, z + t, f)
    for (_, _, c1), (_, _, c2) in zip(g1.terms(), g2.terms()):
        assert c1 == pytest.approx(c2, rel=1e-12)


def test_apply_D_is_linear():
    f = _random_expansion(3, nterms=3)
    scaled = HarmonicExpansion.from_terms(3, [(k, y, 2.5 * c) for k, y, c in f.terms()])
    g = apply_D(0.3, 0.9, f)
    gs = apply_D(0.3, 0.9, scaled)
    for (_, _, c1), (_, _, c2) in zip(g.terms(), gs.terms()):
        assert c2 == pytest.approx(2.5 * c1, rel=1e-14)


def test_apply_D_transports_kernel_parameter():
    # coefficient ratio gamma_k(s+t)/gamma_k(s) turns the parameter-s kernel
    # expansion into the parameter-(s+t) one
    for dim in (2, 3):
        s, t = -1.2, 0.9
        spec_s = KernelSpec(alpha=s, dim=dim)
        spec_st = KernelSpec(alpha=s + t, dim=dim)
        y = _ball_point(dim, 0.45)
        f = _kernel_expansion(spec_s, y)
        g = apply_D(s, t, f)
        for r in (0.2, 0.6):
            x = _ball_point(dim, r)
            assert evaluate(g, x) == pytest.approx(
                kernel_eval(spec_st, x, y), abs=2e-10
            )


def test_apply_I_weight_and_origin():
    f = _random_expansion(3)
    s, t = 0.2, 1.4
    x = _ball_point(3, 0.55)
    w = (1.0 - float(x @ x)) ** t
    assert apply_I(s, t, f, x) == pytest.approx(w * evaluate(apply_D(s, t, f), x), rel=1e-13)
    assert apply_I(s, t, f, np.zeros(3)) == pytest.approx(
        evaluate(apply_D(s, t, f), np.zeros(3)), rel=1e-13
    )
    assert apply_I(s, 0.0, f, x) == pytest.approx(evaluate(f, x), rel=1e-13)


def test_apply_I_constant_gives_pure_weight():
    f = HarmonicExpansion.from_terms(2, [(0, np.zeros(2), 1.0)])
    x = np.array([0.6, 0.0])
    for s, t in [(0.0, 2.0), (-1.5, 0.7)]:
        assert apply_I(s, t, f, x) == pytest.approx((1.0 - 0.36) ** t, rel=1e-13)


def test_harmonicity_by_discrete_laplacian():
    h = 1e-3
    for dim in (2, 3):
        f = _random_expansion(dim, max_degree=4, nterms=4)
        for _ in range(3):
            x = _ball_point(dim, RNG.uniform(0.1, 0.5))
            lap = 0.0
            scale = abs(evaluate(f, x))
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = h
                fp = evaluate(f, x + e)
                fm = evaluate(f, x - e)
                lap += (fp - 2.0 * evaluate(f, x) + fm) / h**2
                scale = max(scale, abs(fp), abs(fm))
            assert abs(lap) <= 1e-4 * max(scale, 1.0)


def test_json_round_trip():
    f = _random_expansion(3)
    text = to_json(f)
    parsed = json.loads(text)
    assert parsed["dim"] == 3 and len(parsed["terms"]) == len(f)
    assert set(parsed["terms"][0]) == {"k", "y", "c"}
    g = from_json(text)
    assert g.dim == f.dim
    for (k1, y1, c1), (k2, y2, c2) in zip(f.terms(), g.terms()):
        assert k1 == k2 and c1 == c2
        assert np.array_equal(y1, y2)


def test_from_json_accepts_bare_record_array():
    text = json.dumps(
        [{"k": 0, "y": [0.0, 0.0], "c": 2.0}, {"k": 1, "y": [0.5, 0.0], "c": -1.0}]
    )
    f = from_json(text)
    assert f.dim == 2
    assert evaluate(f, np.zeros(2)) == 2.0
    with pytest.raises(ValueError):
        from_json("[]")
    with pytest.raises(ValueError, match="'y'"):
        from_json('[{"k": 0, "c": 2.0}]')


def test_validation_errors():
    with pytest.raises(ValueError):
        HarmonicExpansion.from_terms(3, [(-1, np.zeros(3), 1.0)])
    with pytest.raises(ValueError):
        HarmonicExpansion.from_terms(3, [(0, np.array([1.5, 0.0, 0.0]), 1.0)])
    with pytest.raises(ValueError):
        HarmonicExpansion.from_terms(1, [])
    for dim in (2.5, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"dim must be an integer >= 2, got {dim}"):
            HarmonicExpansion.from_terms(dim, [])
    for k in (1.5, math.inf, math.nan, -2):
        with pytest.raises(ValueError, match=f"degree must be an integer >= 0, got {k}"):
            HarmonicExpansion.from_terms(2, [(0, [0.1, 0.2], 1.0), (k, [0.5, 0.0], 1.0)])
    # NaN or infinite coefficients and anchor coordinates
    for k, y, c in ((1, [0.5, 0.0], math.nan), (1, [0.5, 0.0], math.inf), (1, [0.5, 0.0], -math.inf),
                    (1, [math.nan, 0.0], 1.0), (0, [0.0, math.inf], 1.0)):
        with pytest.raises(ValueError, match="must be finite"):
            HarmonicExpansion.from_terms(2, [(0, [0.1, 0.2], 1.0), (k, y, c)])
    for text in ('{"dim":2,"terms":[{"k":1,"y":[0.5,0],"c":NaN}]}',
                 '{"dim":2,"terms":[{"k":1,"y":[0.5,0],"c":Infinity}]}',
                 '[{"k":1,"y":[NaN,0],"c":1}]'):
        with pytest.raises(ValueError, match="must be finite"):
            from_json(text)


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_transform_scales_each_degree_by_its_multiplier(dim):
    # m_k = gamma_k(c) (n/2) B(n/2+k, b+1), against mpmath at 30 digits, on
    # both coefficient branches and up to degree 60.  The ratio recurrences
    # lose a few ulps per degree; V_b = (n/2) B(n/2, b+1) comes from
    # log-gamma values, so it is good to eps times their size
    degrees = (0, 1, 2, 7, 20, 60)
    exp = HarmonicExpansion.from_terms(dim, [(k, _ball_point(dim, 0.5), 1.0 + k) for k in degrees])
    mpmath.mp.dps = 30
    for b, c in ((0.0, 0.0), (0.5, 0.25), (-0.9, 2.3), (3.0, -0.5 * dim - 2.7), (-0.5, -40.0)):
        image = transform(b, c, exp)
        logs = sum(abs(math.lgamma(v)) for v in (dim / 2 + 1, b + 1, dim / 2 + b + 1))
        assert np.array_equal(image.degrees, exp.degrees) and np.array_equal(image.anchors, exp.anchors)
        for k, coef, got in zip(degrees, exp.coefs, image.coefs):
            want = coef * mpmath.mpf(gamma_coefs(k, c, dim)[-1]) * dim / 2 * mpmath.beta(dim / 2 + k, b + 1)
            assert abs(got - want) <= (4 * (k + 2) + 2 * logs) * 2.0**-52 * abs(want)
    # for b <= -1 a nonzero term diverges; zero terms map to zero
    assert transform(-1.0, 0.0, exp) is None
    zero = HarmonicExpansion.from_terms(dim, [(0, _ball_point(dim, 0.5), 0.0), (3, np.zeros(dim), 2.0)])
    assert transform(-1.5, 0.0, zero).coefs.tolist() == [0.0, 0.0]
    assert transform(-1.0, 0.0, HarmonicExpansion.from_terms(dim, [(0, np.zeros(dim), 1.0)])) is None
    assert len(transform(0.5, 0.0, HarmonicExpansion.from_terms(dim, []))) == 0
    with pytest.raises(ValueError, match="not a finite double"):
        transform(0.0, 1000.0, HarmonicExpansion.from_terms(dim, [(400, _ball_point(dim, 0.5), 1.0)]))


def test_square_integral_is_the_gram_sum_of_each_degree():
    # two terms of one degree and one of another: degrees are orthogonal, and
    # within a degree the sphere mean of the product is c c' Z_k(a, a')
    dim, w = 3, 0.4
    a1, a2, a3 = _ball_point(dim, 0.7), _ball_point(dim, 0.9), _ball_point(dim, 1.0)
    exp = HarmonicExpansion.from_terms(dim, [(2, a1, 1.5), (2, a2, -0.5), (1, a3, 2.0)])
    gram2 = (1.5**2 * zonal_harmonic(2, a1, a1, dim) + 0.5**2 * zonal_harmonic(2, a2, a2, dim)
             - 2 * 1.5 * 0.5 * zonal_harmonic(2, a1, a2, dim))
    gram1 = 2.0**2 * zonal_harmonic(1, a3, a3, dim)
    radial = [dim / 2 * float(mpmath.beta(dim / 2 + k, w + 1)) for k in (1, 2)]
    want = radial[0] * gram1 + radial[1] * gram2
    assert square_integral(exp, w) == pytest.approx(want, rel=1e-14)
    assert square_integral(HarmonicExpansion.from_terms(dim, []), w) == 0.0
