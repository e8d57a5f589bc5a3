"""Quadrature layer: ball/sphere product rules, normalization constants,
weighted norms, and the radial log-weight integrals with their ladders."""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import beta as sbeta
from scipy.special import eval_gegenbauer

from bergbesov import quadrature
from bergbesov.expansion import HarmonicExpansion, evaluate_many
from bergbesov.operators import apply_T
from bergbesov.quadrature import (
    BallQuadrature,
    LadderResult,
    _on_polar_grid,
    _weighted_radial_rule,
    gauss_jacobi,
    integrate_ball,
    integrate_sphere,
    lp_norm,
    normalization_V,
    radial_power_log_ladder,
    radial_power_log_value,
    weighted_sup_ladder,
)

RNG = np.random.default_rng(53)

# mpmath oracle values (30-digit adaptive quadrature of the t-space integrand;
# the u=-1 marginal computed in the substituted variable w = log 1/(1-t^2))
LOG_INTEGRAL_ORACLES = {
    (-1.0, 2.0): 0.94464422549678559,
    (0.5, 1.0): 0.62125351229723622,
    (-0.5, 2.0): 0.67656283681521376,
    (2.0, 0.0): 8.0 / 15.0,
}


def test_normalization_frozen_values():
    assert normalization_V(0.0, 2) == pytest.approx(1.0, rel=1e-15)
    assert normalization_V(0.0, 3) == pytest.approx(1.0, rel=1e-15)
    assert normalization_V(1.0, 2) == pytest.approx(0.5, rel=1e-13)
    assert normalization_V(2.0, 3) == pytest.approx(8.0 / 35.0, rel=1e-13)


def test_normalization_matches_radial_integral():
    for dim in (2, 3):
        for alpha in (-0.5, 0.3, 2.0, 4.5):
            want, _ = quad(lambda r: dim * r ** (dim - 1) * (1 - r * r) ** alpha, 0.0, 1.0)
            assert normalization_V(alpha, dim) == pytest.approx(want, rel=1e-9)


def test_normalization_rejects_nonintegrable_weight():
    with pytest.raises(ValueError):
        normalization_V(-1.0, 2)
    with pytest.raises(ValueError):
        normalization_V(-2.5, 3)


def test_radial_rule_gauss_jacobi_exactness():
    # sum_i w_i r_i^(2j) must equal (n/2) B(n/2+j, e+1) to Gaussian exactness
    for dim in (2, 3):
        for e in (0.0, 1.5, -0.5):
            rule = BallQuadrature(dim=dim, radial_nodes=16)
            r, w = _weighted_radial_rule(rule, e)
            if e == 0.0:
                assert all(np.array_equal(a, b) for a, b in zip((r, w), rule.radial_rule()))
            assert np.all((r > 0.0) & (r < 1.0))
            assert np.all(w > 0.0)
            for j in range(7):
                got = float(np.sum(w * r ** (2 * j)))
                want = 0.5 * dim * sbeta(0.5 * dim + j, e + 1.0)
                assert got == pytest.approx(want, rel=1e-12)


def test_sphere_rule_weights_and_moments():
    for dim in (2, 3, 4):
        rule = BallQuadrature(dim=dim)
        pts, wts = rule.sphere_rule()
        assert pts.shape[1] == dim
        assert float(np.sum(wts)) == pytest.approx(1.0, rel=1e-13)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
        mean = wts @ pts
        second = wts @ (pts[:, 0] ** 2)
        assert np.max(np.abs(mean)) < 1e-13
        assert second == pytest.approx(1.0 / dim, rel=1e-12)


def test_circle_rule_trig_exactness():
    rule = BallQuadrature(dim=2, sphere_nodes=64)
    for k in (1, 5, 31):
        val = integrate_sphere(lambda pts: np.cos(k * np.arctan2(pts[:, 1], pts[:, 0]) + 0.3), rule)
        assert abs(val) < 1e-14


def test_sphere_exactness_thresholds():
    assert BallQuadrature(dim=2, sphere_nodes=64).sphere_exactness() == 63
    # dim 3: polar Gauss-Legendre handles 2*polar-1, azimuth trapezoid azim-1
    assert BallQuadrature(dim=3, sphere_nodes=48).sphere_exactness() == 23
    assert BallQuadrature(dim=3).sphere_exactness() == 127
    assert BallQuadrature(dim=3, sphere_nodes=16).sphere_exactness() == 7
    # dim >= 4: the polar count drops from 64 until the rule fits 4 096 nodes
    for dim, nodes, exactness in ((4, 3456, 23), (5, 2592, 11), (6, 2048, 7),
                                  (7, 1458, 5), (8, 256, 3)):
        rule = BallQuadrature(dim=dim)
        assert rule.sphere_exactness() == exactness
        assert len(rule.sphere_rule()[1]) == nodes <= 4096
    assert BallQuadrature(dim=4, sphere_nodes=32).sphere_exactness() == 15
    # the polar count stops at 2 even past the budget
    assert BallQuadrature(dim=13).sphere_exactness() == 3


def _sphere_monomial_mean(a):
    """Exact normalized mean of prod x_i^{a_i} over S^{n-1}:
    prod Gamma((a_i+1)/2) Gamma(n/2) / (pi^{n/2} Gamma((n+sum a)/2)), which for
    even a_i = 2 b_i is prod (2 b_i - 1)!! / prod_{j < sum b} (n + 2j)."""
    if any(k % 2 for k in a):
        return 0.0
    num = math.prod(math.prod(range(1, k, 2)) for k in a)
    return float(Fraction(num, math.prod(len(a) + 2 * j for j in range(sum(a) // 2))))


@pytest.mark.parametrize("dim", [4, 5, 6])
def test_sphere_rule_is_exact_to_its_degree(dim):
    # every monomial of degree <= E, against its closed-form sphere mean
    rule = BallQuadrature(dim=dim)
    top = rule.sphere_exactness()
    pts, wts = rule.sphere_rule()
    powers = pts.T[:, None, :] ** np.arange(top + 1)[None, :, None]
    count = 0
    for a in itertools.product(range(top + 1), repeat=dim):
        if sum(a) > top:
            continue
        vals = np.prod(powers[np.arange(dim), a], axis=0)
        assert abs(float(vals @ wts) - _sphere_monomial_mean(a)) < 1e-15, a
        count += 1
    assert count == math.comb(top + dim, dim)
    # one degree past E the rule is no longer exact
    past = integrate_sphere(lambda p: p[:, 0] ** (top + 1), rule)
    assert abs(past - _sphere_monomial_mean((top + 1,) + (0,) * (dim - 1))) > 1e-12


# Frozen from the Gauss-Legendre x trapezoid dim-3 rule and the dim-2 circle
# rule as they were before the recursive rule replaced them: (sphere_nodes,
# node index, node, weight).
_FROZEN_DIM3_NODES = (
    (256, 0, (0.03727510645815235, 0.0, -0.9993050417357722), 6.965940319126702e-06),
    (256, 777, (0.2919556681169249, 0.13808474714112198, -0.9464113748584029), 6.142980654697157e-05),
    (256, 4096, (0.9997034876638201, 0.0, 0.024350292663424478), 0.00019019905081695188),
    (256, 8191, (0.03723020695996665, -0.0018290027842084585, 0.9993050417357722), 6.965940319126683e-06),
    (48, 5, (0.049473530458328877, 0.18463772930028977, -0.9815606342467192), 0.0009828195080523298),
    (48, 100, (0.4649462303172142, 0.8053104936970359, -0.36783149899818024), 0.004864427844549059),
)


@pytest.mark.parametrize("sphere_nodes", [16, 32, 48, 64, 128, 256])
def test_dim2_and_dim3_rules_are_unchanged(sphere_nodes):
    # the circle trapezoid rule and the Gauss-Legendre (polar) x trapezoid
    # (azimuth) product, built as they were before the recursion, bit for bit
    theta = 2.0 * np.pi * np.arange(sphere_nodes) / sphere_nodes
    pts, wts = BallQuadrature(dim=2, sphere_nodes=sphere_nodes).sphere_rule()
    assert np.array_equal(pts, np.column_stack([np.cos(theta), np.sin(theta)]))
    assert np.array_equal(wts, np.full(sphere_nodes, 1.0 / sphere_nodes))
    polar, azim = max(sphere_nodes // 4, 8), max(sphere_nodes // 2, 8)
    mu, v = gauss_jacobi(polar, 0.0, 0.0)
    theta = 2.0 * np.pi * np.arange(azim) / azim
    sin_phi = np.sqrt(1.0 - mu**2)
    pts, wts = BallQuadrature(dim=3, sphere_nodes=sphere_nodes).sphere_rule()
    assert np.array_equal(pts[:, 0], (sin_phi[:, None] * np.cos(theta)[None, :]).ravel())
    assert np.array_equal(pts[:, 1], (sin_phi[:, None] * np.sin(theta)[None, :]).ravel())
    assert np.array_equal(pts[:, 2], np.repeat(mu, azim))
    assert np.array_equal(wts, np.repeat(0.5 * v / azim, azim))
    for nodes, i, node, weight in _FROZEN_DIM3_NODES:
        if nodes == sphere_nodes:
            assert tuple(pts[i]) == node and wts[i] == weight


def test_circle_rule_aliases_at_node_count():
    # one past the exactness threshold the mean-zero mode folds onto the
    # constant: cos(N * 2*pi*j/N) = 1 at every node
    rule = BallQuadrature(dim=2, sphere_nodes=64)
    val = integrate_sphere(lambda pts: np.cos(64 * np.arctan2(pts[:, 1], pts[:, 0])), rule)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_sphere_rule_refinement_consistency_dim3():
    def f(pts):
        return (0.3 + pts[:, 0]) ** 2 * pts[:, 2] ** 2

    coarse = integrate_sphere(f, BallQuadrature(dim=3, sphere_nodes=128))
    fine = integrate_sphere(f, BallQuadrature(dim=3, sphere_nodes=256))
    assert coarse == pytest.approx(fine, rel=1e-12)


def test_integrate_ball_constant():
    for dim in (2, 3):
        rule = BallQuadrature(dim=dim)
        assert integrate_ball(lambda pts: np.ones(len(pts)), 0.0, rule) == pytest.approx(
            1.0, rel=1e-13
        )


def test_integrate_ball_weight_absorbed_vs_sampled():
    # a weight w > -1 is folded into the radial nodes; w <= -1 is applied at
    # the unweighted nodes.  (1-|x|^2)^3 against w = -1.5 samples the
    # weight (1-|x|^2)^1.5, which 16 unweighted nodes resolve only to a
    # few 1e-7, and against w = -1 a polynomial they integrate exactly
    alpha = 1.5
    for dim in (2, 3):
        base = BallQuadrature(dim=dim, radial_nodes=16)
        ones = lambda pts: np.ones(len(pts))
        cube = lambda pts: (1.0 - np.sum(pts * pts, axis=1)) ** 3
        absorbed = integrate_ball(ones, alpha, base)
        sampled = integrate_ball(cube, alpha - 3.0, base)
        want = normalization_V(alpha, dim)
        assert absorbed == pytest.approx(want, rel=1e-12)
        assert sampled == pytest.approx(want, rel=1e-6)
        assert abs(sampled - want) > 1e-8 * want
        assert integrate_ball(cube, -1.0, base) == pytest.approx(normalization_V(2.0, dim), rel=1e-12)


def test_integrate_ball_odd_harmonic_vanishes():
    for dim in (2, 3):
        rule = BallQuadrature(dim=dim)
        y0 = np.zeros(dim)
        y0[0] = 0.7
        val = integrate_ball(lambda pts: dim * (pts @ y0), 0.0, rule)
        assert abs(val) < 1e-13


def test_integrate_ball_polar_consistency_radial_profile():
    for dim in (2, 3):
        rule = BallQuadrature(dim=dim)
        got = integrate_ball(lambda pts: np.exp(-np.sum(pts * pts, axis=1)), 0.0, rule)
        want, _ = quad(lambda r: dim * r ** (dim - 1) * math.exp(-r * r), 0.0, 1.0)
        assert got == pytest.approx(want, rel=1e-11)


def test_integrate_ball_nonfinite_propagates():
    rule = BallQuadrature(dim=2, radial_nodes=8, sphere_nodes=8)

    def bad(pts):
        out = np.ones(len(pts))
        out[0] = np.inf
        return out

    assert not math.isfinite(integrate_ball(bad, 0.0, rule))


# ---------------------------------------------------------------------------
# The polar grid in blocks of whole radii.


def _grid_inputs(dim):
    """Three callables on (m, dim) points: an expansion through
    evaluate_many, the solid harmonic Z_3(., w) from scipy's Gegenbauer
    polynomials (both read the points through a matrix product) and
    x1 x2."""
    rng = np.random.default_rng(dim)
    anchors = [rng.uniform(-0.5, 0.5, dim) for _ in range(3)]
    exp = HarmonicExpansion.from_terms(dim, [(3, anchors[0], 1.5), (1, anchors[1], -0.5), (7, anchors[2], 0.25)])
    w = rng.uniform(-0.5, 0.5, dim)

    def solid(pts):
        prod = np.linalg.norm(pts, axis=1) * np.linalg.norm(w)
        cos = np.clip((pts @ w) / np.where(prod == 0.0, 1.0, prod), -1.0, 1.0)
        if dim == 2:
            return prod**3 * 2.0 * np.cos(3.0 * np.arccos(cos))
        return prod**3 * (dim + 4.0) / (dim - 2.0) * eval_gegenbauer(3, 0.5 * dim - 1.0, cos)

    return {"evaluate_many": lambda pts: evaluate_many(exp, pts), "solid": solid,
            "x1x2": lambda pts: pts[:, 0] * pts[:, 1]}


def _one_call_grid(f, r, dirs):
    return np.asarray(f((r[:, None, None] * dirs[None, :, :]).reshape(-1, dirs.shape[1]))).reshape(len(r), len(dirs))


# The block against the grid's S directions and R = 5 radii: below R S,
# equal to it, two radii a block (R not a multiple of them), and fewer
# points than one radius has.
_BLOCKS = {"below": lambda s: 5 * s + 1, "equal": lambda s: 5 * s, "two-radii": lambda s: 2 * s + s // 2,
           "under-one-radius": lambda s: s // 2}


@pytest.mark.parametrize("block", sorted(_BLOCKS))
@pytest.mark.parametrize("dim", range(2, 9))
def test_blocked_grid_equals_the_one_call_grid(dim, block, monkeypatch):
    """The sphere rules' directions (S = 2^dim from dim 8 on, a multiple of
    4: a BLAS matrix-vector product takes four rows at a time and the
    remainder in another order, so a block of other size could move a row
    of a callable that forms x @ a in its last bit)."""
    rule = BallQuadrature(dim, radial_nodes=5, sphere_nodes=12 if dim == 2 else 16)
    r, _ = rule.radial_rule()
    dirs, _ = rule.sphere_rule()
    monkeypatch.setattr(quadrature, "GRID_POINTS", _BLOCKS[block](len(dirs)))
    for name, f in _grid_inputs(dim).items():
        want = _one_call_grid(f, r, dirs)
        got = _on_polar_grid(f, r, dirs)
        assert got.shape == (5, len(dirs))
        assert np.array_equal(got, want), (name, block)


@pytest.mark.parametrize("dim, radial_nodes", [(2, 63), (2, 64), (2, 128), (2, 129), (3, 127), (3, 128)])
def test_grid_blocks_hold_at_most_the_block_and_one_block_is_one_call(dim, radial_nodes):
    rule = BallQuadrature(dim, radial_nodes=radial_nodes)
    r, _ = rule.radial_rule()
    dirs, _ = rule.sphere_rule()
    f = _grid_inputs(dim)["x1x2"]
    sizes = []

    def spy(pts):
        sizes.append(len(pts))
        return f(pts)

    got = _on_polar_grid(spy, r, dirs)
    assert sum(sizes) == radial_nodes * len(dirs)
    assert max(sizes) <= max(quadrature.GRID_POINTS, len(dirs))
    radii_per_call = quadrature.GRID_POINTS // len(dirs)
    assert len(sizes) == -(-radial_nodes // radii_per_call)
    if radial_nodes * len(dirs) <= quadrature.GRID_POINTS:
        assert sizes == [radial_nodes * len(dirs)]
    assert np.array_equal(got, _one_call_grid(f, r, dirs))


def test_a_grid_larger_than_one_radius_block_takes_one_radius_a_call(monkeypatch):
    monkeypatch.setattr(quadrature, "GRID_POINTS", 100)
    rule = BallQuadrature(3, radial_nodes=3, sphere_nodes=32)
    sizes = []
    integrate_ball(lambda pts: sizes.append(len(pts)) or np.ones(len(pts)), 0.0, rule)
    assert sizes == [len(rule.sphere_rule()[0])] * 3 and sizes[0] > 100


def test_errors_and_nonfinite_values_of_later_blocks_reach_the_caller(monkeypatch):
    monkeypatch.setattr(quadrature, "GRID_POINTS", 64)
    rule = BallQuadrature(2, radial_nodes=8, sphere_nodes=16)
    calls = []

    def late_nan(pts):
        calls.append(len(pts))
        out = np.ones(len(pts))
        if len(calls) == 2:
            out[-1] = np.nan
        return out

    assert math.isnan(integrate_ball(late_nan, 0.0, rule))
    assert calls == [64, 64]

    def late_short(pts):
        calls.append(len(pts))
        return np.ones(len(pts) - (len(calls) == 2))

    calls.clear()
    with pytest.raises(ValueError, match="callable must map an"):
        apply_T(0.5, 0.25, late_short, [0.3, 0.2], rule=rule)
    assert calls == [64, 64]


def test_lp_norm_constants():
    for dim in (2, 3):
        rule = BallQuadrature(dim=dim)
        ones = lambda pts: np.ones(len(pts))
        for p in (1.0, 2.0, 3.7):
            for alpha in (0.0, 1.2):
                assert lp_norm(ones, p, alpha, rule) == pytest.approx(1.0, rel=1e-10)
        twos = lambda pts: 2.0 * np.ones(len(pts))
        assert lp_norm(twos, math.inf, 0.0, rule) == pytest.approx(2.0, rel=1e-12)
        assert lp_norm(ones, math.inf, 0.8, rule) == pytest.approx(1.0, rel=1e-12)


def test_lp_norm_radial_power_closed_form():
    rule = BallQuadrature(dim=2)
    f = lambda pts: (1.0 - np.sum(pts * pts, axis=1)) ** 0.7
    want = math.sqrt(normalization_V(1.4, 2))
    assert lp_norm(f, 2.0, 0.0, rule) == pytest.approx(want, rel=1e-8)


def test_lp_norm_validation():
    rule = BallQuadrature(dim=2)
    ones = lambda pts: np.ones(len(pts))
    with pytest.raises(ValueError):
        lp_norm(ones, 0.5, 0.0, rule)
    with pytest.raises(ValueError):
        lp_norm(ones, 2.0, -1.0, rule)
    for p, alpha in itertools.product((2.0, math.inf), (math.nan, math.inf, -math.inf)):
        with pytest.raises(ValueError, match="alpha must be finite"):
            lp_norm(ones, p, alpha, rule)


def test_radial_log_integral_dichotomy():
    # radial_power_log_value is inf exactly on the divergent side: u < -1, or
    # u = -1 with v <= 1
    assert not math.isinf(radial_power_log_value(0.0, 0.0))
    assert not math.isinf(radial_power_log_value(-0.999, 0.0))
    assert not math.isinf(radial_power_log_value(-1.0, 2.0))
    assert not math.isinf(radial_power_log_value(-1.0, 1.5))
    assert math.isinf(radial_power_log_value(-1.0, 1.0))
    assert math.isinf(radial_power_log_value(-1.0, 0.0))
    assert math.isinf(radial_power_log_value(-2.0, 5.0))
    assert radial_power_log_value(-1.0, 0.0) == math.inf
    # NaN has no side: the dichotomy raises instead of calling it divergent
    for u, v in ((math.nan, 1.0), (-1.0, math.nan)):
        with pytest.raises(ValueError, match="must not be NaN"):
            radial_power_log_value(u, v)


def test_radial_log_integral_oracle_values():
    assert radial_power_log_value(0.0, 0.0) == pytest.approx(1.0, rel=1e-11)
    for (u, v), want in LOG_INTEGRAL_ORACLES.items():
        assert radial_power_log_value(u, v) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("u", [-1.0, -0.9, -0.5, 0.0, 0.7, 2.0])
@pytest.mark.parametrize("v", [0.0, 0.5, 1.5, 3.0])
def test_radial_log_integral_is_the_interval_ladder_value(u, v):
    # the interval integral int_0^1 (1-t^2)^u (1 + log 1/(1-t^2))^{-v} dt is
    # the ladder value with dim 1: inf where it diverges, and at v = 0 the
    # beta integral B(1/2, u+1)/2
    got = radial_power_log_value(u, v)
    if u == -1.0 and v <= 1.0:
        assert math.isinf(got) and got > 0.0
    else:
        assert 0.0 < got < math.inf
    if v == 0.0 and u > -1.0:
        assert got == pytest.approx(0.5 * sbeta(0.5, u + 1.0), rel=1e-12)


def test_radial_power_log_value_matches_normalization():
    for dim in (2, 3):
        for b in (0.5, 2.0):
            got = radial_power_log_value(b, 0.0, dim=dim)
            assert got == pytest.approx(normalization_V(b, dim), rel=1e-10)
    # plain mode agrees with the interval integral object
    assert radial_power_log_value(-1.0, 2.0) == pytest.approx(
        LOG_INTEGRAL_ORACLES[(-1.0, 2.0)], rel=1e-9
    )


def test_ladder_dichotomy_off_boundary():
    for dim in (1, 2, 3):
        for b in (-0.9, -0.95, -1.05, -1.5, -3.0):
            for v in (0.0, 1.0, 2.5):
                res = radial_power_log_ladder(b, v, dim=dim)
                assert res.finite == (b > -1.0), (dim, b, v)


def test_ladder_value_close_to_full_integral_away_from_boundary():
    for dim in (1, 2, 3):
        res = radial_power_log_ladder(0.3, 1.0, dim=dim)
        want = radial_power_log_value(0.3, 1.0, dim=dim)
        assert res.finite
        assert res.value == pytest.approx(want, rel=1e-8)


def test_ladder_rungs_monotone():
    res = radial_power_log_ladder(-0.5, 0.0, dim=2)
    totals = [t for _, t in res.rungs]
    assert totals == sorted(totals)
    assert res.rungs[-1][0] == 512.0


def test_ladder_hairline_divergence_is_documented_miss():
    # slack 0.001 with the log damping factor sits inside the advertised 0.05
    # resolution band: growth across the deepest doublings stays below the
    # factor rule, so the ladder cannot distinguish it from convergence
    res = radial_power_log_ladder(-1.001, 1.0, dim=2)
    assert res.finite


def test_ladder_overflow_guard():
    res = radial_power_log_ladder(-50.0, 0.0, dim=2)
    assert not res.finite
    assert res.value == math.inf
    assert len(res.rungs) == 0


SUP_ES = (0.05, 0.1, 0.3, 0.7, 1.2, 3.0)
SUP_VS = (-7.0, -3.0, -1.0, -0.5, -0.1, 0.0, 0.5, 2.0)


def _mp_weighted_sup(e, v):
    """40-digit max over w >= 0 of exp(-e w - v log(1+w)) for e > 0: the
    exponent's derivative -e - v/(1+w) decreases, so the max sits at its
    root when the derivative is positive at w = 0, and at w = 0 otherwise."""
    with mpmath.workdps(40):
        e, v = mpmath.mpf(e), mpmath.mpf(v)
        w = mpmath.mpf(0)
        if -e - v > 0:
            w = mpmath.findroot(lambda w: -e - v / (1 + w), (0, 1e4), solver="anderson")
        return mpmath.exp(-e * w - v * mpmath.log1p(w))


def test_weighted_sup_ladder():
    # exp turns the log-sup's rounding into a relative error of about
    # |log-sup| eps; the grid's log-sups reach 27.6, and its worst error is 5.3e-15
    worst = 0.0
    for e, v in itertools.product(SUP_ES, SUP_VS):
        got = weighted_sup_ladder(e, v)
        want = _mp_weighted_sup(e, v)
        assert got.finite and got.rungs == ()
        worst = max(worst, float(abs(got.value - want) / want))
    assert worst <= 1e-14
    assert weighted_sup_ladder(0.05, -7.0).value == pytest.approx(1.01053090608465158e12, rel=1e-14)
    for v in (0.0, 0.5, 2.0):
        assert weighted_sup_ladder(0.0, v) == LadderResult(True, 1.0, ())
    for e, v in itertools.product((-0.05, -2.0), SUP_VS + (4.0,)):
        assert weighted_sup_ladder(e, v) == LadderResult(False, math.inf, ())
    for v in (-7.0, -3.0, -0.1):
        assert weighted_sup_ladder(0.0, v) == LadderResult(False, math.inf, ())
    for e, v in ((math.nan, 0.0), (0.5, math.nan), (math.inf, -1.0), (0.5, -math.inf)):
        with pytest.raises(ValueError, match="finite"):
            weighted_sup_ladder(e, v)


def test_weighted_sup_ladder_past_the_double_range():
    # finite sups above the largest double are inf with finite True, not an
    # OverflowError: log-sups 860.7 (e = 1, v = -200) and 816 (e = 1e-50, v = -7)
    for e, v in ((1.0, -200.0), (1e-50, -7.0), (1e-320, -1.0)):
        assert weighted_sup_ladder(e, v) == LadderResult(True, math.inf, ())
    # -v/e overflows a double while the sup is near 1: the exact stationary point
    with mpmath.workdps(40):
        e, v = mpmath.mpf(5e-324), mpmath.mpf(-1e-10)
        w = -v / e - 1
        want = mpmath.exp(-e * w - v * mpmath.log1p(w))
    got = weighted_sup_ladder(5e-324, -1e-10)
    assert got.finite and got.value == pytest.approx(float(want), rel=1e-14)


def test_rule_validation_and_updates():
    with pytest.raises(ValueError):
        BallQuadrature(dim=1)
    with pytest.raises(ValueError):
        BallQuadrature(dim=2, radial_nodes=0)
    with pytest.raises(ValueError):
        BallQuadrature(dim=2, sphere_nodes=3)
    # node counts are integers: a fractional one is refused, not truncated
    for kwargs in ({"radial_nodes": 16.5}, {"sphere_nodes": 30.5}, {"radial_nodes": math.inf},
                   {"sphere_nodes": math.nan}):
        (name, value), = kwargs.items()
        least = 1 if name == "radial_nodes" else 4
        with pytest.raises(ValueError, match=f"{name} must be an integer >= {least}, got {value}"):
            BallQuadrature(dim=3, **kwargs)
    with pytest.raises(ValueError, match="radial_nodes must be an integer >= 1, got 16.5"):
        BallQuadrature(dim=2).with_radial_nodes(16.5)
    assert BallQuadrature(dim=2.0, radial_nodes=16.0).describe() == {
        "dim": 2, "radial_nodes": 16, "sphere_nodes": 256}
    with pytest.raises(TypeError):
        BallQuadrature(dim=4, mc_samples=4096)
    # a rule carries no weight: each integral passes its own
    with pytest.raises(TypeError):
        BallQuadrature(dim=2, jacobi_exponent=0.5)
    rule = BallQuadrature(dim=3)
    assert not hasattr(rule, "with_jacobi_exponent")
    assert rule.with_radial_nodes(32).radial_nodes == 32
    assert "mc_samples" not in rule.describe()
    described = BallQuadrature(dim=5).describe()
    assert set(described) == {"dim", "radial_nodes", "sphere_nodes"}
    assert "mc_samples" not in described and "seed" not in described
