"""Acceptance suite: nine end-to-end criteria with stated tolerances and
runtime budgets, one printed pass/fail line per criterion."""

import math
import time
from dataclasses import replace

import numpy as np

from bergbesov.classifier import OperatorParams, Target, classify, reduce_to_unweighted
from bergbesov.expansion import HarmonicExpansion, apply_D, evaluate
from bergbesov.kernel import KernelSpec, gamma_coefs, kernel_eval, truncation_degree, zonal_harmonic
from bergbesov.operators import (
    TestFunction as Fuv,
    _image_polar,
    lp_membership_analytic,
    projection_Q,
    transform_finite_analytic,
)
from bergbesov.probe import boundary_suite, default_ratio_family, finiteness_probe, ratio_probe
from bergbesov.quadrature import (
    BallQuadrature,
    normalization_V,
    radial_power_log_ladder,
)
from bergbesov.specfun import log_pochhammer

INF = math.inf


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def _ball_point(rng, dim, rmax):
    v = rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return rng.uniform(0.0, rmax) ** (1.0 / dim) * v


def _unit_dir(rng, dim):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_kernel_normalization():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for dim in (2, 3):
        origin = np.zeros(dim)
        for alpha in (-5.0, -2.5, -1.0, 0.0, 1.7, 4.0):
            spec = KernelSpec(alpha, dim)
            for _ in range(100):
                x = _ball_point(rng, dim, 0.999)
                worst = max(worst, abs(kernel_eval(spec, x, origin) - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(1, ok, f"kernel at y=0 within {worst:.2e} of 1 "
                   f"(tol 1e-8) over 1200 points, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 10.0


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_operator_algebra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    identity_exact = True
    inverse_worst = 0.0
    pointwise_worst = 0.0
    for i in range(50):
        dim = 2 if i % 2 == 0 else 3
        s = rng.uniform(-2.0, 2.0)
        t = rng.uniform(-1.5, 1.5)
        x = _ball_point(rng, dim, 0.6)
        y = _ball_point(rng, dim, 0.6)
        spec_s = KernelSpec(s, dim)
        spec_st = KernelSpec(s + t, dim)
        rx = float(np.linalg.norm(x))
        ry = float(np.linalg.norm(y))
        kmax = max(truncation_degree(spec_s, rx, ry),
                   truncation_degree(spec_st, rx, ry)) + 30
        gam = gamma_coefs(kmax, s, dim)
        series = HarmonicExpansion.from_terms(
            dim, [(k, y, gam[k]) for k in range(kmax + 1)])
        identity_exact &= np.array_equal(apply_D(s, 0.0, series).coefs, series.coefs)
        shifted = apply_D(s, t, series)
        back = apply_D(s + t, -t, shifted)
        scale = np.maximum(np.abs(series.coefs), 1e-300)
        inverse_worst = max(inverse_worst,
                            float(np.max(np.abs(back.coefs - series.coefs) / scale)))
        pointwise_worst = max(pointwise_worst,
                              abs(evaluate(shifted, x) - kernel_eval(spec_st, x, y)))
    elapsed = time.perf_counter() - t0
    ptol = 2.0 * KernelSpec(0.0, 2).tol
    ok = identity_exact and inverse_worst <= 1e-12 and pointwise_worst <= ptol and elapsed < 30.0
    _report(2, ok, f"t=0 exact={identity_exact}, inverse {inverse_worst:.2e} "
                   f"(tol 1e-12), shifted-kernel {pointwise_worst:.2e} "
                   f"(tol {ptol:.0e}) over 50 tuples, {elapsed:.1f}s")
    assert identity_exact
    assert inverse_worst <= 1e-12
    assert pointwise_worst <= ptol
    assert elapsed < 30.0


# ---------------------------------------------------------------- criterion 3


def _solid_harmonic(k, w, pts, dim):
    """Degree-k solid harmonic x -> Z_k(x, w) on rows of pts, |w| = 1."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    r = np.linalg.norm(pts, axis=1)
    if k == 0:
        return np.ones(len(pts))
    safe = np.where(r > 0.0, r, 1.0)
    u = (pts @ w) / safe
    if dim == 2:
        angular = 2.0 * np.cos(k * np.arccos(np.clip(u, -1.0, 1.0)))
    else:
        lam = 0.5 * (dim - 2)
        prev = np.ones_like(u)
        cur = 2.0 * lam * u
        for j in range(2, k + 1):
            prev, cur = cur, (2.0 * (j - 1 + lam) * u * cur
                              - (j - 2 + 2 * lam) * prev) / j
        angular = ((dim + 2 * k - 2) / (dim - 2)) * cur
    return np.where(r > 0.0, r ** k * angular, 0.0)


def test_criterion_3_projection_reproduces_harmonics():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    # cross-validate the vectorized evaluator against the scalar zonal form
    for dim in (2, 3):
        for k in range(4):
            w = _unit_dir(rng, dim)
            for _ in range(5):
                x = _ball_point(rng, dim, 0.95)
                got = _solid_harmonic(k, w, x[None, :], dim)[0]
                ref = zonal_harmonic(k, x, w, dim)
                assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

    worst = 0.0
    api_worst = 0.0
    radii = np.array([0.15, 0.35, 0.55, 0.7])
    for dim in (2, 3):
        rule = BallQuadrature(dim)
        dirs = np.array([_unit_dir(rng, dim) for _ in range(5)])
        pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, dim)
        for alpha in (0.0, 1.0, 2.5):
            vnorm = normalization_V(alpha, dim)
            for k in range(4):
                w = _unit_dir(rng, dim)
                f = lambda q: _solid_harmonic(k, w, q, dim)
                exact = _solid_harmonic(k, w, pts, dim)
                if dim == 2:
                    vals = np.array([projection_Q(alpha, f, x, rule=rule) for x in pts])
                else:
                    # grid evaluator shared with the norm paths; spot-tie it
                    # to the public single-point projection below
                    img = _image_polar(alpha, f, radii, dirs,
                                       KernelSpec(alpha, dim), rule) / vnorm
                    vals = img.reshape(-1)
                    for idx in (3, 17):
                        spot = projection_Q(alpha, f, pts[idx], rule=rule)
                        api_worst = max(api_worst, abs(spot - vals[idx]))
                worst = max(worst, float(np.max(np.abs(vals - exact))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and api_worst <= 1e-8 and elapsed < 120.0
    _report(3, ok, f"projection error {worst:.2e} (tol 1e-6) over degrees 0..3, "
                   f"20 points, alpha in (0,1,2.5), dims 2,3; "
                   f"grid-vs-api {api_worst:.2e}; {elapsed:.1f}s")
    assert worst <= 1e-6
    assert api_worst <= 1e-8
    assert elapsed < 120.0


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_lemma_dichotomies():
    mismatches = []
    for dim in (2, 3):
        for a in (-1.6, -1.3, -1.05, -0.95, -0.6, 0.4):
            for v in (0.0, 1.0, 2.0):
                pred = a > -1.0
                obs = radial_power_log_ladder(a, v, dim=dim).finite
                if pred != obs:
                    mismatches.append(("radial", dim, a, v))
    for p in (1.0, 2.0, 3.5):
        for alpha in (-0.5, 0.0, 1.0):
            for slack in (-0.8, -0.3, -0.05, 0.05, 0.3, 0.8):
                for v in (0.0, 1.0):
                    tf = Fuv((-1.0 + slack - alpha) / p, v)
                    pred = lp_membership_analytic(tf, p, alpha)
                    obs = radial_power_log_ladder(alpha + p * tf.u, p * tf.v, dim=2).finite
                    if pred != obs:
                        mismatches.append(("membership", p, alpha, slack, v))
    for b in (0.0, 0.5):
        for slack in (-1.0, -0.4, -0.05, 0.05, 0.4, 1.0):
            for v in (0.0, 1.0):
                u = -1.0 + slack - b
                pred = transform_finite_analytic(b, Fuv(u, v))
                obs = radial_power_log_ladder(b + u, v, dim=2).finite
                if pred != obs:
                    mismatches.append(("transform", b, slack, v))
    ok = not mismatches
    _report(4, ok, f"{len(mismatches)} predicate/ladder mismatches off-boundary "
                   f"(|slack| >= 0.05) across the three dichotomies")
    assert not mismatches, mismatches


# ---------------------------------------------------------------- criterion 5

# (target, p, q, beta, part, c-relation): one row per pair-form theorem part,
# with the beta = 0 rows of the sup-type weighted target switching to strict
_PAIR_PARTS = [
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

_ALT_PARTS = [
    ("besov", 2.0, 0.5), ("lebesgue", 2.0, 0.5), ("bloch", INF, 0.5),
    ("hinf", INF, 0.0), ("wlinf", INF, 0.5), ("wlinf", INF, 0.0),
]


def test_criterion_5_classifier_boundary_exactness():
    t0 = time.perf_counter()
    eps = 1e-9
    failures = []
    parts_seen = set()

    def base(target, p, q, beta, **kw):
        par = OperatorParams(b=kw.get("b", 0.7), c=kw.get("c", 0.0),
                             alpha=kw.get("alpha", 0.2), beta=beta,
                             p=p, q=q, dim=3)
        return par

    for target, p, q, beta, part, rel in _PAIR_PARTS:
        probe = classify(base(target, p, q, beta), target)
        parts_seen.add(probe.part)
        cineq = probe.inequalities[1]
        good = (probe.part == part and cineq.rel == rel)
        on = classify(replace(base(target, p, q, beta), c=cineq.rhs), target)
        above = classify(replace(base(target, p, q, beta), c=cineq.rhs + eps), target)
        below = classify(replace(base(target, p, q, beta), c=cineq.rhs - eps), target)
        good &= on.bounded == (rel == "<=")
        good &= (not above.bounded) and below.bounded
        if not good:
            failures.append(("pair", target, part))

    for target, q, beta in _ALT_PARTS:
        par = base(target, 1.0, q, beta)
        probe = classify(par, target)
        parts_seen.add(probe.part)
        x = probe.inequalities[1].rhs
        corner = replace(par, alpha=par.b)
        xe = classify(corner, target).inequalities[3].rhs
        good = probe.part.endswith("(ii)")
        good &= classify(replace(par, c=x), target).bounded
        good &= not classify(replace(par, c=x + eps), target).bounded
        good &= not classify(replace(corner, c=xe), target).bounded
        good &= classify(replace(corner, c=xe - eps), target).bounded
        good &= not classify(replace(corner, alpha=corner.alpha + eps, c=xe - eps), target).bounded
        if not good:
            failures.append(("alt", target))

    # source-side first inequality at its threshold, c held far below
    for target, q in (("besov", 2.0), ("lebesgue", 2.0), ("bloch", INF),
                      ("hinf", INF), ("wlinf", INF)):
        for p in (2.0, INF):
            astar = 0.7 + 1.0 if math.isinf(p) else p * (0.7 + 1.0) - 1.0
            lo = base(target, p, q, 0.0 if target in ("hinf", "wlinf") else 0.5,
                      c=-50.0)
            at = classify(replace(lo, alpha=astar), target)
            inside = classify(replace(lo, alpha=astar - eps), target)
            if at.bounded or not inside.bounded:
                failures.append(("first", target, p))

    elapsed = time.perf_counter() - t0
    expected_parts = {f"besov({r})" for r in ("i", "ii", "iii", "iv")}
    expected_parts |= {f"lebesgue({r})" for r in ("i", "ii", "iii", "iv")}
    expected_parts |= {f"{t}({r})" for t in ("bloch", "hinf", "wlinf")
                       for r in ("i", "ii", "iii")}
    ok = not failures and parts_seen == expected_parts and elapsed < 5.0
    _report(5, ok, f"{len(failures)} flip failures over {len(parts_seen)} parts "
                   f"(all 17 covered: {parts_seen == expected_parts}), {elapsed:.2f}s")
    assert not failures, failures
    assert parts_seen == expected_parts
    assert elapsed < 5.0


# ------------------------------------------------------------ criteria 6 & 7

_P_CHOICES = (1.0, 1.3, 2.0, 3.7, INF)
_Q_CHOICES = (1.0, 1.3, 2.0, 3.7)


def test_criterion_6_metamorphic_reduction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    n = 100_000
    b = rng.uniform(-4.0, 4.0, n)
    c = rng.uniform(-4.0, 4.0, n)
    al = rng.uniform(-4.0, 4.0, n)
    be = rng.uniform(-4.0, 4.0, n)
    pidx = rng.integers(0, len(_P_CHOICES), n)
    qidx = rng.integers(0, len(_Q_CHOICES), n)
    dims = rng.integers(0, 2, n)
    targets = (Target.BESOV, Target.BLOCH, Target.HINF)
    violations = 0
    for i in range(n):
        target = targets[i % 3]
        q = _Q_CHOICES[qidx[i]] if target is Target.BESOV else INF
        par = OperatorParams(b=b[i], c=c[i], alpha=al[i], beta=be[i],
                             p=_P_CHOICES[pidx[i]], q=q, dim=2 + int(dims[i]))
        red = reduce_to_unweighted(par, target)
        if classify(par, target).bounded != classify(red, target).bounded:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0
    _report(6, ok, f"{violations} verdict changes under the weight shift "
                   f"on {n} random tuples, {elapsed:.1f}s")
    assert violations == 0


def test_criterion_7_composition_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    n = 50_000
    violations = 0
    for kind in ("besov-lebesgue", "bloch-wlinf"):
        b = rng.uniform(-4.0, 4.0, n)
        c = rng.uniform(-4.0, 4.0, n)
        al = rng.uniform(-4.0, 4.0, n)
        be = rng.uniform(-4.0, 4.0, n)
        pidx = rng.integers(0, len(_P_CHOICES), n)
        qidx = rng.integers(0, len(_Q_CHOICES), n)
        dims = rng.integers(0, 2, n)
        for i in range(n):
            dim = 2 + int(dims[i])
            p = _P_CHOICES[pidx[i]]
            if kind == "besov-lebesgue":
                q = _Q_CHOICES[qidx[i]]
                par = OperatorParams(b=b[i], c=c[i], alpha=al[i], beta=be[i],
                                     p=p, q=q, dim=dim)
                shifted = OperatorParams(b=b[i], c=c[i] - be[i] / q, alpha=al[i],
                                         beta=0.0, p=p, q=q, dim=dim)
                same = (classify(par, Target.BESOV).bounded
                        == classify(shifted, Target.LEBESGUE).bounded)
            else:
                par = OperatorParams(b=b[i], c=c[i], alpha=al[i], beta=be[i],
                                     p=p, q=INF, dim=dim)
                shifted = OperatorParams(b=b[i], c=c[i] - be[i] + 1.0, alpha=al[i],
                                         beta=1.0, p=p, q=INF, dim=dim)
                same = (classify(par, Target.BLOCH).bounded
                        == classify(shifted, Target.WLINF).bounded)
            violations += not same
    elapsed = time.perf_counter() - t0
    ok = violations == 0
    _report(7, ok, f"{violations} verdict mismatches across both compositions "
                   f"on 2x{n} random tuples, {elapsed:.1f}s")
    assert violations == 0


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_probe_agreement():
    t0 = time.perf_counter()
    suite = boundary_suite()
    finiteness_bad = []
    ratio_bad = []
    for par, target in suite:
        if not finiteness_probe(par, target).agree:
            finiteness_bad.append((par, target))
        if not ratio_probe(par, target=target).agree:
            ratio_bad.append((par, target))
    rate = (len(suite) - len(ratio_bad)) / len(suite)
    unresolved = []
    for par, target in ratio_bad:
        fam = default_ratio_family(par, deltas=(0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625))
        if not ratio_probe(par, family=fam, target=target).agree:
            unresolved.append((par, target))
    elapsed = time.perf_counter() - t0
    ok = (not finiteness_bad and rate >= 0.9 and not unresolved
          and elapsed < 600.0)
    _report(8, ok, f"finiteness {60 - len(finiteness_bad)}/60, ratio agreement "
                   f"{rate:.0%} (need >= 90%), {len(ratio_bad) - len(unresolved)}"
                   f"/{len(ratio_bad)} disagreements resolved deeper, {elapsed:.0f}s")
    assert not finiteness_bad, finiteness_bad
    assert rate >= 0.9
    assert not unresolved, unresolved
    assert elapsed < 600.0


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_asymptotics():
    k_hi = 2 ** 14
    k_lo = 2 ** 13
    worst_gamma = 0.0
    for dim in (2, 3):
        for alpha in (-2.5, -1.0, 0.0, 1.7):
            gam = gamma_coefs(k_hi, alpha, dim)
            scaled_lo = gam[k_lo] / k_lo ** (1.0 + alpha)
            scaled_hi = gam[k_hi] / k_hi ** (1.0 + alpha)
            worst_gamma = max(worst_gamma, abs(scaled_hi / scaled_lo - 1.0))
    worst_stirling = 0.0
    for a in (0.5, 1.3, 4.0):
        q_lo, _ = log_pochhammer(a, k_lo)
        q_hi, _ = log_pochhammer(a, k_hi)
        r_lo = q_lo / (k_lo * math.log(k_lo) - k_lo)
        r_hi = q_hi / (k_hi * math.log(k_hi) - k_hi)
        worst_stirling = max(worst_stirling, abs(r_hi / r_lo - 1.0))
    ok = worst_gamma <= 0.02 and worst_stirling <= 0.02
    _report(9, ok, f"gamma dyadic ratio off by {worst_gamma:.2e}, "
                   f"Stirling ratio off by {worst_stirling:.2e} at k=2^14 (tol 2e-2)")
    assert worst_gamma <= 0.02
    assert worst_stirling <= 0.02
