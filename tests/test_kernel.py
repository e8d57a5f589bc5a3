"""Kernel layer: gamma coefficients, zonal harmonics, truncation certificate,
the closed-form orders' two-degree check of it against the search, series
evaluation, the single-pair series against a node-array loop, the batch
(zonal table and Horner) against the single-pair series, and the
closed-form orders against 40-digit references and against the series."""

import functools
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergbesov import _accel, kernel
from bergbesov.expansion import HarmonicExpansion, evaluate_many
from bergbesov.kernel import (
    MAX_DEGREE,
    KernelDivergenceError,
    KernelSpec,
    TruncationLimitError,
    gamma_coef,
    gamma_coefs,
    harmonic_dim,
    has_closed_form,
    kernel_eval,
    kernel_eval_batch,
    kernel_eval_degree,
    truncation_degree,
    zonal_harmonic,
)
from bergbesov.specfun import pochhammer
from truncation_reference import _harmonic_dims, scan_truncation_degree

RNG = np.random.default_rng(31)


def _ball_point(dim, radius):
    v = RNG.normal(size=dim)
    return v * (radius / np.linalg.norm(v))


def _gamma_reference(k, alpha, dim):
    # independent Pochhammer-ratio form of the two-branch coefficient
    n2 = 0.5 * dim
    if alpha > -(1.0 + n2):
        return pochhammer(1.0 + n2 + alpha, k) / pochhammer(n2, k)
    return math.factorial(k) ** 2 / (pochhammer(1.0 - (n2 + alpha), k) * pochhammer(n2, k))


def test_gamma_frozen_examples():
    assert gamma_coef(0, 0.7, 2) == 1.0
    assert gamma_coef(0, -9.0, 5) == 1.0
    # n=2, alpha=0: gamma_k = k+1; n=2, alpha=-2 flips to the factorial branch
    assert gamma_coef(3, 0.0, 2) == pytest.approx(4.0, rel=1e-13)
    assert gamma_coef(3, -2.0, 2) == pytest.approx(0.25, rel=1e-13)


def test_gamma_matches_pochhammer_form():
    for dim in (2, 3, 4):
        for alpha in (-6.0, -3.5, -(1.0 + 0.5 * dim), -1.0, 0.0, 2.25):
            table = gamma_coefs(40, alpha, dim)
            assert table[0] == 1.0
            assert np.all(table > 0.0)
            for k in (1, 2, 7, 19, 40):
                assert table[k] == pytest.approx(_gamma_reference(k, alpha, dim), rel=1e-11)


def test_gamma_scalar_matches_table():
    table = gamma_coefs(25, -1.3, 3)
    for k in (0, 1, 12, 25):
        assert gamma_coef(k, -1.3, 3) == table[k]


def test_gamma_dyadic_growth_moderate_alpha():
    # gamma_k ~ k^(1+alpha): consecutive dyadic ratios settle near 2^(1+alpha)
    for dim in (2, 3):
        for alpha in (-1.5, 0.0, 1.0):
            table = gamma_coefs(2**14, alpha, dim)
            target = 2.0 ** (1.0 + alpha)
            for j in range(8, 14):
                ratio = table[2 ** j] / table[2 ** (j - 1)]
                assert abs(ratio / target - 1.0) < 0.02


def test_gamma_validation():
    with pytest.raises(ValueError):
        gamma_coef(-1, 0.0, 2)
    with pytest.raises(ValueError):
        gamma_coef(1.5, 0.0, 2)
    with pytest.raises(ValueError):
        gamma_coefs(-1, 0.0, 2)
    # the dimension is checked, not truncated
    for dim in (2.5, 1, math.inf):
        with pytest.raises(ValueError, match=f"dim must be an integer >= 2, got {dim}"):
            gamma_coef(1, 0.0, dim)
        with pytest.raises(ValueError, match=f"dim must be an integer >= 2, got {dim}"):
            harmonic_dim(2, dim)
    for k in (math.inf, math.nan, -1, 0.5):
        with pytest.raises(ValueError, match=f"degree must be an integer >= 0, got {k}"):
            harmonic_dim(k, 3)


def test_gamma_coefs_checks_dim_and_alpha():
    # both public coefficient functions check every argument: a fractional,
    # too small or boolean dimension and a non-finite order raise instead of
    # returning a table of another dimension or of NaN
    for dim in (2.5, 1, True, math.nan):
        with pytest.raises(ValueError, match=f"dim must be an integer >= 2, got {dim}"):
            gamma_coefs(3, 0.0, dim)
        with pytest.raises(ValueError, match=f"dim must be an integer >= 2, got {dim}"):
            gamma_coef(3, 0.0, dim)
    for alpha in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"alpha must be finite, got {alpha}"):
            gamma_coefs(3, alpha, 3)
        with pytest.raises(ValueError, match=f"alpha must be finite, got {alpha}"):
            gamma_coef(3, alpha, 3)
    assert gamma_coefs(3, 0.0, np.int64(2)).tolist() == [1.0, 2.0, 3.0, 4.0]


def test_gamma_coefs_is_the_running_product_of_the_ratio_table():
    # a single pair's series reads the ratios gamma_k/gamma_{k-1}; the table
    # is their running product, bit for bit, on both branches
    for dim in range(2, 9):
        for alpha in (-9.5, -(1.0 + 0.5 * dim), -1.3, 0.0, 2.25):
            for kmax in (0, 1, 2, 40, 3000):
                ratios = kernel._gamma_ratios(kmax, alpha, dim)
                assert ratios.shape == (kmax + 1,) and ratios[0] == 1.0
                assert np.array_equal(gamma_coefs(kmax, alpha, dim), np.cumprod(ratios))
                for k in range(1, min(kmax, 40) + 1):
                    want = _gamma_reference(k, alpha, dim) / _gamma_reference(k - 1, alpha, dim)
                    assert ratios[k] == pytest.approx(want, rel=1e-13)


def test_harmonic_dim_tables():
    assert [harmonic_dim(k, 2) for k in range(4)] == [1.0, 2.0, 2.0, 2.0]
    assert [harmonic_dim(k, 3) for k in range(5)] == [1.0, 3.0, 5.0, 7.0, 9.0]
    assert [harmonic_dim(k, 4) for k in range(4)] == [1.0, 4.0, 9.0, 16.0]


def test_zonal_degree_zero_and_zero_argument():
    x = _ball_point(3, 0.4)
    assert zonal_harmonic(0, x, x, 3) == 1.0
    assert zonal_harmonic(3, np.zeros(3), x, 3) == 0.0
    assert zonal_harmonic(3, x, np.zeros(3), 3) == 0.0


def test_zonal_harmonic_validation():
    x = _ball_point(3, 0.4)
    with pytest.raises(ValueError):
        zonal_harmonic(-1, x, x, 3)
    with pytest.raises(ValueError):
        zonal_harmonic(1.5, x, x, 3)
    # points of another length are refused, not cut short, at every degree
    y = x.tolist()
    for k in (0, 2):
        for a, b, dim in ((y, y[:2], 3), (y[:2], y, 3), (y, y, 2), (x, x, 2), (tuple(y), y + [0.1], 3)):
            with pytest.raises(ValueError, match=r"points must have shape \(\d,\)"):
                zonal_harmonic(k, a, b, dim)
        with pytest.raises(ValueError, match="dim must be an integer >= 2"):
            zonal_harmonic(k, y[:1], y[:1], 1)
    assert zonal_harmonic(2, y, tuple(y), 3) == zonal_harmonic(2, x, x, 3)


def test_zonal_harmonic_is_the_zonal_table_row():
    for dim in (2, 3, 5):
        x = _ball_point(dim, 0.7)
        y = _ball_point(dim, 0.9)
        u = float(x @ y) / (0.7 * 0.9)
        for k in (1, 2, 7, 30):
            want = 0.63**k * _accel.zonal_table(k, np.array([u]), dim)[k, 0]
            assert zonal_harmonic(k, x, y, dim) == pytest.approx(want, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("dim", range(2, 9))
def test_zonal_point_is_the_zonal_table_row_bit_for_bit(dim):
    for t in (1.0, -1.0, 0.0, 0.3, -0.3, 1.0 - 1e-7, -(1.0 - 1e-7)):
        table = _accel.zonal_table(300, np.array([t]), dim)[:, 0].tolist()
        assert [_accel.zonal_point(k, t, dim).hex() for k in range(301)] == [v.hex() for v in table]
    # zonal_harmonic is (|x||y|)^k times it at the pair's float cosine
    x, y = (np.random.default_rng(dim).uniform(-0.3, 0.3, size=(2, dim))).tolist()
    rx, ry = math.sqrt(kernel._dot(x, x)), math.sqrt(kernel._dot(y, y))
    t = kernel._pair_cosine(x, rx, y, ry)
    for k in (1, 2, 7, 30, 300):
        assert zonal_harmonic(k, x, y, dim) == rx**k * ry**k * _accel.zonal_table(k, np.array([t]), dim)[k, 0]


def test_zonal_frozen_value_disk():
    # n=2, k=2, coincident direction: 2 * (0.5*0.5)^2
    x = np.array([0.5, 0.0])
    assert zonal_harmonic(2, x, x, 2) == pytest.approx(0.125, rel=1e-14)


def test_zonal_degree_one_is_n_dot():
    for dim in (2, 3, 4):
        x = _ball_point(dim, 0.6)
        y = _ball_point(dim, 0.3)
        assert zonal_harmonic(1, x, y, dim) == pytest.approx(dim * float(x @ y), rel=1e-12)


def test_zonal_symmetry_and_sup_bound():
    for dim in (2, 3, 4):
        for k in (1, 2, 5, 11):
            x = _ball_point(dim, RNG.uniform(0.1, 0.9))
            y = _ball_point(dim, RNG.uniform(0.1, 0.9))
            zxy = zonal_harmonic(k, x, y, dim)
            zyx = zonal_harmonic(k, y, x, dim)
            assert zxy == pytest.approx(zyx, rel=1e-11, abs=1e-13)
            t = float(np.linalg.norm(x) * np.linalg.norm(y))
            assert abs(zxy) <= harmonic_dim(k, dim) * t**k * (1.0 + 1e-12)


def test_zonal_coincident_boundary_value_is_harmonic_dim():
    for dim in (2, 3, 4):
        zeta = np.zeros(dim)
        zeta[0] = 1.0
        for k in (0, 1, 4, 9):
            assert zonal_harmonic(k, zeta, zeta, dim) == pytest.approx(
                harmonic_dim(k, dim), rel=1e-12
            )


def _certified_ratio(spec, t, k):
    # the tail ratio past degree k: t times bounds on every later
    # coefficient ratio and every later ratio h_{j+1}/h_j
    n2 = 0.5 * spec.dim
    if spec.alpha <= -(1.0 + n2):
        g = (k + 1.0) / (k + n2)
    else:
        g = max(1.0, (1.0 + n2 + spec.alpha + k) / (n2 + k))
    ks = np.array([k, k + 1])
    h = _harmonic_dims(ks, spec.dim)
    return t * g * h[1] / h[0]


def test_truncation_certificate_tail_below_tol():
    # the tail past K summed directly for max(2000, 20/(1-t)) terms, plus
    # the geometric remainder of the last term at its certified ratio
    for dim, alpha in itertools.product((2, 3, 4, 5), (-9.0, -4.0, -1.0, 0.0, 1.7)):
        spec = KernelSpec(alpha=alpha, dim=dim)
        pairs = [(0.3, 0.4), (0.7, 0.7), (0.95, 0.6), (math.sqrt(0.99),) * 2, (math.sqrt(0.999),) * 2]
        for rx, ry in pairs:
            K = truncation_degree(spec, rx, ry)
            t = rx * ry
            last = K + max(2000, math.ceil(20.0 / (1.0 - t)))
            ks = np.arange(K + 1, last + 1)
            terms = gamma_coefs(last, alpha, dim)[K + 1:] * _harmonic_dims(ks, dim) * t**ks
            rho = _certified_ratio(spec, t, last)
            assert rho < 1.0
            tail = math.fsum(terms) + terms[-1] * rho / (1.0 - rho)
            assert tail <= spec.tol, (alpha, t, K, tail)


def test_truncation_degree_monotone():
    spec = KernelSpec(alpha=0.5, dim=3)
    degrees = [truncation_degree(spec, r, r) for r in (0.2, 0.5, 0.8, 0.95)]
    assert degrees == sorted(degrees)
    tight = KernelSpec(alpha=0.5, dim=3, tol=1e-13)
    assert truncation_degree(tight, 0.8, 0.8) >= truncation_degree(spec, 0.8, 0.8)
    assert truncation_degree(spec, 0.0, 0.9) == 0


def test_truncation_divergence_on_sphere():
    spec = KernelSpec(alpha=0.0, dim=2)
    with pytest.raises(KernelDivergenceError):
        truncation_degree(spec, 1.0, 1.0)
    with pytest.raises(KernelDivergenceError):
        kernel_eval(spec, np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def test_truncation_gives_up_past_max_degree():
    spec = KernelSpec(alpha=0.0, dim=2)
    with pytest.raises(RuntimeError):
        truncation_degree(spec, 0.99999, 0.99999)
    with pytest.raises(TruncationLimitError):
        kernel_eval(spec, np.array([0.9999, 0.0]), np.array([0.99995, 0.0]))
    assert MAX_DEGREE == 200_000


def test_truncation_degree_cap_stops_the_search():
    # with a cap the result is min(K, cap), bit for bit, and no certificate
    # is needed above the cap
    for alpha, dim in [(0.0, 2), (0.5, 3), (-4.5, 4), (1.2, 5)]:
        spec = KernelSpec(alpha=alpha, dim=dim)
        for rx, ry in [(0.3, 0.5), (0.9, 0.95), (0.99, 0.999)]:
            k = truncation_degree(spec, rx, ry)
            for cap in (0, 3, 23, k - 1, k, k + 1, 600, 513, MAX_DEGREE):
                assert truncation_degree(spec, rx, ry, cap=cap) == min(k, cap), (alpha, dim, rx, cap)
    spec = KernelSpec(alpha=0.0, dim=2)
    assert truncation_degree(spec, 0.99999, 0.99999, cap=23) == 23
    with pytest.raises(TruncationLimitError):
        truncation_degree(spec, 0.99999, 0.99999, cap=MAX_DEGREE)
    with pytest.raises(KernelDivergenceError):
        truncation_degree(spec, 1.0, 1.0, cap=23)


def test_truncation_degree_cap_with_an_overflowing_coefficient_raises():
    # the search stops at the cap, 600, short of the first certifying
    # degree; gamma_600(1000) in dim 3 is about e^1052, so a caller summing
    # to the cap would form inf.  It raises before any table is built
    spec = KernelSpec(alpha=1000.0, dim=3)
    r = math.sqrt(0.5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TruncationLimitError, match=r"gamma_600\(1000.0\) at the cap overflows"):
            truncation_degree(spec, r, r, cap=600)
    assert caught == []
    # a cap whose coefficient is a finite double is returned as before
    assert truncation_degree(spec, r, r, cap=100) == 100


@pytest.mark.parametrize("cap", [-1, -5, 2.5, math.nan, math.inf])
def test_truncation_degree_rejects_a_cap_that_is_no_degree(cap):
    # -1 and -5 were returned as degrees, 2.5 was cut to 2, and NaN and inf
    # raised int()'s own errors; every radius pair, zero and divergent
    # ones included, now sees the cap checked first
    spec = KernelSpec(0.4, 3)
    for rx, ry in ((0.9, 0.9), (0.0, 0.9), (1.0, 1.0)):
        with pytest.raises(ValueError, match=rf"^cap must be an integer >= 0, got {cap}$"):
            truncation_degree(spec, rx, ry, cap=cap)
    assert truncation_degree(spec, 0.9, 0.9, cap=3.0) == truncation_degree(spec, 0.9, 0.9, cap=np.int64(3)) == 3


def _outcome(certify, spec, rx, ry, cap=None):
    # the degree, or the type of the error raised
    try:
        return certify(spec, rx, ry, cap=cap)
    except (KernelDivergenceError, TruncationLimitError) as exc:
        return type(exc)


def _mp_certifies(spec, t, k):
    """The certificate at first omitted degree k in 40 digits, at the float
    t taken exactly: rho_k < 1 and gamma_k h_k t^k <= tol (1 - rho_k)."""
    n, alpha = spec.dim, spec.alpha
    with mpmath.workdps(40):
        t, half = mpmath.mpf(t), mpmath.mpf(n) / 2
        if alpha <= -(1.0 + 0.5 * n):
            big_a = 1 - (half + mpmath.mpf(alpha))
            gamma = mpmath.factorial(k) ** 2 / (mpmath.rf(big_a, k) * mpmath.rf(half, k))
            g = (k + 1) / (k + half)
        else:
            a = 1 + half + mpmath.mpf(alpha)
            gamma = mpmath.rf(a, k) / mpmath.rf(half, k)
            g = max(mpmath.mpf(1), (a + k) / (half + k))
        h, h_next = harmonic_dim(k, n), harmonic_dim(k + 1, n)
        rho = t * g * h_next / h
        return bool(rho < 1 and gamma * h * t**k <= spec.tol * (1 - rho))


def _assert_matches_the_scan(spec, rx, ry, cap=None):
    """truncation_degree against the block scan it replaced: the same degree
    or the same error type.  They may differ only where the scan's float
    product gamma_k h_k t^k, at the first degree where the verdicts part, is
    inf, NaN or 0; there the search's K must be the exact certificate's,
    decided in 40 digits."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        want = _outcome(scan_truncation_degree, spec, rx, ry, cap)
    got = _outcome(truncation_degree, spec, rx, ry, cap)
    if got == want:
        return want
    case = (spec, rx, ry, cap, want, got)
    assert isinstance(got, int), case
    t = rx * ry
    first = min(got, want if isinstance(want, int) else MAX_DEGREE) + 1
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        product = gamma_coefs(first, spec.alpha, spec.dim)[-1] * harmonic_dim(first, spec.dim) * t**first
    assert not 0.0 < product < math.inf, case
    assert _mp_certifies(spec, t, got + 1), case
    assert got == 0 or not _mp_certifies(spec, t, got), case
    return got


def _caps(k):
    # k - 1 only where it is a degree: a negative cap raises ValueError
    # (test_truncation_degree_rejects_a_cap_that_is_no_degree)
    return (0, 3, 23, MAX_DEGREE) + ((k - 1, k, k + 1)[k == 0:] if isinstance(k, int) else ())


ORACLE_TS = (0.01, 0.3, 0.7, 0.9, 0.99, 0.999, 1.0 - 1e-5)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7, 8])
def test_truncation_degree_matches_the_block_scan(dim):
    # both branches, the branch point alpha = -(1 + n/2) itself, large
    # orders whose coefficients overflow, three tolerances, t to 1 - 1e-5
    orders = (-9.0, -(1.0 + 0.5 * dim), -(1.0 + 0.5 * dim) + 1e-9, -1.0, 0.0, 1.7, 50.0, 300.0, 1000.0)
    for alpha in orders:
        for tol in (1e-6, 1e-10, 1e-13):
            spec = KernelSpec(alpha, dim, tol)
            for t in ORACLE_TS:
                r = math.sqrt(t)
                k = _assert_matches_the_scan(spec, r, r)
                for cap in _caps(k):
                    _assert_matches_the_scan(spec, r, r, cap)


def test_truncation_degree_matches_the_block_scan_at_the_degree_limit():
    # dim 2, alpha 0: K crosses MAX_DEGREE near t = 0.99982 (tol 1e-6),
    # 0.99978 (1e-10) and 0.99974 (1e-13)
    outcomes = set()
    for tol in (1e-6, 1e-10, 1e-13):
        spec = KernelSpec(0.0, 2, tol)
        for t in np.linspace(0.99974, 0.9999, 14):
            r = math.sqrt(t)
            k = _assert_matches_the_scan(spec, r, r)
            outcomes.add(k if k is TruncationLimitError else "degree")
            for cap in (MAX_DEGREE - 1, MAX_DEGREE) + ((k, k + 1) if isinstance(k, int) else ()):
                _assert_matches_the_scan(spec, r, r, cap)
    assert outcomes == {TruncationLimitError, "degree"}
    # the last product below 0.99978 that certifies within MAX_DEGREE at
    # tol 1e-10: the term at degree MAX_DEGREE is 1e-11 below its bound.
    # Log-gamma differences that subtract logs of size k log k (2.4e6 here)
    # round by 5e-10 and raised TruncationLimitError
    spec = KernelSpec(0.0, 2, 1e-10)
    r = math.sqrt(0.9997782161950791)
    assert truncation_degree(spec, r, r) == MAX_DEGREE - 1 == scan_truncation_degree(spec, r, r)
    assert _mp_certifies(spec, r * r, MAX_DEGREE) and not _mp_certifies(spec, r * r, MAX_DEGREE - 1)
    r = math.nextafter(r, 1.0)
    assert _outcome(truncation_degree, spec, r, r) is TruncationLimitError
    assert not _mp_certifies(spec, r * r, MAX_DEGREE)


def test_truncation_degree_matches_the_block_scan_at_huge_orders():
    # coefficients of orders up to 1e15 at products small enough to
    # certify: log-gamma differences there cancel all their digits
    for alpha, t in ((1e6, 1e-8), (1e9, 1e-11), (1e12, 1e-14), (1e15, 1e-17), (-1e12, 0.5), (-1e6, 0.99)):
        for dim in (2, 3, 5):
            spec = KernelSpec(alpha, dim)
            r = math.sqrt(t)
            assert isinstance(_assert_matches_the_scan(spec, r, r), int)


# orders with a closed form at which the value's degree check is compared
# with the search: c = -1 and 0 in dims 2-8, and the disc's c > -2 up to
# orders whose coefficients overflow a double before MAX_DEGREE
POSITIVE_DEGREE_ORDERS = ([(c, n) for c in (-1.0, 0.0) for n in range(2, 9)]
                          + [(c, 2) for c in (-1.99, -1.5, 0.7, 3.0, 1e3, 1e5)])


def _last_holding(holds, lo, hi):
    # the largest double in [lo, hi) at which holds is true, for holds true
    # at lo, false at hi and monotone between
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)


def _switch_products(spec):
    """Products |x||y| on both sides of the two switch points of
    _degree_is_positive: the last double at which the certificate holds at
    degree 1, and the last at which it holds at MAX_DEGREE."""
    order = kernel._order_constants(spec.alpha, spec.dim)
    out = []
    for k in (1, MAX_DEGREE):
        def holds(t, k=k):
            return kernel._certifies(k, t, math.log(t), math.log(spec.tol), order) is not None

        t = _last_holding(holds, 5e-324, 1.0)
        out += [t, math.nextafter(t, 0.0), math.nextafter(t, 1.0), t * (1.0 - 1e-9), min(t * (1.0 + 1e-9), 1.0)]
    return tuple(out)


# zero, subnormal, tiny, moderate and near-sphere products
EDGE_PRODUCTS = (0.0, 5e-324, 1e-300, 1e-10, 0.5, 0.9, 0.999, 1.0 - 1e-9)
# radii whose product the search refuses: negative, on or past the sphere,
# NaN and inf * 0
REFUSED_RADII = ((1.0, 1.0), (1.5, 0.9), (-0.25, 0.5), (0.5, -0.25), (-0.5, -0.5), (math.nan, 0.5),
                 (math.inf, 0.0), (0.0, math.inf))


def _outcome_of(f, *args):
    # the value, or the type and message of the error raised
    try:
        return f(*args)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("alpha, dim", POSITIVE_DEGREE_ORDERS)
def test_the_closed_form_degree_check_is_the_search_by_outcome(alpha, dim):
    # _degree_is_positive settles a closed-form pair from the certificate at
    # degrees 1 and MAX_DEGREE; it must give truncation_degree(...) > 0, or
    # raise the same error with the same message, on both sides of either
    # switch point, and where log gamma_MAX_DEGREE overflows (c = 1e3, 1e5)
    for tol in (1e-6, 1e-10, 1e-14):
        spec = KernelSpec(alpha, dim, tol)
        assert has_closed_form(spec)
        products = EDGE_PRODUCTS + _switch_products(spec)
        for rx, ry in [(t, 1.0) for t in products] + list(REFUSED_RADII):
            want = _outcome_of(lambda *a: truncation_degree(*a) > 0, spec, rx, ry)
            assert _outcome_of(kernel._degree_is_positive, spec, rx, ry) == want, (spec, rx, ry)
        # kernel_eval reads the check, kernel_eval_degree the search: x = t e_1
        # against e_1, -e_1 and e_2 has the product t exactly
        unit = np.eye(dim)
        for t in products:
            x = (t * unit[0]).tolist()
            for y in (unit[0], -unit[0], unit[1]):
                y = y.tolist()
                want = _outcome_of(lambda *a: kernel_eval_degree(*a)[0], spec, x, y)
                assert _outcome_of(kernel_eval, spec, x, y) == want, (spec, t, y)


@pytest.mark.parametrize("alpha, dim", POSITIVE_DEGREE_ORDERS)
def test_the_closed_form_batch_reads_the_search_bit_for_bit(alpha, dim, monkeypatch):
    # a batch at a closed-form order reads _degree_is_positive where it read
    # truncation_degree(...) > 0: the rows, or the error and its message,
    # are those of the batch that runs the search
    unit = np.eye(dim)
    rows = np.vstack([unit[0], -unit[0], unit[1], np.zeros(dim), 0.5 * unit[1]])
    bad_rows = (np.array([[math.nan] + [0.0] * (dim - 1)]), np.array([[math.inf] + [0.0] * (dim - 1)]))

    def batches(spec):
        out = []
        for t in EDGE_PRODUCTS + _switch_products(spec):
            x = t * unit[0]
            for pts in (rows, 1.0000001 * rows, *bad_rows):
                got = _outcome_of(kernel_eval_batch, spec, x, pts)
                out.append(got.tobytes() if isinstance(got, np.ndarray) else got)
        return out

    for tol in (1e-6, 1e-10, 1e-14):
        spec = KernelSpec(alpha, dim, tol)
        with np.errstate(over="ignore"):
            got = batches(spec)
            with monkeypatch.context() as m:
                m.setattr(kernel, "_degree_is_positive", lambda *a: truncation_degree(*a) > 0)
                want = batches(spec)
        assert got == want, spec


@given(
    k=st.integers(min_value=1, max_value=MAX_DEGREE),
    alpha=st.floats(min_value=-40.0, max_value=1000.0),
    dim=st.integers(min_value=2, max_value=12),
    t=st.floats(min_value=1e-6, max_value=1.0 - 1e-9),
)
@settings(max_examples=300, deadline=None)
def test_tail_ratio_is_nonincreasing(k, alpha, dim, t):
    # the search relies on it: with rho_k nonincreasing, every degree past
    # the first that certifies also certifies.  Both branches: the
    # factorial one for alpha <= -(1 + n/2)
    order = kernel._order_constants(alpha, dim)
    rho = [kernel._tail_ratio(j, t, order) for j in (k, k + 1, 2 * k)]
    assert rho[1] <= rho[0] * (1.0 + 4.0 * np.finfo(float).eps)
    assert rho[2] <= rho[0] * (1.0 + 4.0 * np.finfo(float).eps)


def test_kernel_normalization_at_origin():
    for dim in (2, 3):
        for alpha in (-5.0, -1.0, 0.0, 1.7):
            spec = KernelSpec(alpha=alpha, dim=dim)
            x = _ball_point(dim, 0.83)
            assert kernel_eval(spec, x, np.zeros(dim)) == 1.0
            assert kernel_eval(spec, np.zeros(dim), x) == 1.0


def test_kernel_symmetry():
    for dim in (2, 3):
        spec = KernelSpec(alpha=-0.7, dim=dim)
        x = _ball_point(dim, 0.55)
        y = _ball_point(dim, 0.81)
        assert kernel_eval(spec, x, y) == pytest.approx(kernel_eval(spec, y, x), rel=1e-12)


def test_kernel_diagonal_closed_form_disk():
    # alpha=0, n=2: gamma_k = k+1, so R_0(x,x) = 2/(1-r^2)^2 - 1
    spec = KernelSpec(alpha=0.0, dim=2)
    for r in (0.0, 0.3, 0.6, 0.9):
        x = np.array([r, 0.0])
        want = 2.0 / (1.0 - r * r) ** 2 - 1.0
        assert kernel_eval(spec, x, x) == pytest.approx(want, rel=1e-9)


def test_kernel_matches_brute_force_zonal_sum():
    for dim in (2, 3):
        for alpha in (-3.9, 0.4):
            spec = KernelSpec(alpha=alpha, dim=dim)
            x = _ball_point(dim, 0.5)
            y = _ball_point(dim, 0.45)
            K = truncation_degree(spec, 0.5, 0.45) + 200
            table = gamma_coefs(K, alpha, dim)
            brute = sum(table[k] * zonal_harmonic(k, x, y, dim) for k in range(K + 1))
            assert kernel_eval(spec, x, y) == pytest.approx(brute, rel=1e-10, abs=1e-10)


def test_kernel_tolerance_is_honoured():
    spec = KernelSpec(alpha=1.2, dim=3, tol=1e-8)
    fine = KernelSpec(alpha=1.2, dim=3, tol=1e-13)
    x = _ball_point(3, 0.9)
    y = _ball_point(3, 0.85)
    assert abs(kernel_eval(spec, x, y) - kernel_eval(fine, x, y)) <= 1.1e-8


def test_kernel_batch_matches_scalar():
    spec = KernelSpec(alpha=-0.3, dim=3)
    x = _ball_point(3, 0.62)
    pts = np.vstack([
        _ball_point(3, 0.2),
        _ball_point(3, 0.88),
        np.zeros(3),
        _ball_point(3, 0.5),
    ])
    batch = kernel_eval_batch(spec, x, pts)
    assert batch.shape == (4,)
    for j in range(4):
        # batch truncates at the max-radius degree, scalar per pair: both are
        # within tol of the true value, so they agree to 2*tol
        assert abs(batch[j] - kernel_eval(spec, x, pts[j])) <= 2.0 * spec.tol


@pytest.mark.parametrize("dim", range(2, 9))
def test_batch_rows_equal_kernel_eval_on_random_pairs(dim):
    # every row of a batch forms its norm, cosine and closed-form arguments
    # as kernel_eval does, on Python floats, so at every closed-form order
    # each row is kernel_eval's value bit for bit, zero rows included.  At
    # a series order the batch shares the degree of its largest product and
    # sums by Horner's rule, so the two agree to 2 tol
    rng = np.random.default_rng(1700 + dim)
    closed = [-1.0, 0.0] + ([-1.5, -0.3, 0.7, 1.7, 2.5] if dim == 2 else [])
    for alpha in closed + ([-4.5, -2.5] if dim == 2 else [-4.5, 1.7]):
        spec = KernelSpec(alpha, dim)
        assert has_closed_form(spec) == (alpha in closed)
        for _ in range(6):
            x = rng.normal(size=dim)
            x *= rng.uniform(0.05, 0.95) / np.linalg.norm(x)
            pts = rng.normal(size=(12, dim))
            pts *= (rng.uniform(0.05, 0.95, size=12) / np.linalg.norm(pts, axis=1))[:, None]
            pts[rng.integers(12)] = 0.0
            batch = kernel_eval_batch(spec, x, pts)
            for y, got in zip(pts, batch.tolist()):
                want = kernel_eval(spec, x, y)
                if alpha in closed:
                    assert got == want, (alpha, x, y)
                else:
                    assert abs(got - want) <= 2.0 * spec.tol, (alpha, x, y)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(alpha=0.0, dim=1)
    for dim in (2.5, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"dim must be an integer >= 2, got {dim}"):
            KernelSpec(alpha=0.0, dim=dim)
    assert type(KernelSpec(alpha=1, dim=3.0).dim) is int
    with pytest.raises(ValueError):
        KernelSpec(alpha=0.0, dim=2, tol=0.0)
    for alpha in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="alpha must be finite"):
            KernelSpec(alpha=alpha, dim=2)


def test_nan_radii_are_rejected_before_the_search(monkeypatch):
    # a NaN coordinate, or |x||y| = inf * 0, used to gallop through every
    # degree to MAX_DEGREE and raise TruncationLimitError at t = nan
    checked = []
    certifies = kernel._certifies
    monkeypatch.setattr(kernel, "_certifies", lambda k, *a: checked.append(k) or certifies(k, *a))
    spec = KernelSpec(alpha=0.5, dim=3)
    nan_point = np.array([0.1, math.nan, 0.2])
    point = np.array([0.3, 0.2, 0.1])
    inf_point, zero = np.array([math.inf, 0.0, 0.0]), np.zeros(3)
    for x, y in ((nan_point, point), (point, nan_point), (inf_point, zero), (zero, inf_point)):
        with pytest.raises(ValueError, match="radii must be numbers"):
            kernel_eval(spec, x, y)
    for x, y in ((nan_point, point), (point, nan_point), (inf_point, zero), (zero, inf_point)):
        with pytest.raises(ValueError, match="radii must be numbers"):
            kernel_eval_batch(spec, x, y[None, :])
    for rx, ry in ((math.nan, 0.5), (0.5, math.nan), (math.inf, 0.0), (0.0, math.inf)):
        with pytest.raises(ValueError, match="radii must be numbers"):
            truncation_degree(spec, rx, ry)
    assert checked == []


def test_batch_at_the_origin_checks_every_row():
    # x = 0 used to return ones before the rows were looked at, so NaN and
    # infinite rows passed where kernel_eval raises
    spec = KernelSpec(alpha=0.5, dim=3)
    zero = np.zeros(3)
    for bad in ([math.inf, 0.0, 0.0], [0.0, math.nan, 0.0], [0.2, -math.inf, 0.1]):
        with pytest.raises(ValueError, match="radii must be numbers") as batch:
            kernel_eval_batch(spec, zero, [[0.3, 0.1, 0.0], bad])
        with pytest.raises(ValueError, match="radii must be numbers") as pair:
            kernel_eval(spec, zero, bad)
        assert str(batch.value) == str(pair.value)
    # finite rows, on the sphere or past it included, still give gamma_0 = 1
    rows = [[0.3, 0.1, 0.0], [0.0, 0.0, 0.0], [0.6, 0.8, 0.0], [2.0, 0.0, 0.0]]
    for alpha in (-4.5, -1.0, 0.0, 1.7):
        assert kernel_eval_batch(KernelSpec(alpha, 3), zero, rows).tolist() == [1.0] * 4
    assert kernel_eval_batch(spec, zero, np.zeros((0, 3))).shape == (0,)


@pytest.mark.parametrize("alpha, dim", [(0.0, 3), (-1.0, 4), (1.7, 2), (0.4, 3), (-3.5, 5), (0.4, 2)])
def test_batch_in_row_blocks_is_the_one_block_batch_bit_for_bit(alpha, dim, monkeypatch):
    spec = KernelSpec(alpha, dim)
    pts = np.random.default_rng(dim).uniform(-1.0, 1.0, size=(1003, dim)) * (0.9 / math.sqrt(dim))
    pts[500] = 0.0
    x = np.full(dim, 0.8 / math.sqrt(dim))
    whole = kernel_eval_batch(spec, x, pts)
    monkeypatch.setattr(kernel, "BATCH_ROWS", 64)
    assert kernel_eval_batch(spec, x, pts).tobytes() == whole.tobytes()
    # a NaN in the last block stops the certificate before any row value
    # is formed, as in one block
    formed = []
    for name in ("_pair_cosine", "_pair_closed_form"):
        monkeypatch.setattr(kernel, name, lambda *a, name=name: formed.append(name))
    pts[-1, 0] = math.nan
    with pytest.raises(ValueError, match="radii must be numbers") as blocked:
        kernel_eval_batch(spec, x, pts)
    monkeypatch.setattr(kernel, "BATCH_ROWS", 2**15)
    with pytest.raises(ValueError, match="radii must be numbers") as single:
        kernel_eval_batch(spec, x, pts)
    assert str(blocked.value) == str(single.value) and formed == []


def test_batch_holds_one_block_of_rows_as_lists(monkeypatch):
    """10 003 dim-3 rows as Python lists take about 2.6 MB; the batch holds
    512 of them at a time and three float arrays of its rows (240 KB)."""
    monkeypatch.setattr(kernel, "BATCH_ROWS", 512)
    pts = np.random.default_rng(3).uniform(-0.5, 0.5, size=(10_003, 3))
    kernel_eval_batch(KernelSpec(0.0, 3), [0.5, 0.0, 0.0], pts[:10])
    tracemalloc.start()
    try:
        kernel_eval_batch(KernelSpec(0.0, 3), [0.5, 0.0, 0.0], pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_has_closed_form_orders():
    for dim in (2, 3, 4, 7):
        assert has_closed_form(KernelSpec(-1.0, dim))
        assert has_closed_form(KernelSpec(0.0, dim))
        assert not has_closed_form(KernelSpec(-2.0, dim))
    for alpha in (-1.999, -1.5, 0.7, 3.0, 40.0):
        assert has_closed_form(KernelSpec(alpha, 2))
        assert not has_closed_form(KernelSpec(alpha, 3))
    # the reproducing branch of the disc starts above -2
    assert not has_closed_form(KernelSpec(-2.0, 2))
    assert not has_closed_form(KernelSpec(-4.5, 2))


@pytest.mark.parametrize("alpha, dim", [(-1.0, 3), (0.0, 5), (0.7, 2), (-4.5, 4)])
def test_list_and_tuple_points_give_the_array_value(alpha, dim, monkeypatch):
    # a list or tuple of ints and floats is converted without NumPy, so a
    # closed-form order never binds it; any other array-like still goes
    # through np.asarray and its shape check
    spec = KernelSpec(alpha, dim)
    x, y = _ball_point(dim, 0.7), _ball_point(dim, 0.8)
    want = kernel_eval_degree(spec, x, y)
    unit = np.eye(dim)[0]
    want_unit = kernel_eval_degree(spec, unit, y)
    if has_closed_form(spec):
        def unavailable():
            raise AssertionError("a closed-form pair of lists bound NumPy")

        monkeypatch.setattr(kernel, "_load_numpy", unavailable)
    for kind in (list, tuple):
        assert kernel_eval_degree(spec, kind(x.tolist()), kind(y.tolist())) == want
        assert kernel_eval_degree(spec, kind([1] + [0] * (dim - 1)), kind(y.tolist())) == want_unit
    monkeypatch.undo()
    for bad in ([0.1] * (dim + 1), (0.1,) * (dim - 1), [[0.1] * dim], np.zeros((1, dim))):
        with pytest.raises(ValueError, match=r"points must have shape"):
            kernel_eval_degree(spec, bad, y.tolist())
        with pytest.raises(ValueError, match=r"points must have shape"):
            kernel_eval_degree(spec, x.tolist(), bad)


@given(
    alpha=st.floats(min_value=-6.0, max_value=3.0),
    r=st.floats(min_value=0.0, max_value=0.9),
    dim=st.integers(min_value=2, max_value=4),
)
@settings(max_examples=80, deadline=None)
def test_kernel_diagonal_positive(alpha, r, dim):
    # all gamma_k > 0 and Z_k(x,x) >= 0, so the diagonal stays >= gamma_0 = 1
    spec = KernelSpec(alpha=alpha, dim=dim)
    x = np.zeros(dim)
    x[0] = r
    assert kernel_eval(spec, x, x) >= 1.0 - 1e-10


def _series_array(ratios, rho, t, dim):
    # the single-pair series run on one-node arrays: an independent form of
    # series_point's arithmetic, with the same expressions in the same
    # order.  It forms the coefficients of the normalized zonal harmonics
    # Y_k = Z_k / h_k degree by degree on Python floats, a_k = 2 (a_1 = 1)
    # and h_k = 2 in dimension 2, a_k = (2k+n-4)/(k+n-3) and h_k through the
    # integers (2k+n-2) C(k+j, j) above, b_k = a_k - 1, and weights Y_k by
    # the running product c_k = c_{k-1} (r_k h_k/h_{k-1}) rho of the
    # coefficient ratios r_k = gamma_k/gamma_{k-1}
    rho, cost = np.array([rho]), np.array([t])
    kmax = ratios.shape[0] - 1
    acc, c, h_prev = np.ones(1), np.ones(1), 1.0
    y2, y1 = np.zeros(1), np.ones(1)
    for k in range(1, kmax + 1):
        if dim == 2:
            a, h = (1.0 if k == 1 else 2.0), 2.0
        else:
            a = (2.0 * k + dim - 4.0) / (k + dim - 3.0)
            h = 2.0 * k + dim - 2.0
            for j in range(1, dim - 2):
                h = h * (k + j) / j
            h = h / (dim - 2.0)
        b = a - 1.0
        y2, y1 = y1, (a * cost) * y1 - b * y2
        c = c * ((ratios[k] * (h / h_prev)) * rho)
        acc += c * y1
        h_prev = h
    return acc[0]


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_series_point_equals_array_series_at_one_node(dim):
    # and the entry points kernel_eval_degree calls, with |x||y| and the
    # cosine as one-element tuples, return its float
    spec = KernelSpec(alpha=-1.1, dim=dim)
    certified = truncation_degree(spec, 0.999, 1.0)
    entry = _accel.series_disk if dim == 2 else functools.partial(_accel.series_ball, dim=dim)
    for kmax in (0, 1, 2, certified):
        ratios = kernel._gamma_ratios(kmax, spec.alpha, dim)
        for rho, t in ((0.999, 0.3), (0.999, 1.0), (0.5, -1.0), (0.0, 0.7)):
            value = _accel.series_point(ratios, rho, t, dim)
            assert type(value) is float
            assert value == _series_array(ratios, rho, t, dim)
            routed = entry(ratios, (rho,), (t,))
            assert type(routed) is float and routed == value


def _abs_series(spec, rho, kmax):
    # sum_k gamma_k h_k rho^k: the series with every term at its sup, the
    # scale of the rounding error of any order of summation
    ks = np.arange(kmax + 1)
    h = np.array([harmonic_dim(k, spec.dim) for k in range(kmax + 1)])
    return float(np.sum(gamma_coefs(kmax, spec.alpha, spec.dim) * h * rho**ks))


def _rounding_bound(spec, rho, kmax):
    return 2.0 * (kmax + 2) * np.finfo(float).eps * _abs_series(spec, rho, kmax)


def _dyadic_sphere(dim, count):
    # `count` distinct points of one radius whose coordinates are multiples
    # of 1/128: every node of a batch then has the same certified degree
    # as the batch, and dot products and squared norms are exact
    n_sq = {2: 5525, 3: 50, 5: 50}[dim]
    m = math.isqrt(n_sq)
    grid = np.stack(np.meshgrid(*[np.arange(-m, m + 1)] * dim, indexing="ij"), -1)
    grid = grid.reshape(-1, dim)
    vecs = grid[np.sum(grid * grid, axis=1) == n_sq].astype(float)
    assert len(vecs) >= count
    scale = 2.0 ** -math.ceil(math.log2(math.sqrt(n_sq)))
    return vecs[RNG.permutation(len(vecs))[:count]] * scale


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_batch_on_many_nodes_matches_kernel_eval_per_node(dim):
    pts = _dyadic_sphere(dim, 33)
    ry = float(np.linalg.norm(pts[0]))
    for alpha in (-4.5, 0.4):
        spec = KernelSpec(alpha=alpha, dim=dim)
        for _ in range(3):
            x = _dyadic_point(dim)
            rx = float(np.linalg.norm(x))
            kmax = truncation_degree(spec, rx, ry)
            batch = kernel_eval_batch(spec, x, pts)
            assert batch.shape == (33,)
            bound = _rounding_bound(spec, rx * ry, kmax)
            for y, value in zip(pts, batch.tolist()):
                assert abs(value - kernel_eval(spec, x, y)) <= bound


@given(
    t=st.floats(min_value=-1.0, max_value=1.0),
    rho=st.floats(min_value=0.0, max_value=0.99),
    alpha=st.floats(min_value=-6.0, max_value=3.0),
    dim=st.integers(min_value=2, max_value=6),
)
@settings(max_examples=60, deadline=None)
def test_series_point_bit_identical_over_angles(t, rho, alpha, dim):
    ratios = kernel._gamma_ratios(120, alpha, dim)
    assert _accel.series_point(ratios, rho, t, dim) == _series_array(ratios, rho, t, dim)


def _dyadic_point(dim):
    # multiples of 1/16: dot products and squared norms are exact in any
    # summation order, so kernel_eval and kernel_eval_batch (ddot against a
    # matrix product and a row reduction) form the same |x||y| and cos
    v = RNG.integers(-15, 16, size=dim) / 16.0
    while np.dot(v, v) >= 1.0:
        v = v / 2.0
    return v


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_kernel_eval_equals_batch_exactly(dim):
    # where the series stops at gamma_0 = 1 (certified degree 0, or y = 0)
    # the batch and the single pair agree bit for bit
    tiny = np.zeros(dim)
    tiny[0] = 2.0**-40
    for alpha in (-4.5, -1.0, 0.0, 1.7):
        spec = KernelSpec(alpha=alpha, dim=dim)
        for _ in range(4):
            x = _dyadic_point(dim)
            assert truncation_degree(spec, float(np.linalg.norm(x)), 2.0**-40) == 0
            for y in (np.zeros(dim), tiny):
                assert kernel_eval(spec, x, y) == kernel_eval_batch(spec, x, y[None, :])[0]
        assert kernel_eval(spec, np.zeros(dim), x) == kernel_eval_batch(spec, np.zeros(dim), x[None, :])[0]


def _near_boundary(dim):
    # a dyadic point with |x|^2 = 255/256 (254/256 in dim 3, 1010/1024 in
    # dim 2): at alpha = 3, dim 4, R(x, -x) needs K = 21 380.  Reversing its
    # coordinates keeps the norm and gives a generic angle.
    if dim == 2:
        return np.array([31.0, 7.0]) / 32.0
    if dim == 3:
        return np.array([13.0, 9.0, 2.0]) / 16.0
    return np.r_[15.0, 5.0, 2.0, 1.0, np.zeros(dim - 4)] / 16.0


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_kernel_eval_matches_batch_to_rounding(dim):
    # elsewhere they sum the same terms in different orders: series_point
    # ascending, the batch by Horner's rule over the zonal table
    edge = _near_boundary(dim)
    for alpha in (-4.5, -1.0, 0.0, 1.7, 3.0):
        spec = KernelSpec(alpha=alpha, dim=dim)
        # the near-boundary pairs cost up to 0.3 s each: one alpha per branch
        pairs = [(edge, y) for y in (edge, -edge, edge[::-1], -edge[::-1]) if alpha in (-4.5, 3.0)]
        for _ in range(8):
            x = _dyadic_point(dim)
            pairs += [(x, y) for y in (_dyadic_point(dim), x, -x, 0.5 * x, _dyadic_point(dim))]
        for x, y in pairs:
            rx, ry = float(np.linalg.norm(x)), float(np.linalg.norm(y))
            kmax = truncation_degree(spec, rx, ry)
            got = kernel_eval_batch(spec, x, y[None, :])[0]
            assert abs(kernel_eval(spec, x, y) - got) <= _rounding_bound(spec, rx * ry, kmax)


def _ulps_off(v, ulps):
    # v with every coordinate moved by `ulps` units in the last place, in
    # random directions
    return v + ulps * np.spacing(v) * RNG.choice([-1.0, 1.0], size=v.shape)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_float_pair_matches_batch_to_rounding_on_random_pairs(dim):
    # kernel_eval forms the geometry on Python floats, summed in coordinate
    # order, and the batch on arrays: at random (non-dyadic) points the two
    # round |x|, |y|, x.y and the cosine differently.  Per product |x||y|
    # and order: x = y, x = -y, y a few ulps off +-x, and generic angles,
    # with x in the batch at |x| = sqrt(|x||y|); then generic angles with
    # |x||y| split unevenly.  Each group is one batch, whose rows share
    # the certified degree of their single pairs
    for rho in (0.5, 0.9, 0.999):
        u = _ball_point(dim, 1.0)
        share = RNG.uniform(0.35, 0.65)
        x_even = math.sqrt(rho) * u
        x_split = rho**share * u
        groups = [
            (x_even, [x_even, -x_even, _ulps_off(x_even, 3), _ulps_off(-x_even, 2),
                      _ball_point(dim, math.sqrt(rho)), _ball_point(dim, math.sqrt(rho))]),
            (x_split, [_ball_point(dim, rho ** (1.0 - share)) for _ in range(3)]),
        ]
        for alpha in (-4.5, -1.0, 0.0, 1.7):
            spec = KernelSpec(alpha=alpha, dim=dim)
            for x, ys in groups:
                pts = np.array(ys)
                rx = float(np.linalg.norm(x))
                kmax = truncation_degree(spec, rx, float(np.linalg.norm(pts, axis=1).max()))
                bound = _rounding_bound(spec, rho, kmax)
                batch = kernel_eval_batch(spec, x, pts)
                for y, want in zip(ys, batch.tolist()):
                    value, degree = kernel_eval_degree(spec, x, y)
                    assert degree == kmax, (alpha, dim, rho)
                    assert abs(value - want) <= bound, (alpha, dim, rho, x, y, value, want)


def _disk_series_mp(alpha, xi, yi, kmax):
    # 40-digit sum_k gamma_k 2 cos(k theta) rho^k for integer vectors xi, yi
    # of equal norm, with the coefficient recurrence of gamma_coefs
    rho = mpmath.mpf(int(xi @ xi)) / 1024
    theta = mpmath.acos(mpmath.mpf(int(xi @ yi)) / int(xi @ xi))
    gam, total = mpmath.mpf(1), mpmath.mpf(1)
    for k in range(1, kmax + 1):
        gam *= (alpha + 1 + k) / mpmath.mpf(k)
        total += gam * 2 * mpmath.cos(k * theta) * rho**k
    return total


def _replaced_series_point(gam, rho, t, dim):
    # the loops that series_point ran before its one loop for every
    # dimension, with rho^k by repeated multiplication: in dimension 2 the
    # Chebyshev recurrence, above it the Gegenbauer C_k^lam, lam = (n-2)/2,
    # rescaled to Z_k term by term.  A reference that must meet the same
    # rounding bound
    kmax = gam.shape[0] - 1
    acc = float(gam[0])
    if kmax == 0:
        return acc
    if dim == 2:
        cm1, c, rk = 1.0, t, rho
        acc += float(gam[1]) * 2.0 * rk * c
        for k in range(2, kmax + 1):
            cm1, c = c, 2.0 * t * c - cm1
            rk = rk * rho
            acc += float(gam[k]) * 2.0 * rk * c
        return acc
    lam = 0.5 * (dim - 2.0)
    cm1, c, rk = 1.0, 2.0 * lam * t, rho
    acc += float(gam[1]) * (dim / (dim - 2.0)) * rk * c
    for k in range(2, kmax + 1):
        cm1, c = c, (2.0 * t * (k + lam - 1.0) * c - (k + 2.0 * lam - 2.0) * cm1) / k
        rk = rk * rho
        acc += float(gam[k]) * ((dim + 2.0 * k - 2.0) / (dim - 2.0)) * rk * c
    return acc


def _mp_zonal_sum(gam, rho, ts, dim):
    """sum_k gam[k] rho^k Z_k(t) in 40 digits for each t of ts, the float
    coefficients, rho and t taken exactly: Z_k = 2 T_k(t) by the Chebyshev
    recurrence in dimension 2, and ((k+lam)/lam) C_k^lam(t) from the
    Gegenbauer recurrence (DLMF 18.9.1) above it."""
    with mpmath.workdps(40):
        lam = mpmath.mpf(dim - 2) / 2
        out = []
        for t in ts:
            t = mpmath.mpf(t)
            cm1, c, rk = mpmath.mpf(1), (t if dim == 2 else 2 * lam * t), mpmath.mpf(1)
            total = mpmath.mpf(float(gam[0]))
            for k in range(1, gam.shape[0]):
                if k >= 2 and dim == 2:
                    cm1, c = c, 2 * t * c - cm1
                elif k >= 2:
                    cm1, c = c, (2 * t * (k + lam - 1) * c - (k + 2 * lam - 2) * cm1) / k
                rk *= mpmath.mpf(rho)
                total += mpmath.mpf(float(gam[k])) * rk * (2 * c if dim == 2 else (k + lam) / lam * c)
            out.append(total)
        return out


ROUNDING_TS = (1.0, -1.0, 1.0 - 1e-7, -1.0 + 1e-7, 0.0, 0.3)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7, 8])
def test_dimension_3_up_series_meet_the_rounding_bound(dim):
    # series_point, zonal_series over zonal_table rows, and the loops
    # series_point replaced, against the 40-digit sum of the same float
    # coefficients, at the certified degree of |x||y| = rho: K from about
    # 20 to about 3 600, at the poles, an ulp-scale step inside them, the
    # equator and a generic angle, in every dimension from 2 on (the name
    # is older than the dimension-2 cases), on both coefficient branches
    # (alpha = -7.5 and -4.5 are factorial-branch orders).  The rounding
    # bound 2 (K+2) eps sum_k gamma_k h_k rho^k allows every order of
    # summation, and series_point's weights, a running product of the
    # coefficient ratios, must meet it too
    for alpha, rho in ((-4.5, 0.5), (1.7, 0.9), (0.4, 0.97), (-7.5, 0.99), (1.7, 0.976)):
        spec = KernelSpec(alpha, dim)
        kmax = truncation_degree(spec, math.sqrt(rho), math.sqrt(rho))
        gam = gamma_coefs(kmax, alpha, dim)
        ratios = kernel._gamma_ratios(kmax, alpha, dim)
        bound = _rounding_bound(spec, rho, kmax)
        wants = _mp_zonal_sum(gam, rho, ROUNDING_TS, dim)
        table = _accel.zonal_series(gam, np.full(len(ROUNDING_TS), rho), np.array(ROUNDING_TS), dim)
        for t, want, batch in zip(ROUNDING_TS, wants, table.tolist()):
            case = (alpha, rho, kmax, t)
            assert abs(_accel.series_point(ratios, rho, t, dim) - want) <= bound, case
            assert abs(batch - want) <= bound, case
            assert abs(_replaced_series_point(gam, rho, t, dim) - want) <= bound, case
    assert kmax > 1900


def test_normalized_zonal_rows_are_exact_at_the_poles():
    # a_k - b_k = 1 in floats, so Y_k(+-1) = (+-1)^k exactly at every
    # degree: the rows at u = +-1 are +-h_k, whose integers are exact
    # below 2^53
    for dim in (3, 4, 5, 8):
        kmax = 3000
        table = _accel.zonal_table(kmax, np.array([1.0, -1.0]), dim)
        h = [float(math.comb(dim + k - 1, dim - 1) - math.comb(dim + k - 3, dim - 1)) for k in range(kmax + 1)]
        h[0] = 1.0
        signs = [(-1.0) ** k for k in range(kmax + 1)]
        exact = [k for k in range(kmax + 1) if (2 * k + dim) * h[k] < 2.0**53]
        assert len(exact) > 100
        for k in exact:
            assert table[k, 0] == h[k] and table[k, 1] == signs[k] * h[k], (dim, k)


def test_disk_zonal_series_is_as_accurate_as_series_point_near_the_boundary():
    # |x||y| = 1010/1024.  The dim-2 zonal table runs the Chebyshev
    # recurrence on u itself; a table built from cos(k arccos u) moves u by
    # about an ulp for every degree at once, and near the boundary the batch
    # sum then drifts from the single-node sum by up to 1800 times the
    # latter's error.  Both sums take the geometry kernel_eval and
    # kernel_eval_batch form for an order without a closed form.
    xi = np.array([31, 7])
    for alpha in (0.0, 1.7, 3.0):
        spec = KernelSpec(alpha=alpha, dim=2)
        for yi in (np.array([7, 31]), np.array([-7, 31]), np.array([31, -7])):
            x, y = xi / 32.0, yi / 32.0
            rx, ry = float(np.linalg.norm(x)), float(np.linalg.norm(y))
            kmax = truncation_degree(spec, rx, ry)
            gam = gamma_coefs(kmax, alpha, 2)
            t = min(1.0, max(-1.0, float(np.dot(x, y)) / (rx * ry)))
            point = _accel.series_point(kernel._gamma_ratios(kmax, alpha, 2), rx * ry, t, 2)
            cost = np.clip((y[None, :] @ x) / (rx * ry), -1.0, 1.0)
            batch = _accel.zonal_series(gam, np.array([rx * ry]), cost, 2)[0]
            with mpmath.workdps(40):
                want = float(_disk_series_mp(alpha, xi, yi, kmax))
            err_point = abs(point - want)
            err_batch = abs(batch - want)
            assert err_batch <= 4.0 * err_point + 64.0 * np.finfo(float).eps * abs(want)


def test_batch_tables_stay_within_the_entry_budget(monkeypatch):
    sizes = []
    table = _accel.zonal_table

    def recording(kmax, u, dim):
        sizes.append((kmax + 1) * u.shape[0])
        return table(kmax, u, dim)

    monkeypatch.setattr(_accel, "zonal_table", recording)
    m = 1_000_003
    pts = np.random.default_rng(5).uniform(-0.3, 0.3, size=(m, 3))
    x = np.array([0.9, 0.0, 0.0])
    # an order without a closed form, so the batch sums zonal tables
    spec = KernelSpec(alpha=0.4, dim=3)
    values = kernel_eval_batch(spec, x, pts)
    kmax = truncation_degree(spec, 0.9, float(np.linalg.norm(pts, axis=1).max()))
    assert kmax > 20
    assert max(sizes) <= _accel.TABLE_ENTRIES
    assert sum(sizes) == (kmax + 1) * m
    # blocking changes no value: a short batch holding the largest radius
    # is one block
    pick = np.r_[np.arange(100), np.argmax(np.linalg.norm(pts, axis=1)), m - 1]
    np.testing.assert_allclose(values[pick], kernel_eval_batch(spec, x, pts[pick]), rtol=1e-14)
    sizes.clear()
    exp = HarmonicExpansion.from_terms(3, [(40, [0.0, 0.6, 0.0], 1.0), (3, [0.0, 0.6, 0.0], 2.0)])
    evaluate_many(exp, pts)
    assert sizes and max(sizes) <= _accel.TABLE_ENTRIES
    assert sum(sizes) == 41 * m


# ---------------------------------------------------------------------------
# Closed-form orders: alpha = -1 and alpha = 0 in every dimension, and every
# alpha > -2 in the disc.

CLOSED_FORM_ORDERS = ([(alpha, dim) for alpha in (-1.0, 0.0) for dim in (2, 3, 4, 5, 6)]
                      + [(alpha, 2) for alpha in (-1.5, 0.7, 1.7, 3.0)])


def _mp_point(v):
    return [mpmath.mpf(float(c)) for c in v]


def _mp_closed_form(alpha, x, y):
    """R_alpha(x, y) at the float inputs taken exactly, in the working
    precision: the Poisson kernel, the harmonic Bergman kernel with the
    numerator expanded in s and x.y as in Axler, Bourdon & Ramey (ch. 8),
    and the complex form in the disc."""
    xs, ys = _mp_point(x), _mp_point(y)
    n = len(xs)
    s = mpmath.fsum(v * v for v in xs) * mpmath.fsum(v * v for v in ys)
    t = mpmath.fsum(a * b for a, b in zip(xs, ys))
    d = 1 - 2 * t + s
    if alpha == -1.0:
        return (1 - s) / d ** (mpmath.mpf(n) / 2)
    if alpha == 0.0:
        num = (n - 4) * s * s + (8 * t - 2 * n - 4) * s + n
        return num / (n * d ** (1 + mpmath.mpf(n) / 2))
    z = mpmath.mpc(xs[0], xs[1]) * mpmath.mpc(ys[0], -ys[1])
    return 2 * mpmath.re((1 - z) ** (-(2 + mpmath.mpf(alpha)))) - 1


def _mp_zonal_series(alpha, x, y, kmax):
    """sum_{k <= kmax} gamma_k (|x||y|)^k Z_k at the float inputs taken
    exactly, with the reproducing-branch coefficient recurrence and the
    Chebyshev (dim 2) or Gegenbauer recurrence for Z_k."""
    xs, ys = _mp_point(x), _mp_point(y)
    n = len(xs)
    rho = mpmath.sqrt(mpmath.fsum(v * v for v in xs) * mpmath.fsum(v * v for v in ys))
    t = mpmath.fsum(a * b for a, b in zip(xs, ys)) / rho
    a, half = 1 + mpmath.mpf(n) / 2 + alpha, mpmath.mpf(n) / 2
    lam = half - 1
    gam, total = mpmath.mpf(1), mpmath.mpf(1)
    cm1, c = mpmath.mpf(1), (t if n == 2 else 2 * lam * t)
    for k in range(1, kmax + 1):
        if k >= 2:
            if n == 2:
                cm1, c = c, 2 * t * c - cm1
            else:
                cm1, c = c, (2 * t * (k + lam - 1) * c - (k + 2 * lam - 2) * cm1) / k
        gam *= (a + k - 1) / (half + k - 1)
        z = 2 * c if n == 2 else (n + 2 * k - 2) / mpmath.mpf(n - 2) * c
        total += gam * rho**k * z
    return total


def _closed_form_bound(alpha, x, y, want):
    """64 eps times the condition factor of the closed form at (x, y).

    The factor is the magnitude of the parts the closed form adds (the two
    numerator terms of the Bergman kernel, the 2 |1 - z|^{-(2+alpha)} and
    the 1 of the disc), times the relative error that rounding the inputs
    puts into 1 - s (about eps / (1 - s)) and into d and |1 - z| (about
    eps / sqrt(d)), the latter raised to the kernel's power of d."""
    n = len(x)
    s = float(x @ x) * float(y @ y)
    d = float(np.sum((np.linalg.norm(y) * x - y / np.linalg.norm(y)) ** 2))
    if alpha == -1.0:
        parts = abs(want)
    elif alpha == 0.0:
        parts = ((1.0 - s) ** 2 + 4.0 / n * s * d) / d ** (1.0 + 0.5 * n)
    else:
        parts = 2.0 * d ** (-0.5 * (2.0 + alpha)) + 1.0
    factor = 1.0 / (1.0 - s) + (0.5 * n + abs(alpha) + 2.0) / math.sqrt(d)
    return 64.0 * np.finfo(float).eps * parts * factor


def _closed_form_pairs(dim):
    # x = y, x = -y and generic directions, |x||y| from 0.5 to 1 - 2^-10,
    # split unevenly between the two points
    pairs = []
    for rho in (0.5, 0.9, 1.0 - 2.0**-10):
        u = _ball_point(dim, 1.0)
        v = _ball_point(dim, 1.0)
        share = RNG.uniform(0.35, 0.65)
        rx, ry = rho**share, rho ** (1.0 - share)
        pairs += [(rx * u, ry * u), (rx * u, -ry * u), (rx * u, ry * v)]
    return pairs


@pytest.mark.parametrize("alpha, dim", CLOSED_FORM_ORDERS)
def test_mpmath_closed_forms_are_the_zonal_series(alpha, dim):
    # the references below are the kernels: at |x||y| = 0.6 the 40-digit
    # series to degree 260 has a tail far below 1e-25
    for _ in range(3):
        x, y = _ball_point(dim, 0.8), _ball_point(dim, 0.75)
        for y in (y, x * (0.75 / 0.8), -x * (0.75 / 0.8)):
            with mpmath.workdps(40):
                series = _mp_zonal_series(alpha, x, y, 260)
                closed = _mp_closed_form(alpha, x, y)
                assert abs(series - closed) <= 1e-25 * max(1, abs(closed))


@pytest.mark.parametrize("alpha, dim", CLOSED_FORM_ORDERS)
def test_closed_forms_match_mpmath(alpha, dim):
    spec = KernelSpec(alpha, dim)
    assert has_closed_form(spec)
    pairs = _closed_form_pairs(dim)
    for x, y in pairs:
        with mpmath.workdps(40):
            want = float(_mp_closed_form(alpha, x, y))
        bound = _closed_form_bound(alpha, x, y, want)
        value, kmax = kernel_eval_degree(spec, x, y)
        assert kmax == truncation_degree(spec, float(np.linalg.norm(x)), float(np.linalg.norm(y)))
        assert abs(value - want) <= bound, (x, y, value, want)
        batch = kernel_eval_batch(spec, x, np.vstack([y, np.zeros(dim), y]))
        assert abs(batch[0] - want) <= bound and batch[2] == batch[0]
        assert batch[1] == 1.0


def test_closed_form_past_the_double_range_gives_the_batch_value():
    # dim 1300, x = -y, |x||y| = 0.81: d^{1+n/2} and d^{n/2} overflow a
    # double.  Python's float power raises there; the single pair then
    # takes NumPy's IEEE result, as the batch does, and the kernel
    # underflows to 0 instead of failing with OverflowError
    x = np.zeros(1300)
    x[0] = 0.9
    for alpha in (-1.0, 0.0):
        spec = KernelSpec(alpha, 1300)
        with np.errstate(over="ignore"):
            value, kmax = kernel_eval_degree(spec, x, -x)
            assert value == kernel_eval_batch(spec, x, -x[None, :])[0] == 0.0
        assert kmax > 0


def test_near_sphere_antipodal_pairs_take_the_closed_form():
    # the series summed to its certified degree was 1.25e-5 off in the
    # first case and 1.6e-8 in the second: rounding, not truncation
    x2 = np.array([0.999, 0.0])
    x4 = np.array([15.0, 5.0, 2.0, 1.0]) / 16.0
    for spec, x, y in ((KernelSpec(3.0, 2), x2, -x2), (KernelSpec(0.0, 4), x4, -x4)):
        value, kmax = kernel_eval_degree(spec, x, y)
        assert kmax == truncation_degree(spec, float(np.linalg.norm(x)), float(np.linalg.norm(y)))
        with mpmath.workdps(40):
            want = float(_mp_closed_form(spec.alpha, x, y))
        assert abs(value - want) <= _closed_form_bound(spec.alpha, x, y, want)
        assert kernel_eval_batch(spec, x, y[None, :])[0] == pytest.approx(want, rel=1e-14)
    assert kernel_eval(KernelSpec(3.0, 2), x2, -x2) == pytest.approx(-0.93718672, abs=5e-9)


def _geometry_rounding(spec, rho, kmax):
    # the series sees x and y only through the rounded |x||y| and cosine,
    # each off by about 2 eps.  sum_k k gamma_k h_k rho^k bounds rho dR/drho
    # and, with k(k+n-2)/(n-1) = Z_k'(1)/h_k in place of k, dR/dcos: near
    # x = +-y a cosine one ulp from +-1 moves degree k by about k^2 ulps
    n = spec.dim
    ks = np.arange(kmax + 1.0)
    h = np.array([harmonic_dim(k, n) for k in range(kmax + 1)])
    terms = gamma_coefs(kmax, spec.alpha, n) * h * rho**ks
    return 2.0 * np.finfo(float).eps * float(np.sum((ks + ks * (ks + n - 2.0) / (n - 1.0)) * terms))


@pytest.mark.parametrize("alpha, dim", [(-1.0, 2), (0.0, 2), (-1.5, 2), (3.0, 2), (-1.0, 3),
                                        (0.0, 4), (0.0, 5), (-1.0, 6)])
def test_series_point_agrees_with_the_closed_form(alpha, dim):
    # the series path still serves every other order: summed to the
    # certified degree it is within tol, its summation rounding and the
    # rounding of its geometry of the closed form
    spec = KernelSpec(alpha, dim)
    edge = _near_boundary(dim)
    pairs = [(edge, -edge), (edge, edge[::-1])]
    for _ in range(4):
        x = _dyadic_point(dim)
        pairs += [(x, _dyadic_point(dim)), (x, x), (x, -x)]
    for x, y in pairs:
        rx, ry = float(np.linalg.norm(x)), float(np.linalg.norm(y))
        kmax = truncation_degree(spec, rx, ry)
        if kmax == 0:
            continue
        t = min(1.0, max(-1.0, float(np.dot(x, y)) / (rx * ry)))
        series = _accel.series_point(kernel._gamma_ratios(kmax, alpha, dim), rx * ry, t, dim)
        closed = kernel_eval(spec, x, y)
        bound = spec.tol + _rounding_bound(spec, rx * ry, kmax) + _geometry_rounding(spec, rx * ry, kmax)
        assert abs(series - closed) <= bound


def test_series_at_x_equal_y_near_the_sphere_takes_the_exact_cosine():
    # x.y/(|x||y|) rounds to 1 - 2^-53 here, and the Gegenbauer rows amplify
    # that ulp by about k^2 at degree k (K = 146 383): the value was 8.6e-9
    # relative off.  At x = y, Z_k(x, x) = h_k |x|^{2k} = (2k+1) s^k in
    # dim 3, and (2k+1) = (3/2)_k/(1/2)_k, so the 40-digit series
    # sum_k gamma_k (2k+1) s^k is 2F1(a, 1; 1/2; s) with a = 1 + 3/2 + alpha;
    # its tail past K is below tol, 1e-26 of the value
    spec = KernelSpec(1.7, 3)
    x = np.array([0.6, 0.7, math.sqrt(0.9995 - 0.85)])
    rx = float(np.linalg.norm(x))
    assert float(np.dot(x, x)) / (rx * rx) == 1.0 - 2.0**-53
    value, kmax = kernel_eval_degree(spec, x, x)
    assert kmax == 146_383
    with mpmath.workdps(40):
        s = mpmath.fsum(mpmath.mpf(float(c)) ** 2 for c in x)
        a = 1 + mpmath.mpf(3) / 2 + mpmath.mpf(1.7)
        want = mpmath.hyp2f1(a, 1, mpmath.mpf(1) / 2, s)
        # the identity, against the series summed at a product it reaches
        series = mpmath.fsum(mpmath.rf(a, k) / mpmath.rf(1.5, k) * (2 * k + 1) * mpmath.mpf(0.5) ** k
                             for k in range(200))
        assert abs(series - mpmath.hyp2f1(a, 1, mpmath.mpf(1) / 2, 0.5)) <= 1e-30 * series
        assert abs(value - want) <= 1e-11 * want
    assert kernel_eval_batch(spec, x, x[None, :])[0] == pytest.approx(float(want), rel=1e-11)
    assert zonal_harmonic(40, x, x, 3) == pytest.approx(81 * rx ** 80, rel=1e-13)


def test_kernel_eval_same_value_in_fresh_process():
    code = (
        "import bergbesov, numpy as np\n"
        "spec = bergbesov.KernelSpec(alpha=-0.3, dim=3)\n"
        "x = np.array([0.1, 0.2, 0.55]); y = np.array([0.4, -0.2, 0.1])\n"
        "print(repr(bergbesov.kernel_eval(spec, x, y)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    spec = KernelSpec(alpha=-0.3, dim=3)
    here = kernel_eval(spec, np.array([0.1, 0.2, 0.55]), np.array([0.4, -0.2, 0.1]))
    assert float(out.stdout.strip()) == here


def test_import_does_not_load_numba(tmp_path):
    # an importable stand-in, so the test holds whether or not numba is installed
    (tmp_path / "numba.py").write_text("")
    path = os.pathsep.join(p for p in (str(tmp_path), os.environ.get("PYTHONPATH")) if p)
    code = "import sys, bergbesov\nprint('numba' in sys.modules)\n"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), check=True)
    assert out.stdout.strip() == "False"
