"""Kernel layer: gamma coefficients, zonal harmonics, truncation certificate,
series evaluation, and the single-pair series against the node-array one."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergbesov import _accel
from bergbesov.kernel import (
    MAX_DEGREE,
    KernelDivergenceError,
    KernelSpec,
    TruncationLimitError,
    gamma_coef,
    gamma_coefs,
    harmonic_dim,
    kernel_eval,
    kernel_eval_batch,
    truncation_degree,
    zonal_harmonic,
)
from bergbesov.specfun import pochhammer

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


def test_harmonic_dim_tables():
    assert [harmonic_dim(k, 2) for k in range(4)] == [1.0, 2.0, 2.0, 2.0]
    assert [harmonic_dim(k, 3) for k in range(5)] == [1.0, 3.0, 5.0, 7.0, 9.0]
    assert [harmonic_dim(k, 4) for k in range(4)] == [1.0, 4.0, 9.0, 16.0]


def test_zonal_degree_zero_and_zero_argument():
    x = _ball_point(3, 0.4)
    assert zonal_harmonic(0, x, x, 3) == 1.0
    assert zonal_harmonic(3, np.zeros(3), x, 3) == 0.0
    assert zonal_harmonic(3, x, np.zeros(3), 3) == 0.0


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


def test_truncation_certificate_tail_below_tol():
    for dim in (2, 3):
        for alpha in (-4.0, -1.0, 0.0, 1.7):
            spec = KernelSpec(alpha=alpha, dim=dim)
            for rx, ry in [(0.3, 0.4), (0.7, 0.7), (0.95, 0.6)]:
                K = truncation_degree(spec, rx, ry)
                table = gamma_coefs(K + 2000, alpha, dim)
                t = rx * ry
                tail = sum(
                    table[k] * harmonic_dim(k, dim) * t**k for k in range(K + 1, K + 2001)
                )
                assert tail <= spec.tol


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


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(alpha=0.0, dim=1)
    with pytest.raises(ValueError):
        KernelSpec(alpha=0.0, dim=2, tol=0.0)


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


def _series_array(gam, rho, t, dim):
    # the recurrence on node arrays, run at one node
    rho, cost = np.array([rho]), np.array([t])
    if dim == 2:
        return _accel.series_disk_nodes(gam, rho, cost)[0]
    return _accel.series_ball_nodes(gam, rho, cost, dim)[0]


def _series(gam, rho, cost, dim):
    if dim == 2:
        return _accel.series_disk(gam, rho, cost)
    return _accel.series_ball(gam, rho, cost, dim)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_series_point_equals_array_series_at_one_node(dim):
    spec = KernelSpec(alpha=-1.1, dim=dim)
    certified = truncation_degree(spec, 0.999, 1.0)
    for kmax in (0, 1, 2, certified):
        gam = gamma_coefs(kmax, spec.alpha, dim)
        for rho, t in ((0.999, 0.3), (0.999, 1.0), (0.5, -1.0), (0.0, 0.7)):
            value = _accel.series_point(gam, rho, t, dim)
            assert type(value) is float
            assert value == _series_array(gam, rho, t, dim)
            routed = _series(gam, np.array([rho]), np.array([t]), dim)
            assert routed.shape == (1,) and routed[0] == value


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_series_on_many_nodes_equals_series_point_per_node(dim):
    gam = gamma_coefs(300, 0.4, dim)
    rho = RNG.uniform(0.0, 0.95, size=33)
    cost = RNG.uniform(-1.0, 1.0, size=33)
    values = _series(gam, rho, cost, dim)
    assert values.shape == (33,)
    assert values.tolist() == [_accel.series_point(gam, r, c, dim)
                               for r, c in zip(rho.tolist(), cost.tolist())]


@given(
    t=st.floats(min_value=-1.0, max_value=1.0),
    rho=st.floats(min_value=0.0, max_value=0.99),
    alpha=st.floats(min_value=-6.0, max_value=3.0),
    dim=st.integers(min_value=2, max_value=6),
)
@settings(max_examples=60, deadline=None)
def test_series_point_bit_identical_over_angles(t, rho, alpha, dim):
    gam = gamma_coefs(120, alpha, dim)
    assert _accel.series_point(gam, rho, t, dim) == _series_array(gam, rho, t, dim)


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
    tiny = np.zeros(dim)
    tiny[0] = 2.0**-40  # certified degree 0: the series is gamma_0 alone
    for alpha in (-4.5, -1.0, 0.0, 1.7):
        spec = KernelSpec(alpha=alpha, dim=dim)
        for _ in range(4):
            x = _dyadic_point(dim)
            assert truncation_degree(spec, float(np.linalg.norm(x)), 2.0**-40) == 0
            for y in (_dyadic_point(dim), x, -x, np.zeros(dim), tiny):
                assert kernel_eval(spec, x, y) == kernel_eval_batch(spec, x, y[None, :])[0]


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
