"""Special-function layer: log-gamma with sign, Pochhammer, and the
Gegenbauer polynomials behind the rows of `_accel.zonal_table`."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_chebyt, eval_gegenbauer, eval_legendre

from bergbesov._accel import zonal_table
from bergbesov.kernel import harmonic_dim
from bergbesov.specfun import PoleError, log_gamma, log_pochhammer, pochhammer

mpmath.mp.dps = 40


def test_log_gamma_matches_mpmath():
    for x in (0.5, 1.0, 3.7, 12.25, -0.5, -1.5, -3.3, -7.9):
        lg, sg = log_gamma(x)
        ref = mpmath.gamma(x)
        assert sg == (1.0 if ref > 0 else -1.0)
        assert lg == pytest.approx(float(mpmath.log(abs(ref))), rel=1e-13)


def test_log_gamma_pole_raises():
    for x in (0.0, -1.0, -2.0, -7.0):
        with pytest.raises(PoleError):
            log_gamma(x)


def test_pochhammer_frozen_values():
    # (0.5)_2 = 0.5 * 1.5
    assert pochhammer(0.5, 2) == 0.75
    # (a)_0 = 1 for any a, empty product
    assert pochhammer(3.0, 0) == 1.0
    assert pochhammer(-4.5, 0) == 1.0
    # (1)_5 = 5!
    assert pochhammer(1.0, 5) == 120.0
    # (-2)_3 = (-2)(-1)(0): exact zero via the finite product
    assert pochhammer(-2.0, 3) == 0.0
    # (-2.5)_2 = (-2.5)(-1.5)
    assert pochhammer(-2.5, 2) == 3.75
    # (1.5)_{0.5} = Gamma(2)/Gamma(1.5) = 2/sqrt(pi)
    assert pochhammer(1.5, 0.5) == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-13)


def test_pochhammer_matches_mpmath():
    cases = [(0.3, 4), (2.7, 11), (5.0, 0.75), (0.9, 2.6), (-0.4, 3), (8.5, 20)]
    for a, b in cases:
        assert pochhammer(a, b) == pytest.approx(float(mpmath.rf(a, b)), rel=1e-12)


def test_pochhammer_integer_b_survives_gamma_poles():
    # finite product is exact where the Gamma-ratio form would hit a pole
    assert pochhammer(-3.0, 5) == 0.0
    assert pochhammer(-3.0, 2) == 6.0
    assert pochhammer(0.0, 4) == 0.0


def test_pochhammer_pole_raises_for_noninteger_b():
    with pytest.raises(PoleError):
        pochhammer(-1.0, 0.5)
    with pytest.raises(PoleError):
        pochhammer(-2.0, 1.5)


@given(
    a=st.floats(min_value=0.2, max_value=5.0),
    b1=st.floats(min_value=0.0, max_value=4.0),
    b2=st.floats(min_value=0.0, max_value=4.0),
)
@settings(max_examples=200, deadline=None)
def test_pochhammer_additivity(a, b1, b2):
    # (a)_{b1+b2} = (a)_{b1} * (a+b1)_{b2}
    lhs = pochhammer(a, b1 + b2)
    rhs = pochhammer(a, b1) * pochhammer(a + b1, b2)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_log_pochhammer_consistency():
    for a, b in [(2.5, 3.0), (0.7, 1.3), (-2.5, 2.0), (-2.5, 1.0)]:
        lp, sg = log_pochhammer(a, b)
        want = pochhammer(a, b)
        assert sg * math.exp(lp) == pytest.approx(want, rel=1e-11)


def test_log_pochhammer_handles_huge_arguments():
    lp, sg = log_pochhammer(1.0, 1e5)
    # (1)_k = k!, so check against lgamma(k+1)
    assert sg == 1.0
    assert lp == pytest.approx(math.lgamma(1e5 + 1.0), rel=1e-13)


def _h(kmax, dim):
    return np.array([harmonic_dim(k, dim) for k in range(kmax + 1)])


def test_gegenbauer_half_is_legendre():
    # dim 3: Z_k(u) = (2k+1) P_k(u), P_k the Legendre polynomial (lambda = 1/2)
    ts = np.linspace(-1.0, 1.0, 17)
    table = zonal_table(40, ts, 3)
    for k in range(41):
        want = (2 * k + 1) * eval_legendre(k, ts)
        assert np.all(np.abs(table[k] - want) <= 1e-12 * (2 * k + 1)), k


def test_gegenbauer_matches_scipy():
    # Z_k(u) = (n+2k-2)/(n-2) C_k^{(n-2)/2}(u), to 1e-12 of its sup h_k
    ts = np.array([-1.0, -0.95, -0.4, 0.0, 0.3, 0.99, 1.0])
    for dim in (3, 4, 5, 8):
        lam = 0.5 * (dim - 2.0)
        table = zonal_table(60, ts, dim)
        h = _h(60, dim)
        for k in (0, 1, 2, 5, 9, 30, 60):
            want = (dim + 2.0 * k - 2.0) / (dim - 2.0) * eval_gegenbauer(k, lam, ts)
            assert np.all(np.abs(table[k] - want) <= 1e-12 * h[k]), (dim, k)


def test_zonal_table_disk_is_chebyshev():
    # dim 2: Z_k(u) = 2 T_k(u) for k >= 1, by the Chebyshev recurrence
    ts = np.linspace(-1.0, 1.0, 401)
    table = zonal_table(200, ts, 2)
    assert np.all(table[0] == 1.0)
    for k in range(1, 201):
        assert np.all(np.abs(table[k] - 2.0 * eval_chebyt(k, ts)) <= 1e-12), k


def test_gegenbauer_frozen_examples():
    table = zonal_table(2, np.array([-0.4, 0.5, 1.0]), 4)
    assert table[0].tolist() == [1.0, 1.0, 1.0]
    assert table[1, 1] == 2.0  # Z_1 = n u
    assert table[2, 2] == pytest.approx(9.0, rel=1e-14)  # Z_k(1) = h_k
    assert zonal_table(0, np.array([0.3]), 6).tolist() == [[1.0]]


def test_gegenbauer_quadratic_closed_form():
    # Z_2(u) = (n+2)/2 (n u^2 - 1)
    ts = np.array([-1.0, -0.7, -0.2, 0.0, 0.3, 0.75, 1.0])
    for dim in range(2, 9):
        want = 0.5 * (dim + 2.0) * (dim * ts * ts - 1.0)
        got = zonal_table(2, ts, dim)[2]
        assert got == pytest.approx(want, rel=1e-14, abs=1e-14 * dim * dim), dim


@given(
    k=st.integers(min_value=0, max_value=60),
    dim=st.integers(min_value=2, max_value=8),
    t=st.floats(min_value=-1.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_gegenbauer_bounded_by_endpoint(k, dim, t):
    # |Z_k(u)| <= Z_k(1) = h_k on [-1, 1]
    table = zonal_table(k, np.array([t, 1.0]), dim)
    bound = harmonic_dim(k, dim)
    assert table[k, 1] == pytest.approx(bound, rel=1e-12)
    assert abs(table[k, 0]) <= bound * (1.0 + 1e-12)


def test_pochhammer_ratio_stirling_stabilizes():
    # (a)_c / (b)_c ~ c^(a-b): consecutive dyadic normalized ratios within 2%
    a, b = 2.7, 1.2
    vals = []
    for j in range(6, 15):
        c = float(2**j)
        la, _ = log_pochhammer(a, c)
        lb, _ = log_pochhammer(b, c)
        vals.append(math.exp(la - lb - (a - b) * math.log(c)))
    for prev, cur in zip(vals, vals[1:]):
        assert abs(cur / prev - 1.0) < 0.02
