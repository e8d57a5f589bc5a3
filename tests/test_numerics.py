"""The numerics against 40-digit references: Gauss-Jacobi rules (NumPy),
the double-exponential ladder integrals (Python floats), log-gamma and
V_alpha.

scipy appears here only as the implementation these replaced: its
roots_jacobi sets the node and moment bounds, and its quad the ladder
verdicts.  The ladder values are checked against the true values, not
against quad, which misses 1e-12 on this grid (by up to 2.3e-10 at B = 20).
"""

import functools
import json
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import roots_jacobi

import ladder_reference as ref
from bergbesov import quadrature, radial
from bergbesov.quadrature import gauss_jacobi, normalization_V, radial_power_log_ladder
from bergbesov.specfun import log_gamma


@functools.lru_cache(maxsize=1)
def _table():
    with open(ref.PATH) as fh:
        return json.load(fh)["rows"]


def _rel(got, want):
    return abs(got - want) / abs(want) if want else abs(got)


def _program_dim(dim):
    """The program's dim for a reference row: the table's plain interval
    (dim None) is dim 1."""
    return 1 if dim is None else dim


# ---------------------------------------------------------------------------
# Radial ladders: every piece, head, tail and value of the grid.


@pytest.mark.parametrize("dim", ref.DIMS, ids=lambda d: f"dim{d}")
def test_ladder_integrals_match_40_digit_values(dim):
    coef, expo = ref.coefs(dim)
    rows = [row for row in _table() if row["dim"] == dim]
    assert len(rows) == len(ref.BS) * len(ref.VS)
    for row in rows:
        B, v = row["B"], row["v"]
        bexp = B + 1.0
        for (lo, hi), want in zip(ref.PIECES, row["pieces"]):
            got = radial._wspace_piece(coef, expo, bexp, v, lo, hi)
            assert _rel(got, float(want)) <= 1e-12, (B, v, lo, hi, got, want)
        value = quadrature.radial_power_log_value(B, v, dim=_program_dim(dim))
        if not ref.finite(B, v):
            assert "tail" not in row and value == math.inf
            continue
        head = radial._wspace_piece(coef, expo, bexp, v, 0.0, 1.0)
        tail = radial._wspace_tail(coef, expo, bexp, v)
        want = float(mpmath.mpf(row["head"]) + mpmath.mpf(row["tail"]))
        assert _rel(head, float(row["head"])) <= 1e-12, (B, v, head, row["head"])
        assert _rel(tail, float(row["tail"])) <= 1e-12, (B, v, tail, row["tail"])
        assert _rel(value, want) <= 1e-12, (B, v, value, want)


@pytest.mark.parametrize("dim, B, v, which", [
    (6, -1.0, 1.001, "tail"),
    (None, -0.999, 0.0, "tail"),
    (3, 20.0, 3.0, "tail"),
    (None, 20.0, 1.05, 1),
    (6, -1.5, 3.0, 4),
    (2, -0.999, 0.5, "head"),
])
def test_reference_table_entries_recompute(dim, B, v, which):
    (row,) = [r for r in _table() if r["dim"] == dim and r["B"] == B and r["v"] == v]
    if which == "tail":
        want = ref.tail(dim, B, v)
    elif which == "head":
        want = ref.piece(dim, B, v, 0.0, 1.0)
    else:
        want = ref.piece(dim, B, v, *ref.PIECES[which])
    stored = row[which] if isinstance(which, str) else row["pieces"][which]
    assert abs(mpmath.mpf(stored) / want - 1) < mpmath.mpf(10) ** -20


def test_marginal_tail_needs_the_split():
    # B = -1, V = 1.001 in dim 6: (1+w)^{-V} decays too slowly for the
    # exp-sinh range, so the undivided rule raises instead of returning a
    # tenth of the value (327 at its last level); the split tail is right
    coef, expo = ref.coefs(6)
    with pytest.raises(quadrature.ConvergenceError):
        radial._de_integrate(radial._integrand(coef, expo, 0.0, 1.001), 1.0, math.inf)
    assert radial._wspace_tail(coef, expo, 0.0, 1.001) == pytest.approx(2997.2082163676, rel=1e-12)


EXTREME_B = (-3.0, -1.0, -0.999, -0.5, 0.0, 1.0, 59.0, 300.0, 1e4, 1e8)
EXTREME_V = (-1e3, -600.0, -200.0, -10.0, 0.0, 1.0, 1.001, 3.0, 1e3, 1e6)


@pytest.mark.parametrize("dim", (1, 2, 3, 6), ids=lambda d: f"dim{d}")
def test_float_rule_ends_in_a_value_or_a_convergence_error(dim):
    # at V <= -200 a node value or a level sum can exceed the largest double;
    # that is a ConvergenceError, never an OverflowError, a math-domain
    # ValueError or a warning, and every value is a non-negative float
    overflowed = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for B in EXTREME_B:
            for v in EXTREME_V:
                for fn in (radial_power_log_ladder, quadrature.radial_power_log_value):
                    try:
                        out = fn(B, v, dim=dim)
                    except quadrature.ConvergenceError as exc:
                        overflowed += "has no finite value" in str(exc)
                        continue
                    value = getattr(out, "value", out)
                    assert isinstance(value, float) and value >= 0.0, (B, v, fn, out)
    assert overflowed >= 10


@pytest.mark.parametrize("B, v, which", [(59.0, -600.0, "ladder"), (59.0, -600.0, "value"),
                                         (0.6, -400.0, "value")])
def test_an_integral_past_the_double_range_raises_at_once(B, v, which):
    # ladder: e^{-60 w} (1+w)^{600} peaks at e^{842} inside [0, 32], where
    # both ends of the piece pass the log-space check
    fn = radial_power_log_ladder if which == "ladder" else quadrature.radial_power_log_value
    with pytest.raises(quadrature.ConvergenceError, match="has no finite value: its terms sum "
                                                          "to inf at step 2\\^-0"):
        fn(B, v, dim=1)


def test_a_later_level_past_the_double_range_raises():
    # level 0 of the tail's exp-sinh rule is finite and level 1 overflows;
    # the stop test read inf <= rtol * inf as agreement and returned inf for
    # an integral that is finite (2.7e382, past the doubles)
    assert radial._radial_integral_finite(1.3, -240.0)
    with pytest.raises(quadrature.ConvergenceError, match="has no finite value: its terms sum "
                                                          "to inf at step 2\\^-1"):
        quadrature.radial_power_log_value(1.3, -240.0, dim=2)


def _scipy_piece(coef, expo, bexp, v, lo, hi):
    """The adaptive-quadrature piece the double-exponential rule replaced."""
    def f(w):
        return coef * (-np.expm1(-w)) ** expo * math.exp(-bexp * w) * (1.0 + w) ** (-v)

    opts = dict(limit=200, epsabs=1e-13, epsrel=1e-11)
    if lo == 0.0:
        def fz(z):
            if z == 0.0:
                return 2.0 * coef if expo == -0.5 else 0.0
            return f(z * z) * 2.0 * z
        return quad(fz, 0.0, math.sqrt(hi), **opts)[0]
    return quad(f, lo, hi, **opts)[0]


def test_ladder_verdicts_equal_the_scipy_version(monkeypatch):
    grid = [(dim, B, v) for dim in ref.DIMS for B in ref.BS for v in ref.VS]
    new = [radial_power_log_ladder(B, v, dim=_program_dim(dim)).finite for dim, B, v in grid]
    monkeypatch.setattr(radial, "_wspace_piece", _scipy_piece)
    old = [radial_power_log_ladder(B, v, dim=_program_dim(dim)).finite for dim, B, v in grid]
    assert new == old
    assert 0 < sum(new) < len(new)


# ---------------------------------------------------------------------------
# Gauss-Jacobi rules.

GJ_A = (-0.99, -0.9, -0.5, 0.0, 0.5, 1.5, 4.5, 20.0)
GJ_B = (0.0, 0.5, 1.0, 1.5, 2.0)


@pytest.mark.parametrize("m", (1, 2, 3, 16, 64, 128, 256, 512))
def test_gauss_jacobi_nodes_and_moments(m):
    """Nodes within 4 ulp of roots_jacobi, and moments of ((1+x)/2)^j within
    max(4 x roots_jacobi's own error, 1e-12) of 2^{a+b+1} B(a+1, b+j+1).

    A node is the eigenvalue of a matrix of norm about 1, so its error is
    absolute: the ulp is taken at |x| >= 1/2, which is 4.4e-16 near 0.  A
    node outside that band must be nearer the 40-digit root than
    roots_jacobi's.  Single weights are not compared: near x = 1 they follow
    the node's distance to 1 relatively, and correct rules differ there.
    """
    for a in GJ_A:
        for b in GJ_B:
            x, w = gauss_jacobi(m, a, b)
            xs, ws = roots_jacobi(m, a, b)
            assert x.shape == w.shape == (m,)
            assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
            for i in np.nonzero(np.abs(x - xs) > 4.0 * np.spacing(np.maximum(np.abs(xs), 0.5)))[0]:
                with mpmath.workdps(40):
                    root = mpmath.findroot(lambda t: mpmath.jacobi(m, a, b, t), mpmath.mpf(xs[i]))
                assert abs(x[i] - root) < abs(xs[i] - root), (m, a, b, i, x[i], xs[i])
            t, ts = 0.5 * (1.0 + x), 0.5 * (1.0 + xs)
            for j in range(min(2 * m - 1, 20) + 1):
                with mpmath.workdps(30):
                    ma = mpmath.mpf(a)
                    want = float(mpmath.mpf(2) ** (ma + b + 1) * mpmath.beta(ma + 1, b + j + 1))
                err = _rel(float(np.sum(w * t**j)), want)
                err_scipy = _rel(float(np.sum(ws * ts**j)), want)
                assert err <= max(4.0 * err_scipy, 1e-12), (m, a, b, j, err, err_scipy)


def test_gauss_jacobi_endpoint_node_carries_its_mass():
    # a = -0.99 puts 89 % of the mass on the node within 1e-7 of x = 1; the
    # moments stay within 1e-12, where roots_jacobi's are off by 2.1e-9
    a, b = -0.99, 0.5
    x, w = gauss_jacobi(512, a, b)
    assert w[-1] / w.sum() > 0.88 and 1.0 - x[-1] < 1e-7
    for j in (1, 5, 20):
        with mpmath.workdps(30):
            want = float(mpmath.mpf(2) ** (mpmath.mpf(a) + b + 1) * mpmath.beta(mpmath.mpf(a) + 1, b + j + 1))
        assert _rel(float(np.sum(w * (0.5 * (1.0 + x)) ** j)), want) <= 1e-12


# ---------------------------------------------------------------------------
# Gamma.


def test_log_gamma_and_its_sign_match_mpmath():
    """log|Gamma| within 1e-14 of mpmath, relative where |log Gamma| >= 1 and
    absolute below (that is, Gamma itself to 1e-14 relative near the zeros
    of log|Gamma| at 1, 2, -2.457..., where no relative bound holds), and
    the sign exact on every (-k-1, -k), k = 0..5."""
    xs = [1e-3, 0.01, 0.5, 1.0, 1.5, 2.0, 2.5, 3.7, 12.25, 50.5, 171.6, 300.0, 1e5]
    xs += [-(k + f) for k in range(6) for f in (1e-3, 0.1, 0.5, 0.9, 0.999)]
    with mpmath.workdps(40):
        for x in xs:
            lg, sign = log_gamma(x)
            g = mpmath.gamma(x)
            want = float(mpmath.log(abs(g)))
            assert sign == (1.0 if g > 0 else -1.0), x
            assert abs(lg - want) <= 1e-14 * max(1.0, abs(want)), (x, lg, want)


def test_normalization_V_matches_mpmath():
    # V = Gamma(n/2+1) Gamma(alpha+1) / Gamma(n/2+alpha+1); the lgamma
    # differences lose eps * lgamma(alpha+1), so the error reaches 2e-14 at
    # alpha = 20 (as gammaln's did), and this grid stops at 10
    with mpmath.workdps(40):
        for dim in range(2, 9):
            for alpha in (-0.999, -0.9, -0.5, 0.0, 0.3, 1.0, 2.5, 4.5, 7.0, 10.0):
                a, n2 = mpmath.mpf(alpha), mpmath.mpf(dim) / 2
                want = float(mpmath.gamma(n2 + 1) * mpmath.gamma(a + 1) / mpmath.gamma(n2 + a + 1))
                assert _rel(normalization_V(alpha, dim), want) <= 1e-14, (dim, alpha)
