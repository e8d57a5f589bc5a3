"""40-digit mpmath values of the radial ladder integrals on a fixed grid.

    python3 tests/ladder_reference.py    # rewrites tests/data/ladder_reference.json

Takes about seven minutes on one CPU.  tests/test_numerics.py compares the
program's double-exponential rules with this table, and recomputes a few of
its entries to tie it to this script.

The w-space integrand of the ladders is

    coef (1-e^-w)^expo e^{-bexp w} (1+w)^{-v},   bexp = B + 1,

with (coef, expo) = (n/2, n/2 - 1) in dimension n, and (1/2, -1/2) on the
plain interval (dim None).  For every (dim, B, v) of the grid the table holds
the integral over each ladder piece [0, 32], [32, 64], ..., [256, 512], and,
where the full integral is finite, over the head [0, 1] and the tail
[1, inf) of radial_power_log_value.  At B = -1 the tail is split like the
program's: coef 2^{1-v}/(v-1) is exact, and the rest,
((1-e^-w)^expo - 1)(1+w)^{-v}, decays like e^{-w}.  Quadrature of the
undivided tail misses most of it: mpmath.quad gives 225 for dim 6, v = 1.001,
where the value is 2997.2.
"""

import json
import os

import mpmath

DIMS = (None, 2, 3, 4, 5, 6)
BS = (-1.5, -1.0, -0.999, -0.9, -0.5, 0.0, 0.3, 1.0, 2.0, 5.0, 20.0)
VS = (0.0, 0.5, 1.0, 1.001, 1.05, 1.5, 3.0)
PIECES = ((0.0, 32.0), (32.0, 64.0), (64.0, 128.0), (128.0, 256.0), (256.0, 512.0))
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "ladder_reference.json")
DPS = 40


def coefs(dim):
    return (0.5, -0.5) if dim is None else (0.5 * dim, 0.5 * dim - 1.0)


def finite(B, v):
    return B > -1.0 or (B == -1.0 and v > 1.0)


def _integrand(dim, B, v):
    coef, expo = coefs(dim)
    c, e, b, vv = (mpmath.mpf(x) for x in (coef, expo, B + 1.0, v))
    return lambda w: c * (-mpmath.expm1(-w)) ** e * mpmath.exp(-b * w) * (1 + w) ** -vv


def _quad(f, points):
    # mpmath.quad's tolerance is absolute, so the integrand is scaled to
    # order one first: some pieces are as small as 1e-290
    scale = max(abs(f(p)) for p in points if 0 < p < mpmath.inf)
    val, err = mpmath.quad(lambda w: f(w) / scale, points, error=True, maxdegree=10)
    if not abs(err) <= mpmath.mpf(10) ** -25 * abs(val):
        raise RuntimeError(f"mpmath.quad error estimate {err} for value {val}")
    return val * scale


def piece(dim, B, v, lo, hi):
    """coef int_lo^hi of the integrand; w = z^2 on a piece that starts at 0."""
    f = _integrand(dim, B, v)
    with mpmath.workdps(DPS):
        if lo == 0.0:
            top = mpmath.sqrt(hi)
            return _quad(lambda z: 2 * z * f(z * z), mpmath.linspace(0, top, 9))
        return _quad(f, mpmath.linspace(lo, hi, 9))


def tail(dim, B, v):
    """coef int_1^inf of the integrand, for a finite (B, v)."""
    coef, expo = coefs(dim)
    points = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536, mpmath.inf]
    with mpmath.workdps(DPS):
        if B > -1.0:
            return _quad(_integrand(dim, B, v), points)
        c, e, vv = (mpmath.mpf(x) for x in (coef, expo, v))
        exact = c * mpmath.mpf(2) ** (1 - vv) / (vv - 1)
        if expo == 0.0:
            return exact
        return exact + _quad(lambda w: c * ((-mpmath.expm1(-w)) ** e - 1) * (1 + w) ** -vv,
                             points[:9] + [mpmath.inf])


def build():
    rows = []
    for dim in DIMS:
        for B in BS:
            for v in VS:
                row = {"dim": dim, "B": B, "v": v,
                       "pieces": [mpmath.nstr(piece(dim, B, v, lo, hi), 25) for lo, hi in PIECES]}
                if finite(B, v):
                    row["head"] = mpmath.nstr(piece(dim, B, v, 0.0, 1.0), 25)
                    row["tail"] = mpmath.nstr(tail(dim, B, v), 25)
                rows.append(row)
    return rows


if __name__ == "__main__":
    os.makedirs(os.path.dirname(PATH), exist_ok=True)
    with open(PATH, "w") as fh:
        json.dump({"dps": DPS, "digits_stored": 25, "rows": build()}, fh, indent=0)
        fh.write("\n")
