"""Scalar special-function primitives.

Everything here is a plain function of floats: log-gamma with explicit sign
tracking, Pochhammer symbols (rising factorials), and Gegenbauer polynomials
evaluated by forward recurrence.  These are the building blocks for the kernel
coefficient tables and the normalization constants; they are kept free of any
array or quadrature machinery.

log_gamma is math.lgamma with the sign of Gamma worked out from x alone.
"""

import math

__all__ = [
    "PoleError",
    "log_gamma",
    "pochhammer",
    "log_pochhammer",
    "gegenbauer",
]

# Largest integer second argument for which pochhammer() will run the exact
# finite product.  Beyond this the product is astronomically large anyway.
_MAX_PRODUCT_TERMS = 10**6


class PoleError(ValueError):
    """Gamma function evaluated at a non-positive integer."""


def _is_nonpositive_integer(x):
    return x <= 0.0 and x == math.floor(x)


def log_gamma(x):
    """Return (log|Gamma(x)|, sign of Gamma(x)).

    The magnitude is carried in log space so that ratios of huge Gamma values
    can be formed without overflow; the sign is tracked separately because
    Gamma alternates sign between negative integers.

    Raises PoleError at non-positive integers.
    """
    x = float(x)
    if _is_nonpositive_integer(x):
        raise PoleError(f"Gamma pole at {x}")
    # Gamma < 0 exactly on the intervals (-2j-1, -2j)
    sign = -1.0 if x < 0.0 and math.floor(x) % 2 == 1 else 1.0
    try:
        return math.lgamma(x), sign
    except OverflowError:  # |x| above about 2.6e305
        return math.inf, sign


def pochhammer(a, b):
    """Rising factorial (a)_b = Gamma(a+b)/Gamma(a).

    For non-negative integer b the finite product a(a+1)...(a+b-1) is used.
    This is mandatory for exactness: at non-positive integer a the product is
    an exact 0.0 (or an exact integer), where the Gamma-ratio form would hit a
    pole.  For all other b the Gamma-ratio is evaluated through log_gamma with
    sign bookkeeping.

    Raises PoleError when a Gamma argument is at a pole and no finite-product
    fallback applies.
    """
    a = float(a)
    b = float(b)
    if b >= 0.0 and b == math.floor(b):
        k = int(b)
        if k > _MAX_PRODUCT_TERMS:
            raise OverflowError(f"refusing finite product with {k} terms")
        out = 1.0
        for i in range(k):
            out *= a + i
        return out
    logmag, sign = log_pochhammer(a, b)
    return sign * math.exp(logmag)


def log_pochhammer(a, b):
    """Return (log|(a)_b|, sign) via the Gamma-ratio form.

    Useful directly when (a)_b itself would overflow, e.g. for Stirling-type
    ratio checks at b ~ 2**14.  Both Gamma arguments must avoid poles.
    """
    la, sa = log_gamma(a + b)
    lb, sb = log_gamma(a)
    return la - lb, sa * sb


def gegenbauer(k, lam, t):
    """Gegenbauer polynomial C_k^lam(t) by forward recurrence.

    C_0 = 1, C_1 = 2*lam*t, and
        k C_k = 2 t (k + lam - 1) C_{k-1} - (k + 2 lam - 2) C_{k-2}.

    The forward recurrence is stable on t in [-1, 1] (the regime used here;
    values for |t| > 1 are mathematically valid but grow without a stability
    guarantee).  Requires lam > -1/2 and integer k >= 0.
    """
    if k != int(k) or k < 0:
        raise ValueError(f"degree must be a non-negative integer, got {k}")
    if not lam > -0.5:
        raise ValueError(f"Gegenbauer parameter must exceed -1/2, got {lam}")
    k = int(k)
    t = float(t)
    if k == 0:
        return 1.0
    cm1 = 1.0
    c = 2.0 * lam * t
    for j in range(2, k + 1):
        cm1, c = c, (2.0 * t * (j + lam - 1.0) * c - (j + 2.0 * lam - 2.0) * cm1) / j
    return c
