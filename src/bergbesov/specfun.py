"""Scalar special-function primitives.

Everything here is a plain function of floats: log-gamma with explicit sign
tracking and Pochhammer symbols (rising factorials).  They are kept free of
any array or quadrature machinery.  The kernel coefficient tables are built
by a ratio recurrence instead (kernel.gamma_coefs); the Pochhammer symbols
are the closed form they are checked against.

log_gamma is math.lgamma with the sign of Gamma worked out from x alone.
"""

import math

__all__ = [
    "PoleError",
    "log_gamma",
    "pochhammer",
    "log_pochhammer",
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
