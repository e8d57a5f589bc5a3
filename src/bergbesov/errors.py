"""The errors by which the numerics refuse to return an uncertified value,
and the one check of each kind of outside input: _check_finite for a real
parameter, _check_int for a dimension, degree or node count.  They import
no NumPy, so the command line catches the errors, and the classifier checks
its input, without it.  `kernel` and `quadrature` re-export the errors.
"""

import math

__all__ = ["ConvergenceError", "KernelDivergenceError", "TruncationLimitError"]


class ConvergenceError(RuntimeError):
    """A double-exponential integral missed its tolerance at the deepest level."""


class KernelDivergenceError(ArithmeticError):
    """Kernel series evaluated with both arguments on the unit sphere."""


class TruncationLimitError(RuntimeError):
    """Kernel series with no certified truncation degree: the tail bound is
    still above tol at MAX_DEGREE (|x||y| too close to 1), or the coefficient
    at the first omitted degree overflows a double."""


def _check_finite(name, value):
    """value as a float; ValueError naming the parameter if it is not finite."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _check_int(name, value, least):
    """value as an int; ValueError naming the parameter unless it is an
    integer >= least (NaN and the infinities are not)."""
    try:
        whole = int(value) == value
    except (OverflowError, ValueError):
        whole = False
    if not whole or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value}")
    return int(value)
