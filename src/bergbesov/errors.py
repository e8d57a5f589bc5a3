"""The errors by which the numerics refuse to return an uncertified value,
and the one check of each kind of outside input: _check_finite for a real
parameter, _check_int for a dimension, degree or node count, and
_check_ball_point for a transform's evaluation point.  They import no
NumPy, so the command line catches the errors, and the classifier and the
radial layer check their input, without it.  `kernel` and `quadrature`
re-export the errors.  _linspace, np.linspace on Python floats, is here for
the same reason: it expands the command line's ranges and the floor
probe's cosines.
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


def _check_ball_point(x):
    """The coordinates of x as a list of floats; ValueError unless x lies in
    the open unit ball.  The rounded sum of squares is within 3e-16 of
    |x|^2 near 1, so it decides every point but those within 1e-15 of the
    sphere, and exact rationals decide those (NaN lies nowhere)."""
    x = [float(v) for v in x]
    s = math.fsum(v * v for v in x)
    if abs(s - 1.0) <= 1e-15:
        from fractions import Fraction

        s = sum(Fraction(v) ** 2 for v in x)
    if not s < 1:
        raise ValueError("evaluation point must lie in the open unit ball")
    return x


def _linspace(start, stop, count):
    """np.linspace(start, stop, count).tolist() in Python floats, bit for bit:
    start + i*step (i/div*delta when step underflows to 0), the last value
    set to stop."""
    delta = stop - start
    if count == 1:
        return [0.0 * delta + start]
    div = count - 1
    step = delta / div
    if step == 0.0:
        vals = [i / div * delta + start for i in range(count)]
    else:
        vals = [i * step + start for i in range(count)]
    vals[-1] = stop
    return vals
