"""The errors by which the numerics refuse to return an uncertified value.

They live apart from the modules that raise them, which need NumPy, so that
the command line can catch them without importing NumPy.  `kernel` and
`quadrature` re-export them under their own names.
"""

__all__ = ["ConvergenceError", "KernelDivergenceError", "TruncationLimitError"]


class ConvergenceError(RuntimeError):
    """A double-exponential integral missed its tolerance at the deepest level."""


class KernelDivergenceError(ArithmeticError):
    """Kernel series evaluated with both arguments on the unit sphere."""


class TruncationLimitError(RuntimeError):
    """Kernel series with no certified truncation degree: the tail bound is
    still above tol at MAX_DEGREE (|x||y| too close to 1), or the coefficient
    at the first omitted degree overflows a double."""
