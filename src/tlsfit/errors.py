"""Exception hierarchy shared by all fitting modules."""
from __future__ import annotations

__all__ = ["FitError", "DimensionError", "EmptyDataError",
           "DegenerateAbscissaError", "RankDeficiencyError", "ConvergenceError",
           "RangeError", "NoTlsSolutionError", "FormatError"]


class FitError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(FitError, ValueError):
    """Shapes of the operands are incompatible with the operation."""


class EmptyDataError(FitError, ValueError):
    """An operation that needs at least one data point received none."""


class DegenerateAbscissaError(FitError, ValueError):
    """All abscissae coincide, or spread too little for the regression
    line's coefficients to be representable floats."""


class RankDeficiencyError(FitError):
    """A solve method that requires full column rank detected rank loss."""


class ConvergenceError(FitError):
    """An iterative kernel exhausted its sweep budget without converging."""


class RangeError(FitError, OverflowError):
    """A result of finite data, such as an objective, a singular value or
    an intercept, is beyond the float range."""


class NoTlsSolutionError(FitError):
    """The TLS problem has no solution of the requested explicit form.

    Carries the diagnostic ``null_vector`` (the offending unit right
    singular direction whose trailing block vanishes) and ``sigma`` (all
    singular values of the augmented matrix) so callers can report why.
    """

    def __init__(self, message, null_vector, sigma):
        super().__init__(message)
        self.null_vector = null_vector
        self.sigma = sigma


class FormatError(FitError, ValueError):
    """Malformed input file.  ``line`` and ``col`` are 1-based positions."""

    def __init__(self, message, line, col=None):
        super().__init__(message)
        self.line = line
        self.col = col
