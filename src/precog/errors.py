"""Exception types shared across the package.

Every numerical failure raises a distinct class so callers (and the CLI,
which maps them to exit code 1) can tell input mistakes apart from genuine
breakdowns inside an algorithm.  The two type checks shared by the
integer and real-valued arguments of several modules live here too.
"""

import numbers

import numpy as np


class PrecogError(Exception):
    """Base class for all package errors."""


class InvalidDimensionError(PrecogError, ValueError):
    """A size or index argument is out of its allowed range."""


class InvalidInputError(PrecogError, ValueError):
    """An input value is malformed (non-finite entries, bad parameters)."""


class SymmetryError(PrecogError, ValueError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class NotPositiveDefiniteError(PrecogError, ArithmeticError):
    """A matrix required to be positive definite has a nonpositive eigenvalue."""


class NumericallySingularError(PrecogError, ArithmeticError):
    """A matrix is singular to working precision."""


class NormalizationDomainError(PrecogError, ArithmeticError):
    """Diagonal scaling is undefined because a diagonal entry is nonpositive."""


class DegenerateSpectrumError(PrecogError, ArithmeticError):
    """Eigenvalue gaps fell below the resolvable threshold."""


class DegenerateParametersError(PrecogError, ValueError):
    """Process parameters collapse a generator formula (e.g. equal poles)."""


class DivergenceError(PrecogError, ArithmeticError):
    """An optimizer or adaptive filter produced non-finite values."""


class IluBreakdownError(PrecogError, ArithmeticError):
    """Incomplete LU hit a zero pivot."""


def _check_integer(name: str, value) -> None:
    # bool is an int subclass, and a float count would pass the range checks and then
    # fail inside numpy
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")


def _check_real(name: str, value) -> None:
    # bool is an int subclass too: True would run as 1.0
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidInputError(f"{name} must be a real number, got {value!r}")
