"""Exception types shared across the package.

Every numerical failure raises a distinct class so callers (and the CLI,
which maps them to exit code 1) can tell input mistakes apart from genuine
breakdowns inside an algorithm.  The scalar checks live here too:
_check_count (an integer count, size or seed) and _check_real (a finite real).
"""

import math
import numbers

import numpy as np


class PrecogError(Exception):
    """Base class for all package errors."""


class InvalidInputError(PrecogError, ValueError):
    """An input value is malformed (non-finite entries, bad parameters)."""


class InvalidDimensionError(InvalidInputError):
    """A size or index argument is out of its allowed range."""


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


def _check_count(name: str, value, minimum: int = 1) -> None:
    # bool is an int subclass, and a float count would pass the range checks and then
    # fail inside numpy
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        bound = {0: "nonnegative", 1: "positive"}.get(minimum, f"at least {minimum}")
        raise InvalidDimensionError(f"{name} must be {bound}, got {value}")


def _check_real(name: str, value) -> None:
    # bool is an int subclass too: True would run as 1.0
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidInputError(f"{name} must be a real number, got {value!r}")
    try:  # nan passes one-sided range tests; an int too large for a float overflows here
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise InvalidInputError(f"{name} must be finite, got {value}")
