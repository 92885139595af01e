"""Exception types shared across the package.

Every numerical failure raises a distinct class so callers (and the CLI,
which maps them to exit code 1) can tell input mistakes apart from genuine
breakdowns inside an algorithm.
"""


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
