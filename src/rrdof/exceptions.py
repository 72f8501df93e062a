"""Exception hierarchy shared across the package."""


class RrdofError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(RrdofError, ValueError):
    """Matrix dimensions do not conform."""


class DomainError(RrdofError, ValueError):
    """Argument outside its valid range (rank, replication count, ...)."""


class DegenerateDesignError(RrdofError, ValueError):
    """Design matrix carries no usable column space (e.g. all zeros)."""


class NumericalError(RrdofError, RuntimeError):
    """An underlying factorization failed to converge."""


class DegeneracyError(RrdofError, RuntimeError):
    """Singular values at which an SVD derivative does not exist (exact ties or rank deficiency)."""


class ContractViolationError(RrdofError, ValueError):
    """A shrinkage rule produced weights outside [0, 1] or non-monotone weights."""


class SaturationError(RrdofError, ValueError):
    """A selection criterion is undefined (df >= n*q, or zero residual for BIC)."""


class ParseError(RrdofError, ValueError):
    """CSV input could not be parsed; message carries row/column location."""
