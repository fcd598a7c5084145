"""Exception types shared across the package."""


class JlkitError(Exception):
    """Base class for all package errors."""


class DomainError(JlkitError, ValueError):
    """A parameter lies outside the mathematical domain of an operation."""


class ShapeError(JlkitError, ValueError):
    """Array shapes or dimensions are inconsistent."""


class InfeasibleError(JlkitError, RuntimeError):
    """No solution exists within the valid search domain."""


class DegenerateDataError(JlkitError, ValueError):
    """The input data is degenerate for the requested operation."""


class NumericalError(JlkitError, ArithmeticError):
    """A computation broke an invariant it must keep, such as a falling cost."""
