"""Exception types shared across the package, and the check of an array's size against memory."""

import os

_PHYSICAL_BYTES = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


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


def check_bytes(nbytes: int, what: str) -> None:
    """Raise ``DomainError`` before allocating ``what`` when its ``nbytes`` exceed physical memory."""
    if nbytes > _PHYSICAL_BYTES:
        raise DomainError(f"{what} needs {nbytes} bytes ({nbytes / 2**30:.1f} GiB), "
                          f"more than the {_PHYSICAL_BYTES} bytes of physical memory")
