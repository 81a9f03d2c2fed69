"""Exception types, and the integer check of count arguments, shared
across the package."""
import operator


class DomainError(ValueError):
    """Input outside an operation's documented domain."""


class SizeError(DomainError):
    """Request beyond a size guard: a dense matrix past the qubit-count limit,
    or a CLI request larger than physical memory."""


class ParseError(ValueError):
    """Malformed state or manifest file."""


def check_integer(value, what: str) -> int:
    """`value` as an int: any integer, numpy's included, but not a bool."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise DomainError(f"{what} must be an integer, got {value!r}")
