"""Exception types, and the checks of integer arguments, shared across the
package.

Counts, qubit labels and basis indices are Python or numpy integers:
`check_integer` refuses a bool, a float or any other non-integer, and
`check_count` also refuses a value below the argument's bound. Both raise
`DomainError` naming the argument and return the value as a Python int.
"""
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


def check_count(value, what: str, least: int) -> int:
    """`value` as an int (see `check_integer`) that is at least `least`."""
    count = check_integer(value, what)
    if count < least:
        raise DomainError(f"{what} must be >= {least}, got {value}")
    return count
