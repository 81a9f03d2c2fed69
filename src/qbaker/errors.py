"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside an operation's documented domain."""


class SizeError(DomainError):
    """Request beyond a size guard: a dense matrix past the qubit-count limit,
    or a CLI request larger than physical memory."""


class ParseError(ValueError):
    """Malformed state or manifest file."""
