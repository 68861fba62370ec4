"""Exception hierarchy: one class per CLI exit code, carried as ``exit_code``.

Bad input raises ``ValidationError`` and work refused because it would
exceed a resource budget raises ``ResourceLimitError``. The message names
the reason; no caller needs more.
"""


class ApcoverError(Exception):
    """Base class for all errors raised by this package."""

    exit_code: int


class ValidationError(ApcoverError, ValueError):
    """Invalid input."""

    exit_code = 2


class ResourceLimitError(ApcoverError, RuntimeError):
    """Work refused up front rather than attempted."""

    exit_code = 3
