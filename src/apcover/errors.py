"""Exception hierarchy: one class per CLI exit code.

Bad input raises ``ValidationError`` (CLI exit code 2) and work refused
because it would exceed a resource budget raises ``ResourceLimitError``
(CLI exit code 3). The message names the reason; no caller needs more.
"""


class ApcoverError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ApcoverError, ValueError):
    """Invalid input."""


class ResourceLimitError(ApcoverError, RuntimeError):
    """Work refused up front rather than attempted."""
