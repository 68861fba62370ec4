"""Exception hierarchy.

Two families matter to callers: bad input (``ValidationError``, CLI exit
code 2) and work refused because it would exceed a resource budget
(``ResourceLimitError``, CLI exit code 3).
"""


class ApcoverError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ApcoverError, ValueError):
    """Invalid input."""


class EmptyModuliError(ValidationError):
    pass


class ModulusTooSmallError(ValidationError):
    pass


class ModulusTooLargeError(ValidationError):
    """Moduli must fit in 64 bits so the primality check stays deterministic."""


class DuplicateModulusError(ValidationError):
    pass


class NotPrimeError(ValidationError):
    pass


class NotCoprimeError(ValidationError):
    """Two moduli share a factor while coprime mode is enabled."""


class OutOfRangeError(ValidationError):
    """Integer lies outside the window [1, product]."""


class DimensionTooLargeError(ValidationError):
    """Cofactor expansion is refused above its dimension cap."""


class ResourceLimitError(ApcoverError, RuntimeError):
    """Work refused up front rather than attempted."""


class ProductTooLargeError(ResourceLimitError):
    """Sieve window exceeds the configured product limit."""


class TooManyAssignmentsError(ResourceLimitError):
    """Exhaustive verification would enumerate too many assignments."""
