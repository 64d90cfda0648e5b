"""Exception types shared across the package."""

__all__ = [
    "MonodromyError",
    "InvalidInput",
    "NonSplitSpectrum",
    "NotAnIsometry",
    "ResourceLimit",
    "OrderOverflow",
    "NotInCategory",
    "DegenerateQuotient",
    "BadLocus",
    "NegativeDimension",
    "FamilyCheckFailed",
]


class MonodromyError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(MonodromyError, ValueError):
    """An argument is outside the domain of the function it was passed to.

    Also a ValueError, so callers that catch the builtin keep working.
    """


class NonSplitSpectrum(MonodromyError):
    """A matrix has an eigenvalue outside the prime field."""


class NotAnIsometry(MonodromyError):
    """A matrix does not preserve the bilinear form it was checked against."""


class ResourceLimit(MonodromyError):
    """Orbit storage exceeded the configured cap, p^n does not fit in 64 bits, or
    irreducibility is undecided: too many lines and no generator of drop one."""


class OrderOverflow(MonodromyError):
    """Element order exceeded the configured cap."""


class NotInCategory(MonodromyError):
    """The tuple does not satisfy the membership condition for convolution."""


class DegenerateQuotient(MonodromyError):
    """The convolution quotient has the wrong dimension (orientation bug guard)."""


class BadLocus(MonodromyError):
    """Puncture labels collide with a reserved locus or repeat."""


class NegativeDimension(MonodromyError):
    """A dimension formula was evaluated outside its valid regime."""


class FamilyCheckFailed(MonodromyError):
    """A packaged family's tuple failed one of the checks that define the family."""
