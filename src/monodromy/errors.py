"""Exception types shared across the package."""

__all__ = [
    "MonodromyError",
    "InvalidInput",
    "NonSplitSpectrum",
    "NotAnIsometry",
    "ResourceLimit",
    "OrderOverflow",
    "Inconclusive",
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
    """Orbit storage exceeded the configured cap, or p^n does not fit in 64 bits."""


class OrderOverflow(MonodromyError):
    """Element order exceeded the configured cap."""


class Inconclusive(MonodromyError):
    """A randomized search exhausted its trials without a definite answer."""

    def __init__(self, message, trials=0):
        super().__init__(message)
        self.trials = trials


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
