"""Exception hierarchy shared across the package."""


class DioidError(Exception):
    """Base class for all domain errors raised by this package."""


class ShapeError(DioidError):
    """Matrix dimensions do not match the operation's requirements."""


class SeriesDomainError(DioidError):
    """Operation undefined or not representable for the given series."""


class DivergenceError(DioidError):
    """An iterative computation exceeded its cap without stabilizing."""


class HypothesisError(DioidError):
    """The associativity condition required by the projector fails."""


class IntervalOrderError(DioidError):
    """Interval bounds are not ordered (lower must precede upper)."""


class ParseError(DioidError):
    """Malformed textual input; the message carries the position."""


class DivergenceWarning(UserWarning):
    """A meet closure met a strictly decreasing dual circuit; the entries it
    reaches are exactly the bottom element."""
