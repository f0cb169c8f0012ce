"""Exception hierarchy shared across the package, and its input caps."""

# Work guard: a series sweep or an oracle scan whose estimated work would pass
# this is refused instead of run or silently truncated.
_WINDOW_CAP = 1 << 18

# Longest integer literal parsed, in digits, whatever the interpreter's own
# limit on converting strings to ints.  It also bounds the field width of the
# packed max-plus product for matrices read from text.
_DIGIT_CAP = 4300


class DioidError(Exception):
    """Base class for all domain errors raised by this package."""


class ShapeError(DioidError):
    """Matrix dimensions do not match the operation's requirements."""


class SeriesDomainError(DioidError):
    """Operation undefined or not representable for the given series."""


class DivergenceError(DioidError):
    """An iterative computation exceeded its cap without stabilizing."""


def _check_work(what: str, work: int) -> None:
    """Refuse a computation whose estimated work passes ``_WINDOW_CAP``."""
    if work > _WINDOW_CAP:
        raise DivergenceError(f"{what}: estimated work {work} is past the cap {_WINDOW_CAP}")


class HypothesisError(DioidError):
    """The associativity condition required by the projector fails."""


class IntervalOrderError(DioidError):
    """Interval bounds are not ordered (lower must precede upper)."""


class ParseError(DioidError):
    """Malformed textual input; the message carries the position."""


class DivergenceWarning(UserWarning):
    """A meet closure met a strictly decreasing dual circuit; the entries it
    reaches are exactly the bottom element."""
