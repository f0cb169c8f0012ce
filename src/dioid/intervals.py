"""Interval lift of a semiring: pairs of ordered bounds.

``Interval(lo, hi)`` stands for the set of elements between its bounds.
Sum, product and dual product act boundwise; residuals carry a meet (resp.
join) correction that keeps the bounds ordered, because the two boundwise
residuals need not be ordered themselves: the lower bound of a residual is
met with the upper one, and the upper bound of a dual residual is joined
with the lower one.  The interval matrix kernels in ``matrices`` apply the
same corrections to whole bound matrices.

Constructors reject unordered bounds; the operations never produce them.
"""

from __future__ import annotations

from .errors import IntervalOrderError, ParseError
from .series import GAMMA
from .zmax import ZMAX, Frozen


class Interval(Frozen):
    """Closed interval [lo, hi] over some base semiring."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi) -> None:
        _set_lo(self, lo)
        _set_hi(self, hi)

    def __eq__(self, other):
        return (self.lo == other.lo and self.hi == other.hi
                if other.__class__ is Interval else NotImplemented)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))


_set_lo, _set_hi = Interval.lo.__set__, Interval.hi.__set__


class IntervalSemiring:
    """Operation table for intervals over a given base semiring."""

    kind = "interval"

    def __init__(self, base) -> None:
        self.base = base
        self.name = f"interval-{base.name}"
        self.eps = Interval(base.eps, base.eps)
        self.one = Interval(base.one, base.one)
        self.top = Interval(base.top, base.top)

    def __repr__(self) -> str:
        return f"IntervalSemiring({self.base!r})"

    def __reduce__(self) -> str:
        return "IZMAX" if self.base is ZMAX else "IGAMMA"  # pickled by name, as ZMAX is

    # -- construction -------------------------------------------------

    def make(self, lo, hi) -> Interval:
        if not self.base.leq(lo, hi):
            raise IntervalOrderError(
                f"interval bounds are not ordered: [{self.base.format(lo)},"
                f"{self.base.format(hi)}]"
            )
        return Interval(lo, hi)

    # -- lattice and products (boundwise) ------------------------------

    def oplus(self, x: Interval, y: Interval) -> Interval:
        b = self.base
        return Interval(b.oplus(x.lo, y.lo), b.oplus(x.hi, y.hi))

    def wedge(self, x: Interval, y: Interval) -> Interval:
        b = self.base
        return Interval(b.wedge(x.lo, y.lo), b.wedge(x.hi, y.hi))

    def otimes(self, x: Interval, y: Interval) -> Interval:
        b = self.base
        return Interval(b.otimes(x.lo, y.lo), b.otimes(x.hi, y.hi))

    def odot(self, x: Interval, y: Interval) -> Interval:
        b = self.base
        return Interval(b.odot(x.lo, y.lo), b.odot(x.hi, y.hi))

    def leq(self, x: Interval, y: Interval) -> bool:
        b = self.base
        return b.leq(x.lo, y.lo) and b.leq(x.hi, y.hi)

    # -- residuals (boundwise with ordering corrections) ---------------

    def lres(self, a: Interval, x: Interval) -> Interval:
        """Greatest interval y with a (x) y <= x."""
        b = self.base
        up = b.lres(a.hi, x.hi)
        return Interval(b.wedge(b.lres(a.lo, x.lo), up), up)

    def dualres(self, a: Interval, x: Interval) -> Interval:
        """Smallest interval y with a (.) y >= x."""
        b = self.base
        down = b.dualres(a.lo, x.lo)
        return Interval(down, b.oplus(down, b.dualres(a.hi, x.hi)))

    # -- projector hypothesis ----------------------------------------

    def odot_left_ok(self, x: Interval) -> bool:
        b = self.base
        return b.odot_left_ok(x.lo) and b.odot_left_ok(x.hi)

    # -- text form -------------------------------------------------------

    def format(self, x: Interval) -> str:
        return f"[{self.base.format(x.lo)},{self.base.format(x.hi)}]"

    def parse(self, text: str) -> Interval:
        """``[LO,HI]`` with ordered bounds, or a bare base literal for a
        degenerate interval.  Base literals hold no comma or bracket, so
        the first comma splits the bounds."""
        body = text.strip()
        if not body.startswith("["):
            value = self.base.parse(body)
            return Interval(value, value)
        if not body.endswith("]"):
            raise ParseError(f"unterminated interval literal {text!r}")
        lo, comma, hi = body[1:-1].partition(",")
        if not comma:
            raise ParseError(f"interval literal needs two bounds: {text!r}")
        return self.make(self.base.parse(lo.strip()), self.base.parse(hi.strip()))


IZMAX = IntervalSemiring(ZMAX)
IGAMMA = IntervalSemiring(GAMMA)
