"""Interval lift of a semiring: pairs of ordered bounds.

``Interval(lo, hi)`` stands for the set of elements between its bounds.
Sum, product and dual product act boundwise; residuals carry a meet (resp.
join) correction that keeps the bounds ordered, because the two boundwise
residuals need not be ordered themselves.  Those corrections are exactly
the residuals of the canonical injection from ordered pairs into plain
pairs, exposed here as ``pair_project_down`` / ``pair_project_up``.

Constructors reject unordered bounds; the operations never produce them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .errors import IntervalOrderError, ParseError
from .series import GAMMA
from .zmax import ZMAX


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] over some base semiring."""

    lo: Any
    hi: Any


@dataclass(frozen=True)
class OrderedPair:
    """A raw pair (first, second); ordering is not enforced."""

    first: Any
    second: Any


def pair_project_down(p: OrderedPair, base) -> OrderedPair:
    """Greatest ordered pair below p: (first ^ second, second)."""
    return OrderedPair(base.wedge(p.first, p.second), p.second)


def pair_project_up(p: OrderedPair, base) -> OrderedPair:
    """Smallest ordered pair above p: (first, first (+) second)."""
    return OrderedPair(p.first, base.oplus(p.first, p.second))


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

    # -- construction -------------------------------------------------

    def make(self, lo, hi) -> Interval:
        if not self.base.leq(lo, hi):
            raise IntervalOrderError(
                f"interval bounds are not ordered: [{self.base.format(lo)},"
                f"{self.base.format(hi)}]"
            )
        return Interval(lo, hi)

    def degenerate(self, x) -> Interval:
        return Interval(x, x)

    @staticmethod
    def lower(x: Interval):
        return x.lo

    @staticmethod
    def upper(x: Interval):
        return x.hi

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

    # -- closures -------------------------------------------------------

    def star(self, x: Interval) -> Interval:
        b = self.base
        return Interval(b.star(x.lo), b.star(x.hi))

    def odot_left_ok(self, x: Interval) -> bool:
        b = self.base
        return b.odot_left_ok(x.lo) and b.odot_left_ok(x.hi)

    def conj(self, x: Interval) -> Interval:
        base_conj = getattr(self.base, "conj", None)
        if base_conj is None:
            raise TypeError(f"no conjugation over {self.base!r}")
        return Interval(base_conj(x.hi), base_conj(x.lo))

    # -- text form -------------------------------------------------------

    def format(self, x: Interval) -> str:
        return f"[{self.base.format(x.lo)},{self.base.format(x.hi)}]"

    def parse(self, text: str) -> Interval:
        body = text.strip()
        if body.startswith("["):
            if not body.endswith("]"):
                raise ParseError(f"unterminated interval literal {text!r}")
            inner = body[1:-1]
            depth = 0
            comma = -1
            for i, ch in enumerate(inner):
                if ch in "([":
                    depth += 1
                elif ch in ")]":
                    depth -= 1
                elif ch == "," and depth == 0:
                    comma = i
                    break
            if comma < 0:
                raise ParseError(f"interval literal needs two bounds: {text!r}")
            lo = self.base.parse(inner[:comma].strip())
            hi = self.base.parse(inner[comma + 1 :].strip())
            return self.make(lo, hi)
        value = self.base.parse(body)
        return Interval(value, value)


IZMAX = IntervalSemiring(ZMAX)
IGAMMA = IntervalSemiring(GAMMA)
