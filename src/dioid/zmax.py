r"""Max-plus scalars: the complete idempotent semiring on Z with both infinities.

Carrier: {eps} | Z | {top} where eps plays -oo and top plays +oo.
Addition is max (neutral eps), multiplication is integer addition
(neutral 0, eps absorbing).  The meet is min (neutral top) and the dual
product is integer addition with top absorbing, which forces asymmetric
conventions at the infinities:

    eps (x) top = eps          top (.) eps = top

Every operation below is total.  ``lres(a, b)`` is the greatest x with
a (x) x <= b and ``dualres(a, b)`` the smallest x with a (.) x >= b; the
boundary rows of their case tables are fixed by those characterisations:

    lres:    eps\b = top   a\top = top   top\b = eps (b < top)   a\eps = eps (a > eps)
    dualres: top%b = eps   a%eps = eps (a < top)   eps%b = top (b > eps)   a%top = top

Values are immutable; all functions are pure and thread-safe.
"""

from __future__ import annotations

import enum
import re
from typing import Union

from .errors import ParseError


class Extreme(enum.Enum):
    """The two improper scalars: bottom ``eps`` and top ``top``."""

    EPS = "eps"
    TOP = "top"

    def __repr__(self) -> str:
        return self.value

    __str__ = __repr__


EPS = Extreme.EPS
TOP = Extreme.TOP

Scalar = Union[int, Extreme]


def leq(a: Scalar, b: Scalar) -> bool:
    """a <= b in the order eps <= ... -1 <= 0 <= 1 ... <= top."""
    if a is EPS or b is TOP:
        return True
    if a is TOP:
        return b is TOP
    if b is EPS:
        return False
    return a <= b


def lt(a: Scalar, b: Scalar) -> bool:
    return leq(a, b) and a != b


def oplus(a: Scalar, b: Scalar) -> Scalar:
    """max(a, b)."""
    if a is EPS:
        return b
    if b is EPS:
        return a
    if a is TOP or b is TOP:
        return TOP
    return a if a >= b else b


def wedge(a: Scalar, b: Scalar) -> Scalar:
    """min(a, b)."""
    if a is TOP:
        return b
    if b is TOP:
        return a
    if a is EPS or b is EPS:
        return EPS
    return a if a <= b else b


def otimes(a: Scalar, b: Scalar) -> Scalar:
    """a + b with eps absorbing (including eps (x) top = eps)."""
    if a is EPS or b is EPS:
        return EPS
    if a is TOP or b is TOP:
        return TOP
    return a + b


def odot(a: Scalar, b: Scalar) -> Scalar:
    """a + b with top absorbing (including top (.) eps = top)."""
    if a is TOP or b is TOP:
        return TOP
    if a is EPS or b is EPS:
        return EPS
    return a + b


def lres(a: Scalar, b: Scalar) -> Scalar:
    """Greatest x with a (x) x <= b; b - a on finite values."""
    if a is EPS:
        return TOP
    if b is TOP:
        return TOP
    if a is TOP:
        return EPS
    if b is EPS:
        return EPS
    return b - a


def dualres(a: Scalar, b: Scalar) -> Scalar:
    """Smallest x with a (.) x >= b; b - a on finite values."""
    if a is TOP:
        return EPS
    if b is EPS:
        return EPS
    if a is EPS:
        return TOP
    if b is TOP:
        return TOP
    return b - a


def star(a: Scalar) -> Scalar:
    """0 max a max a+a max ... : 0 for a <= 0, top otherwise."""
    if a is EPS:
        return 0
    if a is TOP:
        return TOP
    return 0 if a <= 0 else TOP


def conj(a: Scalar) -> Scalar:
    """-a, swapping eps and top; the min-plus/max-plus conjugation."""
    if a is EPS:
        return TOP
    if a is TOP:
        return EPS
    return -a


_INT_RE = re.compile(r"^[+-]?\d+$")


def parse_scalar(text: str) -> Scalar:
    """Parse ``eps``, ``top``, ``e`` (alias of 0) or a signed integer."""
    if text == "eps":
        return EPS
    if text == "top":
        return TOP
    if text == "e":
        return 0
    if _INT_RE.match(text):
        return parse_int(text)
    raise ParseError(f"invalid scalar literal {text!r}")


def parse_int(text: str) -> int:
    """A signed decimal integer; one too long for the interpreter to convert
    is a ``ParseError``, not a ``ValueError``."""
    try:
        return int(text)
    except ValueError:
        digits = len(text.lstrip("+-"))
        raise ParseError(f"integer literal of {digits} digits is too long to convert") from None


def format_scalar(a: Scalar) -> str:
    if a is EPS:
        return "eps"
    if a is TOP:
        return "top"
    return str(a)


class _ZMaxSemiring:
    """Operation table for matrices and parsers over max-plus scalars."""

    kind = "maxplus"
    name = "maxplus"
    eps: Scalar = EPS
    one: Scalar = 0
    top: Scalar = TOP

    oplus = staticmethod(oplus)
    wedge = staticmethod(wedge)
    otimes = staticmethod(otimes)
    odot = staticmethod(odot)
    lres = staticmethod(lres)
    dualres = staticmethod(dualres)
    star = staticmethod(star)
    leq = staticmethod(leq)
    conj = staticmethod(conj)
    parse = staticmethod(parse_scalar)
    format = staticmethod(format_scalar)

    @staticmethod
    def odot_left_ok(a: Scalar) -> bool:
        return True

    def __repr__(self) -> str:
        return "ZMAX"


ZMAX = _ZMaxSemiring()
