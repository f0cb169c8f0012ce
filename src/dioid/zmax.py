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
from typing import Union

from .errors import _DIGIT_CAP, ParseError


class Extreme(enum.Enum):
    """The two improper scalars: bottom ``eps`` and top ``top``."""

    EPS = "eps"
    TOP = "top"

    def __repr__(self) -> str:
        return self._value_  # the field: ``value`` is a property, 20x slower

    __str__ = __repr__
    # By identity, in C, 3x faster than Enum's: the kernels put them in sets.
    __hash__ = object.__hash__


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


_NAMED = {"eps": EPS, "top": TOP, "e": 0}


def parse_scalar(text: str) -> Scalar:
    """Parse ``eps``, ``top``, ``e`` (alias of 0) or a signed ASCII integer."""
    named = _NAMED.get(text)
    if named is not None:
        return named
    digits = text[1:] if text[:1] in "+-" else text
    if digits.isdigit() and digits.isascii():
        return parse_int(text)
    raise ParseError(f"invalid scalar literal {text!r}")


# The lowest limit an interpreter can set on converting a string to an int.
_SAFE_DIGITS = 640


def parse_int(text: str) -> int:
    """A signed decimal integer of at most ``_DIGIT_CAP`` digits; a longer one
    is a ``ParseError``.

    A longer literal than ``_SAFE_DIGITS`` is converted in chunks of that
    many digits, so the literals accepted do not depend on the interpreter's
    limit.
    """
    if len(text) <= _SAFE_DIGITS:
        return int(text)
    digits = text[1:] if text[:1] in "+-" else text
    if len(digits) > _DIGIT_CAP:
        raise ParseError(
            f"integer literal of {len(digits)} digits is past the cap of {_DIGIT_CAP} digits"
        )
    value = 0
    for i in range(0, len(digits), _SAFE_DIGITS):
        chunk = digits[i:i + _SAFE_DIGITS]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if text[:1] == "-" else value


# eps and top print as their literals: the builtin formats every scalar.
format_scalar = str


class Frozen:
    """Base of the immutable values: slotted, with assignment and deletion refused.
    A subclass names its fields in ``__slots__``, stores them in ``__init__``
    through the slot descriptors and writes ``__eq__`` and ``__hash__`` over
    them by name, 1.5-2x faster than a pair over a field getter.  Pickle and
    copy rebuild a value through its constructor, which re-runs its checks."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


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
    parse = staticmethod(parse_scalar)
    format = staticmethod(format_scalar)

    @staticmethod
    def odot_left_ok(a: Scalar) -> bool:
        return True

    def __repr__(self) -> str:
        return "ZMAX"

    def __reduce__(self) -> str:
        # Matrices compare their table with ``is``: pickle and copy keep it.
        return "ZMAX"


ZMAX = _ZMaxSemiring()
