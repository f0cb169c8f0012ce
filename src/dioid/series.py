"""Non-decreasing formal power series in one variable over max-plus scalars.

An element is a non-decreasing map from exponents (all of Z) to max-plus
coefficients.  A single generator ``Monomial(t, n)`` denotes the staircase
that is worth ``t`` at every exponent >= n and ``eps`` before; the library
keeps every series in the canonical ultimately-periodic shape

    s  =  transient  (+)  pattern (x) period*

where ``transient`` and ``pattern`` are strictly increasing monomial lists
(both coefficients and exponents increase), ``period = Monomial(tau, nu)``
has tau > 0 and nu > 0, and the pattern lives inside one period window.
Polynomials carry no period and are eventually constant; the distinguished
elements are ``S_EPS`` (empty), ``S_ONE`` (worth 0 from exponent 0 on) and
``S_TOP`` (top at every exponent, the absorbing element of the dual
product).  A ``top`` coefficient inside a polynomial marks a series that
saturates to top from that exponent onward.

Canonical forms are unique: the period is exponent-minimal, the pattern
starts at the earliest staircase step compatible with periodicity, and the
monomials of ``transient + pattern`` strictly increase in coefficient and
exponent.  Equality of canonical forms is therefore equality of series,
and every public operation returns a canonical result.  Later copies of a
pattern monomial need not be steps: ``0.g0.(1.g2)*+1.g1.(1.g2)*`` is worth
0, 1, 1, 2, 2, ... and its copy ``1.g2`` only repeats the value before it.

All exact operations work on a sliding window of explicit values together
with a *proven* periodicity rank computed from the operands (crossing
bounds for max/min, shift arguments for residuals, a verified recurrence
window for stars), so no result is ever guessed from a finite prefix.

Every step on a window is one linear pass over Python ints.  ``values``
sweeps the staircase steps once, transient first, then the pattern copies,
filling constant runs: O(window + steps).  ``pattern_series`` drops each copy
into an event array and takes a running max.  ``_reconstruct`` reads the
steps, the minimal period and the earliest rank straight off the ints.  Two
windows are joined or met by comparing ints on their common finite stretch,
and a residual value is one minimum over the denominator's steps.  Eps and
top sit only at the ends of a window, so they are located, not compared.

Operations expect canonical operands, as every constructor function and
operation returns them.  So a product by a monomial, or a residual by a
finite one, shifts the other operand, and a join or meet whose window equals
an operand's returns that operand, without rebuilding either.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Iterable, Optional, Union

from . import zmax
from .errors import DivergenceError, ParseError, SeriesDomainError
from .zmax import EPS, TOP, Extreme, Scalar

# Work guard: a sweep whose window, or window times the steps it visits per
# value, would pass this is refused instead of run or silently truncated.
_WINDOW_CAP = 1 << 18


@dataclass(frozen=True)
class Monomial:
    """Generator t*gamma^n: worth ``coeff`` at every exponent >= ``exp``."""

    coeff: Union[int, Extreme]
    exp: int


@dataclass(frozen=True)
class Series:
    """Canonical ultimately-periodic non-decreasing series.

    The constructor checks the shape every operation relies on and raises
    ``SeriesDomainError`` when it does not hold: eps-free coefficients and
    exponents that both strictly increase over ``transient + pattern``, a
    ``top`` coefficient only at the end of a polynomial, and a period with
    positive coefficient and exponent whose pattern fits in one period.
    """

    transient: tuple[Monomial, ...]
    pattern: tuple[Monomial, ...]
    period: Optional[Monomial]
    all_top: bool = False

    def __post_init__(self) -> None:
        transient, pattern, period = self.transient, self.pattern, self.period
        if self.all_top:
            if transient or pattern or period is not None:
                raise SeriesDomainError("the all-top series has no monomials")
            return
        monos = transient + pattern
        prev_c = prev_e = None
        for m in monos:
            c, e = m.coeff, m.exp
            if c is EPS or c is TOP:
                if c is EPS or pattern or m is not monos[-1]:
                    raise SeriesDomainError(
                        f"coefficient {c} may not appear in a series monomial here: "
                        "eps never, top only to end a polynomial")
            elif prev_c is not None and c <= prev_c:
                raise SeriesDomainError("series coefficients must strictly increase")
            if prev_e is not None and e <= prev_e:
                raise SeriesDomainError("series exponents must strictly increase")
            prev_c, prev_e = c, e
        if period is None:
            if pattern:
                raise SeriesDomainError("a pattern requires a period")
            return
        if not pattern:
            raise SeriesDomainError("a period requires a pattern")
        tau, nu = period.coeff, period.exp
        if not isinstance(tau, int) or tau <= 0 or nu <= 0:
            raise SeriesDomainError(
                f"period must have positive finite coefficient and exponent, got {period}"
            )
        if prev_e >= pattern[0].exp + nu:
            raise SeriesDomainError("the pattern must fit in one period")

    def __repr__(self) -> str:
        return f"Series({format_series(self)!r})"


S_EPS = Series((), (), None)
S_TOP = Series((), (), None, all_top=True)
S_ONE = Series((Monomial(0, 0),), (), None)


def is_eps(s: Series) -> bool:
    return not s.all_top and not s.transient and not s.pattern


def is_top(s: Series) -> bool:
    return s.all_top


def is_monomial(s: Series) -> bool:
    """True for a single-generator series (pure monomial)."""
    return s.period is None and len(s.transient) == 1


def _top_tail_exp(s: Series) -> Optional[int]:
    """Exponent where a polynomial saturates to top, if it does."""
    if s.transient and s.transient[-1].coeff is TOP:
        return s.transient[-1].exp
    return None


def _min_exp(s: Series) -> int:
    if s.transient:
        return s.transient[0].exp
    return s.pattern[0].exp


def value_at(s: Series, j: int) -> Scalar:
    """Coefficient of the series at exponent j."""
    if s.all_top:
        return TOP
    best: Scalar = EPS
    for m in s.transient:
        if m.exp <= j:
            best = zmax.oplus(best, m.coeff)
    if s.period is not None:
        tau, nu = s.period.coeff, s.period.exp
        for m in s.pattern:
            if m.exp <= j:
                k = (j - m.exp) // nu
                best = zmax.oplus(best, m.coeff + k * tau)
    return best


def values(s: Series, lo: int, hi: int) -> list[Scalar]:
    """Exact coefficients on the exponent window [lo, hi].

    One sweep over the staircase steps at or below ``hi``: the transient,
    then the pattern copies from the first one that reaches ``lo``.  Each
    step raises a running maximum and the constant run before it is filled
    in one list operation, so the cost is O(window + steps).
    """
    if hi < lo:
        return []
    if s.all_top:
        return [TOP] * (hi - lo + 1)
    out: list[Scalar] = []
    cur: Scalar = EPS
    pos = lo  # first exponent not yet in ``out``
    for m in s.transient:
        e = m.exp
        if e > hi:
            break
        if e > pos:
            out += [cur] * (e - pos)
            pos = e
        cur = m.coeff  # the constructor keeps these strictly increasing
    if s.period is not None:
        tau, nu = s.period.coeff, s.period.exp
        start = s.pattern[0].exp
        # Copies before the k-th lie wholly below lo; every pattern value
        # tops the transient, so they only leave their largest value.
        k = (lo - start) // nu if lo > start else 0
        if k:
            cur = s.pattern[-1].coeff + (k - 1) * tau
        pat = [(m.exp - start, m.coeff) for m in s.pattern]
        base, shift = start + k * nu, k * tau
        while base <= hi:
            for off, c in pat:
                e = base + off
                if e > hi:
                    break
                if e > pos:
                    out += [cur] * (e - pos)
                    pos = e
                c += shift
                if cur is EPS or c > cur:
                    cur = c
            base += nu
            shift += tau
    out += [cur] * (hi + 1 - pos)
    return out


def _extent(vals: list[Scalar]) -> tuple[int, int]:
    """(e, t) for a non-decreasing window: eps before index e, top from t on."""
    n = len(vals)
    e = 0
    while e < n and vals[e] is EPS:
        e += 1
    return e, (vals.index(TOP) if n and vals[-1] is TOP else n)


def _growth(s: Series) -> tuple[int, int, int]:
    """(tau, nu, rank): s(j + nu) = s(j) + tau for every j >= rank."""
    if s.all_top or is_eps(s):
        return (0, 1, 0)
    if s.period is None:
        return (0, 1, s.transient[-1].exp)
    return (s.period.coeff, s.period.exp, s.pattern[0].exp)


def _shift_coeff(v: Scalar, d: int) -> Scalar:
    if isinstance(v, Extreme):
        return v
    return v + d


def _steps(vals: list[Scalar], lo: int, end: int) -> tuple[list[int], list[Scalar]]:
    """Exponents and values where ``vals[:end]``, finite after an eps prefix,
    changes value; a change must be an increase."""
    exps: list[int] = []
    coeffs: list[Scalar] = []
    k = 0
    while k < end and vals[k] is EPS:
        k += 1
    if k < end:
        prev = vals[k]
        exps.append(lo + k)
        coeffs.append(prev)
        for i in range(k + 1, end):
            v = vals[i]
            if v != prev:
                if v < prev:
                    raise AssertionError("series values must be non-decreasing")
                exps.append(lo + i)
                coeffs.append(v)
                prev = v
    return exps, coeffs


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _reconstruct(vals: list[Scalar], lo: int, tau: int, nu: int, rank: int) -> Series:
    """Rebuild the canonical form from an exact window.

    Requires: the window covers [lo, rank + 2*nu], the series is eps below
    lo, and s(j + nu) = s(j) + tau holds for every j >= rank.  The checks
    below catch a caller whose proof of that recurrence is wrong.
    """
    n = len(vals)
    hi = lo + n - 1
    if hi < rank + 2 * nu:
        raise AssertionError("window ends before two periods past the rank")

    if vals[-1] is TOP:
        i = vals.index(TOP)
        exps, coeffs = _steps(vals, lo, i)
        head = tuple(map(Monomial, coeffs, exps)) + (Monomial(TOP, lo + i),)
        return Series(head, (), None)

    exps, coeffs = _steps(vals, lo, n)
    if not exps:
        return S_EPS

    if tau == 0:
        if exps[-1] > rank:
            raise AssertionError("a polynomial steps past its proven rank")
        return Series(tuple(map(Monomial, coeffs, exps)), (), None)

    # From the rank on the window is finite: top was handled above, and a
    # recurrence from an eps value would leave the whole window eps.
    r = rank - lo
    k = exps[0] - lo  # first finite index
    if k > r:
        raise AssertionError("the window is eps at the proven rank")

    # Minimal period: smallest exponent-divisor whose proportional
    # coefficient is integral and whose recurrence holds on the window.
    tail = vals[r:]
    for nu0 in _divisors(nu):
        if (tau * nu0) % nu:
            continue
        tau0 = tau * nu0 // nu
        if [v + tau0 for v in tail[:-nu0]] == tail[nu0:]:
            break
    else:
        raise AssertionError("the proven period does not hold on the window")

    # Earliest rank at which the minimal recurrence already holds: one past
    # the last j < rank where it fails.  On the eps prefix it fails exactly
    # at the last eps index.
    i = r - 1
    while i >= k and vals[i + nu0] == vals[i] + tau0:
        i -= 1
    n_raw = lo + max(i + 1, k)

    i = bisect_left(exps, n_raw)
    if i == len(exps) or exps[i] + nu0 > hi:
        raise AssertionError("no pattern step within the window")
    i2 = bisect_left(exps, exps[i] + nu0, i)
    monos = tuple(map(Monomial, coeffs[:i2], exps[:i2]))
    return Series(monos[:i], monos[i:], Monomial(tau0, nu0))


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def from_monomials(monos: Iterable[Monomial]) -> Series:
    """Canonical sum of finitely many monomials (a polynomial)."""
    by_exp: dict[int, Scalar] = {}
    for m in monos:
        if m.coeff is EPS:
            continue
        by_exp[m.exp] = zmax.oplus(by_exp.get(m.exp, EPS), m.coeff)
    out: list[Monomial] = []
    best: Scalar = EPS
    for exp in sorted(by_exp):
        c = by_exp[exp]
        if zmax.lt(best, c):
            out.append(Monomial(c, exp))
            best = c
        if best is TOP:
            break
    if not out:
        return S_EPS
    return Series(tuple(out), (), None)


def pattern_series(monos: Iterable[Monomial], period: Monomial) -> Series:
    """Canonical form of pattern (x) period*: sum of shifted pattern copies."""
    if not isinstance(period.coeff, int) or period.coeff <= 0 or period.exp <= 0:
        raise SeriesDomainError(
            f"period must have positive finite coefficient and exponent, got {period}"
        )
    tau, nu = period.coeff, period.exp
    fin: list[Monomial] = []
    tops: list[Monomial] = []
    for m in monos:
        if m.coeff is EPS:
            continue
        (tops if m.coeff is TOP else fin).append(m)
    top_part = from_monomials(tops) if tops else S_EPS
    if not fin:
        return top_part
    lo = min(m.exp for m in fin)
    rank = max(m.exp for m in fin)
    _check_work(f"pattern with period exponent {nu}", rank + 2 * nu - lo)
    # Event array: the largest copy landing on each exponent (``floor`` where
    # none does), then a running max; the monomial at lo starts it.
    n = rank + 2 * nu - lo + 1
    floor = min(m.coeff for m in fin) - 1
    events = [floor] * n
    for m in fin:
        i, c = m.exp - lo, m.coeff
        ev = events[i::nu]
        events[i::nu] = [x if x >= y else y for x, y in zip(ev, range(c, c + tau * len(ev), tau))]
    vals = []
    cur = floor
    for x in events:
        if x > cur:
            cur = x
        vals.append(cur)
    out = _reconstruct(vals, lo, tau, nu, rank)
    return s_oplus(out, top_part) if not is_eps(top_part) else out


def make_series(
    transient: Iterable[Monomial],
    pattern: Iterable[Monomial] = (),
    period: Optional[Monomial] = None,
) -> Series:
    """Canonicalize an arbitrary (transient, pattern, period) description."""
    pattern = tuple(pattern)
    if period is None:
        if pattern:
            raise SeriesDomainError("a pattern requires a period")
        return from_monomials(transient)
    return s_oplus(from_monomials(transient), pattern_series(pattern, period))


def _shift_series(s: Series, t: Union[int, Extreme], n: int) -> Series:
    """s scaled by the monomial (t, n): coefficients +t, exponents +n."""
    if t is EPS or is_eps(s):
        return S_EPS
    if s.all_top:
        return S_TOP
    if t is TOP:
        return Series((Monomial(TOP, _min_exp(s) + n),), (), None)
    transient = tuple(Monomial(_shift_coeff(m.coeff, t), m.exp + n) for m in s.transient)
    pattern = tuple(Monomial(m.coeff + t, m.exp + n) for m in s.pattern)
    return Series(transient, pattern, s.period)


# ---------------------------------------------------------------------------
# Semiring operations
# ---------------------------------------------------------------------------

def _check_work(what: str, work: int) -> None:
    """Refuse a sweep whose estimated work passes ``_WINDOW_CAP``."""
    if work > _WINDOW_CAP:
        raise DivergenceError(f"{what}: estimated work {work} is past the cap {_WINDOW_CAP}")


def _window_values(a: Series, b: Series, lo: int, hi: int) -> tuple[list[Scalar], list[Scalar]]:
    _check_work("series window", hi - lo)
    return values(a, lo, hi), values(b, lo, hi)


def _settle(a: Series, b: Series, va: list[Scalar], vb: list[Scalar], vals: list[Scalar],
            lo: int, tau: int, nu: int, rank: int) -> Series:
    """The series with window ``vals`` whose recurrence (tau, nu) holds from
    ``rank``.  When that window is an operand's, the operand is the result:
    both follow the recurrence past the window, and canonical forms are
    unique."""
    if vals == va:
        return a
    if vals == vb:
        return b
    return _reconstruct(vals, lo, tau, nu, rank)


def _join(va: list[Scalar], vb: list[Scalar]) -> list[Scalar]:
    """Pointwise max of two windows, comparing ints directly on their common
    finite stretch: eps is neutral and top absorbs."""
    (ea, ta), (eb, tb) = _extent(va), _extent(vb)
    if ea > eb:
        va, vb, ea, eb, ta, tb = vb, va, eb, ea, tb, ta
    t = min(ta, tb)
    out = va[:min(eb, t)]  # eps, then a alone while b is eps
    if eb < t:
        out += [x if x >= y else y for x, y in zip(va[eb:t], vb[eb:t])]
    out += [TOP] * (len(va) - t)
    return out


def _meet(va: list[Scalar], vb: list[Scalar]) -> list[Scalar]:
    """Pointwise min of two windows: top is neutral and eps absorbs."""
    (ea, ta), (eb, tb) = _extent(va), _extent(vb)
    if ta > tb:
        va, vb, ea, eb, ta, tb = vb, va, eb, ea, tb, ta
    e = max(ea, eb)
    out: list[Scalar] = [EPS] * e
    if e < ta:
        out += [x if x <= y else y for x, y in zip(va[e:ta], vb[e:ta])]
    out += vb[max(e, ta):tb]  # b alone once a is top
    out += [TOP] * (len(vb) - tb)
    return out


def _crossing(a: Series, b: Series, lo: int) -> tuple[int, int, int, int]:
    """(tau_a, tau_b, v, rank) for two series, neither eps nor saturating:
    their growths over the common period v, and a rank from which both
    recurrences hold and the steeper operand stays at or above the other.
    Past that rank a join follows the steeper operand and a meet the flatter
    one."""
    gta, gna, ra = _growth(a)
    gtb, gnb, rb = _growth(b)
    v = math.lcm(gna, gnb)
    tau_a, tau_b = gta * (v // gna), gtb * (v // gnb)
    r0 = max(ra, rb)
    if tau_a == tau_b:
        return tau_a, tau_b, v, r0
    steep, flat = (a, b) if tau_a > tau_b else (b, a)
    # The caller's window reaches past r0 + 2v: refuse it before allocating.
    # Past both ranks the values are finite.
    _check_work("series window", r0 + 2 * v - lo)
    d = max(map(sub, values(flat, r0, r0 + v - 1), values(steep, r0, r0 + v - 1)))
    return tau_a, tau_b, v, r0 if d <= 0 else r0 + (d // abs(tau_a - tau_b) + 1) * v


def s_oplus(a: Series, b: Series) -> Series:
    """Least upper bound: pointwise max."""
    if is_eps(a):
        return b
    if is_eps(b):
        return a
    if a.all_top or b.all_top:
        return S_TOP
    lo = min(_min_exp(a), _min_exp(b))
    ta, tb = _top_tail_exp(a), _top_tail_exp(b)
    if ta is not None or tb is not None:
        jt = min(x for x in (ta, tb) if x is not None)
        va, vb = _window_values(a, b, lo, jt + 2)
        return _settle(a, b, va, vb, _join(va, vb), lo, 0, 1, jt)
    tau_a, tau_b, v, rank = _crossing(a, b, lo)
    va, vb = _window_values(a, b, lo, rank + 2 * v)
    return _settle(a, b, va, vb, _join(va, vb), lo, max(tau_a, tau_b), v, rank)


def s_wedge(a: Series, b: Series) -> Series:
    """Greatest lower bound: pointwise min."""
    if is_eps(a) or is_eps(b):
        return S_EPS
    if a.all_top:
        return b
    if b.all_top:
        return a
    lo = min(_min_exp(a), _min_exp(b))
    ta, tb = _top_tail_exp(a), _top_tail_exp(b)
    if ta is not None or tb is not None:
        # Against a saturating series the other one wins its tail; a
        # saturating polynomial has growth (0, 1) from its top step.
        tau, nu, _ = _growth(b if ta is not None else a)
        rank = max(_growth(a)[2], _growth(b)[2])
        va, vb = _window_values(a, b, lo, rank + 2 * nu)
        return _settle(a, b, va, vb, _meet(va, vb), lo, tau, nu, rank)
    tau_a, tau_b, v, rank = _crossing(a, b, lo)
    va, vb = _window_values(a, b, lo, rank + 2 * v)
    return _settle(a, b, va, vb, _meet(va, vb), lo, min(tau_a, tau_b), v, rank)


def _poly_mul(ms: Iterable[Monomial], ns: Iterable[Monomial]) -> list[Monomial]:
    return [
        Monomial(zmax.otimes(m.coeff, n.coeff), m.exp + n.exp) for m in ms for n in ns
    ]


def s_otimes(a: Series, b: Series) -> Series:
    """Product: sup-convolution of the two staircases."""
    if is_eps(a) or is_eps(b):
        return S_EPS
    if a.all_top or b.all_top:
        return S_TOP
    # A monomial factor only shifts the other operand, and shifting
    # a canonical form keeps it canonical.
    if is_monomial(a):
        return _shift_series(b, a.transient[0].coeff, a.transient[0].exp)
    if is_monomial(b):
        return _shift_series(a, b.transient[0].coeff, b.transient[0].exp)

    p1, q1, r1 = a.transient, a.pattern, a.period
    p2, q2, r2 = b.transient, b.pattern, b.period
    pieces: list[Series] = []
    if p1 and p2:
        pieces.append(from_monomials(_poly_mul(p1, p2)))
    if r2 is not None and p1:
        pieces.append(pattern_series(_poly_mul(p1, q2), r2))
    if r1 is not None and p2:
        pieces.append(pattern_series(_poly_mul(q1, p2), r1))
    if r1 is not None and r2 is not None:
        w = _poly_star([r1, r2])
        for m in _poly_mul(q1, q2):
            pieces.append(_shift_series(w, m.coeff, m.exp))
    out = pieces[0]
    for p in pieces[1:]:
        out = s_oplus(out, p)
    return out


def _growth_is_inf(s: Series) -> bool:
    return s.all_top or _top_tail_exp(s) is not None


def s_lres(a: Series, b: Series) -> Series:
    """Greatest x with a (x) x <= b."""
    if b.all_top:
        return S_TOP
    if is_eps(a):
        return S_TOP
    if is_eps(b):
        return S_EPS
    if a.all_top:
        return S_EPS
    if is_monomial(a) and a.transient[0].coeff is not TOP:
        # t.gn (x) x <= b iff x(j) <= b(j + n) - t: b shifted back
        return _shift_series(b, -a.transient[0].coeff, -a.transient[0].exp)

    gta, gna, ra = _growth(a)
    gtb, gnb, rb = _growth(b)
    v = math.lcm(gna, gnb)
    big_a = gta * (v // gna)
    big_b = gtb * (v // gnb)
    if _growth_is_inf(a) and not _growth_is_inf(b):
        return S_EPS
    if not _growth_is_inf(a) and not _growth_is_inf(b) and big_a > big_b:
        return S_EPS

    na0, nb0 = _min_exp(a), _min_exp(b)
    rank_x = rb - na0
    lo = nb0 - na0 - 1
    hi = rank_x + 2 * v
    k_hi = max(ra, rb - lo) + v
    # b's window is the largest: the output window plus a's terms.
    _check_work("series window", hi + k_hi - na0 - lo)
    a_vals = values(a, na0, k_hi)
    b_vals = values(b, lo + na0, hi + k_hi)
    ta = _extent(a_vals)[1]  # a_vals starts at a's first step: never eps
    eb, tb = _extent(b_vals)
    # Offsets of a's steps in a_vals, and their values, while a is finite.
    ks, cs = _steps(a_vals, 0, ta)
    _check_work("residual sweep (window x steps)", (hi - lo + 1) * len(ks))

    # x(j) = min over k in [na0, k_max] of b(j + k) - a(k), with i = j - lo
    # the offset of b(j + na0) in b_vals.  A first term with b eps is eps.
    # Terms where b is top are top, the unit of the meet, so the range stops
    # at b's top; a term where a is top before that is eps.  Within a run
    # where a is constant the first k gives the least term, as b does not
    # decrease; so only a's steps below the stop count.
    out: list[Scalar] = []
    for i, j in enumerate(range(lo, hi + 1)):
        m = min(max(ra, rb - j) + v - na0 + 1, tb - i)  # terms k = na0 .. na0 + m - 1
        if i < eb or m > ta:
            out.append(EPS)
        else:
            out.append(min([b_vals[i + k] - c for k, c in zip(ks[:bisect_left(ks, m)], cs)],
                           default=TOP))
    return _reconstruct(out, lo, big_b, v, rank_x)


def _require_dual_left(m: Series) -> None:
    if not (is_eps(m) or m.all_top or is_monomial(m)):
        raise SeriesDomainError(
            "dual product and dual residual need a monomial (or eps/top) "
            f"left operand, got {format_series(m)!r}"
        )


def mono_odot(m: Series, s: Series) -> Series:
    """Dual product of a monomial with a series: a coefficient/exponent shift.

    A top coefficient absorbs like top (top (.) eps = top), so the result is
    top at every exponent.
    """
    _require_dual_left(m)
    if m.all_top:
        return S_TOP
    if is_eps(m):
        return S_TOP if s.all_top else S_EPS
    mono = m.transient[0]
    if mono.coeff is TOP:
        return S_TOP
    return _shift_series(s, mono.coeff, mono.exp)


def mono_dualres(m: Series, s: Series) -> Series:
    """Smallest x with m (.) x >= s: the inverse shift."""
    _require_dual_left(m)
    if m.all_top:
        return S_EPS
    if is_eps(m):
        return S_EPS if is_eps(s) else S_TOP
    mono = m.transient[0]
    if mono.coeff is TOP:
        return S_EPS
    return _shift_series(s, -mono.coeff, -mono.exp)


def _poly_star_core(items: list[tuple[int, int]]) -> Series:
    """Star of a polynomial with all coefficients >= 1 and exponents >= 1.

    Dynamic program over exponents; the returned form is proven by checking
    the best-density recurrence on a window long enough to propagate.
    """
    # Best density t/n, the shortest exponent among equals.
    t_b, n_b = items[0]
    for t, n in items[1:]:
        if t * n_b > t_b * n or (t * n_b == t_b * n and n < n_b):
            t_b, n_b = t, n
    w = max(n for _, n in items)
    # No floor: the check below proves the form from any horizon, and a
    # short one only doubles.
    horizon = 4 * (w + n_b)
    while True:
        _check_work("star (horizon x items)", horizon * len(items))
        f = [0] * (horizon + 1)
        for j in range(1, horizon + 1):
            best = f[j - 1]
            for t, n in items:
                if n <= j and t + f[j - n] > best:
                    best = t + f[j - n]
            f[j] = best
        # The recurrence holds from one past its last failure; from w
        # consecutive holds on, the program above propagates it for ever.
        j = horizon - n_b
        while j >= 0 and f[j + n_b] == f[j] + t_b:
            j -= 1
        rank = j + 1
        if horizon >= rank + n_b + w and horizon >= rank + 2 * n_b:
            return _reconstruct(f, 0, t_b, n_b, rank)
        horizon *= 2


def _poly_star(monos: list[Monomial]) -> Series:
    """Star of a polynomial with non-negative exponents."""
    tops = [m for m in monos if m.coeff is TOP]
    items: list[tuple[int, int]] = []
    for m in monos:
        if m.coeff is TOP or m.coeff is EPS:
            continue
        if m.coeff <= 0:
            continue  # dominated by the unit inside the star
        if m.exp == 0:
            return from_monomials([Monomial(TOP, 0)])
        items.append((m.coeff, m.exp))
    base = _poly_star_core(items) if items else S_ONE
    if tops:
        base = s_oplus(base, from_monomials([Monomial(TOP, min(m.exp for m in tops))]))
    return base


def s_star(s: Series) -> Series:
    """Kleene star: unit (+) s (+) s(x)s (+) ..."""
    if is_eps(s):
        return S_ONE
    if s.all_top:
        return S_TOP
    if _min_exp(s) < 0:
        raise SeriesDomainError("star of a series with negative exponents is not representable")
    if s.period is None:
        return _poly_star(list(s.transient))
    u = _poly_star(list(s.pattern) + [s.period])
    tail = S_EPS
    for m in s.pattern:
        tail = s_oplus(tail, _shift_series(u, m.coeff, m.exp))
    inner = s_oplus(S_ONE, tail)
    head = _poly_star(list(s.transient)) if s.transient else S_ONE
    return s_otimes(head, inner)


def sigma_inf(s: Series) -> Union[Fraction, float]:
    """Asymptotic slope nu/tau; +inf for polynomials and eps, -inf for top."""
    if s.all_top or _top_tail_exp(s) is not None:
        return -math.inf
    if s.period is None:
        return math.inf
    return Fraction(s.period.exp, s.period.coeff)


def s_leq(a: Series, b: Series) -> bool:
    return s_oplus(a, b) == b


# ---------------------------------------------------------------------------
# Text form
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"(?P<t>-?\d+|top|eps|e)\.g(?P<n>-?\d+)"
    r"(?:\.\((?P<pt>-?\d+)\.g(?P<pn>-?\d+)\)\*)?",
    re.ASCII,
)
_NAMED_TERMS = {"eps": S_EPS, "top": S_TOP, "e": S_ONE}


def _format_coeff(c: Union[int, Extreme]) -> str:
    return "top" if c is TOP else str(c)


def format_series(s: Series) -> str:
    """Canonical literal, e.g. ``4.g1+7.g4.(18.g1)*``; no whitespace."""
    if s.all_top:
        return "top"
    if is_eps(s):
        return "eps"
    parts = [f"{_format_coeff(m.coeff)}.g{m.exp}" for m in s.transient]
    if s.period is not None:
        suffix = f".({s.period.coeff}.g{s.period.exp})*"
        parts += [f"{m.coeff}.g{m.exp}{suffix}" for m in s.pattern]
    return "+".join(parts)


def parse_series(text: str) -> Series:
    """Parse the series grammar: terms ``T.gN`` joined by ``+``, each with an
    optional periodic suffix ``.(T.gN)*``; ``eps``, ``top`` and ``e`` are
    terms too, and whitespace around ``+`` is ignored.  No ``+`` may sit
    inside a period's parentheses, so the terms are the pieces between the
    ``+`` signs.  Every term is matched before any is computed, so a syntax
    error anywhere in the literal is a ``ParseError``."""
    terms = []
    offset = 0
    for raw in text.split("+"):
        term = raw.strip()
        m = _TERM_RE.fullmatch(term)
        if m is None and term not in _NAMED_TERMS:
            raise ParseError(f"invalid series term {term!r} at offset {offset}")
        terms.append((offset, term, m))
        offset += len(raw) + 1
    out = S_EPS
    for offset, term, m in terms:
        if m is None:
            out = s_oplus(out, _NAMED_TERMS[term])
            continue
        mono = Monomial(zmax.parse_scalar(m.group("t")), zmax.parse_int(m.group("n")))
        if m.group("pt") is None:
            out = s_oplus(out, from_monomials([mono]))
        else:
            period = Monomial(zmax.parse_int(m.group("pt")), zmax.parse_int(m.group("pn")))
            try:
                out = s_oplus(out, pattern_series([mono], period))
            except SeriesDomainError as exc:
                raise ParseError(f"term {term!r} at offset {offset}: {exc}") from None
    return out


class _GammaSemiring:
    """Operation table for matrices and parsers over gamma-series."""

    kind = "series"
    name = "series"
    eps = S_EPS
    one = S_ONE
    top = S_TOP

    oplus = staticmethod(s_oplus)
    wedge = staticmethod(s_wedge)
    otimes = staticmethod(s_otimes)
    odot = staticmethod(mono_odot)
    lres = staticmethod(s_lres)
    dualres = staticmethod(mono_dualres)
    star = staticmethod(s_star)
    leq = staticmethod(s_leq)
    parse = staticmethod(parse_series)
    format = staticmethod(format_series)

    @staticmethod
    def odot_left_ok(a: Series) -> bool:
        # top.gN (.) e is top everywhere, not top.gN: such a monomial has no
        # dual unit, so closures and projectors must not take it.
        return is_eps(a) or a.all_top or (is_monomial(a) and a.transient[0].coeff is not TOP)

    def __repr__(self) -> str:
        return "GAMMA"


GAMMA = _GammaSemiring()
