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

All exact operations work from a *proven* periodicity rank computed from
the operands (a dominance rank for joins, a crossing bound for meets, shift
arguments for residuals, a verified recurrence window for stars), so no
result is ever guessed from a finite prefix.

Results are read off their staircase steps: ``_canonical`` takes the
minimal period under which the steps past the proven rank repeat shifted,
and the earliest rank by walking the breakpoints of s(j) and s(j + nu)
down from it, in O(steps).  ``_pattern_sum`` drops every copy of several
(pattern, period) groups, and each transient monomial, into one event array
over a window sized by the steepest groups, and keeps the steps of its
running max: a product, a sum of products (a series matrix product entry,
see ``_otimes_sum``), a join of periodic operands and a literal's terms are
one sweep each.  ``s_oplus`` merges a finite polynomial with a periodic
series' copies, and ``from_monomials`` two polynomials, with no window.
Meets, residuals and stars still compare windows of ints, where eps and
top sit only at the ends, located, not compared.

Operations expect canonical operands, as every constructor function and
operation returns them.  So a product by a monomial, or a residual by a
finite one, shifts the other operand, and a meet whose window equals an
operand's returns that operand, without rebuilding either.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from operator import attrgetter, itemgetter, sub
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from . import zmax
from .errors import ParseError, SeriesDomainError, _check_work
from .zmax import EPS, TOP, Extreme, Frozen, Scalar

if TYPE_CHECKING:
    from fractions import Fraction


class Monomial(Frozen):
    """Generator t*gamma^n: worth ``coeff`` at every exponent >= ``exp``."""

    __slots__ = ("coeff", "exp")

    def __init__(self, coeff: Union[int, Extreme], exp: int) -> None:
        _set_coeff(self, coeff)
        _set_exp(self, exp)

    def __eq__(self, other):
        return (self.coeff == other.coeff and self.exp == other.exp
                if other.__class__ is Monomial else NotImplemented)

    def __hash__(self) -> int:
        return hash((self.coeff, self.exp))


class Series(Frozen):
    """Canonical ultimately-periodic non-decreasing series.

    The constructor checks the shape every operation relies on and raises
    ``SeriesDomainError`` when it does not hold: eps-free coefficients and
    exponents that both strictly increase over ``transient + pattern``, a
    ``top`` coefficient only at the end of a polynomial, and a period with
    positive coefficient and exponent whose pattern fits in one period.
    """

    __slots__ = ("transient", "pattern", "period", "all_top")

    def __init__(self, transient: tuple[Monomial, ...], pattern: tuple[Monomial, ...],
                 period: Optional[Monomial], all_top: bool = False) -> None:
        _set_transient(self, transient)
        _set_pattern(self, pattern)
        _set_period(self, period)
        _set_all_top(self, all_top)
        if all_top:
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

    def __eq__(self, other):
        return (self.transient == other.transient and self.pattern == other.pattern
                and self.period == other.period and self.all_top == other.all_top
                if other.__class__ is Series else NotImplemented)

    def __hash__(self) -> int:
        return hash((self.transient, self.pattern, self.period, self.all_top))

    def __repr__(self) -> str:
        return f"Series({format_series(self)!r})"


_set_coeff, _set_exp = Monomial.coeff.__set__, Monomial.exp.__set__
_set_transient, _set_pattern = Series.transient.__set__, Series.pattern.__set__
_set_period, _set_all_top = Series.period.__set__, Series.all_top.__set__

S_EPS = Series((), (), None)
S_TOP = Series((), (), None, all_top=True)
S_ONE = Series((Monomial(0, 0),), (), None)


def is_eps(s: Series) -> bool:
    return not s.all_top and not s.transient and not s.pattern


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


def values(s: Series, lo: int, hi: int) -> list[Scalar]:
    """Exact coefficients on the exponent window [lo, hi].

    One sweep over the staircase steps at or below ``hi``: the transient,
    then the pattern copies.  Each step raises a running maximum and the
    constant run before it is filled in one list operation, so the cost is
    O(window + steps).
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
        base, shift = s.pattern[0].exp, 0
        pat = [(m.exp - base, m.coeff) for m in s.pattern]
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


def _steps(vals: list[Scalar], lo: int) -> tuple[list[int], list[Scalar]]:
    """Exponents and values where the window ``vals``, first exponent ``lo``,
    changes value: eps before the first, and top, if reached, last.  A
    change must be an increase."""
    exps, coeffs = [], []
    prev = EPS
    for i, v in enumerate(vals):
        if v != prev:
            if prev is TOP or coeffs and v is not TOP and v < prev:
                raise AssertionError("series values must be non-decreasing")
            exps.append(lo + i)
            coeffs.append(v)
            prev = v
    return exps, coeffs


def _divisors(n: int) -> list[int]:
    """Divisors of n >= 1 in increasing order, by trial division up to sqrt(n)."""
    small, large = [], []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            large.append(n // d)
    if small[-1] == large[-1]:  # n is a square
        large.pop()
    return small + large[::-1]


def _canonical(exps: list[int], coeffs: list[Scalar], hi: int, tau: int, nu: int,
               rank: int) -> Series:
    """Canonical form of the series whose steps up to ``hi`` are ``exps``,
    ``coeffs`` (as ``_steps`` gives them), where hi >= rank + 2*nu and
    s(j + nu) = s(j) + tau for j >= rank; the checks below catch a caller
    whose proof of that recurrence is wrong."""
    if hi < rank + 2 * nu:
        raise AssertionError("window ends before two periods past the rank")
    if not exps:
        return S_EPS
    if coeffs[-1] is TOP or tau == 0:
        if coeffs[-1] is not TOP and exps[-1] > rank:
            raise AssertionError("a polynomial steps past its proven rank")
        return Series(tuple(map(Monomial, coeffs, exps)), (), None)
    # A recurrence from an eps value would leave the whole window eps.
    if exps[0] > rank:
        raise AssertionError("the window is eps at the proven rank")
    # Minimal period: the least nu0 | nu with s(j + nu0) = s(j) + tau0 on
    # [rank, hi - nu0]: the steps past rank + nu0, and the value before them,
    # are those past rank shifted.  The c steps of a period fill its nu/nu0
    # parts alike, so nu/nu0 divides gcd(nu, tau, c).
    r = bisect_right(exps, rank)
    h = math.gcd(nu, tau, bisect_right(exps, rank + nu, r) - r)
    for d in _divisors(h):
        nu0, tau0 = nu // h * d, tau // h * d
        r0 = bisect_right(exps, rank + nu0, r)
        r1 = bisect_right(exps, hi - nu0, r)
        if (exps[r0:] == [e + nu0 for e in exps[r:r1]]
                and coeffs[r0 - 1:] == [c + tau0 for c in coeffs[r - 1:r1]]):
            break
    else:
        raise AssertionError("the proven period does not hold on the window")
    # Earliest rank: it holds from j on, s(j - 1) is coeffs[p] and
    # s(j - 1 + nu0) coeffs[q]; where they agree it holds down to their
    # higher breakpoint.  It fails on the eps prefix.
    j, p, q = rank, bisect_left(exps, rank) - 1, bisect_left(exps, rank + nu0) - 1
    while p >= 0 and coeffs[q] == coeffs[p] + tau0:
        j = max(exps[p], exps[q] - nu0)
        if exps[p] == j:
            p -= 1
        if exps[q] - nu0 == j:
            q -= 1
    # A step lies in (rank, rank + nu0], so the pattern ends by hi.
    i = bisect_left(exps, j)
    i2 = bisect_left(exps, exps[i] + nu0, i)
    monos = tuple(map(Monomial, coeffs[:i2], exps[:i2]))
    return Series(monos[:i], monos[i:], Monomial(tau0, nu0))


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def _rises(pairs: list[tuple[int, Scalar]]) -> tuple[list[int], list[Scalar]]:
    """Exponents and values where the largest of the finite or top values
    ``pairs`` (exponent, value), sorted in place, at or before an exponent
    rises; top ends it."""
    pairs.sort(key=itemgetter(0))
    exps, coeffs = [], []
    for e, c in pairs:
        if not coeffs or c is TOP or c > coeffs[-1]:
            if exps and exps[-1] == e:
                coeffs[-1] = c
            else:
                exps.append(e)
                coeffs.append(c)
            if c is TOP:
                break
    return exps, coeffs


def from_monomials(monos: Iterable[Monomial]) -> Series:
    """Canonical sum of finitely many monomials (a polynomial)."""
    exps, coeffs = _rises([(m.exp, m.coeff) for m in monos if m.coeff is not EPS])
    return Series(tuple(map(Monomial, coeffs, exps)), (), None) if exps else S_EPS


def pattern_series(monos: Iterable[Monomial], period: Monomial,
                   transient: Iterable[Monomial] = ()) -> Series:
    """Canonical form of transient (+) pattern (x) period*: the transient
    monomials once, the pattern monomials with every shifted copy.  The
    one-group form of ``_pattern_sum``."""
    if not isinstance(period.coeff, int) or period.coeff <= 0 or period.exp <= 0:
        raise SeriesDomainError(
            f"period must have positive finite coefficient and exponent, got {period}"
        )
    return _pattern_sum({period: list(monos)}, list(transient))


_by_exp = attrgetter("exp")


def _undominated(ms: list[Monomial], tau: int, nu: int) -> list[Monomial]:
    """The finite pattern monomials ``ms`` of one period tau.g(nu) less those
    another of them dominates: (c1, e1) dominates (c2, e2) when e1 <= e2 and
    c1 + ((e2 - e1) div nu) * tau >= c2, so its copies lie on or above every
    copy of the other.

    With key c - (e div nu) * tau and r = e mod nu, (e2 - e1) div nu is
    e2 div nu - e1 div nu, less 1 when r1 > r2, so the test is
    key1 - (tau if r1 > r2) >= key2.  In order of exponent each monomial is
    tested against the kept one of largest key, not against every kept one:
    one sort, and what it drops is dominated.  A pair takes the test
    directly, which is exact and skips the sort: pairs are 69% of the groups
    of two or more in the series-algebra benchmark's sums (31% in
    projector-closures'), and those sums ran 5-8% slower with pairs sorted."""
    if len(ms) == 2:
        a, b = ms
        if a.exp > b.exp:
            a, b = b, a
        if a.coeff + (b.exp - a.exp) // nu * tau >= b.coeff:
            return [a]
        return [b] if a.exp == b.exp else ms
    ms = sorted(ms, key=_by_exp)
    first = ms[0]
    best, best_r = first.coeff - first.exp // nu * tau, first.exp % nu
    kept = [first]
    for m in ms[1:]:
        e = m.exp
        key, r = m.coeff - e // nu * tau, e % nu
        if (best if best_r <= r else best - tau) >= key:
            continue
        kept.append(m)
        if key > best or (key == best and r < best_r):
            best, best_r = key, r
    return kept


def _pattern_sum(groups: dict[Monomial, list[Monomial]], transient: Sequence[Monomial]) -> Series:
    """Canonical join of the polynomial ``transient`` and, for every
    ``period: pattern`` of ``groups``, the series pattern (x) period*: one
    event array over one window, whose running max gives the steps.

    The steepest groups share the period T.g(v), v the lcm of their
    exponents; from rank0, their last pattern exponent, they are at least
    L + k*T at rank0 + k*v, L their value at rank0.  A flatter group tf.g(nf)
    lies below the line (d + tf*j)/nf, d the largest nf*c - tf*e over its
    monomials: it adds nothing past rank0 + k*v once k*(T*nf - tf*v) >=
    d + tf*(rank0 + v) - nf*L, nor the transient once k*T passes its largest
    coefficient less L.  The window ends two periods past the largest such
    rank, or where a ``top`` coefficient saturates the join.  Within each
    group the monomials another one dominates are dropped first
    (``_undominated``), so they neither size the window nor cost a fill.
    """
    # One pass splits the monomials into finite and top ones, and finds lo
    # and the least finite coefficient.
    poly: list[Monomial] = []
    tops: list[Monomial] = []
    fin = []  # (tau, nu, finite pattern) per group
    lo = floor = None
    for r, ms in ((None, transient), *groups.items()):
        out: list[Monomial] = []
        for m in ms:
            c = m.coeff
            if c is TOP:
                tops.append(m)
            elif c is not EPS:
                out.append(m)
                if lo is None or m.exp < lo:
                    lo = m.exp
                if floor is None or c < floor:
                    floor = c
        if r is None:
            poly = out
        elif out:
            fin.append((r.coeff, r.exp, _undominated(out, r.coeff, r.exp) if len(out) > 1 else out))
    if not fin:
        return from_monomials(poly + tops)
    if tops:
        # Top from the first top exponent on: the window ends there.
        rank = min([m.exp for m in tops])
        lo = min(lo, rank)
        _check_work("series window", rank + 2 - lo)
        tau, nu, n = 0, 1, rank - lo
    else:
        # The steepest groups share the period (tau, nu); ``rank`` starts at
        # rank0, where each of their monomials has begun, and ``low`` is L.
        t, e = 0, 1
        for tf, nf, _ in fin:
            if tf * e > t * nf:
                t, e = tf, nf
        nu, rank, flat = 1, lo, []
        for g in fin:
            tf, nf, ms = g
            if tf * e == t * nf:
                nu = math.lcm(nu, nf)
                for m in ms:
                    if m.exp > rank:
                        rank = m.exp
            else:
                flat.append(g)
        tau = t * nu // e
        low = floor
        for tf, nf, ms in fin:
            if tf * e == t * nf:
                for m in ms:
                    c = m.coeff + (rank - m.exp) // nf * tf
                    if c > low:
                        low = c
        # Past rank0 + k*nu the others add nothing: the recurrence holds, and
        # monomials past the window are dominated.
        k = 0
        for m in poly:
            if m.coeff > low + k * tau:
                k = -(-(m.coeff - low) // tau)
        for tf, nf, ms in flat:
            d = max([nf * m.coeff - tf * m.exp for m in ms])
            k = max(k, -(-(d + tf * (rank + nu) - nf * low) // (nf * tau - tf * nu)))
        rank += k * nu
        _check_work(f"pattern with period exponent {nu}", rank + 2 * nu - lo)
        n = rank + 2 * nu - lo + 1
    # Event array: the largest monomial or copy at each exponent (``floor``
    # where none is), then a running max; a monomial at lo starts it.
    floor -= 1
    events = [floor] * n
    for tf, nf, ms in fin:
        for m in ms:
            c = m.coeff
            for i in range(m.exp - lo, n, nf):
                if c > events[i]:
                    events[i] = c
                c += tf
    for m in poly:
        i = m.exp - lo
        if i < n and m.coeff > events[i]:
            events[i] = m.coeff
    exps, coeffs = [], []
    cur = floor
    for i, x in enumerate(events):
        if x > cur:
            cur = x
            exps.append(lo + i)
            coeffs.append(x)
    if tops:
        exps.append(rank)
        coeffs.append(TOP)
    return _canonical(exps, coeffs, rank + 2 * nu, tau, nu, rank)


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
    return pattern_series(pattern, period, transient)


def _shift_series(s: Series, t: Union[int, Extreme], n: int) -> Series:
    """s scaled by the monomial (t, n): coefficients +t, exponents +n."""
    if t is EPS or is_eps(s):
        return S_EPS
    if s.all_top:
        return S_TOP
    if t is TOP:
        return Series((Monomial(TOP, _min_exp(s) + n),), (), None)
    transient = tuple(Monomial(m.coeff if m.coeff is TOP else m.coeff + t, m.exp + n)
                      for m in s.transient)
    pattern = tuple(Monomial(m.coeff + t, m.exp + n) for m in s.pattern)
    return Series(transient, pattern, s.period)


# ---------------------------------------------------------------------------
# Semiring operations
# ---------------------------------------------------------------------------

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


def s_oplus(a: Series, b: Series) -> Series:
    """Least upper bound: pointwise max.  A finite polynomial p joins a
    periodic s on steps, with ``_pattern_sum``'s rank and work estimate."""
    if is_eps(a):
        return b
    if is_eps(b):
        return a
    if a.all_top or b.all_top:
        return S_TOP
    if a == b:
        return a
    p, s = (a, b) if b.period is not None else (b, a)
    if s.period is None:
        # Two polynomials, top-tailed or not: a merge of their monomials.
        return from_monomials(a.transient + b.transient)
    if p.period is None and p.transient[-1].coeff is not TOP:
        # p adds nothing from the rank on; k periods of copies pass rank + 2*nu.
        (tau, nu), q = (s.period.coeff, s.period.exp), s.pattern
        rank = q[-1].exp + max(0, -(-(p.transient[-1].coeff - q[-1].coeff) // tau)) * nu
        _check_work(f"pattern with period exponent {nu}",
                    rank + 2 * nu - min(p.transient[0].exp, _min_exp(s)))
        k = (rank - q[0].exp) // nu + 3
        pairs = [(m.exp, m.coeff) for m in p.transient + s.transient]
        pairs += [(m.exp + i * nu, m.coeff + i * tau) for i in range(k) for m in q]
        return _canonical(*_rises(pairs), q[0].exp + k * nu - 1, tau, nu, rank)
    groups = {s.period: list(s.pattern)}
    if p.period is not None:
        groups.setdefault(p.period, []).extend(p.pattern)
    return _pattern_sum(groups, a.transient + b.transient)


def s_wedge(a: Series, b: Series) -> Series:
    """Greatest lower bound: pointwise min.  When the meet's window is an
    operand's, that operand is the result: both follow the recurrence past
    the window, and canonical forms are unique."""
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
    else:
        # Over the common period nu, from a rank where both recurrences hold
        # and the flatter operand stays at or below the other, the meet
        # follows the flatter one.
        (gta, gna, ra), (gtb, gnb, rb) = _growth(a), _growth(b)
        nu = math.lcm(gna, gnb)
        tau_a, tau_b = gta * (nu // gna), gtb * (nu // gnb)
        tau, rank = min(tau_a, tau_b), max(ra, rb)
        if tau_a != tau_b:
            steep, flat = (a, b) if tau_a > tau_b else (b, a)
            # The window reaches past rank + 2nu: refuse it before allocating.
            # Past both ranks the values are finite.
            _check_work("series window", rank + 2 * nu - lo)
            d = max(map(sub, values(flat, rank, rank + nu - 1), values(steep, rank, rank + nu - 1)))
            if d > 0:
                rank += (d // abs(tau_a - tau_b) + 1) * nu
    hi = rank + 2 * nu
    _check_work("series window", hi - lo)
    va, vb = values(a, lo, hi), values(b, lo, hi)
    vals = _meet(va, vb)
    return a if vals == va else b if vals == vb else _canonical(*_steps(vals, lo), hi, tau, nu, rank)


def _poly_mul(ms: Iterable[Monomial], ns: Iterable[Monomial]) -> list[Monomial]:
    return [
        Monomial(zmax.otimes(m.coeff, n.coeff), m.exp + n.exp) for m in ms for n in ns
    ]


def s_otimes(a: Series, b: Series) -> Series:
    """Product: sup-convolution of the two staircases; the one-pair case of
    ``_otimes_sum``, with the shifts below taken first."""
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
    return _otimes_sum([(a, b)])


def _otimes_sum(pairs: Iterable[tuple[Series, Series]]) -> Series:
    """Join of the products a (x) b over ``pairs``, in one ``_pattern_sum``.

    With a = p1 (+) q1 r1* and b = p2 (+) q2 r2*, the rational identities
    p (x) q r* = (pq) r*, r* r* = r* and r1* r2* = (r1 (+) r2)* give

        a (x) b = p1p2 (+) (p1q2) r2* (+) (q1p2) r1* (+) q1q2 w,

    where w = r1* when r1 == r2.  Otherwise, with r = T.g(N) the steeper
    period and f = t.g(n) the other, w = (r (+) f)* = (e (+) f (+) ... (+)
    f^(i-1)) r* for i the least d >= 1 with dt <= (dn div N)T: f^d is at
    most r^(dn div N), so every f^j, j >= d, is at most f^(j-d) r^(dn div N),
    and i <= N as f is not steeper.  The monomials of each pair go to the
    polynomial and to one group per period, and the whole sum is one sweep.
    A pair with a top operand (and no eps one) makes the sum top, and the
    pairs after it are not read.
    """
    poly: list[Monomial] = []
    groups: dict[Monomial, list[Monomial]] = {}
    for a, b in pairs:
        if is_eps(a) or is_eps(b):
            continue
        if a.all_top or b.all_top:
            return S_TOP
        p1, q1, r1 = a.transient, a.pattern, a.period
        p2, q2, r2 = b.transient, b.pattern, b.period
        poly += _poly_mul(p1, p2)
        if r1 is not None and r2 is not None:
            q12, r, f = _poly_mul(q1, q2), r1, r2
            if r1 != r2:
                if r1.coeff * r2.exp < r2.coeff * r1.exp:
                    r, f = r2, r1
                # Checked before the copies are built: the loop's N steps,
                # the len(q12) * i monomials, and the window (i - 1)n + 2N
                # they reach when r is the sum's steepest period.
                (T, N), (t, n) = (r.coeff, r.exp), (f.coeff, f.exp)
                _check_work(f"pattern with period exponent {N}", 2 * N)
                i = 1
                while i * t > i * n // N * T:
                    i += 1
                _check_work(f"pattern with period exponent {N}",
                            max(len(q12) * i, (i - 1) * n + 2 * N))
                q12 = _poly_mul(q12, [Monomial(j * t, j * n) for j in range(i)])
            groups.setdefault(r, []).extend(q12)
        if r2 is not None and p1:
            groups.setdefault(r2, []).extend(_poly_mul(p1, q2))
        if r1 is not None and p2:
            groups.setdefault(r1, []).extend(_poly_mul(q1, p2))
    return _pattern_sum(groups, poly)


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
    # Neither is all-top here: a top tail is the infinite growth.
    if _top_tail_exp(b) is None and (_top_tail_exp(a) is not None or big_a > big_b):
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
    ks, cs = _steps(a_vals[:ta], 0)
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
    return _canonical(*_steps(out, lo), hi, big_b, v, rank_x)


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
            return _canonical(*_steps(f, 0), horizon, t_b, n_b, rank)
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
    # s = p (+) q r* gives s* = p* (e (+) q u), u = (q (+) r)* = tu (+) qu ru*,
    # and e (+) q u is one pattern series: (e (+) q tu) (+) (q qu) ru*.  When u
    # is the polynomial top.g0 there is no pattern, and any period serves.
    q = s.pattern
    u = _poly_star(list(q) + [s.period])
    inner = pattern_series(_poly_mul(q, u.pattern), u.period or s.period,
                           [Monomial(0, 0)] + _poly_mul(q, u.transient))
    head = _poly_star(list(s.transient)) if s.transient else S_ONE
    return s_otimes(head, inner)


def sigma_inf(s: Series) -> Union[Fraction, float]:
    """Asymptotic slope nu/tau; +inf for polynomials and eps, -inf for top."""
    if s.all_top or _top_tail_exp(s) is not None:
        return -math.inf
    if s.period is None:
        return math.inf
    from fractions import Fraction  # imported here only: a launch need not load it
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
    ``+`` signs.  Every term is matched, and every period checked, before
    any is computed, so a syntax or period error anywhere in the literal is
    a ``ParseError``.  The terms are then summed by one ``_pattern_sum``: the
    plain ones as its polynomial, the periodic ones grouped by period."""
    terms = []
    offset = 0
    for raw in text.split("+"):
        term = raw.strip()
        m = _TERM_RE.fullmatch(term)
        if m is None and term not in ("eps", "top", "e"):
            raise ParseError(f"invalid series term {term!r} at offset {offset}")
        terms.append((offset, term, m))
        offset += len(raw) + 1
    poly: list[Monomial] = []
    groups: dict[Monomial, list[Monomial]] = {}
    for offset, term, m in terms:
        if m is None:
            poly += [Monomial(0, 0)] if term == "e" else []
            continue
        mono = Monomial(zmax.parse_scalar(m.group("t")), zmax.parse_int(m.group("n")))
        if m.group("pt") is None:
            poly.append(mono)
            continue
        period = Monomial(zmax.parse_int(m.group("pt")), zmax.parse_int(m.group("pn")))
        if period.coeff <= 0 or period.exp <= 0:
            raise ParseError(f"term {term!r} at offset {offset}: period must have positive "
                             f"finite coefficient and exponent, got {period}")
        groups.setdefault(period, []).append(mono)
    return S_TOP if "top" in [term for _, term, _ in terms] else _pattern_sum(groups, poly)


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
    otimes_sum = staticmethod(_otimes_sum)
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

    def __reduce__(self) -> str:
        return "GAMMA"  # pickled by name, as ZMAX is


GAMMA = _GammaSemiring()
