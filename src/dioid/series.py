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

Every window is a step list: the exponents where a series rises and its
values there, as ``_walk`` lists them (transient, then pattern copies) and
as ``_canonical`` reads a result off them: the minimal period under which
the steps past the proven rank repeat shifted, and the earliest rank by
walking the breakpoints of s(j) and s(j + nu) down from it.  A meet
merges both operands' steps, and a residual is a min over the numerator's
steps, read only where a term steps: both count their work in steps, not
in exponents spanned.  Sums carry their terms as (exponent, coefficient)
pairs: ``_pattern_sum`` lists the copies of several (pattern, period)
groups up to a window end sized by the steepest groups, with the transient
terms, and reads the steps off them (``_rises``), so a product, a sum of
products (``_otimes_sum``), a join and a literal are one list each.  In one
residue class of a group, a monomial's copies stop where a later one of
larger key begins, so a class costs one copy per period and the work is
counted in copies (or in the window's span, when smaller); ``s_oplus``
merges a finite polynomial with a periodic series' copies the same way.
Results are built once, unchecked (``_series``): their construction makes
the checks hold.

Operations expect canonical operands, as every constructor function and
operation returns them.  So a product by a monomial, or a residual by a
finite one, shifts the other operand, and a meet whose steps are an
operand's returns that operand, without rebuilding either.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from itertools import count
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Iterable, Optional, Union

from . import zmax
from .errors import _WINDOW_CAP, ParseError, SeriesDomainError, _check_work
from .zmax import EPS, TOP, Frozen, Scalar

if TYPE_CHECKING:
    from fractions import Fraction


class Monomial(Frozen):
    """Generator t*gamma^n: worth ``coeff`` at every exponent >= ``exp``."""

    __slots__ = ("coeff", "exp")

    def __init__(self, coeff: Scalar, exp: int) -> None:
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
_pair, _exp = attrgetter("exp", "coeff"), itemgetter(0)


def _series(transient, pattern=(), period=None) -> Series:
    """A Series of parts canonical by construction, unchecked."""
    s = object.__new__(Series)
    _set_transient(s, transient)
    _set_pattern(s, pattern)
    _set_period(s, period)
    _set_all_top(s, False)
    return s

S_EPS = Series((), (), None)
S_TOP = Series((), (), None, all_top=True)
S_ONE = Series((Monomial(0, 0),), (), None)


def is_eps(s: Series) -> bool:
    return not s.all_top and not s.transient and not s.pattern


def is_monomial(s: Series) -> bool:
    """True for a single-generator series (pure monomial)."""
    return s.period is None and len(s.transient) == 1


def _top_tailed(s: Series) -> bool:
    """True for a polynomial that saturates to top."""
    return bool(s.transient) and s.transient[-1].coeff is TOP


def _min_exp(s: Series) -> int:
    return (s.transient or s.pattern)[0].exp


def _growth(s: Series) -> tuple[int, int, int]:
    """(tau, nu, rank): s(j + nu) = s(j) + tau for every j >= rank."""
    if not (s.transient or s.pattern):  # eps or top
        return (0, 1, 0)
    if s.period is None:
        return (0, 1, s.transient[-1].exp)
    return (s.period.coeff, s.period.exp, s.pattern[0].exp)


def _walk(s: Series, hi: int) -> tuple[list[int], list[Scalar]]:
    """Exponents and values where s rises, at or below ``hi``; top, if
    reached, last.  ``s`` is not all-top.

    The monomials of ``transient + pattern`` all rise.  A later copy of a
    pattern monomial rises above the copy before it iff its coefficient
    passes the pattern's last one less tau, the same test in every period:
    those copies follow, one period at a time, once their count is checked."""
    ms = s.transient + s.pattern
    exps = [m.exp for m in ms]
    coeffs = [m.coeff for m in ms]
    if s.period is not None and exps[-1] <= hi:
        tau, nu = s.period.coeff, s.period.exp
        c_last = coeffs[-1] - tau
        rest = [m for m in s.pattern if m.coeff > c_last]
        n = (hi - rest[0].exp) // nu
        _check_work("series steps", n * len(rest))
        exps += [m.exp + k for k in range(nu, n * nu + 1, nu) for m in rest]
        coeffs += [m.coeff + k for k in range(tau, n * tau + 1, tau) for m in rest]
    if exps and exps[-1] > hi:
        i = bisect_right(exps, hi)
        del exps[i:], coeffs[i:]
    return exps, coeffs


def _min_steps(a: tuple, b: tuple) -> tuple[list[int], list[Scalar]]:
    """Steps of the pointwise min of two step lists: eps until both have
    begun, then the lower value, top being the neutral one."""
    (ea, ca), (eb, cb) = a, b
    na, nb = len(ea), len(eb)
    exps, coeffs = [], []
    i = j = 0
    x = y = last = EPS
    while i < na or j < nb:
        if j == nb or i < na and ea[i] < eb[j]:
            e, x = ea[i], ca[i]
            i += 1
        else:
            e, y = eb[j], cb[j]
            j += 1
            if i < na and ea[i] == e:
                x = ca[i]
                i += 1
        if x is EPS or y is EPS:
            continue
        m = y if x is TOP else x if y is TOP or x <= y else y
        if m != last:
            exps.append(e)
            coeffs.append(m)
            last = m
    return exps, coeffs


def _canonical(exps: list[int], coeffs: list[Scalar], hi: int, tau: int, nu: int,
               rank: int) -> Series:
    """Canonical form of the series whose steps up to ``hi`` are ``exps``,
    ``coeffs`` (rises only, top last, as ``_walk`` lists them), where
    hi >= rank + 2*nu and s(j + nu) = s(j) + tau for j >= rank; the checks
    below catch a caller whose proof of that recurrence is wrong."""
    if hi < rank + 2 * nu:
        raise AssertionError("window ends before two periods past the rank")
    if not exps:
        return S_EPS
    if coeffs[-1] is TOP or tau == 0:
        if coeffs[-1] is not TOP and exps[-1] > rank:
            raise AssertionError("a polynomial steps past its proven rank")
        return _series(tuple(map(Monomial, coeffs, exps)))
    # A recurrence from an eps value would leave the whole window eps.
    if exps[0] > rank:
        raise AssertionError("the window is eps at the proven rank")
    # Minimal period: the least nu0 | nu with s(j + nu0) = s(j) + tau0 on
    # [rank, hi - nu0]: the steps past rank + nu0, and the value before them,
    # are those past rank shifted.  The c steps of a period fill its nu/nu0
    # parts alike, so nu/nu0 divides h = gcd(nu, tau, c): its divisors are
    # found among 1..h, no more than the steps.
    r = bisect_right(exps, rank)
    h = math.gcd(nu, tau, bisect_right(exps, rank + nu, r) - r)
    for d in range(1, h + 1):
        if h % d:
            continue
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
    return _series(monos[:i], monos[i:], Monomial(tau0, nu0))


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def _rises(pairs: list, top: Optional[int] = None) -> tuple[list[int], list[Scalar]]:
    """Exponents and values where the largest of the finite values ``pairs``
    (exponent, value), sorted in place, at or before an exponent rises; it
    turns top at ``top``, if given, and ends there."""
    exps, coeffs = [], []
    if pairs:
        pairs.sort(key=_exp)
        x, last = pairs[0][1] - 1, None
        for e, c in pairs:
            if c > x:
                x = c
                if e == last:
                    coeffs[-1] = c
                else:
                    last = e
                    exps.append(e)
                    coeffs.append(c)
    if top is not None:
        i = bisect_left(exps, top)
        del exps[i:], coeffs[i:]
        exps.append(top)
        coeffs.append(TOP)
    return exps, coeffs


def from_monomials(monos: Iterable[Monomial]) -> Series:
    """Canonical sum of finitely many monomials (a polynomial)."""
    return _pattern_sum({}, list(map(_pair, monos)))


def pattern_series(monos: Iterable[Monomial], period: Monomial,
                   transient: Iterable[Monomial] = ()) -> Series:
    """Canonical form of transient (+) pattern (x) period*: the transient
    monomials once, the pattern monomials with every shifted copy.  The
    one-group form of ``_pattern_sum``."""
    if not isinstance(period.coeff, int) or period.coeff <= 0 or period.exp <= 0:
        raise SeriesDomainError(
            f"period must have positive finite coefficient and exponent, got {period}"
        )
    return _pattern_sum({period: list(map(_pair, monos))}, list(map(_pair, transient)))


def _undominated(ms: list, tau: int, nu: int) -> list:
    """The finite pattern pairs ``ms`` (exponent, coefficient) of one period
    tau.g(nu) less those another of them dominates: (e1, c1) dominates
    (e2, c2) when e1 <= e2 and c1 + ((e2 - e1) div nu) * tau >= c2, so its
    copies lie on or above every copy of the other.

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
        if a[0] > b[0]:
            a, b = b, a
        if a[1] + (b[0] - a[0]) // nu * tau >= b[1]:
            return [a]
        return [b] if a[0] == b[0] else ms
    ms = sorted(ms, key=_exp)
    e, c = ms[0]
    best, best_r = c - e // nu * tau, e % nu
    kept = ms[:1]
    for m in ms[1:]:
        e, c = m
        key, r = c - e // nu * tau, e % nu
        if (best if best_r <= r else best - tau) >= key:
            continue
        kept.append(m)
        if key > best or (key == best and r < best_r):
            best, best_r = key, r
    return kept


def _pattern_sum(groups: dict[Monomial, list], transient: list) -> Series:
    """Canonical join of the polynomial ``transient`` and, for every
    ``period: pattern`` of ``groups``, the series pattern (x) period*, all
    as (exponent, coefficient) pairs: the copies up to a proven window end,
    with the polynomial, give the steps (``_rises``).

    The steepest groups share the period T.g(v), v the lcm of their
    exponents; from rank0, their last pattern exponent, they are at least
    L + k*T at rank0 + k*v, L their value at rank0.  A flatter group tf.g(nf)
    lies below the line (d + tf*j)/nf, d the largest nf*c - tf*e over its
    monomials: it adds nothing past rank0 + k*v once k*(T*nf - tf*v) >=
    d + tf*(rank0 + v) - nf*L, nor the transient once k*T passes its largest
    coefficient less L.  The steep copies run two periods past the largest
    such rank, and a flatter group's to its own, or all to a ``top``
    coefficient, which saturates the join.  Within each group the monomials
    another one dominates are dropped first (``_undominated``), so they do
    not size the window.  In one residue class mod nf a monomial's copies
    stop where a later one of larger key c - (e div nf)*tf begins, as they
    lie below its own from there: a class lists one copy per period.  The
    work estimate is the copies listed, or the window's span if smaller.
    """
    if not groups:  # a polynomial
        poly = [m for m in transient if m[1] is not EPS and m[1] is not TOP]
        tops = [e for e, c in transient if c is TOP] if len(poly) < len(transient) else ()
        exps, coeffs = _rises(poly, min(tops) if tops else None)
        return _series(tuple(map(Monomial, coeffs, exps))) if exps else S_EPS
    # One pass splits the monomials into finite and top ones.
    tops = []
    fin = []  # [tau, nu, finite pattern, end of its copies or None] per group
    for r, ms in ((None, transient), *groups.items()):
        out = []
        for m in ms:
            c = m[1]
            if c is TOP:
                tops.append(m)
            elif c is not EPS:
                out.append(m)
        if r is None:
            poly = out
        elif out:
            fin.append([r.coeff, r.exp, _undominated(out, r.coeff, r.exp) if len(out) > 1 else out,
                        None])
    if not fin:
        return _pattern_sum({}, poly + tops)
    top = min(tops)[0] if tops else None
    if tops:
        # Top from the first top exponent on: the copies end there.
        rank, tau, nu = top, 0, 1
    else:
        # The steepest groups share the period (tau, nu); ``rank`` starts at
        # rank0, where each of their monomials has begun, and ``low`` is L.
        t, v = 0, 1
        for tf, nf, _, _ in fin:
            if tf * v > t * nf:
                t, v = tf, nf
        nu, rank = 1, -math.inf
        for tf, nf, ms, _ in fin:
            if tf * v == t * nf:
                nu = math.lcm(nu, nf)
                rank = max(rank, max(ms)[0])
        tau, low = t * nu // v, -math.inf
        for tf, nf, ms, _ in fin:
            if tf * v == t * nf:
                for e, c in ms:
                    c += (rank - e) // nf * tf
                    if c > low:
                        low = c
        # Past rank0 + k*nu the others add nothing: the recurrence holds, and
        # monomials past the window are dominated.
        k = 0
        for _, c in poly:
            if c > low + k * tau:
                k = -(-(c - low) // tau)
        for g in fin:  # a flatter group's copies end where it adds nothing
            tf, nf, ms, _ = g
            if tf * v < t * nf:
                d = -math.inf
                for e, c in ms:
                    if nf * c - tf * e > d:
                        d = nf * c - tf * e
                kf = max(0, -(-(d + tf * (rank + nu) - nf * low) // (nf * tau - tf * nu)))
                g[3] = rank + kf * nu + 1
                if kf > k:
                    k = kf
        rank += k * nu
    hi = rank + 2 * nu
    chains, work = [], 0  # (exponents, first coefficient, tau) of each run of copies
    for tf, nf, ms, end in fin:
        if end is None:
            end = hi + 1
        if len(ms) == 1:
            e, c = ms[0]
            x = range(e, end, nf)
            work += len(x)
            chains.append((x, c, tf))
            continue
        first, last = len(chains), {}  # residue -> its last chain and key
        for e, c in sorted(ms):
            if e >= end:
                break
            r, key = e % nf, c - e // nf * tf
            prev = last.get(r)
            if prev is not None:
                if key <= prev[1]:
                    continue
                x, c0, _ = chains[prev[0]]
                chains[prev[0]] = (range(x.start, e, nf), c0, tf)
            last[r] = (len(chains), key)
            chains.append((range(e, end, nf), c, tf))
        for x, _, _ in chains[first:]:
            work += len(x)
    if work > _WINDOW_CAP:
        # A group lists at most one copy per exponent, so the window's span
        # bounds the work as well.
        lo = min([x.start for x, _, _ in chains] + [e for e, _ in poly])
        _check_work("series window" if tops else f"pattern with period exponent {nu}",
                    min(work, hi - lo))
    for x, c, tf in chains:
        poly += zip(x, count(c, tf))
    return _canonical(*_rises(poly, top), hi, tau, nu, rank)


def make_series(transient: Iterable[Monomial], pattern: Iterable[Monomial] = (),
                period: Optional[Monomial] = None) -> Series:
    """Canonicalize an arbitrary (transient, pattern, period) description."""
    if period is not None:
        return pattern_series(pattern, period, transient)
    if tuple(pattern):
        raise SeriesDomainError("a pattern requires a period")
    return from_monomials(transient)


def _shift_series(s: Series, t: Scalar, n: int) -> Series:
    """s scaled by the monomial (t, n): coefficients +t, exponents +n."""
    if not (s.transient or s.pattern):
        return s  # eps or top
    if t is TOP:
        return _series((Monomial(TOP, _min_exp(s) + n),))
    return _series(tuple([Monomial(m.coeff if m.coeff is TOP else m.coeff + t, m.exp + n)
                          for m in s.transient]),
                   tuple([Monomial(m.coeff + t, m.exp + n) for m in s.pattern]), s.period)


# ---------------------------------------------------------------------------
# Semiring operations
# ---------------------------------------------------------------------------

def s_oplus(a: Series, b: Series) -> Series:
    """Least upper bound: pointwise max.  A finite polynomial p joins a
    periodic s on steps, with ``_pattern_sum``'s rank, and past the cap in
    ``_pattern_sum`` itself."""
    # An operand with no monomials is eps or all-top.
    if not (a.transient or a.pattern):
        return a if a.all_top else b
    if not (b.transient or b.pattern):
        return b if b.all_top else a
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
        k = (rank - q[0].exp) // nu + 3
        if k * len(q) <= _WINDOW_CAP:
            pairs = list(map(_pair, p.transient + s.transient))
            pairs += [(m.exp + i * nu, m.coeff + i * tau) for i in range(k) for m in q]
            return _canonical(*_rises(pairs), q[0].exp + k * nu - 1, tau, nu, rank)
    groups = {s.period: list(map(_pair, s.pattern))}
    if p.period is not None:
        groups.setdefault(p.period, []).extend(map(_pair, p.pattern))
    return _pattern_sum(groups, list(map(_pair, a.transient + b.transient)))


def s_wedge(a: Series, b: Series) -> Series:
    """Greatest lower bound: pointwise min, merged from both operands' steps.
    When the merged steps are an operand's, that operand is the result: both
    follow the recurrence past the window, and canonical forms are unique."""
    # An operand with no monomials is eps or all-top.
    if not (a.transient or a.pattern):
        return b if a.all_top else S_EPS
    if not (b.transient or b.pattern):
        return a if b.all_top else S_EPS
    (gta, gna, ra), (gtb, gnb, rb) = _growth(a), _growth(b)
    rank = max(ra, rb)
    flat = None
    # Against a saturating series the other one wins its tail; a saturating
    # polynomial has growth (0, 1) from its top step.
    if _top_tailed(a):
        tau, nu = gtb, gnb
    elif _top_tailed(b):
        tau, nu = gta, gna
    else:
        # Over the common period nu, from a rank where both recurrences hold
        # and the flatter operand stays at or below the other, the meet
        # follows the flatter one.
        nu = math.lcm(gna, gnb)
        tau_a, tau_b = gta * (nu // gna), gtb * (nu // gnb)
        tau = min(tau_a, tau_b)
        if tau_a != tau_b:
            flat = b if tau_a > tau_b else a
    hi = rank + 2 * nu
    wa, wb = _walk(a, hi), _walk(b, hi)
    if flat is not None:
        # The largest gap flat - steep over one period from the rank, where
        # both are finite, is read at the rank and at the steps after it.
        (fe, fc), (se, sc) = (wa, wb) if flat is a else (wb, wa)
        d = max([fc[bisect_right(fe, j) - 1] - sc[bisect_right(se, j) - 1]
                 for j in (rank, *fe, *se) if rank <= j < rank + nu])
        if d > 0:
            rank += (d // abs(tau_a - tau_b) + 1) * nu
            hi = rank + 2 * nu
            wa, wb = _walk(a, hi), _walk(b, hi)
    w = _min_steps(wa, wb)
    return a if w == wa else b if w == wb else _canonical(*w, hi, tau, nu, rank)


def _poly_mul(ms: Iterable[Monomial], ns: Iterable[Monomial]) -> list:
    """Products of series monomials as (exponent, coefficient) pairs: none
    holds eps, and top only ends a polynomial."""
    return [(m.exp + n.exp, TOP if m.coeff is TOP or n.coeff is TOP else m.coeff + n.coeff)
            for m in ms for n in ns]


def s_otimes(a: Series, b: Series) -> Series:
    """Product: sup-convolution of the two staircases; the one-pair case of
    ``_otimes_sum``, with the shifts below taken first."""
    if not (a.transient or a.pattern or a.all_top) or not (b.transient or b.pattern or b.all_top):
        return S_EPS  # an eps factor
    # A monomial factor only shifts the other operand, and shifting
    # a canonical form keeps it canonical; ``_otimes_sum`` takes top.
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
    poly: list = []
    groups: dict[Monomial, list] = {}
    for a, b in pairs:
        p1, q1, r1 = a.transient, a.pattern, a.period
        p2, q2, r2 = b.transient, b.pattern, b.period
        if not ((p1 or q1) and (p2 or q2)):  # an eps or top factor
            if (p1 or q1 or a.all_top) and (p2 or q2 or b.all_top):
                return S_TOP
            continue
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
                what = f"pattern with period exponent {N}"
                _check_work(what, 2 * N)
                i = 1
                while i * t > i * n // N * T:
                    i += 1
                _check_work(what, max(len(q12) * i, (i - 1) * n + 2 * N))
                q12 = [(e + j * n, c + j * t) for e, c in q12 for j in range(i)]
            groups.setdefault(r, []).extend(q12)
        if r2 is not None and p1:
            groups.setdefault(r2, []).extend(_poly_mul(p1, q2))
        if r1 is not None and p2:
            groups.setdefault(r1, []).extend(_poly_mul(q1, p2))
    return _pattern_sum(groups, poly)


def s_lres(a: Series, b: Series) -> Series:
    """Greatest x with a (x) x <= b."""
    if b.all_top or not (a.transient or a.pattern or a.all_top):
        return S_TOP  # b top or a eps
    if not (b.transient or b.pattern) or a.all_top:
        return S_EPS  # b eps or a top
    if is_monomial(a) and a.transient[0].coeff is not TOP:
        # t.gn (x) x <= b iff x(j) <= b(j + n) - t: b shifted back
        return _shift_series(b, -a.transient[0].coeff, -a.transient[0].exp)

    gta, gna, ra = _growth(a)
    gtb, gnb, rb = _growth(b)
    v = math.lcm(gna, gnb)
    big_a = gta * (v // gna)
    big_b = gtb * (v // gnb)
    # Neither is all-top here: a top tail is the infinite growth.
    if not _top_tailed(b) and (_top_tailed(a) or big_a > big_b):
        return S_EPS

    na0, nb0 = _min_exp(a), _min_exp(b)
    rank_x = rb - na0
    lo = nb0 - na0 - 1
    hi = rank_x + 2 * v
    k_hi = max(ra, rb - lo) + v
    # x(j) = min over k >= na0 of b(j + k) - a(k) needs the terms up to
    # k <= max(ra, rb - j) + v: past them a period of a adds big_a and one
    # of b big_b >= big_a.  So a's steps up to k_hi, and b's up to hi + k_hi,
    # give every term x needs on the window.  Within a run where a is
    # constant the first k gives the least term, as b does not decrease.
    ea, ca = _walk(a, k_hi)
    eb, cb = _walk(b, hi + k_hi)
    # x is eps up to lo, where b(j + na0) is, and steps only where a term
    # does: at j = e - k for a step k of a and e of b.  Each candidate in
    # (lo, hi], at most min(hi - lo, |a| |b|) of them, is a min over a's steps.
    n = len(ea)
    _check_work("residual sweep (steps x candidates)", n * min(hi - lo, n * len(eb)))
    js = sorted({e - k for k in ea
                 for e in eb[bisect_left(eb, lo + 1 + k):bisect_right(eb, hi + k)]})
    # Terms where b is top are top, the unit of the meet; a term where a is
    # top is eps until b is top there too, and so is x.
    b_top = math.inf
    if cb[-1] is TOP:
        b_top = eb.pop()
        cb.pop()
    if ca[-1] is TOP:
        ca.pop()
        js = js[bisect_left(js, b_top - ea.pop()):]
    nj, inf = len(js), math.inf
    cols = [[inf] * nj]
    for k, c in zip(ea, ca):
        m = bisect_left(js, b_top - k)
        cols.append([cb[bisect_right(eb, j + k) - 1] - c for j in js[:m]] + [inf] * (nj - m))
    exps, coeffs = [], []
    for j, x in zip(js, map(min, zip(*cols))):
        if not coeffs or x > coeffs[-1]:
            exps.append(j)
            coeffs.append(x)
    if coeffs and coeffs[-1] == inf:
        coeffs[-1] = TOP
    return _canonical(exps, coeffs, hi, big_b, v, rank_x)


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
        if horizon >= rank + n_b + w:  # w >= n_b: two periods past the rank
            exps = [0, *[j for j in range(1, horizon + 1) if f[j] > f[j - 1]]]
            return _canonical(exps, [f[j] for j in exps], horizon, t_b, n_b, rank)
        horizon *= 2


def _poly_star(monos: list[Monomial]) -> Series:
    """Star of a polynomial with non-negative exponents: a coefficient at
    most 0 is dominated by the unit inside the star."""
    items = [(m.coeff, m.exp) for m in monos if m.coeff is not TOP and m.coeff > 0]
    if any(n == 0 for _, n in items):
        return _series((Monomial(TOP, 0),))
    tops = [m.exp for m in monos if m.coeff is TOP]
    base = _poly_star_core(items) if items else S_ONE
    return s_oplus(base, _series((Monomial(TOP, min(tops)),))) if tops else base


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
    inner = _pattern_sum({u.period or s.period: _poly_mul(q, u.pattern)},
                         [(0, 0)] + _poly_mul(q, u.transient))
    head = _poly_star(list(s.transient)) if s.transient else S_ONE
    return s_otimes(head, inner)


def sigma_inf(s: Series) -> Union[Fraction, float]:
    """Asymptotic slope nu/tau; +inf for polynomials and eps, -inf for top."""
    if s.all_top or _top_tailed(s):
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


def format_series(s: Series) -> str:
    """Canonical literal, e.g. ``4.g1+7.g4.(18.g1)*``; no whitespace."""
    if s.all_top:
        return "top"
    if is_eps(s):
        return "eps"
    parts = [f"{m.coeff}.g{m.exp}" for m in s.transient]
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
    poly: list = []
    groups: dict[Monomial, list] = {}
    for offset, term, m in terms:
        if m is None:
            poly += [(0, 0)] if term == "e" else []
            continue
        c = zmax.parse_scalar(m.group("t"))
        mono = (zmax.parse_int(m.group("n")), c)
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
