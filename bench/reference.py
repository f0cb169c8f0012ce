"""Independent references used to check the benchmark's outputs.

Nothing here calls a kernel of ``dioid``.  Max-plus matrices are converted
to lists of rows over this module's own scalars (Python ints plus the two
sentinels ``EPS`` and ``TOP``) and recomputed with small, separately written
algorithms: a direct triple loop for products, an entrywise maximality test
for residuals and a path-based closure (longest walks, positive-circuit
detection, reachability) for the star.  Series are evaluated pointwise from
their monomials, with periodic parts unrolled term by term.
"""

from __future__ import annotations

import math
from fractions import Fraction


class _Extreme:
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name


EPS = _Extreme("eps")
TOP = _Extreme("top")


def scalar(v):
    """A dioid scalar (int, or the eps/top enum member) as a reference scalar."""
    if isinstance(v, int):
        return v
    return EPS if v.value == "eps" else TOP


def fmt(v) -> str:
    return v.name if isinstance(v, _Extreme) else str(v)


def rows_of(m) -> list[list]:
    """A dioid max-plus matrix as reference rows."""
    e = [scalar(v) for v in m.entries]
    return [e[i * m.cols : (i + 1) * m.cols] for i in range(m.rows)]


def text_rows(rows) -> str:
    """The CLI's bare-rows rendering of reference rows."""
    return "".join(" ".join(fmt(v) for v in r) + "\n" for r in rows)


# -- scalars ------------------------------------------------------------------


def leq(a, b) -> bool:
    if a is EPS or b is TOP:
        return True
    if a is TOP or b is EPS:
        return False
    return a <= b


def vmax(a, b):
    return b if leq(a, b) else a


def vmin(a, b):
    return a if leq(a, b) else b


def otimes(a, b):
    if a is EPS or b is EPS:
        return EPS
    if a is TOP or b is TOP:
        return TOP
    return a + b


def odot(a, b):
    if a is TOP or b is TOP:
        return TOP
    if a is EPS or b is EPS:
        return EPS
    return a + b


def lres(a, b):
    """Greatest x with a (x) x <= b."""
    if a is EPS or b is TOP:
        return TOP
    if a is TOP or b is EPS:
        return EPS
    return b - a


def dualres(a, b):
    """Smallest x with a (.) x >= b."""
    if a is TOP or b is EPS:
        return EPS
    if a is EPS or b is TOP:
        return TOP
    return b - a


def conj(a):
    if a is EPS:
        return TOP
    if a is TOP:
        return EPS
    return -a


# -- max-plus matrices ----------------------------------------------------------


def product(a: list, x: list) -> list:
    """max_k a_ik (x) x_kj."""
    cols = list(zip(*x))
    out = []
    for row in a:
        live = [(k, v) for k, v in enumerate(row) if v is not EPS]
        out_row = []
        for col in cols:
            acc = EPS
            for k, v in live:
                w = col[k]
                if w is EPS:
                    continue
                if v is TOP or w is TOP:
                    acc = TOP
                    break
                s = v + w
                if acc is EPS or s > acc:
                    acc = s
            out_row.append(acc)
        out.append(out_row)
    return out


def dual_product(a: list, x: list) -> list:
    """min_k a_ik (.) x_kj."""
    cols = list(zip(*x))
    out = []
    for row in a:
        live = [(k, v) for k, v in enumerate(row) if v is not TOP]
        out_row = []
        for col in cols:
            acc = TOP
            for k, v in live:
                w = col[k]
                if w is TOP:
                    continue
                if v is EPS or w is EPS:
                    acc = EPS
                    break
                s = v + w
                if acc is TOP or s < acc:
                    acc = s
            out_row.append(acc)
        out.append(out_row)
    return out


def conj_rows(a: list) -> list:
    """Entrywise conjugation, no transpose: turns a meet closure into a star."""
    return [[conj(v) for v in r] for r in a]


def star(a: list) -> list:
    """E (+) A (+) A^2 (+) ... from walks in the weighted graph of A.

    An entry (i, j) is top when a walk from i to j uses a top edge or passes
    through a node on a positive closed walk.  Otherwise every walk from i to
    j has only non-positive circuits, so the best one is a simple path, which
    Floyd-Warshall over the finite edges finds; unreachable entries are eps.
    """
    n = len(a)
    reach = [_reachable(a, i) for i in range(n)]
    d = [[v if isinstance(v, int) else None for v in r] for r in a]
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik is None:
                continue
            di = d[i]
            for j in range(n):
                dkj = dk[j]
                if dkj is not None and (di[j] is None or dik + dkj > di[j]):
                    di[j] = dik + dkj
    hot = {v for v in range(n) if d[v][v] is not None and d[v][v] > 0}
    top_heads = [[w for w, x in enumerate(a[u]) if x is TOP] for u in range(n)]
    out = []
    for i in range(n):
        seeds: set = set()
        for u in reach[i]:
            if u in hot:
                seeds.add(u)
            seeds.update(top_heads[u])
        saturated: set = set()
        for s in seeds:
            saturated |= reach[s]
        row = []
        for j in range(n):
            if j in saturated:
                row.append(TOP)
            elif i == j:
                row.append(0)
            else:
                row.append(EPS if d[i][j] is None else d[i][j])
        out.append(row)
    return out


def _reachable(a: list, i: int) -> set:
    """Nodes reachable from i by walks of length >= 0 over non-eps edges."""
    seen = {i}
    todo = [i]
    while todo:
        u = todo.pop()
        for v, w in enumerate(a[u]):
            if w is not EPS and v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


def meet_closure(b: list) -> list:
    """E° (^) B (^) B°2 (^) ...: the conjugate of the star of the conjugate."""
    return conj_rows(star(conj_rows(b)))


def left_residual(a: list, b: list) -> list:
    """min_k a_ki \\ b_kj: greatest X with A (x) X <= B."""
    m = len(a)
    return [
        [fold(vmin, TOP, (lres(a[k][i], b[k][j]) for k in range(m))) for j in range(len(b[0]))]
        for i in range(len(a[0]))
    ]


def right_residual(c: list, a: list) -> list:
    """min_k c_ik / a_jk: greatest X with X (x) A <= C."""
    return [[fold(vmin, TOP, (lres(ak, ck) for ak, ck in zip(a[j], c[i]))) for j in range(len(a))]
            for i in range(len(c))]


def dual_residual(a: list, x: list) -> list:
    """max_k a_ki %% x_kj: smallest Y with A (.) Y >= X."""
    m = len(a)
    return [
        [fold(vmax, EPS, (dualres(a[k][i], x[k][j]) for k in range(m))) for j in range(len(x[0]))]
        for i in range(len(a[0]))
    ]


def fold(op, acc, items):
    for v in items:
        acc = op(acc, v)
    return acc


def project(a: list, b: list, x0: list) -> list:
    """(B_* %% A*)* \\ X0, the paper's projector, from the references above."""
    g = dual_residual(meet_closure(b), star(a))
    return left_residual(star(g), x0)


def interval_project(a_lo, a_hi, b_lo, b_hi, x_lo, x_hi) -> tuple[list, list]:
    """The two-bound interval projector: (lower, upper) reference rows."""
    g = dual_residual(meet_closure(b_lo), star(a_lo))
    h = [[vmax(p, q) for p, q in zip(r, s)] for r, s in
         zip(g, dual_residual(meet_closure(b_hi), star(a_hi)))]
    upper = left_residual(star(h), x_hi)
    lower = [[vmin(p, q) for p, q in zip(r, s)] for r, s in
             zip(left_residual(star(g), x_lo), upper)]
    return lower, upper


# -- residual maximality ---------------------------------------------------------


def residual_violation(kind: str, a: list, b: list, x: list) -> str | None:
    """The first entry of a claimed residual that is infeasible or not extremal.

    Every residual constraint decouples per entry of X, so X is the greatest
    (or, for the dual residual, the smallest) solution iff each entry is
    feasible and its successor (predecessor) is not.

    ``left``:  X greatest with A (x) X <= B, constraints a_ki (x) x_ij <= b_kj
    ``right``: X greatest with X (x) A <= B, constraints x_ij (x) a_jk <= b_ik
    ``dual``:  X smallest with A (.) X >= B, constraints a_ki (.) x_ij >= b_kj
    """
    for i, row in enumerate(x):
        for j, v in enumerate(row):
            if kind == "right":
                pairs = list(zip(a[j], b[i]))
            else:
                pairs = [(a[k][i], b[k][j]) for k in range(len(a))]
            if kind == "dual":
                ok = all(leq(q, odot(p, v)) for p, q in pairs)
                if v is EPS:
                    extremal = True
                elif v is TOP:
                    extremal = any(
                        (p is EPS and q is not EPS) or (isinstance(p, int) and q is TOP)
                        for p, q in pairs
                    )
                else:
                    extremal = not all(leq(q, odot(p, v - 1)) for p, q in pairs)
            else:
                ok = all(leq(otimes(p, v), q) for p, q in pairs)
                if v is TOP:
                    extremal = True
                elif v is EPS:
                    extremal = any(
                        (p is TOP and q is not TOP) or (isinstance(p, int) and q is EPS)
                        for p, q in pairs
                    )
                else:
                    extremal = not all(leq(otimes(p, v + 1), q) for p, q in pairs)
            if not ok:
                return f"entry ({i},{j}) = {fmt(v)} is infeasible"
            if not extremal:
                return f"entry ({i},{j}) = {fmt(v)} is not extremal"
    return None


# -- series -----------------------------------------------------------------------


def is_eps_series(s) -> bool:
    return not s.all_top and not s.transient and not s.pattern


def min_exp(s) -> int:
    return min(m.exp for m in s.transient + s.pattern)


def last_exp(s) -> int:
    """Last exponent that the structure of s names, one extra period included."""
    last = max(m.exp for m in s.transient + s.pattern)
    return last + (s.period.exp if s.period is not None else 0)


def slope(s) -> Fraction:
    """Asymptotic growth per exponent: tau/nu, 0 for polynomials."""
    return Fraction(0) if s.period is None else Fraction(s.period.coeff, s.period.exp)


def table(s, lo: int, hi: int) -> list:
    """Values of s on [lo, hi] from its monomials, periodic part unrolled."""
    if s.all_top:
        return [TOP] * (hi - lo + 1)
    vals = [EPS] * (hi - lo + 1)

    def put(c, e):
        if e <= hi:
            idx = max(e, lo) - lo
            vals[idx] = vmax(vals[idx], c)

    for m in s.transient:
        put(scalar(m.coeff), m.exp)
    if s.period is not None:
        tau, nu = s.period.coeff, s.period.exp
        for m in s.pattern:
            c, e = m.coeff, m.exp
            while e <= hi:
                put(c, e)
                c, e = c + tau, e + nu
    for i in range(1, len(vals)):
        vals[i] = vmax(vals[i - 1], vals[i])
    return vals


def window(*series) -> tuple[int, int]:
    """An exponent window covering every transient and two periods of each."""
    lo, hi = -3, 30
    for s in series:
        if s.all_top or is_eps_series(s):
            continue
        lo = min(lo, min_exp(s) - 3)
        hi = max(hi, last_exp(s) + (s.period.exp if s.period is not None else 0) + 2)
    return lo, hi


def convolution(a, b, lo: int, hi: int) -> list:
    """(a (x) b)(j) = max_k a(k) (x) b(j - k) on [lo, hi], for finite a and b."""
    if is_eps_series(a) or is_eps_series(b):
        return [EPS] * (hi - lo + 1)
    amin, bmin = min_exp(a), min_exp(b)
    ta = table(a, amin, max(amin, hi - bmin))
    tb = table(b, bmin, max(bmin, hi - amin))
    out = []
    for j in range(lo, hi + 1):
        acc = EPS
        for k in range(amin, j - bmin + 1):
            acc = vmax(acc, otimes(ta[k - amin], tb[j - k - bmin]))
        out.append(acc)
    return out


def residual_table(a, b, lo: int, hi: int) -> list:
    """(a \\ b)(j) = min_k a(k) \\ b(j + k) on [lo, hi], for finite a and b.

    The caller guarantees slope(a) <= slope(b), so the infimum is reached
    within one common period beyond both transients.
    """
    amin = min_exp(a)
    depth = hi + max(last_exp(a), last_exp(b)) + 2 * _period_lcm(a, b) + 20
    ta = table(a, amin, depth)
    tb = table(b, lo + amin, hi + depth)
    out = []
    for j in range(lo, hi + 1):
        acc = TOP
        for k in range(amin, depth + 1):
            acc = vmin(acc, lres(ta[k - amin], tb[j + k - lo - amin]))
        out.append(acc)
    return out


def _period_lcm(a, b) -> int:
    return math.lcm(*(s.period.exp for s in (a, b) if s.period is not None), 1)


def star_table(s, lo: int, hi: int) -> list:
    """s* on [lo, hi] by the recurrence f = e (+) s (x) f over exponents."""
    smin = min_exp(s)
    ts = table(s, 0, max(hi, 0))
    f = {}
    for j in range(0, max(hi, 0) + 1):
        acc = 0
        s0 = ts[0]
        if s0 is TOP or (isinstance(s0, int) and s0 > 0):
            acc = TOP
        for k in range(max(smin, 1), j + 1):
            acc = vmax(acc, otimes(ts[k], f[j - k]))
        f[j] = acc
    return [f[j] if j >= 0 else EPS for j in range(lo, hi + 1)]


def series_literal(s) -> str:
    """The canonical series literal, written from the structure of s."""
    if s.all_top:
        return "top"
    if is_eps_series(s):
        return "eps"
    parts = [f"{fmt(scalar(m.coeff))}.g{m.exp}" for m in s.transient]
    if s.period is not None:
        suffix = f".({s.period.coeff}.g{s.period.exp})*"
        parts += [f"{m.coeff}.g{m.exp}{suffix}" for m in s.pattern]
    return "+".join(parts)
