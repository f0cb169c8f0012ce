"""Dense matrices over any supported semiring element type.

Every operation is a pure function; matrices are immutable and carry the
operation table (``semiring``) of their element type, so the same code
serves max-plus scalars, gamma-series and the interval lifts of both.

Conventions:

* ``mat_otimes``:  (A (x) X)_ij = max_k a_ik (x) x_kj
* ``mat_odot``:    (A (.) X)_ij = min_k a_ik (.) x_kj
* ``left_residual(A, B)``:  greatest X with A (x) X <= B,
  entrywise  min_k  a_ki \\ b_kj
* ``right_residual(C, A)``: greatest X with X (x) A <= C,
  entrywise  min_k  c_ik / a_jk  (= a_jk \\ c_ik, since (x) commutes)
* ``dual_residual(A, X)``:  smallest Y with A (.) Y >= X,
  entrywise  max_k  a_ki %% x_kj
* ``kleene_star``:   A* = E (+) A (+) A^2 (+) ... (identity E: unit
  diagonal, eps elsewhere)
* ``wedge_closure``: B_* = E° (^) B (^) B°2 (^) ... (dual identity E°:
  unit diagonal, top elsewhere)

Over max-plus scalars the three residuals are products of the conjugate
transpose conj(A)^T (a_ij -> -a_ji, eps <-> top):

    A \\ B = conj(A)^T (.) B      C / A = C (.) conj(A)^T      A %% X = conj(A)^T (x) X

so the five operations share one integer kernel, ``_zmax_product``.  With m
the largest finite magnitude in either operand and K = 3m + 1, it encodes
top as K and eps as -3K for (x), top as 3K and eps as -K for (.).  Every
sum of two codes then lands in one of three disjoint ranges: above 2m where
the exact result is top, below -2m where it is eps, and the exact finite
value in between, so one integer max (or min) per entry is exact for
integers of any size.  Series matrices use one generic fold, which stops
once its accumulator is absorbing (top for (+), eps for (^)).

Interval matrices run every kernel bound by bound, on the bound matrices
over the base type, so interval max-plus runs the integer kernels.  The
scalar interval operations act boundwise except for the residuals' order
corrections, which commute with the fold over the inner index and so apply
once to the result: the left and right residuals meet the lower bound with
the upper one, and the dual residual joins the upper bound with the lower.

Both closures are one Gauss-Jordan elimination, exact in O(n^3) scalar
operations; the meet closure runs it over the order dual of the semiring.
Over max-plus scalars both run one integer elimination, ``_zmax_closure``;
the order dual of max-plus is max-plus again through the conjugation
(v -> -v, eps <-> top), so the meet closure is the conjugate of the star of
conj(B).  With m the largest finite magnitude and bound = n*m, every finite
entry met during elimination is the weight of a best elementary path or
circuit, so it lies within +-bound.  Top is coded as T = (n+1)*bound + 1 and
eps as -T.  At pivot k:

* a row whose entry in column k is below -bound (eps) is skipped;
* when the diagonal entry is > 0 (a positive circuit, saturated when it is
  finite, or top), or the row's entry is top, every column row k reaches
  (code >= -bound) becomes exactly T in that row;
* otherwise the row is joined with row k shifted by its finite entry ik:
  x -> max(x, ik + v).

Codes drift by at most bound per pivot, so after n pivots an eps code stays
below -bound and a top code above bound.  At the end the diagonal is raised
to 0 and codes above bound read as top, below -bound as eps.  A row that is
top in every column never changes again and is shared and skipped.

Shape mismatches raise; there is no broadcasting.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain
from operator import add, neg
from typing import Any, Sequence

from .errors import DivergenceWarning, SeriesDomainError, ShapeError
from .zmax import EPS, TOP, ZMAX


@dataclass(frozen=True, slots=True, init=False)
class Matrix:
    """Immutable dense rectangular matrix in row-major order."""

    semiring: Any
    rows: int
    cols: int
    entries: tuple

    def __init__(self, semiring, rows: int, cols: int, entries: tuple) -> None:
        if rows <= 0 or cols <= 0:
            raise ShapeError(f"matrix dimensions must be positive, got {rows}x{cols}")
        if len(entries) != rows * cols:
            raise ShapeError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(entries)}"
            )
        # Stored through the slot descriptors, past the frozen __setattr__:
        # cheaper than object.__setattr__ per field, and slots make every
        # later attribute read about 4x cheaper than an instance dict.
        _set_semiring(self, semiring)
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_entries(self, entries)

    def at(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list]:
        return [
            list(self.entries[i * self.cols : (i + 1) * self.cols]) for i in range(self.rows)
        ]

    def __repr__(self) -> str:
        sr = self.semiring
        body = "; ".join(
            " ".join(sr.format(self.at(i, j)) for j in range(self.cols))
            for i in range(self.rows)
        )
        return f"Matrix({self.rows}x{self.cols}: {body})"


_set_semiring = Matrix.semiring.__set__
_set_rows = Matrix.rows.__set__
_set_cols = Matrix.cols.__set__
_set_entries = Matrix.entries.__set__


def from_rows(semiring, rows: Sequence[Sequence]) -> Matrix:
    if not rows or not rows[0]:
        raise ShapeError("a matrix needs at least one row and one column")
    cols = len(rows[0])
    if any(len(r) != cols for r in rows):
        raise ShapeError("all rows must have the same length")
    return Matrix(semiring, len(rows), cols, tuple(x for r in rows for x in r))


def filled(semiring, rows: int, cols: int, value) -> Matrix:
    return Matrix(semiring, rows, cols, (value,) * (rows * cols))


def eps_matrix(semiring, rows: int, cols: int) -> Matrix:
    return filled(semiring, rows, cols, semiring.eps)


def top_matrix(semiring, rows: int, cols: int) -> Matrix:
    return filled(semiring, rows, cols, semiring.top)


def identity(semiring, n: int) -> Matrix:
    return Matrix(
        semiring,
        n,
        n,
        tuple(semiring.one if i == j else semiring.eps for i in range(n) for j in range(n)),
    )


def dual_identity(semiring, n: int) -> Matrix:
    return Matrix(
        semiring,
        n,
        n,
        tuple(semiring.one if i == j else semiring.top for i in range(n) for j in range(n)),
    )


def _require_same_shape(a: Matrix, b: Matrix, what: str) -> None:
    if a.rows != b.rows or a.cols != b.cols:
        raise ShapeError(
            f"{what}: shapes {a.rows}x{a.cols} and {b.rows}x{b.cols} differ"
        )
    if a.semiring is not b.semiring:
        raise ShapeError(f"{what}: operands live over different semirings")


def mat_oplus(a: Matrix, b: Matrix) -> Matrix:
    """Entrywise least upper bound."""
    _require_same_shape(a, b, "mat_oplus")
    op = a.semiring.oplus
    return Matrix(a.semiring, a.rows, a.cols, tuple(map(op, a.entries, b.entries)))


def mat_wedge(a: Matrix, b: Matrix) -> Matrix:
    """Entrywise greatest lower bound."""
    _require_same_shape(a, b, "mat_wedge")
    op = a.semiring.wedge
    return Matrix(a.semiring, a.rows, a.cols, tuple(map(op, a.entries, b.entries)))


def mat_leq(a: Matrix, b: Matrix) -> bool:
    """True when a (+) b = b entrywise."""
    _require_same_shape(a, b, "mat_leq")
    leq = a.semiring.leq
    return all(map(leq, a.entries, b.entries))


def _zmax_product(a: Matrix, x: Matrix, dual: bool, conj_a: bool = False,
                  conj_x: bool = False) -> Matrix:
    """L (x) R, or L (.) R when ``dual``, of max-plus matrices, where L is A
    or, with ``conj_a``, conj(A)^T, and R is X or, with ``conj_x``, conj(X)^T.

    Each output entry is one integer max (or min) of sums of codes; see the
    module docstring for the encoding.  The caller checks the shapes.
    """
    ea, ex = a.entries, x.entries
    if EPS in ea or TOP in ea or EPS in ex or TOP in ex:
        fin = [v for v in chain(ea, ex) if v is not EPS and v is not TOP]
        m = max(map(abs, fin)) if fin else 0
        k = 3 * m + 1
        hi, lo = (3 * k, -k) if dual else (k, -3 * k)
        # A conjugated operand maps v to -v, eps to top's code, top to eps's.
        ea = ([lo if v is TOP else hi if v is EPS else -v for v in ea] if conj_a
              else [hi if v is TOP else lo if v is EPS else v for v in ea])
        ex = ([lo if v is TOP else hi if v is EPS else -v for v in ex] if conj_x
              else [hi if v is TOP else lo if v is EPS else v for v in ex])
        bound = 2 * m
    else:
        bound = None
        if conj_a:
            ea = tuple(map(neg, ea))
        if conj_x:
            ex = tuple(map(neg, ex))
    # Rows of L and columns of R; zip over one shared iterator cuts rows.
    c = a.cols
    if conj_a:
        left = [ea[j::c] for j in range(c)] if c > 1 else [ea]
    else:
        left = zip(*[iter(ea)] * c)
    c = x.cols
    if conj_x:
        right = list(zip(*[iter(ex)] * c))
    else:
        right = [ex[j::c] for j in range(c)] if c > 1 else [ex]
    red = min if dual else max
    if bound is None:
        out = [red(map(add, u, w)) for u in left for w in right]
    else:
        out = [
            TOP if (v := red(map(add, u, w))) > bound else EPS if v < -bound else v
            for u in left
            for w in right
        ]
    return Matrix(ZMAX, a.cols if conj_a else a.rows, len(right), tuple(out))


def _rows(a: Matrix) -> list[tuple]:
    return list(zip(*[iter(a.entries)] * a.cols))


def _cols(a: Matrix) -> list[tuple]:
    c = a.cols
    return [a.entries[j::c] for j in range(c)]


def _fold(sr, left, right, term, dual: bool) -> Matrix:
    """Entry (i, j) is the join (meet when ``dual``) over k of
    term(left[i][k], right[j][k]), for series matrices.

    A fold stops at the join's absorbing element, top (eps for the meet):
    the terms left would not change it.
    """
    join, unit, absorbing = (sr.wedge, sr.top, sr.eps) if dual else (sr.oplus, sr.eps, sr.top)
    out = []
    for u in left:
        for w in right:
            acc = unit
            for p, q in zip(u, w):
                acc = join(acc, term(p, q))
                if acc == absorbing:
                    break
            out.append(acc)
    return Matrix(sr, len(left), len(right), tuple(out))


def mat_otimes(a: Matrix, x: Matrix) -> Matrix:
    """Semiring matrix product."""
    if a.cols != x.rows:
        raise ShapeError(f"mat_otimes: inner dimensions {a.cols} and {x.rows} differ")
    if a.semiring is not x.semiring:
        raise ShapeError("mat_otimes: operands live over different semirings")
    sr = a.semiring
    if sr is ZMAX:
        return _zmax_product(a, x, False)
    if sr.kind == "interval":
        return _by_bounds(mat_otimes, a, x)
    return _fold(sr, _rows(a), _cols(x), sr.otimes, False)


def mat_odot(a: Matrix, x: Matrix) -> Matrix:
    """Dual matrix product (min of dual products along the inner index)."""
    if a.cols != x.rows:
        raise ShapeError(f"mat_odot: inner dimensions {a.cols} and {x.rows} differ")
    if a.semiring is not x.semiring:
        raise ShapeError("mat_odot: operands live over different semirings")
    sr = a.semiring
    if sr is ZMAX:
        return _zmax_product(a, x, True)
    if sr.kind == "interval":
        return _by_bounds(mat_odot, a, x)
    return _fold(sr, _rows(a), _cols(x), sr.odot, True)


def left_residual(a: Matrix, b: Matrix) -> Matrix:
    """Greatest X with A (x) X <= B."""
    if a.rows != b.rows:
        raise ShapeError(f"left_residual: row counts {a.rows} and {b.rows} differ")
    if a.semiring is not b.semiring:
        raise ShapeError("left_residual: operands live over different semirings")
    sr = a.semiring
    if sr is ZMAX:
        return _zmax_product(a, b, True, conj_a=True)
    if sr.kind == "interval":
        return _by_bounds(left_residual, a, b, meet_lower=True)
    return _fold(sr, _cols(a), _cols(b), sr.lres, True)


def right_residual(c: Matrix, a: Matrix) -> Matrix:
    """Greatest X with X (x) A <= C."""
    if c.cols != a.cols:
        raise ShapeError(f"right_residual: column counts {c.cols} and {a.cols} differ")
    if c.semiring is not a.semiring:
        raise ShapeError("right_residual: operands live over different semirings")
    sr = c.semiring
    if sr is ZMAX:
        return _zmax_product(c, a, True, conj_x=True)
    if sr.kind == "interval":
        return _by_bounds(right_residual, c, a, meet_lower=True)
    lres = sr.lres
    return _fold(sr, _rows(c), _rows(a), lambda c_ik, a_jk: lres(a_jk, c_ik), True)


def dual_residual(a: Matrix, x: Matrix) -> Matrix:
    """Smallest Y with A (.) Y >= X."""
    if a.rows != x.rows:
        raise ShapeError(f"dual_residual: row counts {a.rows} and {x.rows} differ")
    if a.semiring is not x.semiring:
        raise ShapeError("dual_residual: operands live over different semirings")
    sr = a.semiring
    if sr is ZMAX:
        return _zmax_product(a, x, False, conj_a=True)
    if sr.kind == "interval":
        return _by_bounds(dual_residual, a, x, join_upper=True)
    return _fold(sr, _cols(a), _cols(x), sr.dualres, False)


def _require_square(a: Matrix, what: str) -> None:
    if a.rows != a.cols:
        raise ShapeError(f"{what}: requires a square matrix, got {a.rows}x{a.cols}")


def _gauss_jordan(ops, a: Matrix) -> tuple[Matrix, list[int]]:
    """E (+) A (+) A^2 (+) ... over the operation table ``ops`` by Gauss-Jordan
    elimination.

    One pass per pivot, closing the pivot's diagonal entry with the scalar
    star.  Also returns the 0-based pivots whose star saturated: a diagonal
    entry other than ``ops.top`` whose star is ``ops.top`` sits on a circuit
    that improves without bound.
    """
    n = a.rows
    eps, oplus, otimes, star = ops.eps, ops.oplus, ops.otimes, ops.star
    m = a.to_rows()
    saturated = []
    for k in range(n):
        skk = star(m[k][k])
        if skk == ops.top and m[k][k] != ops.top:
            saturated.append(k)
        for i in range(n):
            ik = otimes(m[i][k], skk)
            if ik == eps:
                continue
            row_k = m[k]
            row_i = m[i]
            for j in range(n):
                row_i[j] = oplus(row_i[j], otimes(ik, row_k[j]))
    for i in range(n):
        m[i][i] = oplus(m[i][i], ops.one)
    return Matrix(a.semiring, n, n, tuple(chain.from_iterable(m))), saturated


def _zmax_closure(a: Matrix, conj: bool) -> tuple[Matrix, list[int]]:
    """``_gauss_jordan(ZMAX, a)`` on integer codes, or with ``conj`` the same
    over the order dual, read as the star of conj(A) and conjugated back.

    Returns the same closure and saturated pivots; see the module docstring
    for the encoding.
    """
    n = a.rows
    e = a.entries
    if EPS in e or TOP in e:
        fin = [v for v in e if v is not EPS and v is not TOP]
        bound = n * max(map(abs, fin)) if fin else 0
        t = (n + 1) * bound + 1
        e = ([-t if v is TOP else t if v is EPS else -v for v in e] if conj
             else [t if v is TOP else -t if v is EPS else v for v in e])
    else:
        bound = n * max(map(abs, e))
        t = (n + 1) * bound + 1
        if conj:
            e = tuple(map(neg, e))
    low = -bound
    # Rows are never written in place, only replaced, so they may be tuples
    # and every all-top row may be one shared tuple; such a row never changes
    # again and is skipped.
    m = list(zip(*[iter(e)] * n))
    all_top = (t,) * n
    saturated = []
    for k in range(n):
        rk = m[k]
        d = rk[k]
        if 0 < d <= bound:
            saturated.append(k)
        for i, ri in enumerate(m):
            ik = ri[k]
            # Unchanged: rows that do not reach k, row k when its circuit
            # weighs <= 0, and all-top rows.
            if ik < low or (i == k and d <= 0) or ri is all_top:
                continue
            if d > 0 or ik > bound:
                # Through a top entry or a positive circuit: every column that
                # row k reaches is top.
                m[i] = all_top if min(rk) >= low else [t if v >= low else x for x, v in zip(ri, rk)]
            else:
                m[i] = [x if x >= (y := ik + v) else y for x, v in zip(ri, rk)]
    flat = list(chain.from_iterable(m))
    for i in range(0, n * n, n + 1):
        if flat[i] < 0:
            flat[i] = 0
    if conj:
        out = [EPS if c > bound else TOP if c < low else -c for c in flat]
    else:
        out = [TOP if c > bound else EPS if c < low else c for c in flat]
    return Matrix(ZMAX, n, n, tuple(out)), saturated


class _OrderDual:
    """A semiring read upside down: (+) <-> (^), (x) <-> (.), eps <-> top.

    Its scalar star is the meet closure one (^) p (^) p(.)p (^) ..., which is
    one when one <= p and eps otherwise.  That is exact over max-plus scalars
    and over eps, top and monomials with a finite coefficient; meets and dual
    products keep elimination inside that set.
    """

    def __init__(self, sr) -> None:
        one, eps, leq = sr.one, sr.eps, sr.leq
        self.eps, self.top, self.one = sr.top, eps, one
        self.oplus, self.otimes = sr.wedge, sr.odot
        self.star = lambda p: one if leq(one, p) else eps


def kleene_star(a: Matrix) -> Matrix:
    """A* = E (+) A (+) A^2 (+) ...

    Over max-plus scalars a circuit of positive weight saturates the entries
    it reaches to top.  Interval matrices are closed bound by bound, which is
    exact because (+), (x) and the scalar star all act boundwise.
    """
    _require_square(a, "kleene_star")
    sr = a.semiring
    if sr is ZMAX:
        return _zmax_closure(a, False)[0]
    if sr.kind == "interval":
        return _by_bounds(kleene_star, a)
    return _gauss_jordan(sr, a)[0]


def wedge_closure(b: Matrix) -> Matrix:
    """B_* = E° (^) B (^) B°2 (^) ...: the Kleene star over the order dual.

    A strictly decreasing dual circuit drives the entries it reaches to eps;
    when one is found a ``DivergenceWarning`` names its pivots.  Interval
    matrices are closed bound by bound.
    """
    _require_square(b, "wedge_closure")
    sr = b.semiring
    if sr.kind == "interval":
        return _by_bounds(wedge_closure, b)
    if sr is ZMAX:
        out, saturated = _zmax_closure(b, True)
    else:
        for idx, entry in enumerate(b.entries):
            if not sr.odot_left_ok(entry):
                raise SeriesDomainError(
                    f"wedge_closure: entry ({idx // b.cols + 1},{idx % b.cols + 1}) "
                    "is not eps, top or a monomial with a finite coefficient"
                )
        out, saturated = _gauss_jordan(_OrderDual(sr), b)
    if saturated:
        pivots = ", ".join(str(k + 1) for k in saturated)
        warnings.warn(
            f"wedge_closure: strictly decreasing dual circuits close at pivot(s) "
            f"{pivots}; the entries they reach are eps",
            DivergenceWarning,
            stacklevel=2,
        )
    return out


def interval_bounds(a: Matrix) -> tuple[Matrix, Matrix]:
    """Split an interval matrix into its lower- and upper-bound matrices."""
    sr = a.semiring
    if sr.kind != "interval":
        raise ShapeError("interval_bounds: matrix is not over an interval semiring")
    e = a.entries
    return (Matrix(sr.base, a.rows, a.cols, tuple(x.lo for x in e)),
            Matrix(sr.base, a.rows, a.cols, tuple(x.hi for x in e)))


def interval_join(semiring, lo: Matrix, hi: Matrix) -> Matrix:
    """Assemble an interval matrix from ordered bound matrices."""
    if semiring.kind != "interval":
        raise ShapeError("interval_join: target semiring is not an interval lift")
    if lo.semiring is not semiring.base or hi.semiring is not semiring.base:
        raise ShapeError("interval_join: bound matrices must live over the base semiring")
    _require_same_shape(lo, hi, "interval_join")
    return Matrix(semiring, lo.rows, lo.cols, tuple(map(semiring.make, lo.entries, hi.entries)))


def _by_bounds(kernel, *mats: Matrix, meet_lower: bool = False,
               join_upper: bool = False) -> Matrix:
    """``kernel`` over interval matrices: run on the lower bounds and on the
    upper bounds, then meet the lower result with the upper one or join the
    upper result with the lower one, as the scalar residual corrections do.
    """
    lows, highs = zip(*map(interval_bounds, mats))
    lo, hi = kernel(*lows), kernel(*highs)
    if meet_lower:
        lo = mat_wedge(lo, hi)
    if join_upper:
        hi = mat_oplus(lo, hi)
    return interval_join(mats[0].semiring, lo, hi)


def negate_transpose(a: Matrix) -> Matrix:
    """Conjugate-transpose a_ij -> -a_ji with eps and top exchanged.

    Defined for element types with a conjugation (max-plus scalars and
    their interval lift); it turns left residuation into a dual product.
    """
    sr = a.semiring
    conj = getattr(sr, "conj", None)
    if conj is None:
        raise ShapeError(f"negate_transpose: no conjugation over {sr!r}")
    out = tuple(conj(a.at(j, i)) for i in range(a.cols) for j in range(a.rows))
    return Matrix(sr, a.cols, a.rows, out)


def dual_power(b: Matrix, k: int) -> Matrix:
    """k-th dual power, with the dual identity as the zeroth power."""
    _require_square(b, "dual_power")
    acc = dual_identity(b.semiring, b.rows)
    for _ in range(k):
        acc = mat_odot(b, acc)
    return acc
