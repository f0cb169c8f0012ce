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

so the five operations share one integer kernel, ``_zmax_product``.  As
conj(P (x) Q) = conj(P) (.) conj(Q) (Cuninghame-Green, Minimax Algebra,
1979), also A \\ B = conj(A^T (x) conj(B)), C / A = conj(conj(C) (x) A^T)
and A %% X = conj(A^T (.) conj(X)); the kernel takes these forms when the
conjugated operand has more entries than the other operand and the output
together, as a matrix by a vector does (square operands never do).  One
encoder, ``_encode``, codes the operands and the closure's matrix below,
conjugated or not.  With m the largest finite magnitude in either operand
(from ``_SET_MIN_ENTRIES`` (64) entries on read off the set of distinct
entries, hashed in C; below, a list costs less on a cold cache) and
K = 3m + 1, top is K and eps -3K for (x), top 3K and eps -K for (.).  Every
sum of two codes then lands in one of three disjoint ranges: above 2m
where the exact result is top, below -2m where it is eps, and the exact
finite value in between, so one integer max (or min) per entry is exact for
integers of any size.

The max (or min) runs over packed rows, many entries per integer operation.
Shifted by off = 3K every code is non-negative, and a sum of two shifted
codes lies in [0, 12K].  Each row of R is packed into one int with one field
of W bits per output column, W the bit length of 12K plus a guard bit,
rounded up to whole bytes.  For a row u of L the accumulator folds, over the
inner index k, the fields y = P_k + (u_k + off) * ONES, where ONES has a 1 in
the lowest bit of every field and H a 1 in every guard bit.  In
d = (acc | H) - y no field borrows from the next, and a field keeps its guard
bit exactly where acc >= y, with acc - y below it; so with g = d & H,
d & (g - (g >> (W-1))) is acc - y where acc >= y and 0 elsewhere, and adding
it to y gives the field-wise max (subtracting it from acc the min).  A term
whose L code is eps (top for (.)) is eps (top) in every column, so it is
skipped and the accumulator starts there.  Each output row is unpacked once
and decoded as above.  The entry-by-entry reduction, one max(map(add, u, w))
per output entry, stays where packing costs more than it saves: below
``_PACK_MIN_ROWS`` (4) output rows, where packing R costs about as much as
the list reduction of one output row, below ``_PACK_MIN_COLS`` (16) output
columns, where packing and unpacking a row cost more than the fewer integer
operations save, and for fields wider than ``_PACK_MAX_BITS`` (128) bits,
where every field pays for the widest entry and a packed row of R costs W
bits per entry in time and memory, however small the other entries are.
Both packed kernels pack and unpack through ``_pack_rows`` and
``_unpack_rows``: fields of 1, 2, 4 or 8 bytes go through an ``array`` in C,
filled ``_PACK_BLOCK`` shifted fields at a time, wider ones through a byte
string per field, joined a row at a time.

A series product takes each entry as one sum of products (``otimes_sum``),
a series residual as one meet (``lres_meet``), which looks for an eps term,
its absorbing element, before any sweep; the other series kernels use one
fold, which stops once its accumulator is absorbing (top for (+), eps for (^)).

Interval matrices run every kernel bound by bound, on the bound matrices
over the base type, so interval max-plus runs the integer kernels.  The
scalar interval operations act boundwise except for the residuals' order
corrections, which commute with the fold over the inner index and so apply
once to the result: the left and right residuals meet the lower bound with
the upper one, and the dual residual joins the upper bound with the lower.

Both closures have one entry point, ``_closure(a, dual)``: interval
matrices are closed bound by bound, and every other type runs one
Gauss-Jordan elimination, exact in O(n^3) scalar operations; the meet
closure runs it over the order dual of the semiring.  Over max-plus scalars
both run one integer elimination, ``_zmax_closure``; the order dual of
max-plus is max-plus again through the conjugation (v -> -v, eps <-> top),
so the meet closure is the conjugate of the star of conj(B).  With m the
largest finite magnitude and bound = n*m, every finite entry met during
elimination is the weight of a best elementary path or circuit, so it lies
within +-bound.  Top is coded as T = (n+1)*bound + 1 and eps as -T.  At
pivot k:

* a row whose entry in column k is below -bound (eps) is skipped;
* when the diagonal entry is > 0 (a positive circuit, saturated when it is
  finite, or top), or the row's entry is top, every column row k reaches
  (code >= -bound) becomes exactly T in that row;
* otherwise the row is joined with row k shifted by its finite entry ik:
  x -> max(x, ik + v).

Codes drift by at most bound per pivot, so after n pivots an eps code stays
below -bound and a top code above bound.  At the end the diagonal is raised
to 0, the meet closure's codes are negated back, and codes above bound read
as top, below -bound as eps.  A row that is top in every column never
changes again and is shared and skipped.

From order ``_PACK_MIN_ORDER`` (6) on, the rows are packed like the
product's.  Every code stays in [-T, T + n*bound]: a join only raises codes,
by at most bound per pivot, and saturation sets exactly T.  Shifted by
off = T + bound every code, and every sum ik + v, is non-negative and at
most 2T + (n+2)*bound; a field is the bit length of that plus a guard bit,
rounded up to 1, 2, 4 or 8 bytes.  At pivot k, ik is field k of the row; a
join is the product's guard-bit field-wise max of the row and
row_k + ik * ONES; a saturating row is (row & keep) | fill, both masks read
once per pivot off the guard bits of row_k - T * ONES (set where row k's
code is >= -bound, that is, where it reaches); and an all-top row is one
shared int, skipped.  The rows are chosen from bound, before anything is
encoded.  List rows stay below order 6, where packing and unpacking cost
more than the fewer integer operations save: on interleaved runs over
converging stars and meet closures of small entries (one 2-vCPU x86 host,
Python 3.11) packed rows took 1.2-1.5 times the list rows' time at n = 3-4,
1.0-1.1 at 5, 0.9-0.96 at 6 and 0.6-0.66 at 10-12.  They also stay where a
field would pass 64 bits, and where no entry is finite, as elimination then
only saturates rows and never joins them.

Shape mismatches raise; there is no broadcasting.
"""

from __future__ import annotations

import sys
import warnings
from itertools import chain
from operator import add, neg
from typing import Sequence

from .errors import DivergenceWarning, SeriesDomainError, ShapeError
from .zmax import EPS, TOP, ZMAX, Frozen


class Matrix(Frozen):
    """Immutable dense rectangular matrix in row-major order."""

    __slots__ = ("semiring", "rows", "cols", "entries")

    def __init__(self, semiring, rows: int, cols: int, entries: tuple) -> None:
        if rows <= 0 or cols <= 0:
            raise ShapeError(f"Matrix: dimensions must be positive, got {rows}x{cols}")
        if len(entries) != rows * cols:
            raise ShapeError(
                f"Matrix: expected {rows * cols} entries for {rows}x{cols}, got {len(entries)}"
            )
        # Stored through the slot descriptors, past the frozen __setattr__:
        # cheaper than object.__setattr__ per field, and slots make every
        # later attribute read about 4x cheaper than an instance dict.
        _set_semiring(self, semiring)
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_entries(self, entries)

    def __eq__(self, other):
        return (self.semiring is other.semiring and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries
                if other.__class__ is Matrix else NotImplemented)

    def __hash__(self) -> int:
        return hash((self.semiring, self.rows, self.cols, self.entries))

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
        raise ShapeError("from_rows: a matrix needs at least one row and one column")
    cols = len(rows[0])
    if any(len(r) != cols for r in rows):
        raise ShapeError("from_rows: all rows must have the same length")
    return Matrix(semiring, len(rows), cols, tuple(x for r in rows for x in r))


def filled(semiring, rows: int, cols: int, value) -> Matrix:
    return Matrix(semiring, rows, cols, (value,) * (rows * cols))


def identity(semiring, n: int) -> Matrix:
    return Matrix(
        semiring,
        n,
        n,
        tuple(semiring.one if i == j else semiring.eps for i in range(n) for j in range(n)),
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


def _encode(entries, top: int, eps: int, conj: bool) -> list:
    """Integer codes of max-plus entries: top -> ``top``, eps -> ``eps`` and
    v -> v, or with ``conj`` those of the conjugate: top -> ``eps``,
    eps -> ``top`` and v -> -v."""
    if conj:
        return [eps if v is TOP else top if v is EPS else -v for v in entries]
    return [top if v is TOP else eps if v is EPS else v for v in entries]


def _rows(entries, c: int) -> list:
    """The rows of ``c``-column row-major ``entries``."""
    return list(zip(*[iter(entries)] * c))


def _cols(entries, c: int) -> list:
    """The columns of ``c``-column row-major ``entries``."""
    return [entries[j::c] for j in range(c)]


# Array type codes by item size in bytes, smallest first (C's unsigned char,
# short, int and long long on every platform CPython supports; a test checks
# them), and the byte order of their items: packed ints are little-endian,
# field 0 lowest.  ``array`` is imported where it is used: loading it costs a
# command-line start about 4 ms, which a command that never packs would pay.
_ITEM_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}
_BIG_ENDIAN = sys.byteorder == "big"
_PACK_BLOCK = 4096  # fields shifted at a time by _pack_rows


def _pack_rows(fields: list, count: int, size: int, off: int) -> list:
    """``fields``, each shifted by ``off``, packed ``count`` to an int in
    ``size``-byte fields from the lowest up; each shifted field is
    non-negative and below 2**(8*size).  Wide fields are joined a row at a
    time, so no byte string per field outlives its row."""
    code = _ITEM_CODES.get(size)
    if code is None:
        return [int.from_bytes(b"".join([(f + off).to_bytes(size, "little")
                                         for f in fields[i:i + count]]), "little")
                for i in range(0, len(fields), count)]
    import array

    # Shifted a block at a time, so that no list of every shifted field is
    # held: a shifted code is a new int object, 36 bytes with its pointer.
    items = array.array(code)
    for i in range(0, len(fields), _PACK_BLOCK):
        items.fromlist([f + off for f in fields[i:i + _PACK_BLOCK]])
    if _BIG_ENDIAN:
        items.byteswap()
    raw, step = items.tobytes(), count * size
    return [int.from_bytes(raw[i:i + step], "little") for i in range(0, len(raw), step)]


def _unpack_rows(rows, count: int, size: int):
    """The fields of ``_pack_rows``'s ints ``rows``, ``count`` to an int, in
    one flat sequence."""
    raw = b"".join([r.to_bytes(count * size, "little") for r in rows])
    code = _ITEM_CODES.get(size)
    if code is None:
        return [int.from_bytes(raw[j:j + size], "little") for j in range(0, len(raw), size)]
    import array

    items = array.array(code, raw)
    if _BIG_ENDIAN:
        items.byteswap()
    return items


# The packed reduction serves products with at least this many output rows
# and columns and fields at most this many bits wide (largest finite
# magnitude up to about 4.7 * 10^36); see the module docstring.
_PACK_MIN_ROWS = 4
_PACK_MIN_COLS = 16
_PACK_MAX_BITS = 128
# Closures of this order or more run on packed rows when a field fits in 64
# bits; see the module docstring.
_PACK_MIN_ORDER = 6
_SET_MIN_ENTRIES = 64  # operand entries from which a product's magnitude comes from a set


def _zmax_product(a: Matrix, x: Matrix, dual: bool, conj_a: bool = False,
                  conj_x: bool = False) -> Matrix:
    """L (x) R, or L (.) R when ``dual``, of max-plus matrices, where L is A
    or, with ``conj_a``, conj(A)^T, and R is X or, with ``conj_x``, conj(X)^T.

    Each output entry is one integer max (or min) of sums of codes, taken
    field by field over packed rows of R or, for few output rows or columns
    or wide fields, one entry at a time; see the module docstring for the
    encoding and the choices.  The caller checks the shapes.
    """
    na, nx = len(a.entries), len(x.entries)
    if na + nx >= _SET_MIN_ENTRIES:
        fin = {*a.entries, *x.entries}
        fin -= {EPS, TOP}
    else:
        fin = [v for v in chain(a.entries, x.entries) if v is not EPS and v is not TOP]
    m = max(map(abs, fin)) if fin else 0
    r, c = a.cols if conj_a else a.rows, x.rows if conj_x else x.cols
    # A large transposed operand stays plain; the other and the output flip.
    flip = na > nx + r * c if conj_a else conj_x and nx > na + r * c
    ca, cx, dual = conj_a ^ flip, conj_x ^ flip, dual ^ flip
    k = 3 * m + 1
    hi, lo = (3 * k, -k) if dual else (k, -3 * k)
    ea = _encode(a.entries, hi, lo, ca)
    ex = _encode(x.entries, hi, lo, cx)
    # Rows of L.
    left = _cols(ea, a.cols) if conj_a else _rows(ea, a.cols)
    # The field width is the bit length of 12K plus a guard bit, in bytes.
    if (r < _PACK_MIN_ROWS or c < _PACK_MIN_COLS
            or (width := ((12 * k).bit_length() + 8) // 8 * 8) > _PACK_MAX_BITS):
        # Columns of R.
        right = _rows(ex, x.cols) if conj_x else _cols(ex, x.cols)
        red = min if dual else max
        bound, low = 2 * m, -2 * m
        out = [
            TOP if (v := red(map(add, u, w))) > bound else EPS if v < low else v
            for u in left
            for w in right
        ]
    else:
        # The codes of R, row-major.
        right = list(chain.from_iterable(_cols(ex, x.cols))) if conj_x else ex
        out = _packed_product(left, right, c, m, width, dual)
    if flip:
        out = _encode(out, TOP, EPS, True)
    return Matrix(ZMAX, r, c, tuple(out))


def _packed_product(left, right: list, c: int, m: int, width: int, dual: bool) -> list:
    """The entries of ``_zmax_product`` from the rows of codes of L and the
    codes of R, row-major: each row of R is packed into one int of ``c``
    fields ``width`` bits wide, and each output row is one field-wise max
    (min when ``dual``) over them, unpacked on its own.
    """
    k = 3 * m + 1
    size, gbit = width // 8, width - 1
    ones = int.from_bytes(b"\x01".ljust(size, b"\0") * c, "little")
    guard = ones << gbit
    # A field holds a sum of codes shifted by 2 * off = 6K: R's codes carry
    # both shifts, so a term adds L's code unshifted.
    zero = 6 * k
    packed = _pack_rows(right, c, size, zero)
    # A term whose L code is this sentinel is eps (top for (.)) in every
    # column, which the accumulator starts with.
    skip, init = (3 * k, 2 * zero * ones) if dual else (-3 * k, 0)
    bound, low = zero + 2 * m, zero - 2 * m
    out = []
    for u in left:
        acc = init
        for uk, p in zip(u, packed):
            if uk != skip:
                y = p + uk * ones
                # Guard bit set where acc >= y, then acc - y in those fields.
                d = (acc | guard) - y
                g = d & guard
                d &= g - (g >> gbit)
                acc = acc - d if dual else y + d
        out += [TOP if f > bound else EPS if f < low else f - zero
                for f in _unpack_rows([acc], c, size)]
    return out


def _fold(sr, left, right, term, dual: bool) -> Matrix:
    """Entry (i, j) is the join (meet when ``dual``) over k of term(left[i][k],
    right[j][k]), for the series dual product and dual residual; a residual
    entry is one ``lres_meet``, which finds its eps term first.  A fold stops
    at the join's absorbing element, top (eps for the meet): the terms left
    would not change it.
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
    # Series: each entry is one sum of products, one sweep.
    rows, cols, sums = _rows(a.entries, a.cols), _cols(x.entries, x.cols), sr.otimes_sum
    return Matrix(sr, a.rows, x.cols, tuple(sums(zip(u, w)) for u in rows for w in cols))


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
    return _fold(sr, _rows(a.entries, a.cols), _cols(x.entries, x.cols), sr.odot, True)


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
    cols_a, cols_b, meet = _cols(a.entries, a.cols), _cols(b.entries, b.cols), sr.lres_meet
    return Matrix(sr, a.cols, b.cols, tuple(meet(zip(u, w)) for u in cols_a for w in cols_b))


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
    rows_c, rows_a, meet = _rows(c.entries, c.cols), _rows(a.entries, a.cols), sr.lres_meet
    return Matrix(sr, c.rows, a.rows, tuple(meet(zip(w, u)) for u in rows_c for w in rows_a))


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
    return _fold(sr, _cols(a.entries, a.cols), _cols(x.entries, x.cols), sr.dualres, False)


def _require_square(a: Matrix, what: str) -> None:
    if a.rows != a.cols:
        raise ShapeError(f"{what}: requires a square matrix, got {a.rows}x{a.cols}")


def _gauss_jordan(ops, a: Matrix) -> tuple[Matrix, list[int]]:
    """E (+) A (+) A^2 (+) ... over the operation table ``ops`` by Gauss-Jordan
    elimination.

    Per pivot k, ik = m_ik (x) m_kk* joins ik (x) m_kj into m_ij for j != k
    and sets m_ik = ik: a (+) a s* s = a s*, as every table's star, the
    dual one too, has s* = e (+) s s*.  Also returns the 0-based pivots whose
    star saturated, each on a circuit that improves without bound.
    """
    n = a.rows
    eps, oplus, otimes, star = ops.eps, ops.oplus, ops.otimes, ops.star
    m = a.to_rows()
    saturated = []
    for k in range(n):
        skk = star(m[k][k])
        if skk == ops.top and m[k][k] != ops.top:
            saturated.append(k)
        row_k = m[k]
        others = [j for j in range(n) if j != k]
        for row_i in m:
            ik = otimes(row_i[k], skk)
            if ik == eps:
                continue
            for j in others:
                row_i[j] = oplus(row_i[j], otimes(ik, row_k[j]))
            row_i[k] = ik
    for i in range(n):
        m[i][i] = oplus(m[i][i], ops.one)
    return Matrix(a.semiring, n, n, tuple(chain.from_iterable(m))), saturated


def _zmax_closure(a: Matrix, dual: bool) -> tuple[Matrix, list[int]]:
    """``_gauss_jordan(ZMAX, a)`` on integer codes, or with ``dual`` the same
    over the order dual, read as the star of conj(A) and conjugated back.

    Returns the same closure and saturated pivots; see the module docstring
    for the encoding and for the choice between list and packed rows.
    """
    n = a.rows
    fin = [v for v in a.entries if v is not EPS and v is not TOP]
    bound = n * max(map(abs, fin)) if fin else 0
    t = (n + 1) * bound + 1
    low = -bound
    # Chosen before encoding: a field holds any code plus t + bound, up to
    # 2t + (n+2)*bound, and a guard bit.
    size = 0
    if fin and n >= _PACK_MIN_ORDER:
        bits = (2 * t + (n + 2) * bound).bit_length() + 1
        size = next((s for s in _ITEM_CODES if 8 * s >= bits), 0)
    codes = _encode(a.entries, t, -t, dual)
    if size:
        flat, saturated = _packed_elimination(codes, n, t, bound, size)
    else:
        # Rows are never written in place, only replaced, so they may be
        # tuples and every all-top row may be one shared tuple; such a row
        # never changes again and is skipped.
        m = _rows(codes, n)
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
                    # Through a top entry or a positive circuit: every column
                    # that row k reaches is top.
                    m[i] = all_top if min(rk) >= low else [t if v >= low else x for x, v in zip(ri, rk)]
                else:
                    m[i] = [x if x >= (y := ik + v) else y for x, v in zip(ri, rk)]
        flat = list(chain.from_iterable(m))
    for i in range(0, n * n, n + 1):
        if flat[i] < 0:
            flat[i] = 0
    # The meet closure's codes are those of the star of conj(A): negated,
    # they decode as the plain ones do.
    if dual:
        flat = map(neg, flat)
    out = tuple(TOP if c > bound else EPS if c < low else c for c in flat)
    return Matrix(ZMAX, n, n, out), saturated


def _packed_elimination(codes: list, n: int, t: int, bound: int,
                        size: int) -> tuple[list, list[int]]:
    """The pivot loop of ``_zmax_closure`` with each row packed into one int
    of ``n`` fields ``size`` bytes wide, every code shifted by off = t + bound:
    a row update is a few integer operations on whole rows.  Returns the
    codes, row-major, and the saturated pivots."""
    w = 8 * size
    gbit, mask = w - 1, (1 << w) - 1
    off = t + bound
    ones = int.from_bytes(b"\x01".ljust(size, b"\0") * n, "little")
    guard = ones << gbit
    full = ones * mask
    # The fields of codes -bound (where eps ends) and bound (where top starts).
    low, high = t, t + 2 * bound
    low_ones = low * ones
    top = t + off
    all_top = top * ones
    m = _pack_rows(codes, n, size, off)
    saturated = []
    for k in range(n):
        rk = m[k]
        sh = k * w
        d = (rk >> sh & mask) - off
        if 0 < d <= bound:
            saturated.append(k)
        keep = None
        for i, ri in enumerate(m):
            if ri is all_top:
                continue
            f = ri >> sh & mask
            if f < low or (i == k and d <= 0):
                continue
            if d > 0 or f > high:
                if keep is None:
                    # Guard bits of the columns row k reaches (code >= -bound):
                    # those fields are cleared and set to top, the others kept.
                    reach = ((rk | guard) - low_ones) & guard
                    spans = reach == guard
                    units = reach >> gbit
                    keep = full ^ (reach - units)
                    fill = units * top
                m[i] = all_top if spans else (ri & keep) | fill
            else:
                # The field-wise max of row i and row k shifted by ik, as in
                # ``_packed_product``.
                y = rk + (f - off) * ones
                x = (ri | guard) - y
                g = x & guard
                m[i] = y + (x & (g - (g >> gbit)))
    return [f - off for f in _unpack_rows(m, n, size)], saturated


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


def _closure(a: Matrix, dual: bool) -> tuple[Matrix, list[int]]:
    """The star of a square matrix, or with ``dual`` its meet closure, and
    the 0-based pivots where it saturated.

    Interval matrices are closed bound by bound, which is exact because the
    lattice operations, the products and the scalar stars all act boundwise.
    """
    sr = a.semiring
    if sr.kind == "interval":
        (lo, s_lo), (hi, s_hi) = (_closure(m, dual) for m in interval_bounds(a))
        return interval_join(sr, lo, hi), sorted({*s_lo, *s_hi})
    if sr is ZMAX:
        return _zmax_closure(a, dual)
    if not dual:
        return _gauss_jordan(sr, a)
    for idx, entry in enumerate(a.entries):
        if not sr.odot_left_ok(entry):
            raise SeriesDomainError(
                f"wedge_closure: entry ({idx // a.cols + 1},{idx % a.cols + 1}) "
                "is not eps, top or a monomial with a finite coefficient"
            )
    return _gauss_jordan(_OrderDual(sr), a)


def kleene_star(a: Matrix) -> Matrix:
    """A* = E (+) A (+) A^2 (+) ...

    Over max-plus scalars a circuit of positive weight saturates the entries
    it reaches to top.
    """
    _require_square(a, "kleene_star")
    return _closure(a, False)[0]


def wedge_closure(b: Matrix) -> Matrix:
    """B_* = E° (^) B (^) B°2 (^) ...: the Kleene star over the order dual.

    A strictly decreasing dual circuit drives the entries it reaches to eps;
    when one is found a ``DivergenceWarning`` names its pivots, those of
    either bound for an interval matrix.
    """
    _require_square(b, "wedge_closure")
    out, saturated = _closure(b, True)
    if saturated:
        _warn_divergence(saturated)
    return out


def _warn_divergence(pivots: list[int]) -> None:
    """The ``DivergenceWarning`` of meet closures that saturated at the
    0-based ``pivots``, attributed to the caller of the closing function."""
    warnings.warn(
        f"wedge_closure: strictly decreasing dual circuits close at pivot(s) "
        f"{', '.join(str(k + 1) for k in pivots)}; the entries they reach are eps",
        DivergenceWarning,
        stacklevel=3,
    )


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
    if not all(map(semiring.base.leq, lo.entries, hi.entries)):
        for pair in zip(lo.entries, hi.entries):
            semiring.make(*pair)  # raises at the first unordered pair
    interval = type(semiring.one)  # Interval, whose module this one does not import
    return Matrix(semiring, lo.rows, lo.cols, tuple(map(interval, lo.entries, hi.entries)))


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

