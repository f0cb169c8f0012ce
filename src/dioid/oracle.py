"""Independent brute-force verifiers over max-plus matrices.

They never call the residuation or closure routines they are meant to
check: they enumerate a finite scalar grid or accumulate explicit matrix
powers.  They back the test suite and the CLI ``verify`` command, and are
restricted to max-plus scalars.  A bounded grid certifies the residuals'
extremality only up to clamping to the grid, and the projector's only when
the projection lies on the grid.  Each one checks its estimated work against
the cap before it starts.
"""

from __future__ import annotations

from itertools import product

from . import zmax
from .errors import ShapeError, _check_work
from .matrices import Matrix, identity, mat_oplus, mat_otimes
from .zmax import EPS, TOP, Frozen, Scalar, ZMAX


class Grid(Frozen):
    """Finite scalar grid: eps, the integers of [lo, hi], and top."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int = -20, hi: int = 20) -> None:
        if lo > hi:
            raise ValueError(f"grid bounds out of order: [{lo}, {hi}]")
        _set_lo(self, lo)
        _set_hi(self, hi)

    def __eq__(self, other):
        return (self.lo == other.lo and self.hi == other.hi
                if other.__class__ is Grid else NotImplemented)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def size(self) -> int:
        """The number of grid elements, eps and top included."""
        return self.hi - self.lo + 3

    def values(self) -> tuple[Scalar, ...]:
        return (EPS, *range(self.lo, self.hi + 1), TOP)

    def clamp_down(self, v: Scalar) -> Scalar:
        """Greatest grid element below or equal to v."""
        if v is TOP:
            return TOP
        if v is EPS or v < self.lo:
            return EPS
        return min(v, self.hi)

    def clamp_up(self, v: Scalar) -> Scalar:
        """Smallest grid element above or equal to v."""
        if v is EPS:
            return EPS
        if v is TOP or v > self.hi:
            return TOP
        return max(v, self.lo)


_set_lo, _set_hi = Grid.lo.__set__, Grid.hi.__set__


def _require_zmax(m: Matrix, what: str) -> None:
    if m.semiring is not ZMAX:
        raise ShapeError(f"{what}: the grid oracles cover max-plus matrices only")


def greatest_subsolution(a: Matrix, b: Matrix, grid: Grid) -> Matrix:
    """Entrywise-maximal grid X with A (x) X <= B.

    The constraint decouples per entry of X, so a descending scan of the
    grid per entry realises the coordinatewise maximum; the solution set is
    closed under (+) which makes the entrywise maximum a solution.
    """
    _require_zmax(a, "greatest_subsolution")
    _require_zmax(b, "greatest_subsolution")
    if a.rows != b.rows:
        raise ShapeError("greatest_subsolution: row counts differ")
    _check_work("greatest_subsolution", grid.size() * a.cols * b.cols * a.rows)
    candidates = tuple(reversed(grid.values()))
    out = []
    for k in range(a.cols):
        for j in range(b.cols):
            best = EPS
            for v in candidates:
                if all(
                    zmax.leq(zmax.otimes(a.at(i, k), v), b.at(i, j)) for i in range(a.rows)
                ):
                    best = v
                    break
            out.append(best)
    return Matrix(ZMAX, a.cols, b.cols, tuple(out))


def smallest_supersolution(a: Matrix, b: Matrix, grid: Grid) -> Matrix:
    """Entrywise-minimal grid X with A (.) X >= B (dual of the above)."""
    _require_zmax(a, "smallest_supersolution")
    _require_zmax(b, "smallest_supersolution")
    if a.rows != b.rows:
        raise ShapeError("smallest_supersolution: row counts differ")
    _check_work("smallest_supersolution", grid.size() * a.cols * b.cols * a.rows)
    candidates = grid.values()
    out = []
    for k in range(a.cols):
        for j in range(b.cols):
            best = TOP
            for v in candidates:
                if all(
                    zmax.leq(b.at(i, j), zmax.odot(a.at(i, k), v)) for i in range(a.rows)
                ):
                    best = v
                    break
            out.append(best)
    return Matrix(ZMAX, a.cols, b.cols, tuple(out))


def star_by_powers(a: Matrix) -> Matrix:
    """E (+) A (+) A^2 (+) ... from explicit powers and circuit detection.

    The sum up to A^(n-1) holds every simple path.  A node is hot when it
    lies on a circuit of positive (or top) weight, which shows as a diagonal
    entry above the unit in one of A^1 .. A^n; an entry is top exactly when
    some walk between its ends passes through a hot node, and otherwise the
    best walk is a simple path.
    """
    _require_zmax(a, "star_by_powers")
    if a.rows != a.cols:
        raise ShapeError("star_by_powers: requires a square matrix")
    n = a.rows
    # n products of n^2 entries each.
    _check_work("star_by_powers", n ** 3)
    total = identity(ZMAX, n)
    power = identity(ZMAX, n)
    hot = set()
    for k in range(1, n + 1):
        power = mat_otimes(power, a)
        hot.update(c for c in range(n) if zmax.lt(0, power.at(c, c)))
        if k < n:
            total = mat_oplus(total, power)
    entries = tuple(
        TOP
        if any(total.at(i, c) is not EPS and total.at(c, j) is not EPS for c in hot)
        else total.at(i, j)
        for i in range(n)
        for j in range(n)
    )
    return Matrix(ZMAX, n, n, entries)


def _feasible_col(arows: list, brows: list, ycol: tuple) -> bool:
    n = len(arows)
    for i in range(n):
        arow = arows[i]
        brow = brows[i]
        prod: Scalar = EPS
        dual: Scalar = TOP
        for k in range(n):
            prod = zmax.oplus(prod, zmax.otimes(arow[k], ycol[k]))
            dual = zmax.wedge(dual, zmax.odot(brow[k], ycol[k]))
        if not zmax.leq(prod, ycol[i]) or not zmax.leq(ycol[i], dual):
            return False
    return True


def projector_by_enumeration(a: Matrix, b: Matrix, x0: Matrix, grid: Grid) -> Matrix:
    """Join of every feasible grid point below X0.

    Enumerates grid columns exhaustively (tiny instances only); the join of
    feasible points is feasible, so this is the greatest solution on the
    grid by construction.  It equals the projection only when every finite
    entry of the projection lies in [lo, hi]: the solution set is neither a
    down-set nor an up-set, so a clamped projection may not be feasible.
    """
    _require_zmax(a, "projector_by_enumeration")
    _require_zmax(b, "projector_by_enumeration")
    _require_zmax(x0, "projector_by_enumeration")
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows or x0.rows != a.rows:
        raise ShapeError("projector_by_enumeration: inconsistent shapes")
    n = a.rows
    _check_work("projector_by_enumeration", x0.cols * grid.size() ** n * n * n)
    arows = a.to_rows()
    brows = b.to_rows()
    cols = []
    for j in range(x0.cols):
        x0col = tuple(x0.at(i, j) for i in range(n))
        candidates = [
            tuple(v for v in grid.values() if zmax.leq(v, x0col[i])) for i in range(n)
        ]
        best = [EPS] * n
        for combo in product(*candidates):
            if _feasible_col(arows, brows, combo):
                best = [zmax.oplus(u, v) for u, v in zip(best, combo)]
        cols.append(best)
    entries = tuple(cols[j][i] for i in range(n) for j in range(x0.cols))
    return Matrix(ZMAX, n, x0.cols, entries)
