"""Independent brute-force verifiers over max-plus matrices.

These functions never call the residuation or closure routines they are
meant to check: they enumerate a finite scalar grid or accumulate explicit
matrix powers.  They back the test suite and the CLI ``verify`` command,
and are restricted to max-plus scalars, where a bounded grid is exhaustive
enough to certify extremality.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import zmax
from .errors import ShapeError
from .matrices import Matrix, identity, mat_oplus, mat_otimes
from .zmax import EPS, TOP, Scalar, ZMAX


@dataclass(frozen=True)
class Grid:
    """Finite scalar grid: eps, the integers of [lo, hi], and top."""

    lo: int = -20
    hi: int = 20
    include_eps: bool = True
    include_top: bool = True

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"grid bounds out of order: [{self.lo}, {self.hi}]")

    def values(self) -> tuple[Scalar, ...]:
        out: list[Scalar] = [EPS] if self.include_eps else []
        out.extend(range(self.lo, self.hi + 1))
        if self.include_top:
            out.append(TOP)
        return tuple(out)

    def clamp_down(self, v: Scalar) -> Scalar:
        """Greatest grid element below or equal to v."""
        if v is TOP:
            return TOP if self.include_top else self.hi
        if v is EPS or (self.include_eps and v < self.lo):
            return EPS
        if v < self.lo:
            raise ValueError(f"{v} below a grid without eps")
        return min(v, self.hi)

    def clamp_up(self, v: Scalar) -> Scalar:
        """Smallest grid element above or equal to v."""
        if v is EPS:
            return EPS if self.include_eps else self.lo
        if v is TOP or (self.include_top and v > self.hi):
            return TOP
        if v > self.hi:
            raise ValueError(f"{v} above a grid without top")
        return max(v, self.lo)


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


def feasible(a: Matrix, b: Matrix, y: Matrix) -> bool:
    """Direct check of A (x) Y <= Y <= B (.) Y from the definitions."""
    arows = a.to_rows()
    brows = b.to_rows()
    return all(
        _feasible_col(arows, brows, tuple(y.at(i, j) for i in range(y.rows)))
        for j in range(y.cols)
    )


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
    grid by construction.
    """
    _require_zmax(a, "projector_by_enumeration")
    _require_zmax(b, "projector_by_enumeration")
    _require_zmax(x0, "projector_by_enumeration")
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows or x0.rows != a.rows:
        raise ShapeError("projector_by_enumeration: inconsistent shapes")
    n = a.rows
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
