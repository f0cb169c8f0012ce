"""Independent verifiers: brute force over max-plus matrices, and the
two-bound interval projector.

The brute-force functions never call the residuation or closure routines
they are meant to check: they enumerate a finite scalar grid or accumulate
explicit matrix powers.  They back the test suite and the CLI ``verify``
command, and are restricted to max-plus scalars, where a bounded grid is
exhaustive enough to certify extremality.

``interval_project`` cross-checks ``project`` over interval matrices.  It
reuses the base-type kernels on explicit bound matrices and writes the
order corrections out by hand, where ``project`` gets them from the interval
matrix kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import zmax
from .errors import HypothesisError, ShapeError, _check_work
from .matrices import (
    Matrix,
    dual_residual,
    identity,
    interval_bounds,
    interval_join,
    kleene_star,
    left_residual,
    mat_oplus,
    mat_otimes,
    mat_wedge,
    wedge_closure,
)
from .projector import _refused_entry, check_hypothesis
from .zmax import EPS, TOP, Scalar, ZMAX


@dataclass(frozen=True)
class Grid:
    """Finite scalar grid: eps, the integers of [lo, hi], and top."""

    lo: int = -20
    hi: int = 20

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"grid bounds out of order: [{self.lo}, {self.hi}]")

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
    grid by construction.
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


def interval_project(a: Matrix, b: Matrix, x0: Matrix) -> Matrix:
    """Interval projector via the explicit two-bound formula.

    With G = B_lo* %% A_lo* and H = G (+) (B_hi* %% A_hi*):

        upper = H* \\ X0_hi
        lower = (G* \\ X0_lo) ^ upper

    This agrees with running ``project`` on the interval matrices.  A
    refused B raises ``HypothesisError`` naming its first refused entry and
    the bound that fails there.
    """
    a_lo, a_hi = interval_bounds(a)
    b_lo, b_hi = interval_bounds(b)
    x_lo, x_hi = interval_bounds(x0)
    if not check_hypothesis(b):
        where, e = _refused_entry(b)
        bound = "upper" if b_lo.semiring.odot_left_ok(e.lo) else "lower"
        raise HypothesisError(
            f"projector: the associativity condition fails for the {bound} bound of B "
            f"at {where}"
        )
    g_lo = dual_residual(wedge_closure(b_lo), kleene_star(a_lo))
    g_hi = dual_residual(wedge_closure(b_hi), kleene_star(a_hi))
    upper = left_residual(kleene_star(mat_oplus(g_lo, g_hi)), x_hi)
    lower = mat_wedge(left_residual(kleene_star(g_lo), x_lo), upper)
    return interval_join(a.semiring, lower, upper)
