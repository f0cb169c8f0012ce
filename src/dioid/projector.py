"""Projector onto the solutions of  A (x) X <= X <= B (.) X.

``project`` maps X0 to the greatest Y below X0 that satisfies both
inequalities.  It is sound whenever the scalar associativity condition

    b %% (a (x) x)  =  (b %% a) (x) x

holds for every entry b of the meet-closure of B: this is automatic over
max-plus scalars and holds over gamma-series exactly when the entries of B
are eps, top or monomials with a finite coefficient: the dual product by a
proper multi-step series is not even well defined, and a top coefficient
absorbs like top.  ``check_hypothesis`` decides that condition; ``project``
refuses to run without it, since the computed point is only guaranteed
maximal under the condition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import HypothesisError, ShapeError
from .matrices import (
    Matrix,
    dual_residual,
    interval_bounds,
    interval_join,
    kleene_star,
    left_residual,
    mat_leq,
    mat_odot,
    mat_oplus,
    mat_otimes,
    mat_wedge,
    wedge_closure,
)


@dataclass(frozen=True)
class ProjectorProblem:
    """A constraint pair (A, B) with a reference point X0, all one element type."""

    a: Matrix
    b: Matrix
    x0: Matrix

    def __post_init__(self) -> None:
        _validate_shapes(self.a, self.b, self.x0)

    def solve(self) -> Matrix:
        return project(self.a, self.b, self.x0)


def _validate_shapes(a: Matrix, b: Matrix, x0: Matrix) -> None:
    if a.rows != a.cols or b.rows != b.cols:
        raise ShapeError("projector: A and B must be square")
    if a.rows != b.rows:
        raise ShapeError(f"projector: A is {a.rows}x{a.cols} but B is {b.rows}x{b.cols}")
    if x0.rows != a.rows:
        raise ShapeError(f"projector: X0 has {x0.rows} rows, expected {a.rows}")
    if a.semiring is not b.semiring or a.semiring is not x0.semiring:
        raise ShapeError("projector: A, B, X0 must share one element type")


def check_hypothesis(b: Matrix) -> bool:
    """Decide the scalar associativity condition for the entries of B.

    The condition is structural: every entry must be a left operand the dual
    product accepts.  That always holds over max-plus scalars, holds over
    gamma-series iff every entry is eps, top or a monomial with a finite
    coefficient, and is checked on both bounds over intervals.
    """
    return all(map(b.semiring.odot_left_ok, b.entries))


def membership(a: Matrix, b: Matrix, x: Matrix) -> bool:
    """True iff A (x) X <= X and X <= B (.) X."""
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows or x.rows != a.rows:
        raise ShapeError("membership: inconsistent shapes")
    return mat_leq(mat_otimes(a, x), x) and mat_leq(x, mat_odot(b, x))


def projector_matrix(a: Matrix, b: Matrix) -> Matrix:
    """The closed constraint matrix (B_* %% A*)* whose residual is the projector."""
    g = dual_residual(wedge_closure(b), kleene_star(a))
    return kleene_star(g)


def project(a: Matrix, b: Matrix, x0: Matrix) -> Matrix:
    """Greatest Y <= X0 with A (x) Y <= Y <= B (.) Y.

    Works over every supported element type, including interval lifts
    (where the boundwise residual corrections are built into the interval
    operations).  Raises ``HypothesisError`` when the soundness condition
    on B fails.
    """
    _validate_shapes(a, b, x0)
    if not check_hypothesis(b):
        raise HypothesisError(
            "projector: the associativity condition fails for B "
            "(over series all entries must be eps, top or finite monomials)"
        )
    return left_residual(projector_matrix(a, b), x0)


def interval_project(a: Matrix, b: Matrix, x0: Matrix) -> Matrix:
    """Interval projector via the explicit two-bound formula.

    With G = B_lo* %% A_lo* and H = G (+) (B_hi* %% A_hi*):

        upper = H* \\ X0_hi
        lower = (G* \\ X0_lo) ^ upper

    This agrees with running ``project`` directly over interval elements.
    """
    _validate_shapes(a, b, x0)
    sr = a.semiring
    if sr.kind != "interval":
        raise ShapeError("interval_project: operands must be interval matrices")
    if not check_hypothesis(b):
        raise HypothesisError(
            "projector: the associativity condition fails for a bound of B"
        )
    a_lo, a_hi = interval_bounds(a)
    b_lo, b_hi = interval_bounds(b)
    x_lo, x_hi = interval_bounds(x0)
    g_lo = dual_residual(wedge_closure(b_lo), kleene_star(a_lo))
    g_hi = dual_residual(wedge_closure(b_hi), kleene_star(a_hi))
    upper_star = kleene_star(mat_oplus(g_lo, g_hi))
    lower_star = kleene_star(g_lo)
    upper = left_residual(upper_star, x_hi)
    lower = mat_wedge(left_residual(lower_star, x_lo), upper)
    return interval_join(sr, lower, upper)
