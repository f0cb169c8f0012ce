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

from .errors import HypothesisError, ShapeError
from .matrices import (
    Matrix,
    dual_residual,
    kleene_star,
    left_residual,
    mat_leq,
    mat_odot,
    mat_otimes,
    wedge_closure,
)


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

    Works over every supported element type.  Over interval lifts every
    kernel runs bound by bound with the residuals' order corrections, which
    yields the two-bound formula that ``oracle.interval_project`` spells out.
    Raises ``HypothesisError`` when the soundness condition on B fails.
    """
    _validate_shapes(a, b, x0)
    if not check_hypothesis(b):
        raise HypothesisError(
            "projector: the associativity condition fails for B "
            "(over series all entries must be eps, top or finite monomials)"
        )
    return left_residual(projector_matrix(a, b), x0)

