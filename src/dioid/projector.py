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
maximal under the condition.  Over interval lifts ``project`` runs
``interval_project``, the paper's two-bound formula on bound matrices.
"""

from __future__ import annotations

from .errors import HypothesisError, ShapeError
from .matrices import (
    Matrix,
    _closure,
    _warn_divergence,
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


def _validate(a: Matrix, b: Matrix, x0: Matrix) -> None:
    """Check the shapes, then the associativity condition on B: a refusal
    names the first entry of B, in row order and counted from 1, that fails
    it, and over intervals the bound that fails there."""
    if a.rows != a.cols or b.rows != b.cols:
        raise ShapeError("projector: A and B must be square")
    if a.rows != b.rows:
        raise ShapeError(f"projector: A is {a.rows}x{a.cols} but B is {b.rows}x{b.cols}")
    if x0.rows != a.rows:
        raise ShapeError(f"projector: X0 has {x0.rows} rows, expected {a.rows}")
    if a.semiring is not b.semiring or a.semiring is not x0.semiring:
        raise ShapeError("projector: A, B, X0 must share one element type")
    if check_hypothesis(b):
        return
    sr = b.semiring
    k = next(k for k, e in enumerate(b.entries) if not sr.odot_left_ok(e))
    e = b.entries[k]
    of = "B"
    if sr.kind == "interval":
        of = f"the {'upper' if sr.base.odot_left_ok(e.lo) else 'lower'} bound of B"
    raise HypothesisError(
        f"projector: the associativity condition fails for {of} at entry "
        f"({k // b.cols + 1},{k % b.cols + 1}) = {sr.format(e)} "
        "(over series all entries must be eps, top or finite monomials)"
    )


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

    Works over every supported element type, through ``interval_project``
    over the interval lifts.  Raises ``HypothesisError``, naming the first
    refused entry of B, when the soundness condition on B fails.
    """
    if a.semiring.kind == "interval":
        return interval_project(a, b, x0)
    _validate(a, b, x0)
    return left_residual(projector_matrix(a, b), x0)


def interval_project(a: Matrix, b: Matrix, x0: Matrix) -> Matrix:
    """``project`` over an interval type: with G = B_lo_* %% A_lo* and
    H = G (+) (B_hi_* %% A_hi*),

        upper = H* \\ X0_hi
        lower = (G* \\ X0_lo) ^ upper

    the residual of ``projector_matrix`` that the interval kernels compute,
    with the operands split and the result joined once.  Both bounds of B
    are closed under one ``DivergenceWarning``.
    """
    _validate(a, b, x0)
    (a_lo, a_hi), (b_lo, b_hi), (x_lo, x_hi) = map(interval_bounds, (a, b, x0))
    (closed_lo, s_lo), (closed_hi, s_hi) = _closure(b_lo, True), _closure(b_hi, True)
    if s_lo or s_hi:
        _warn_divergence(sorted({*s_lo, *s_hi}))
    g = dual_residual(closed_lo, kleene_star(a_lo))
    h = mat_oplus(g, dual_residual(closed_hi, kleene_star(a_hi)))
    upper = left_residual(kleene_star(h), x_hi)
    lower = mat_wedge(left_residual(kleene_star(g), x_lo), upper)
    return interval_join(a.semiring, lower, upper)
