"""Exact linear algebra over idempotent semirings.

Element types: max-plus scalars (``ZMAX``), non-decreasing gamma-series
(``GAMMA``) and the interval lifts of both (``IZMAX``, ``IGAMMA``).  On top
of them: dense matrices with both products, both residuations, the Kleene
star, the meet closure, and the projector onto the solutions of
A (x) X <= X <= B (.) X.
"""

from .errors import (
    DioidError,
    DivergenceError,
    DivergenceWarning,
    HypothesisError,
    IntervalOrderError,
    ParseError,
    SeriesDomainError,
    ShapeError,
)
from .intervals import IGAMMA, IZMAX, Interval, IntervalSemiring
from .matrices import (
    Matrix,
    dual_identity,
    dual_power,
    dual_residual,
    eps_matrix,
    filled,
    from_rows,
    identity,
    interval_bounds,
    interval_join,
    kleene_star,
    left_residual,
    mat_leq,
    mat_odot,
    mat_oplus,
    mat_otimes,
    mat_wedge,
    negate_transpose,
    right_residual,
    top_matrix,
    wedge_closure,
)
from .oracle import (
    Grid,
    greatest_subsolution,
    interval_project,
    projector_by_enumeration,
    smallest_supersolution,
    star_by_powers,
)
from .projector import check_hypothesis, membership, project, projector_matrix
from .series import (
    GAMMA,
    Monomial,
    S_EPS,
    S_ONE,
    S_TOP,
    Series,
    from_monomials,
    make_series,
    mono_dualres,
    mono_odot,
    parse_series,
    pattern_series,
    s_leq,
    s_lres,
    s_oplus,
    s_otimes,
    s_star,
    s_wedge,
    sigma_inf,
)
from .textio import SEMIRINGS, format_matrix, parse_matrix
from .zmax import EPS, TOP, ZMAX, Scalar

__all__ = [name for name in dir() if not name.startswith("_")]
