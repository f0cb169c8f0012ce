"""The public API of the package, pinned so that every change to it is deliberate."""

from __future__ import annotations

import dioid

PUBLIC = [
    "DioidError", "DivergenceError", "DivergenceWarning", "EPS", "GAMMA", "Grid",
    "HypothesisError", "IGAMMA", "IZMAX", "Interval", "IntervalOrderError",
    "IntervalSemiring", "Matrix", "Monomial", "ParseError", "SEMIRINGS", "S_EPS",
    "S_ONE", "S_TOP", "Scalar", "Series", "SeriesDomainError", "ShapeError", "TOP",
    "ZMAX", "check_hypothesis", "dual_identity", "dual_power", "dual_residual",
    "eps_matrix", "errors", "filled", "format_matrix", "from_monomials", "from_rows",
    "greatest_subsolution", "identity", "interval_bounds", "interval_join",
    "interval_project", "intervals", "kleene_star", "left_residual", "make_series",
    "mat_leq", "mat_odot", "mat_oplus", "mat_otimes", "mat_wedge", "matrices",
    "membership", "mono_dualres", "mono_odot", "negate_transpose", "oracle",
    "parse_matrix", "parse_series", "pattern_series", "project", "projector",
    "projector_by_enumeration", "projector_matrix", "right_residual", "s_leq",
    "s_lres", "s_oplus", "s_otimes", "s_star", "s_wedge", "series",
    "sigma_inf", "smallest_supersolution", "star_by_powers", "textio",
    "top_matrix", "wedge_closure", "zmax",
]


def test_public_names_are_pinned():
    assert sorted(dioid.__all__) == PUBLIC


def test_interval_cross_check_lives_in_the_oracle():
    assert dioid.interval_project.__module__ == "dioid.oracle"
