"""The public API of the package, pinned so that every change to it is deliberate."""

from __future__ import annotations

import pytest

import dioid
from conftest import run_python

PUBLIC = [
    "DioidError", "DivergenceError", "DivergenceWarning", "EPS", "GAMMA", "Grid",
    "HypothesisError", "IGAMMA", "IZMAX", "Interval", "IntervalOrderError",
    "IntervalSemiring", "Matrix", "Monomial", "ParseError", "SEMIRINGS", "S_EPS",
    "S_ONE", "S_TOP", "Scalar", "Series", "SeriesDomainError", "ShapeError", "TOP",
    "ZMAX", "check_hypothesis", "dual_residual", "errors", "filled", "format_matrix",
    "from_monomials", "from_rows",
    "greatest_subsolution", "identity", "interval_bounds", "interval_join",
    "interval_project", "intervals", "kleene_star", "left_residual", "make_series",
    "mat_leq", "mat_odot", "mat_oplus", "mat_otimes", "mat_wedge", "matrices",
    "membership", "mono_dualres", "mono_odot", "oracle",
    "parse_matrix", "parse_series", "pattern_series", "project", "projector",
    "projector_by_enumeration", "projector_matrix", "right_residual", "s_leq",
    "s_lres", "s_oplus", "s_otimes", "s_star", "s_wedge", "series",
    "sigma_inf", "smallest_supersolution", "star_by_powers", "textio",
    "wedge_closure", "zmax",
]


def test_public_names_are_pinned():
    assert sorted(dioid.__all__) == PUBLIC


def test_interval_project_lives_in_the_projector():
    assert dioid.interval_project is dioid.projector.interval_project
    assert dioid.interval_project.__module__ == "dioid.projector"
    assert dioid.interval_project is not dioid.project
    assert not hasattr(dioid.oracle, "interval_project")


def test_every_public_name_resolves():
    for name in dioid.__all__:
        assert getattr(dioid, name) is not None
    assert dioid.Grid is dioid.oracle.Grid and dioid.project is dioid.projector.project
    assert set(dioid.__all__) <= set(dir(dioid))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from dioid import *", namespace)
    assert sorted(n for n in namespace if n != "__builtins__") == PUBLIC


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        getattr(dioid, "no_such_name")
    assert not hasattr(dioid, "Fraction") and not hasattr(dioid, "_no_such_name")


def test_oracle_and_projector_load_on_first_use():
    run = run_python(
        "-c",
        "import sys, dioid\n"
        "print('dioid.oracle' in sys.modules, 'dioid.projector' in sys.modules)\n"
        "assert {'Grid', 'project', 'oracle', 'projector'} <= set(dir(dioid))\n"
        "grid = dioid.Grid(-1, 1)\n"
        "print('dioid.oracle' in sys.modules, dioid.Grid is sys.modules['dioid.oracle'].Grid)\n"
        "print(dioid.project is sys.modules['dioid.projector'].project)\n"
    )
    assert run.stdout.split() == ["False", "False", "True", "True", "True"], run.stderr
