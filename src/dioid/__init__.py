"""Exact linear algebra over idempotent semirings.

Element types: max-plus scalars (``ZMAX``), non-decreasing gamma-series
(``GAMMA``) and the interval lifts of both (``IZMAX``, ``IGAMMA``).  On top
of them: dense matrices with both products, both residuations, the Kleene
star, the meet closure, and the projector onto the solutions of
A (x) X <= X <= B (.) X.

``oracle`` and ``projector`` load on first use of one of their names (PEP
562), so a launch that computes a product compiles neither.  The others
load with the package: ``textio.SEMIRINGS`` holds all four semiring tables,
and the benchmark's tracer (``bench/tracing.py``) wraps the tables of
``series`` and ``intervals`` right after importing the package.
"""

# Module -> the public names the package takes from it.
_EXPORTS = {
    "errors": "DioidError DivergenceError DivergenceWarning HypothesisError IntervalOrderError "
              "ParseError SeriesDomainError ShapeError",
    "intervals": "IGAMMA IZMAX Interval IntervalSemiring",
    "matrices": "Matrix dual_residual filled from_rows identity "
                "interval_bounds interval_join kleene_star left_residual mat_leq mat_odot "
                "mat_oplus mat_otimes mat_wedge right_residual wedge_closure",
    "oracle": "Grid greatest_subsolution projector_by_enumeration smallest_supersolution "
              "star_by_powers",
    "projector": "check_hypothesis interval_project membership project projector_matrix",
    "series": "GAMMA Monomial S_EPS S_ONE S_TOP Series from_monomials make_series mono_dualres "
              "mono_odot parse_series pattern_series s_leq s_lres s_oplus s_otimes s_star "
              "s_wedge sigma_inf",
    "textio": "SEMIRINGS format_matrix parse_matrix",
    "zmax": "EPS TOP ZMAX Scalar",
}
_LAZY = ("oracle", "projector")
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_EXPORTS, *_MODULE_OF]


def _load(module: str) -> None:
    """Import ``module`` and bind all of its names in the package at once."""
    # __import__ rather than importlib.import_module, which -X importtime
    # does not report; a non-empty fromlist returns the submodule itself.
    mod = __import__(f"{__name__}.{module}", fromlist=[module])
    globals().update((name, getattr(mod, name)) for name in _EXPORTS[module].split())


for _module in _EXPORTS:
    if _module not in _LAZY:
        _load(_module)


def __getattr__(name: str):
    module = _MODULE_OF.get(name, name)
    if module not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(module)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
