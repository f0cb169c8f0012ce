"""Projector: hypothesis gate, membership, extremality, interval agreement."""

from __future__ import annotations

import random
import warnings

import pytest

from dioid import (
    GAMMA,
    IGAMMA,
    IZMAX,
    TOP,
    ZMAX,
    Interval,
    Monomial,
    check_hypothesis,
    from_monomials,
    from_rows,
    interval_bounds,
    interval_join,
    interval_project,
    kleene_star,
    left_residual,
    mat_leq,
    mat_odot,
    mat_otimes,
    membership,
    project,
    wedge_closure,
)
from dioid.errors import DivergenceWarning, HypothesisError, ShapeError
from dioid.matrices import Matrix
from dioid.series import parse_series

from conftest import (eps_matrix, kernel_project, rand_matrix, rand_positive_series, rand_series,
                      top_matrix)


def series_matrix(rows):
    return from_rows(GAMMA, [[parse_series(tok) for tok in r.split()] for r in rows])


def rand_problem(rng, n=2, m=1):
    a = rand_matrix(rng, n, n, lo=-2, hi=2, p_eps=0.3, p_top=0.0)
    b = rand_matrix(rng, n, n, lo=0, hi=3, p_eps=0.0, p_top=0.4)
    x0 = rand_matrix(rng, n, m, lo=-3, hi=3, p_eps=0.05, p_top=0.0)
    return a, b, x0


class TestHypothesis:
    def test_maxplus_always_holds(self):
        rng = random.Random(30)
        assert check_hypothesis(rand_matrix(rng, 3, 3))

    def test_monomial_series_matrix_holds(self):
        b = series_matrix(["top 15.g3", "3.g0 top"])
        assert check_hypothesis(b)

    def test_polynomial_entry_fails(self):
        b = series_matrix(["top 1.g0+3.g2", "3.g0 top"])
        assert not check_hypothesis(b)

    def test_top_coefficient_monomial_fails(self):
        # top.g3 (.) e is top, not top.g3: the dual identity is no unit for it
        b = series_matrix(["top top.g3", "3.g0 top"])
        assert not check_hypothesis(b)
        with pytest.raises(HypothesisError):
            project(eps_matrix(GAMMA, 2, 2), b, series_matrix(["5.g0", "4.g0"]))

    def test_dual_product_by_polynomial_is_representation_dependent(self):
        """The meet-of-shifts extension of the dual product depends on the
        chosen representation of the same element, so no sound operation
        exists for polynomial left operands: {2.g2, 3.g2} and {3.g2} describe
        the same series yet their meet-of-shifts maps differ."""
        probe = 7  # any finite sample point
        shifts_two_terms = min(2 + probe, 3 + probe)
        shifts_canonical = 3 + probe
        assert shifts_two_terms != shifts_canonical

    def test_interval_checks_both_bounds(self):
        good = interval_join(
            IZMAX,
            rand_matrix(random.Random(1), 2, 2, lo=-2, hi=0, p_top=0.0),
            rand_matrix(random.Random(1), 2, 2, lo=-2, hi=0, p_top=0.0),
        )
        assert check_hypothesis(good)


class TestMembership:
    def test_eps_always_solves(self):
        rng = random.Random(31)
        a, b, _ = rand_problem(rng)
        x = eps_matrix(ZMAX, 2, 1)
        assert membership(a, b, x)
        assert mat_otimes(kleene_star(a), x) == x
        assert mat_odot(wedge_closure(b), x) == x

    def test_direct_and_fixed_point_paths_agree(self):
        rng = random.Random(32)
        for _ in range(60):
            a, b, x0 = rand_problem(rng)
            via_star = mat_otimes(kleene_star(a), x0) == x0
            via_closure = mat_odot(wedge_closure(b), x0) == x0
            assert membership(a, b, x0) == (via_star and via_closure)

    def test_shape_mismatch(self):
        rng = random.Random(33)
        a, b, _ = rand_problem(rng)
        with pytest.raises(ShapeError):
            membership(a, b, eps_matrix(ZMAX, 3, 1))


class TestProjectMaxPlus:
    def test_result_is_feasible_dominated_idempotent(self):
        rng = random.Random(34)
        for _ in range(80):
            a, b, x0 = rand_problem(rng)
            p = project(a, b, x0)
            assert mat_leq(p, x0)
            assert membership(a, b, p)
            assert project(a, b, p) == p

    def test_fixed_point_characterisation(self):
        rng = random.Random(35)
        for _ in range(40):
            a, b, x0 = rand_problem(rng)
            p = project(a, b, x0)
            assert mat_otimes(kleene_star(a), p) == p
            bs = wedge_closure(b)
            assert mat_odot(bs, p) == p
            from dioid import dual_residual

            assert dual_residual(bs, p) == p

    def test_unconstrained_dual_side_reduces_to_residual(self):
        rng = random.Random(36)
        for _ in range(40):
            a = rand_matrix(rng, 2, 2, lo=-2, hi=2, p_top=0.0)
            x0 = rand_matrix(rng, 2, 1)
            b = top_matrix(ZMAX, 2, 2)
            assert wedge_closure(b) == from_rows(ZMAX, [[0, TOP], [TOP, 0]])
            assert project(a, b, x0) == left_residual(kleene_star(a), x0)

    def test_shape_mismatch(self):
        rng = random.Random(37)
        a, b, _ = rand_problem(rng)
        with pytest.raises(ShapeError):
            project(a, b, eps_matrix(ZMAX, 3, 1))


class TestProjectSeries:
    def test_refuses_polynomial_constraints(self):
        a = series_matrix(["eps 1.g1", "eps eps"])
        b = series_matrix(["top 1.g0+3.g2", "top top"])
        x0 = series_matrix(["5.g0", "5.g0"])
        with pytest.raises(HypothesisError):
            project(a, b, x0)

    def test_refusal_names_the_first_refused_entry(self):
        # Row-major order: (2,1) comes before (2,2), and the monomials and
        # top of row 1 pass.
        a = series_matrix(["eps 1.g1", "eps eps"])
        b = series_matrix(["top 2.g0", "top.g3 1.g0+3.g2"])
        x0 = series_matrix(["5.g0", "5.g0"])
        with pytest.raises(HypothesisError) as exc:
            project(a, b, x0)
        assert str(exc.value) == (
            "projector: the associativity condition fails for B at entry (2,1) = top.g3 "
            "(over series all entries must be eps, top or finite monomials)")

    @pytest.mark.parametrize("row,bound", [
        ("[0.g0,1.g0+3.g2] [1.g0+3.g2,top]", "upper"),
        ("[1.g0+3.g2,top] [0.g0,1.g0+3.g2]", "lower"),
    ], ids=["upper", "lower"])
    def test_interval_refusal_names_entry_and_bound(self, row, bound):
        def im(rows):
            return from_rows(IGAMMA, [[IGAMMA.parse(t) for t in r.split()] for r in rows])

        a = im(["eps [1.g1,2.g1]", "eps eps"])
        b = im(["top top", row])
        x0 = im(["5.g0", "5.g0"])
        entry = row.split()[0]
        for run in (project, interval_project):
            with pytest.raises(HypothesisError) as exc:
                run(a, b, x0)
            assert str(exc.value) == (
                f"projector: the associativity condition fails for the {bound} bound of B "
                f"at entry (2,1) = {entry} (over series all entries must be eps, top or "
                "finite monomials)")

    def test_monomial_problem_runs(self):
        a = series_matrix(["eps 1.g1", "eps eps"])
        b = series_matrix(["top 2.g0", "top top"])
        x0 = series_matrix(["5.g0", "4.g0"])
        p = project(a, b, x0)
        assert mat_leq(p, x0)
        assert membership(a, b, p)
        assert project(a, b, p) == p


class TestIntervalProjector:
    def test_degenerate_reduces_to_base(self):
        rng = random.Random(38)
        for _ in range(30):
            a, b, x0 = rand_problem(rng)
            ai = Matrix(IZMAX, 2, 2, tuple(Interval(v, v) for v in a.entries))
            bi = Matrix(IZMAX, 2, 2, tuple(Interval(v, v) for v in b.entries))
            xi = Matrix(IZMAX, 2, 1, tuple(Interval(v, v) for v in x0.entries))
            p = project(a, b, x0)
            pi = project(ai, bi, xi)
            lo, hi = interval_bounds(pi)
            assert lo == p and hi == p
            assert pi == kernel_project(ai, bi, xi)

    @pytest.mark.parametrize("run", [project, interval_project], ids=["project", "interval_project"])
    def test_diverging_bounds_warn_once(self, run):
        # Each bound of B closes a decreasing dual circuit at both pivots:
        # the two bounds' pivots make one warning.
        def im(rows):
            return from_rows(IZMAX, [[IZMAX.parse(t) for t in r.split()] for r in rows])

        b = im(["[-1,0] top", "top [-3,-2]"])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            p = run(eps_matrix(IZMAX, 2, 2), b, im(["5", "5"]))
        assert p == eps_matrix(IZMAX, 2, 1)
        assert [w.category for w in caught] == [DivergenceWarning]
        assert "pivot(s) 1, 2;" in str(caught[0].message)

    def test_explicit_formula_agrees_with_generic_path(self):
        from dioid import zmax as zm

        def widen(m, bump):
            # upper bound = lower possibly raised where the lower is finite
            rows = [
                [zm.oplus(m.at(i, j), zm.otimes(m.at(i, j), bump.at(i, j)))
                 for j in range(m.cols)]
                for i in range(m.rows)
            ]
            return from_rows(ZMAX, rows)

        rng = random.Random(39)
        for _ in range(40):
            alo, b_lo, xlo = rand_problem(rng, n=3)
            bump_a = rand_matrix(rng, 3, 3, lo=0, hi=2, p_eps=0.0, p_top=0.0)
            bump_x = rand_matrix(rng, 3, 1, lo=0, hi=2, p_eps=0.0, p_top=0.0)
            ai = interval_join(IZMAX, alo, widen(alo, bump_a))
            bi = interval_join(IZMAX, b_lo, widen(b_lo, bump_a))
            xi = interval_join(IZMAX, xlo, widen(xlo, bump_x))
            assert project(ai, bi, xi) == kernel_project(ai, bi, xi)

    # Random monomial bounds of B often close strictly decreasing dual circuits.
    @pytest.mark.filterwarnings("ignore::dioid.errors.DivergenceWarning")
    def test_series_intervals_agree(self):
        def ordered(x, y):
            return IGAMMA.make(GAMMA.wedge(x, y), GAMMA.oplus(x, y))

        def monomial_interval(r):
            t, n = r.randint(0, 6), r.randint(0, 3)
            lo = from_monomials([Monomial(t, n + r.randint(0, 2))])
            return IGAMMA.make(lo, from_monomials([Monomial(t + r.randint(0, 3), n)]))

        rng = random.Random(41)
        for _ in range(20):
            a = from_rows(IGAMMA, [
                [IGAMMA.eps if rng.random() < 0.4
                 else ordered(rand_positive_series(rng), rand_positive_series(rng))
                 for _ in range(2)] for _ in range(2)])
            b = from_rows(IGAMMA, [
                [IGAMMA.top if rng.random() < 0.4 else monomial_interval(rng)
                 for _ in range(2)] for _ in range(2)])
            x0 = from_rows(IGAMMA, [[ordered(rand_series(rng), rand_series(rng))]
                                    for _ in range(2)])
            p = project(a, b, x0)
            assert p == kernel_project(a, b, x0)
            assert mat_leq(p, x0)
            assert membership(a, b, p)

    def test_result_dominated_and_fixed(self):
        rng = random.Random(40)
        for _ in range(30):
            alo, b_lo, xlo = rand_problem(rng)
            ai = interval_join(IZMAX, alo, alo)
            bi = interval_join(IZMAX, b_lo, b_lo)
            xi = interval_join(IZMAX, xlo, xlo)
            p = project(ai, bi, xi)
            assert p == kernel_project(ai, bi, xi)
            assert mat_leq(p, xi)
            assert membership(ai, bi, p)
            assert project(ai, bi, p) == p

    def test_reference_point_vs_projection_membership(self):
        def im(rows):
            return from_rows(IZMAX, [[IZMAX.parse(t) for t in r.split()] for r in rows])

        a = im([
            "eps eps eps eps eps",
            "[7,11] eps [8,14] eps [2,7]",
            "eps eps eps eps eps",
            "eps eps [4,12] eps [1,5]",
            "eps eps eps eps eps",
        ])
        b = im([
            "top top top top top",
            "[11,16] top [15,19] top [7,10]",
            "top top top top top",
            "top top [13,18] top [5,9]",
            "top top top top top",
        ])
        x0 = im(["[10,14]"] * 5)
        p = project(a, b, x0)
        assert p == kernel_project(a, b, x0)
        assert not membership(a, b, x0)
        assert membership(a, b, p)
        assert mat_otimes(kleene_star(a), p) == p
        assert mat_odot(wedge_closure(b), p) == p
