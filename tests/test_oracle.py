"""Brute-force verifiers and their agreement with the optimized paths."""

from __future__ import annotations

import random

import pytest

from dioid import (
    EPS,
    TOP,
    ZMAX,
    Grid,
    dual_residual,
    from_rows,
    greatest_subsolution,
    identity,
    kleene_star,
    left_residual,
    project,
    projector_by_enumeration,
    smallest_supersolution,
    star_by_powers,
)
from dioid.errors import ShapeError
from dioid.matrices import Matrix

from conftest import eps_matrix, rand_matrix, top_matrix

GRID = Grid(-20, 20)

C = from_rows(ZMAX, [[1, 2], [3, 4], [5, 6]])
B = from_rows(ZMAX, [[8], [9], [10]])


class TestGrid:
    def test_values(self):
        vals = Grid(-2, 2).values()
        assert vals == (EPS, -2, -1, 0, 1, 2, TOP)

    def test_clamping(self):
        g = Grid(-2, 2)
        assert g.clamp_down(5) == 2
        assert g.clamp_down(-7) is EPS
        assert g.clamp_down(TOP) is TOP
        assert g.clamp_up(-7) == -2
        assert g.clamp_up(5) is TOP
        assert g.clamp_up(EPS) is EPS

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            Grid(3, 1)


class TestGreatestSubsolution:
    def test_worked_example(self):
        got = greatest_subsolution(C, B, GRID)
        assert got.entries == (5, 4)
        assert got == left_residual(C, B)

    def test_unconstrained_gives_grid_top(self):
        got = greatest_subsolution(eps_matrix(ZMAX, 2, 2), rand_matrix(random.Random(0), 2, 1), GRID)
        assert got == top_matrix(ZMAX, 2, 1)

    def test_matches_clamped_residual(self):
        rng = random.Random(50)
        for _ in range(100):
            a = rand_matrix(rng, 2, 2, lo=-5, hi=5)
            b = rand_matrix(rng, 2, 2, lo=-5, hi=5)
            expect = left_residual(a, b)
            clamped = Matrix(ZMAX, 2, 2, tuple(GRID.clamp_down(v) for v in expect.entries))
            assert greatest_subsolution(a, b, GRID) == clamped


class TestSmallestSupersolution:
    def test_worked_example(self):
        got = smallest_supersolution(C, B, GRID)
        assert got.entries == (7, 6)
        assert got == dual_residual(C, B)

    def test_top_constraints_give_eps(self):
        got = smallest_supersolution(top_matrix(ZMAX, 2, 2), rand_matrix(random.Random(0), 2, 1), GRID)
        assert got == eps_matrix(ZMAX, 2, 1)

    def test_matches_clamped_residual(self):
        rng = random.Random(51)
        for _ in range(100):
            a = rand_matrix(rng, 2, 2, lo=-5, hi=5)
            b = rand_matrix(rng, 2, 2, lo=-5, hi=5)
            expect = dual_residual(a, b)
            clamped = Matrix(ZMAX, 2, 2, tuple(GRID.clamp_up(v) for v in expect.entries))
            assert smallest_supersolution(a, b, GRID) == clamped


class TestStarByPowers:
    def test_identity(self):
        assert star_by_powers(identity(ZMAX, 3)) == identity(ZMAX, 3)

    def test_growth_detected(self):
        assert star_by_powers(from_rows(ZMAX, [[1]])).entries == (TOP,)
        # node 1 carries the positive loop and every walk may pass through it
        assert star_by_powers(from_rows(ZMAX, [[EPS, -5], [-5, 1]])).entries == (TOP,) * 4

    def test_agrees_with_closure(self):
        rng = random.Random(52)
        for _ in range(300):
            n = rng.randint(1, 6)
            a = rand_matrix(rng, n, n, lo=-5, hi=3, p_eps=0.3, p_top=0.05)
            assert star_by_powers(a) == kleene_star(a)

    def test_requires_square(self):
        with pytest.raises(ShapeError):
            star_by_powers(rand_matrix(random.Random(0), 2, 3))


class TestProjectorByEnumeration:
    def test_x0_eps_gives_eps(self):
        rng = random.Random(53)
        a = rand_matrix(rng, 2, 2, lo=-2, hi=2)
        b = rand_matrix(rng, 2, 2, lo=0, hi=3)
        assert projector_by_enumeration(a, b, eps_matrix(ZMAX, 2, 1), GRID) == eps_matrix(
            ZMAX, 2, 1
        )

    def test_unconstrained_dual_side(self):
        rng = random.Random(54)
        for _ in range(10):
            a = rand_matrix(rng, 2, 2, lo=-2, hi=0, p_top=0.0)
            b = top_matrix(ZMAX, 2, 2)
            x0 = rand_matrix(rng, 2, 1, lo=-3, hi=3, p_eps=0.0, p_top=0.0)
            got = projector_by_enumeration(a, b, x0, GRID)
            assert got == left_residual(kleene_star(a), x0)

    def test_agrees_with_projector(self):
        rng = random.Random(55)
        for _ in range(25):
            a = rand_matrix(rng, 2, 2, lo=-2, hi=2, p_eps=0.3, p_top=0.0)
            b = rand_matrix(rng, 2, 2, lo=0, hi=3, p_eps=0.0, p_top=0.4)
            x0 = rand_matrix(rng, 2, 1, lo=-3, hi=3, p_eps=0.1, p_top=0.0)
            assert projector_by_enumeration(a, b, x0, GRID) == project(a, b, x0)
