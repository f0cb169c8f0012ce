"""Interval lift: boundwise operations, ordering corrections, closures."""

from __future__ import annotations

import itertools
import random

import pytest

from dioid import (
    EPS,
    IGAMMA,
    IZMAX,
    TOP,
    ZMAX,
    Interval,
    from_rows,
    identity,
    interval_bounds,
    interval_join,
    kleene_star,
    mat_oplus,
    mat_otimes,
    s_oplus,
    star_by_powers,
    wedge_closure,
)
from dioid import zmax
from dioid.errors import DivergenceWarning, IntervalOrderError
from dioid.matrices import Matrix

from conftest import rand_matrix, rand_positive_series, rand_scalar


def iv(lo, hi=None):
    return IZMAX.make(lo, lo if hi is None else hi)


def rand_interval(rng):
    a, b = rand_scalar(rng), rand_scalar(rng)
    if not zmax.leq(a, b):
        a, b = b, a
    return Interval(a, b)


SMALL = [EPS, -2, -1, 0, 1, 2, TOP]
SMALL_INTERVALS = [
    Interval(a, b) for a, b in itertools.product(SMALL, repeat=2) if zmax.leq(a, b)
]


class TestConstruction:
    def test_rejects_unordered(self):
        with pytest.raises(IntervalOrderError):
            IZMAX.make(5, 3)
        with pytest.raises(IntervalOrderError):
            IZMAX.make(TOP, EPS)

    def test_parse_and_format(self):
        assert IZMAX.parse("[1,2]") == Interval(1, 2)
        assert IZMAX.parse("7") == Interval(7, 7)
        assert IZMAX.format(Interval(EPS, 3)) == "[eps,3]"
        with pytest.raises(IntervalOrderError):
            IZMAX.parse("[4,1]")

    def test_join_checks_every_pair_and_names_the_first_unordered(self):
        # interval_join builds what make builds, and refuses bounds that
        # make refuses, with make's message for the first unordered pair.
        rng = random.Random(24)
        for _ in range(200):
            n = rng.randint(1, 4)
            lo, hi = rand_matrix(rng, n, n), rand_matrix(rng, n, n)
            pairs = list(zip(lo.entries, hi.entries))
            first = next((p for p in pairs if not zmax.leq(*p)), None)
            if first is None:
                want = tuple(IZMAX.make(*p) for p in pairs)
                assert interval_join(IZMAX, lo, hi).entries == want
                continue
            with pytest.raises(IntervalOrderError) as want:
                IZMAX.make(*first)
            with pytest.raises(IntervalOrderError) as got:
                interval_join(IZMAX, lo, hi)
            assert str(got.value) == str(want.value)
        base = IGAMMA.base
        s_lo = from_rows(base, [[base.parse("1.g0"), base.parse("eps")]])
        s_hi = from_rows(base, [[base.parse("2.g0"), base.parse("3.g1")]])
        assert interval_join(IGAMMA, s_lo, s_hi).entries == tuple(
            map(IGAMMA.make, s_lo.entries, s_hi.entries))
        with pytest.raises(IntervalOrderError,
                           match=r"^interval bounds are not ordered: \[2.g0,1.g0\]$"):
            interval_join(IGAMMA, s_hi, s_lo)


class TestArithmetic:
    def test_examples(self):
        assert IZMAX.otimes(iv(1, 2), iv(3, 5)) == Interval(4, 7)
        assert IZMAX.odot(iv(1, 2), iv(3, 5)) == Interval(4, 7)
        assert IZMAX.oplus(IZMAX.eps, iv(1, 2)) == Interval(1, 2)

    def test_results_stay_ordered(self):
        rng = random.Random(20)
        ops = [IZMAX.oplus, IZMAX.wedge, IZMAX.otimes, IZMAX.odot, IZMAX.lres,
               IZMAX.dualres]
        for _ in range(200):
            x, y = rand_interval(rng), rand_interval(rng)
            for op in ops:
                out = op(x, y)
                assert zmax.leq(out.lo, out.hi), (op.__name__, x, y, out)

    def test_containment(self):
        """u in x and v in y imply u op v in x op y for the three products."""
        rng = random.Random(21)
        for _ in range(100):
            x, y = rand_interval(rng), rand_interval(rng)
            for op, sop in ((IZMAX.oplus, zmax.oplus), (IZMAX.otimes, zmax.otimes),
                            (IZMAX.odot, zmax.odot)):
                out = op(x, y)
                for u in SMALL:
                    if not (zmax.leq(x.lo, u) and zmax.leq(u, x.hi)):
                        continue
                    for v in SMALL:
                        if not (zmax.leq(y.lo, v) and zmax.leq(v, y.hi)):
                            continue
                        w = sop(u, v)
                        assert zmax.leq(out.lo, w) and zmax.leq(w, out.hi)

    def test_degenerate_embedding_is_homomorphic(self):
        for u in SMALL:
            for v in SMALL:
                assert IZMAX.oplus(iv(u), iv(v)) == iv(zmax.oplus(u, v))
                assert IZMAX.otimes(iv(u), iv(v)) == iv(zmax.otimes(u, v))
                assert IZMAX.odot(iv(u), iv(v)) == iv(zmax.odot(u, v))
                assert IZMAX.wedge(iv(u), iv(v)) == iv(zmax.wedge(u, v))
                assert IZMAX.lres(iv(u), iv(v)) == iv(zmax.lres(u, v))
                assert IZMAX.dualres(iv(u), iv(v)) == iv(zmax.dualres(u, v))


class TestResidualExtremality:
    """Interval residuals are extremal among intervals, by enumeration."""

    def test_lres_formula_and_maximality(self):
        assert IZMAX.lres(iv(3), iv(8)) == Interval(5, 5)
        assert IZMAX.lres(iv(1, 2), iv(8, 9)) == Interval(7, 7)
        assert IZMAX.lres(iv(1, 2), IZMAX.top) == IZMAX.top
        for a in SMALL_INTERVALS:
            for x in SMALL_INTERVALS:
                got = IZMAX.lres(a, x)
                assert IZMAX.leq(IZMAX.otimes(a, got), x)
                for y in SMALL_INTERVALS:
                    if IZMAX.leq(IZMAX.otimes(a, y), x):
                        assert IZMAX.leq(y, got), (a, x, y)

    def test_dualres_formula_and_minimality(self):
        assert IZMAX.dualres(iv(3), iv(8)) == Interval(5, 5)
        assert IZMAX.dualres(iv(1, 2), iv(8, 9)) == Interval(7, 7)
        assert IZMAX.dualres(iv(1, 2), IZMAX.eps) == IZMAX.eps
        for a in SMALL_INTERVALS:
            for x in SMALL_INTERVALS:
                got = IZMAX.dualres(a, x)
                assert IZMAX.leq(x, IZMAX.odot(a, got))
                for y in SMALL_INTERVALS:
                    if IZMAX.leq(x, IZMAX.odot(a, y)):
                        assert IZMAX.leq(got, y), (a, x, y)


class TestClosures:
    def test_degenerate_closures_match_base(self):
        rng = random.Random(22)
        for _ in range(40):
            base = rand_matrix(rng, 2, 2, lo=-4, hi=2)
            lifted = Matrix(IZMAX, 2, 2, tuple(Interval(v, v) for v in base.entries))
            st = kleene_star(lifted)
            lo, hi = interval_bounds(st)
            assert lo == kleene_star(base)
            assert hi == kleene_star(base)

    def test_interval_closures_are_boundwise(self):
        # random lower bounds may carry negative dual circuits; saturation
        # happens boundwise on both sides, so equality still holds
        import warnings

        warnings.simplefilter("ignore", DivergenceWarning)
        rng = random.Random(23)
        for _ in range(40):
            lo = rand_matrix(rng, 2, 2, lo=-4, hi=0, p_top=0.0)
            bump = rand_matrix(rng, 2, 2, lo=0, hi=3, p_eps=0.0, p_top=0.0)
            hi = from_rows(ZMAX, [
                [zmax.oplus(lo.at(i, j), zmax.otimes(lo.at(i, j), bump.at(i, j)))
                 for j in range(2)]
                for i in range(2)
            ])
            m = interval_join(IZMAX, lo, hi)
            slo, shi = interval_bounds(kleene_star(m))
            assert slo == kleene_star(lo) and shi == kleene_star(hi)
            dlo, dhi = interval_bounds(wedge_closure(m))
            assert dlo == wedge_closure(lo) and dhi == wedge_closure(hi)

    def test_meet_closure_warns_once_at_the_caller(self):
        # pivot 1 diverges on the lower bound only, pivot 2 on both bounds
        import warnings

        m = from_rows(IZMAX, [[iv(-1, 0), iv(TOP)], [iv(TOP), iv(-3, -2)]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = wedge_closure(m)
        assert [w.category for w in caught] == [DivergenceWarning]
        assert caught[0].filename == __file__
        assert "pivot(s) 1, 2" in str(caught[0].message)
        assert out.at(0, 0) == iv(EPS, 0) and out.at(1, 1) == iv(EPS)

    def test_interval_star_against_power_sums(self):
        # the star of each bound from explicit powers, independent of the
        # elimination
        rng = random.Random(24)
        for _ in range(300):
            n = rng.randint(1, 5)
            m = Matrix(IZMAX, n, n, tuple(rand_interval(rng) for _ in range(n * n)))
            lo, hi = interval_bounds(m)
            want = interval_join(IZMAX, star_by_powers(lo), star_by_powers(hi))
            assert kleene_star(m) == want, m

    def test_interval_series_star_is_a_fixed_point(self):
        # A* = E (+) A (x) A* over interval-series matrices
        rng = random.Random(25)
        for _ in range(40):
            n = rng.randint(1, 3)
            entries = []
            for _ in range(n * n):
                if rng.random() < 0.3:
                    entries.append(IGAMMA.eps)
                    continue
                low = rand_positive_series(rng)
                entries.append(IGAMMA.make(low, s_oplus(low, rand_positive_series(rng))))
            a = Matrix(IGAMMA, n, n, tuple(entries))
            st = kleene_star(a)
            assert mat_oplus(identity(IGAMMA, n), mat_otimes(a, st)) == st, a
