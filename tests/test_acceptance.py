"""Acceptance suite: known-answer fixtures and bulk randomized properties.

Every check is exact (no tolerances) and carries a wall-clock budget; one
PASS line per criterion is printed, visible with ``pytest -s``.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

from dioid import (
    EPS,
    GAMMA,
    IGAMMA,
    IZMAX,
    TOP,
    ZMAX,
    Grid,
    Monomial,
    dual_residual,
    from_rows,
    greatest_subsolution,
    interval_bounds,
    kleene_star,
    left_residual,
    mat_leq,
    mat_odot,
    mat_oplus,
    mat_otimes,
    mat_wedge,
    pattern_series,
    project,
    projector_by_enumeration,
    smallest_supersolution,
    wedge_closure,
)
from dioid import zmax
from dioid.matrices import Matrix
from dioid.series import parse_series, sigma_inf
from dioid.series import s_lres, s_oplus, s_otimes, s_star, s_wedge

from conftest import (dual_identity, dual_power, eval_series, kernel_project, negate_transpose,
                      rand_matrix, rand_positive_series, rand_series, value_at)


def report(num: int, label: str, elapsed: float, budget: float) -> None:
    print(f"criterion {num}: PASS  {label}  ({elapsed * 1000:.1f} ms, budget {budget * 1000:.0f} ms)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget: {elapsed:.3f}s"


def best_of(k: int, fn):
    best = math.inf
    result = None
    for _ in range(k):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def series_matrix(rows):
    return from_rows(GAMMA, [[parse_series(tok) for tok in r.split()] for r in rows])


def interval_matrix(semiring, rows):
    return from_rows(semiring, [[semiring.parse(tok) for tok in r.split()] for r in rows])


# ---------------------------------------------------------------------------
# criterion 1: max-plus worked example, bit-exact, < 1 ms
# ---------------------------------------------------------------------------


def test_criterion_1_maxplus_worked_example():
    a = from_rows(ZMAX, [[1, TOP, 3], [4, EPS, 6]])
    b = from_rows(ZMAX, [[8], [9], [10]])
    c = from_rows(ZMAX, [[1, 2], [3, 4], [5, 6]])

    def run():
        return (
            mat_otimes(a, b),
            mat_odot(a, b),
            left_residual(c, b),
            dual_residual(c, b),
        )

    (prod, dual, res, dres), elapsed = best_of(3, run)
    assert prod.entries == (TOP, 16)
    assert dual.entries == (9, EPS)
    assert res.entries == (5, 4)
    assert dres.entries == (7, 6)
    report(1, "max-plus products and residuals", elapsed, 0.001)


# ---------------------------------------------------------------------------
# criterion 2: monomial matrix dual powers and meet closure, < 10 ms
# ---------------------------------------------------------------------------


def test_criterion_2_monomial_meet_closure():
    b = series_matrix([
        "top 15.g3 7.g0 top",
        "top top top top",
        "3.g0 8.g4 top top",
        "6.g1 4.g5 top top",
    ])
    expected_p2 = series_matrix([
        "10.g0 15.g4 top top",
        "top top top top",
        "top 18.g3 10.g0 top",
        "top 21.g4 13.g1 top",
    ])
    expected_p3 = series_matrix([
        "top 25.g3 17.g0 top",
        "top top top top",
        "13.g0 18.g4 top top",
        "16.g1 21.g5 top top",
    ])
    expected_closure = series_matrix([
        "e 15.g4 7.g0 top",
        "top e top top",
        "3.g0 8.g4 e top",
        "6.g1 4.g5 13.g1 e",
    ])

    def run():
        return dual_power(b, 2), dual_power(b, 3), wedge_closure(b)

    (p2, p3, closure), elapsed = best_of(3, run)
    assert p2 == expected_p2
    assert p3 == expected_p3
    assert closure == expected_closure
    assert closure.at(3, 2) == parse_series("13.g1")
    report(2, "monomial dual powers and meet closure", elapsed, 0.010)


# ---------------------------------------------------------------------------
# criterion 3: interval projector example, < 10 ms
# ---------------------------------------------------------------------------


def test_criterion_3_interval_projector_example():
    a = interval_matrix(IZMAX, [
        "eps eps eps eps eps",
        "[7,11] eps [8,14] eps [2,7]",
        "eps eps eps eps eps",
        "eps eps [4,12] eps [1,5]",
        "eps eps eps eps eps",
    ])
    b = interval_matrix(IZMAX, [
        "top top top top top",
        "[11,16] top [15,19] top [7,10]",
        "top top top top top",
        "top top [13,18] top [5,9]",
        "top top top top top",
    ])
    x0 = interval_matrix(IZMAX, ["[10,14]"] * 5)
    expected_lower_star = from_rows(ZMAX, [
        [0, -11, -3, -14, -9],
        [7, 0, 8, -3, 2],
        [-8, -15, 0, -13, -12],
        [1, -6, 4, 0, 1],
        [0, -7, 1, -5, 0],
    ])
    expected_upper_star = from_rows(ZMAX, [
        [0, -16, -2, -18, -9],
        [11, 0, 14, -2, 7],
        [-8, -19, 0, -18, -12],
        [6, -5, 12, 0, 5],
        [1, -10, 4, -9, 0],
    ])
    expected_p = interval_matrix(
        IZMAX, ["[3,3]", "[10,14]", "[0,0]", "[10,12]", "[7,7]"]
    )

    def run():
        alo, ahi = interval_bounds(a)
        blo, bhi = interval_bounds(b)
        lower = kleene_star(dual_residual(wedge_closure(blo), kleene_star(alo)))
        upper = kleene_star(dual_residual(wedge_closure(bhi), kleene_star(ahi)))
        return lower, upper, project(a, b, x0)

    (lower, upper, p), elapsed = best_of(3, run)
    assert lower == expected_lower_star
    assert upper == expected_upper_star
    assert p == expected_p
    assert kernel_project(a, b, x0) == expected_p  # five-kernel cross-check
    report(3, "interval projector with printed bound closures", elapsed, 0.010)


# ---------------------------------------------------------------------------
# criterion 4: series interval projector example, < 100 ms
# ---------------------------------------------------------------------------


def test_criterion_4_series_interval_projector_example():
    a = interval_matrix(IGAMMA, [
        "eps eps [8.g2,8.g1]",
        "eps eps eps",
        "[7.g1+9.g2,10.g0+11.g3] [2.g1+4.g3,4.g1+6.g2] eps",
    ])
    b = interval_matrix(IGAMMA, [
        "top top [15.g1,18.g0]",
        "top top top",
        "top [5.g1,7.g0] top",
    ])

    def periodic_entry(monos):
        # reference fixture: each bound is fully periodic with step 18.g1
        return pattern_series([Monomial(t, n) for t, n in monos], Monomial(18, 1))

    x0 = from_rows(IGAMMA, [
        [IGAMMA.make(periodic_entry([(4, 1), (7, 4)]), periodic_entry([(7, 0), (8, 3)]))],
        [IGAMMA.make(periodic_entry([(5, 2), (8, 5)]), periodic_entry([(8, 1), (9, 4)]))],
        [IGAMMA.make(periodic_entry([(6, 3), (9, 6)]), periodic_entry([(9, 2), (10, 5)]))],
    ])
    expected = interval_matrix(IGAMMA, [
        "[21.g4.(18.g1)*,17.g3.(18.g1)*]",
        "[4.g2.(18.g1)*,5.g1.(18.g1)*]",
        "[6.g3.(18.g1)*,9.g2.(18.g1)*]",
    ])

    p, elapsed = best_of(3, lambda: project(a, b, x0))
    assert p == expected
    assert kernel_project(a, b, x0) == expected  # five-kernel cross-check
    report(4, "series interval projector", elapsed, 0.100)


# ---------------------------------------------------------------------------
# criterion 5: randomized property suites, 1000 trials each, < 5 s total
# ---------------------------------------------------------------------------


def test_criterion_5_property_suites():
    t0 = time.perf_counter()
    trials = 1000

    rng = random.Random(0xACC5)
    for _ in range(trials):
        a = rand_matrix(rng, 2, 2)
        b = rand_matrix(rng, 2, 2)
        x = left_residual(a, b)
        assert mat_leq(mat_otimes(a, x), b)
        assert mat_leq(b, left_residual(a, mat_otimes(a, b)))
        y = dual_residual(a, b)
        assert mat_leq(b, mat_odot(a, y))
        assert mat_leq(dual_residual(a, mat_odot(a, b)), b)

    rng = random.Random(0xACC5 + 1)
    for _ in range(trials):
        a = rand_matrix(rng, 2, 2, lo=-5, hi=2)
        x = rand_matrix(rng, 2, 2)
        st = kleene_star(a)
        assert mat_otimes(st, mat_otimes(st, x)) == mat_otimes(st, x)
        assert left_residual(st, left_residual(st, x)) == left_residual(st, x)
        assert mat_otimes(st, left_residual(st, x)) == left_residual(st, x)
        assert left_residual(st, mat_otimes(st, x)) == mat_otimes(st, x)
        b = rand_matrix(rng, 2, 2, lo=0, hi=4, p_eps=0.0, p_top=0.3)
        bs = wedge_closure(b)
        assert mat_odot(bs, mat_odot(bs, x)) == mat_odot(bs, x)
        assert mat_leq(bs, dual_identity(ZMAX, 2))
        assert wedge_closure(bs) == bs

    rng = random.Random(0xACC5 + 2)
    for _ in range(trials):
        a = rand_matrix(rng, 2, 2, lo=-5, hi=2)
        b = rand_matrix(rng, 2, 2, lo=0, hi=4, p_eps=0.0, p_top=0.3)
        w = rand_matrix(rng, 2, 1)
        st = kleene_star(a)
        bs = wedge_closure(b)
        for x in (w, mat_otimes(st, w)):
            c1 = mat_leq(x, left_residual(a, x))
            c2 = mat_leq(mat_otimes(a, x), x)
            c3 = mat_otimes(st, x) == x
            c4 = left_residual(st, x) == x
            assert c1 == c2 == c3 == c4
        for x in (w, mat_odot(bs, w)):
            d1 = mat_leq(x, mat_odot(b, x))
            d2 = mat_leq(dual_residual(b, x), x)
            d3 = dual_residual(bs, x) == x
            d4 = mat_odot(bs, x) == x
            assert d1 == d2 == d3 == d4

    rng = random.Random(0xACC5 + 3)
    for _ in range(trials):
        a = rand_matrix(rng, 2, 2)
        b = rand_matrix(rng, 2, 2)
        x = rand_matrix(rng, 2, 2)
        assert left_residual(mat_oplus(a, b), x) == mat_wedge(
            left_residual(a, x), left_residual(b, x)
        )

    rng = random.Random(0xACC5 + 4)
    for _ in range(trials):
        a = rand_matrix(rng, 3, 2)
        b = rand_matrix(rng, 3, 2)
        assert left_residual(a, b) == mat_odot(negate_transpose(a), b)

    tags = [EPS, TOP, -4, -1, 0, 2, 5]
    for b_, a_, x_ in itertools.product(tags, repeat=3):
        assert zmax.dualres(b_, zmax.otimes(a_, x_)) == zmax.otimes(zmax.dualres(b_, a_), x_)
    rng = random.Random(0xACC5 + 5)
    for _ in range(trials):
        b_, a_, x_ = (rng.randint(-50, 50) for _ in range(3))
        assert zmax.dualres(b_, zmax.otimes(a_, x_)) == zmax.otimes(zmax.dualres(b_, a_), x_)

    report(5, "six property suites, 1000 trials each", time.perf_counter() - t0, 5.0)


# ---------------------------------------------------------------------------
# criterion 6: oracle equivalence on 200 random tiny instances, < 30 s
# ---------------------------------------------------------------------------


def test_criterion_6_oracle_equivalence():
    t0 = time.perf_counter()
    grid = Grid(-20, 20)
    rng = random.Random(0xACC6)
    for _ in range(200):
        a = rand_matrix(rng, 2, 2, lo=-5, hi=5)
        b = rand_matrix(rng, 2, 2, lo=-5, hi=5)
        res = left_residual(a, b)
        clamped = Matrix(ZMAX, 2, 2, tuple(grid.clamp_down(v) for v in res.entries))
        assert greatest_subsolution(a, b, grid) == clamped
        dres = dual_residual(a, b)
        clamped = Matrix(ZMAX, 2, 2, tuple(grid.clamp_up(v) for v in dres.entries))
        assert smallest_supersolution(a, b, grid) == clamped

    rng = random.Random(0xACC6 + 1)
    for _ in range(200):
        a = rand_matrix(rng, 2, 2, lo=-2, hi=2, p_eps=0.3, p_top=0.0)
        b = rand_matrix(rng, 2, 2, lo=0, hi=3, p_eps=0.0, p_top=0.4)
        x0 = rand_matrix(rng, 2, 1, lo=-3, hi=3, p_eps=0.1, p_top=0.0)
        assert projector_by_enumeration(a, b, x0, grid) == project(a, b, x0)

    report(6, "residual and projector oracle agreement", time.perf_counter() - t0, 30.0)


# ---------------------------------------------------------------------------
# criterion 7: series pointwise oracle and slope table, < 10 s
# ---------------------------------------------------------------------------


def _series_window(*operands):
    hi = 30
    for s in operands:
        if s.all_top or (not s.transient and not s.pattern):
            continue
        last = max(m.exp for m in s.transient + s.pattern)
        if s.period is not None:
            last += 2 * s.period.exp
        hi = max(hi, last + 2)
    return -5, hi


def test_criterion_7_series_pointwise_oracle():
    t0 = time.perf_counter()
    rng = random.Random(0xACC7)
    for _ in range(200):
        a, b = rand_series(rng), rand_series(rng)
        lo, hi = _series_window(a, b)

        add, meet, prod = s_oplus(a, b), s_wedge(a, b), s_otimes(a, b)
        res = s_lres(a, b)
        lo_r, hi_r = _series_window(add, meet, prod, res, a, b)
        lo, hi = min(lo, lo_r), max(hi, hi_r)

        # value tables from the unrolled monomial semantics
        depth = hi + 2 * max(
            (s.period.exp for s in (a, b) if s.period is not None), default=1
        ) + 20
        va = {j: eval_series(a, j) for j in range(lo, depth + hi + 1)}
        vb = {j: eval_series(b, j) for j in range(lo, depth + hi + 1)}
        amin = min((m.exp for m in a.transient + a.pattern), default=0)
        bmin = min((m.exp for m in b.transient + b.pattern), default=0)

        for j in range(lo, hi + 1):
            assert value_at(add, j) == zmax.oplus(va.get(j, EPS), vb.get(j, EPS))
            assert value_at(meet, j) == zmax.wedge(va.get(j, EPS), vb.get(j, EPS))
            conv = EPS
            for k in range(amin, j - bmin + 1):
                conv = zmax.oplus(conv, zmax.otimes(va.get(k, EPS), vb.get(j - k, EPS)))
            assert value_at(prod, j) == conv

        if res != GAMMA.eps:
            for j in range(lo, hi + 1):
                inf = TOP
                for k in range(amin, depth + 1):
                    inf = zmax.wedge(inf, zmax.lres(va.get(k, EPS), vb.get(j + k, EPS)))
                assert value_at(res, j) == inf
        else:
            assert sigma_inf(b) > sigma_inf(a) or all(
                vb[j] is EPS for j in range(lo, depth)
            )

        # slope table on the same operands
        sa, sb = sigma_inf(a), sigma_inf(b)
        assert sigma_inf(add) == min(sa, sb)
        if a != GAMMA.eps and b != GAMMA.eps:
            assert sigma_inf(prod) == min(sa, sb)
            assert sigma_inf(meet) == max(sa, sb)
        if res != GAMMA.eps and sb < math.inf:
            assert sigma_inf(res) == sb

    rng = random.Random(0xACC7 + 1)
    for _ in range(60):
        s = rand_positive_series(rng)
        slopes = [Fraction(m.exp, m.coeff) for m in s.transient + s.pattern]
        assert sigma_inf(s_star(s)) == min(slopes + [sigma_inf(s)])

    report(7, "series pointwise oracle and slope table", time.perf_counter() - t0, 10.0)
