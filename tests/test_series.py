"""Gamma-series: monomial rules, canonical forms, pointwise oracles, slopes."""

from __future__ import annotations

import math
import random
import time
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dioid import (
    GAMMA,
    Monomial,
    S_EPS,
    S_ONE,
    S_TOP,
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
from dioid import zmax
from dioid.errors import DivergenceError, ParseError, SeriesDomainError
from dioid.intervals import IGAMMA, Interval
from dioid import series as series_module
from dioid.series import (Series, _canonical, _min_exp, _pattern_sum, _undominated, _walk,
                          format_series, is_monomial)
from dioid.zmax import TOP

from conftest import (
    SERIES_KINDS,
    canonical_by_window,
    eval_monomials,
    eval_series,
    rand_positive_series,
    rand_series,
    run_python,
    unroll,
    value_at,
    window_steps,
)

g = parse_series


def pairs(monos):
    """Monomials as the (exponent, coefficient) pairs the internal sums take."""
    return [(m.exp, m.coeff) for m in monos]


def window(*series):
    """Exponent window covering transients plus two periods of every operand."""
    hi = 30
    for s in series:
        if s.all_top or (not s.transient and not s.pattern):
            continue
        last = max(m.exp for m in s.transient + s.pattern)
        if s.period is not None:
            last += 2 * s.period.exp
        hi = max(hi, last + 2)
    return range(-5, hi + 1)


def assert_pointwise(result, expected_fn, *operands, msg=""):
    for j in window(result, *operands):
        assert value_at(result, j) == expected_fn(j), f"{msg} at exponent {j}"


def assert_cauchy(a, b):
    """s_otimes(a, b) against the sup-convolution of the unrolled monomials."""
    prod = s_otimes(a, b)
    js = window(prod, a, b)
    hi = max(js)
    # every product of two monomials, by exponent sum (exponents are >= 0):
    # their running max is the sup-convolution
    terms = sorted(
        ((ma.exp + mb.exp, zmax.otimes(ma.coeff, mb.coeff))
         for ma in unroll(a, hi + 8) for mb in unroll(b, hi + 8)),
        key=lambda t: t[0],
    )
    best, k = zmax.EPS, 0
    for j in js:
        while k < len(terms) and terms[k][0] <= j:
            best = zmax.oplus(best, terms[k][1])
            k += 1
        assert value_at(prod, j) == best, (format_series(a), format_series(b), j)


def rand_period(rng):
    # nu >= 2: a pattern lies within one period, so nu = 1 holds one monomial
    return Monomial(rng.randint(1, 6), rng.randint(2, 5))


def rand_multi_pattern(rng, period, lo=-9, exp_lo=0):
    """A series with period ``period`` whose canonical pattern has 2 to 4
    monomials, after a transient of 0 to 2."""
    while True:
        transient = [Monomial(rng.randint(lo, 9), rng.randint(exp_lo, 6))
                     for _ in range(rng.randint(0, 2))]
        pattern = [Monomial(rng.randint(lo, 9), rng.randint(exp_lo, 6))
                   for _ in range(rng.randint(2, 4))]
        s = s_oplus(from_monomials(transient), pattern_series(pattern, period))
        if s.period == period and 2 <= len(s.pattern) <= 4:
            return s


class TestMonomialRules:
    def test_product(self):
        assert s_otimes(g("2.g1"), g("3.g2")) == g("5.g3")

    def test_meet(self):
        assert s_wedge(g("2.g1"), g("3.g2")) == g("2.g2")

    def test_residual(self):
        assert s_lres(g("3.g2"), g("5.g3")) == g("2.g1")

    def test_dual_product_is_product_on_monomials(self):
        assert mono_odot(g("2.g1"), g("3.g2")) == g("5.g3")

    def test_meet_of_monomials_is_monomial(self):
        rng = random.Random(11)
        for _ in range(100):
            a = from_monomials([Monomial(rng.randint(-9, 9), rng.randint(0, 6))])
            b = from_monomials([Monomial(rng.randint(-9, 9), rng.randint(0, 6))])
            m = s_wedge(a, b)
            assert is_monomial(m) or m == S_EPS
            d = mono_odot(a, b)
            assert is_monomial(d)


class TestCanonicalize:
    def test_same_exponent_keeps_max(self):
        assert from_monomials([Monomial(2, 2), Monomial(3, 2)]) == g("3.g2")

    def test_eps_only(self):
        assert from_monomials([Monomial(zmax.EPS, 4)]) == S_EPS

    def test_dominated_later_monomial_dropped(self):
        # pointwise: 5.g1 already covers 3.g2 at every exponent
        raw = [Monomial(5, 1), Monomial(3, 2)]
        for j in range(-2, 11):
            assert eval_monomials(raw, j) == eval_monomials([Monomial(5, 1)], j)
        assert from_monomials(raw) == g("5.g1")

    def test_bad_period_rejected(self):
        with pytest.raises(SeriesDomainError):
            pattern_series([Monomial(1, 0)], Monomial(0, 2))
        with pytest.raises(SeriesDomainError):
            pattern_series([Monomial(1, 0)], Monomial(3, 0))

    def test_minimal_period(self):
        doubled = pattern_series([Monomial(0, 0), Monomial(1, 1)], Monomial(2, 2))
        assert doubled == g("0.g0.(1.g1)*")

    def test_pattern_starts_at_earliest_step(self):
        # 2.g1 followed by 5.g3, 8.g5, ... is periodic from the first step
        s = make_series([Monomial(2, 1)], [Monomial(5, 3)], Monomial(3, 2))
        assert s.transient == ()
        assert s.pattern == (Monomial(2, 1),)
        assert s.period == Monomial(3, 2)

    def test_values_of_periodic(self):
        s = g("4.g1+7.g4.(18.g1)*")
        assert [value_at(s, j) for j in range(0, 7)] == [zmax.EPS, 4, 4, 4, 7, 25, 43]


class TestDistinguishedElements:
    def test_one_is_neutral(self):
        rng = random.Random(3)
        for _ in range(20):
            s = rand_series(rng)
            assert s_otimes(S_ONE, s) == s
            assert mono_odot(S_ONE, s) == s
            assert mono_dualres(S_ONE, s) == s

    def test_eps_and_top(self):
        s = g("3.g1+5.g2.(2.g1)*")
        assert s_oplus(S_EPS, s) == s
        assert s_otimes(S_EPS, s) == S_EPS
        assert s_wedge(S_TOP, s) == s
        assert mono_odot(S_TOP, s) == S_TOP
        assert mono_dualres(g("2.g1"), S_EPS) == S_EPS


class TestDualOps:
    def test_shift_example(self):
        # termwise (t+ti) gamma^(n+ni), checked pointwise first
        m, s = g("2.g1"), g("3.g0+5.g2")
        out = mono_odot(m, s)
        for j in window(out, s):
            assert value_at(out, j) == zmax.odot(2, eval_series(s, j - 1))
        assert out == g("5.g1+7.g3")

    def test_dualres_example(self):
        m, s = g("2.g1"), g("5.g1+7.g3")
        out = mono_dualres(m, s)
        for j in window(out, s):
            assert value_at(out, j) == zmax.dualres(2, eval_series(s, j + 1))
        assert out == g("3.g0+5.g2")
        # smallest solution: the dual product recovers at least s
        assert s_leq(s, mono_odot(m, out))

    def test_non_monomial_left_operand_rejected(self):
        with pytest.raises(SeriesDomainError):
            mono_odot(g("1.g0+3.g2"), g("0.g0"))
        with pytest.raises(SeriesDomainError):
            mono_dualres(g("1.g0+3.g2"), g("0.g0"))

    def test_associativity_condition_on_monomials(self):
        # b %% (a (x) x) = (b %% a) (x) x: the projector's hypothesis
        rng = random.Random(107)

        def mono():
            return from_monomials([Monomial(rng.randint(-6, 6), rng.randint(-3, 5))])

        for _ in range(300):
            b, a, x = mono(), mono(), mono()
            assert mono_dualres(b, s_otimes(a, x)) == s_otimes(mono_dualres(b, a), x)


    def test_accepted_left_operands_obey_dual_laws(self):
        # unit, distributivity and associativity on the operands odot_left_ok
        # accepts: the meet closure's elimination relies on them
        rng = random.Random(108)

        def operand():
            u = rng.random()
            if u < 0.1:
                return S_EPS
            if u < 0.2:
                return S_TOP
            return from_monomials([Monomial(rng.randint(-6, 6), rng.randint(-3, 5))])

        for _ in range(300):
            a, b, x = operand(), operand(), operand()
            s, t = rand_series(rng), rand_series(rng)
            assert GAMMA.odot_left_ok(a)
            assert mono_odot(a, S_ONE) == a
            assert mono_odot(s_wedge(a, b), x) == s_wedge(mono_odot(a, x), mono_odot(b, x))
            assert mono_odot(a, s_wedge(s, t)) == s_wedge(mono_odot(a, s), mono_odot(a, t))
            assert mono_odot(mono_odot(a, b), x) == mono_odot(a, mono_odot(b, x))

    def test_top_coefficient_left_operand_has_no_dual_unit(self):
        # top absorbs eps under the dual product, so top.g3 (.) e is top
        # everywhere; closures and projectors must refuse such entries
        for text in ("top.g3", "top.g0", "top.g-2"):
            assert mono_odot(g(text), S_ONE) == S_TOP
            assert not GAMMA.odot_left_ok(g(text))


class TestPointwiseOracle:
    """Implementation vs direct computation from the raw monomial semantics,
    on short-window, long-window and top-tail operands."""

    COUNTS = {"short": 60, "long": 10, "top-tail": 30}

    def pairs(self, seed):
        rng = random.Random(seed)
        for kind, count in self.COUNTS.items():
            for _ in range(count):
                if kind == "top-tail":
                    # one or both operands saturate
                    tops = rng.choice(((True, False), (False, True), (True, True)))
                    yield tuple(rand_series(rng, top_tail=t) for t in tops)
                else:
                    yield rand_series(rng, **SERIES_KINDS[kind]), rand_series(rng, **SERIES_KINDS[kind])

    def test_oplus_wedge(self):
        for a, b in self.pairs(101):
            add = s_oplus(a, b)
            meet = s_wedge(a, b)
            for j in window(add, meet, a, b):
                va, vb = eval_series(a, j), eval_series(b, j)
                assert value_at(add, j) == zmax.oplus(va, vb)
                assert value_at(meet, j) == zmax.wedge(va, vb)

    def test_otimes_cauchy(self):
        for a, b in self.pairs(102):
            assert_cauchy(a, b)

    @pytest.mark.parametrize("same_period", [True, False], ids=["equal", "different"])
    def test_otimes_cauchy_multi_monomial_patterns(self, same_period):
        # The closed form groups the pattern products by period: all under
        # one when the periods are equal, else under r1, r2 and the period
        # of (r1 (+) r2)*, plus that star's transient in the polynomial.
        rng = random.Random(112 + same_period)
        for _ in range(40):
            r1 = rand_period(rng)
            r2 = r1 if same_period else rand_period(rng)
            a, b = rand_multi_pattern(rng, r1), rand_multi_pattern(rng, r2)
            assert (a.period == b.period) == same_period
            assert_cauchy(a, b)

    def test_lres_inf_formula(self):
        for a, b in self.pairs(103):
            got = s_lres(a, b)
            hi = max(window(got, a, b))
            # numerator copies repeat their terms every nu_a * nu_b exponents
            # once past the ranks, so this depth reaches the least term
            nus = [s.period.exp for s in (a, b) if s.period is not None]
            depth = hi + 40 + 2 * math.prod(nus)
            ua = unroll(a, depth)
            ub = unroll(b, depth + hi + 8)
            if got == S_EPS:
                # no admissible shift: slope of the numerator exceeds the
                # denominator's, or every candidate violates the bound
                sa, sb = sigma_inf(a), sigma_inf(b)
                assert sb > sa or all(m.coeff is zmax.EPS for m in ub)
                continue
            # meet over denominator monomials of joined shifted numerators
            for j in window(got, a, b):
                best = zmax.TOP
                for ma in ua:
                    shifted = zmax.EPS
                    for mb in ub:
                        if mb.exp - ma.exp <= j:
                            shifted = zmax.oplus(
                                shifted, zmax.lres(ma.coeff, mb.coeff)
                            )
                    best = zmax.wedge(best, shifted)
                assert value_at(got, j) == best, (format_series(a), format_series(b), j)

    def test_galois_for_residual(self):
        for a, b in self.pairs(104):
            x = s_lres(a, b)
            assert s_leq(s_otimes(a, x), b)
            assert s_leq(b, s_lres(a, s_otimes(a, b)))

    def test_shift_ops_pointwise(self):
        rng = random.Random(105)
        kinds = [kind for kind, count in self.COUNTS.items() for _ in range(count)]
        for kind in kinds:
            m = from_monomials([Monomial(rng.randint(-9, 9), rng.randint(0, 5))])
            s = rand_series(rng, **SERIES_KINDS[kind])
            t, n = m.transient[0].coeff, m.transient[0].exp
            prod = mono_odot(m, s)
            res = mono_dualres(m, s)
            for j in window(prod, res, s):
                assert value_at(prod, j) == zmax.odot(t, eval_series(s, j - n))
                expected = zmax.dualres(t, eval_series(s, j + n))
                assert value_at(res, j) == expected


class TestStar:
    def test_unit(self):
        assert s_star(S_ONE) == S_ONE
        assert s_star(S_EPS) == S_ONE

    def test_single_monomial(self):
        # derived by accumulating explicit powers pointwise, then frozen
        s = g("1.g1")
        st = s_star(s)
        for j in range(0, 12):
            assert value_at(st, j) == j
        assert st == g("0.g0.(1.g1)*")
        assert sigma_inf(st) == Fraction(1, 1)
        # the step-18 variant used by the projector fixtures
        assert s_star(g("18.g1")) == g("0.g0.(18.g1)*")
        assert sigma_inf(s_star(g("18.g1"))) == Fraction(1, 18)

    def test_saturating_star(self):
        assert s_star(g("3.g0")) == g("top.g0")
        assert s_star(g("-2.g1")) == S_ONE

    def test_star_by_powers_oracle(self):
        rng = random.Random(106)
        for i in range(40):
            s = rand_positive_series(rng)
            if i % 2:
                s = s_oplus(s, g(f"top.g{rng.randint(1, 12)}"))
            st = s_star(s)
            # partial sums of explicit powers lower-approximate the star;
            # every exponent of s is >= 1 so 13 powers settle exponents < 13
            acc, power = S_ONE, S_ONE
            for _ in range(13):
                power = s_otimes(power, s)
                acc = s_oplus(acc, power)
            for j in range(0, 13):
                assert value_at(st, j) == value_at(acc, j)
            assert s_leq(acc, st)

    def test_star_with_a_long_transient(self):
        # the best-density recurrence shows early but holds only from
        # exponent 70 on, so the star's horizon has to grow past it
        s = g("11.g8+15.g11")
        st = s_star(s)
        # every exponent of s is >= 8, so 16 powers settle exponents < 136
        acc, power = S_ONE, S_ONE
        for _ in range(16):
            power = s_otimes(power, s)
            acc = s_oplus(acc, power)
        for j in range(0, 136):
            assert value_at(st, j) == value_at(acc, j), j

    def test_multi_monomial_patterns(self):
        # For s = p (+) q r*, e (+) q (q (+) r)* is built as one pattern
        # series, checked here through s* = e (+) s (x) s*; explicit powers
        # pin the first exponents independently.
        rng = random.Random(114)
        for i in range(40):
            s = rand_multi_pattern(rng, rand_period(rng), lo=1, exp_lo=1)
            st_ = s_star(s)
            assert st_ == s_oplus(S_ONE, s_otimes(s, st_)), format_series(s)
            acc, power = S_ONE, S_ONE
            for _ in range(13):
                power = s_otimes(power, s)
                acc = s_oplus(acc, power)
            for j in range(0, 13):
                assert value_at(st_, j) == value_at(acc, j), (format_series(s), j)

    def test_negative_exponent_rejected(self):
        with pytest.raises(SeriesDomainError):
            s_star(g("-3.g-1"))


class TestSlopes:
    def test_example_slope(self):
        assert sigma_inf(g("7.g4.(18.g1)*")) == Fraction(1, 18)

    def test_sentinels(self):
        assert sigma_inf(S_EPS) == float("inf")
        assert sigma_inf(g("3.g1")) == float("inf")
        assert sigma_inf(S_TOP) == float("-inf")
        assert sigma_inf(g("top.g2")) == float("-inf")

    def test_slope_table(self):
        rng = random.Random(107)
        for _ in range(60):
            a, b = rand_series(rng), rand_series(rng)
            sa, sb = sigma_inf(a), sigma_inf(b)
            assert sigma_inf(s_oplus(a, b)) == min(sa, sb)
            if a != S_EPS and b != S_EPS:
                assert sigma_inf(s_otimes(a, b)) == min(sa, sb)
                assert sigma_inf(s_wedge(a, b)) == max(sa, sb)
            m = from_monomials([Monomial(rng.randint(-5, 5), rng.randint(0, 4))])
            if b != S_EPS:
                assert sigma_inf(mono_odot(m, b)) == sb
                assert sigma_inf(mono_dualres(m, b)) == sb

    def test_residual_slope_rule(self):
        rng = random.Random(108)
        seen_eps = seen_ok = False
        for _ in range(80):
            den, num = rand_series(rng), rand_series(rng)
            if den == S_EPS or num == S_EPS:
                continue
            out = s_lres(den, num)
            if sigma_inf(num) > sigma_inf(den):
                assert out == S_EPS
                seen_eps = True
            elif sigma_inf(num) < float("inf"):
                assert out != S_EPS and sigma_inf(out) == sigma_inf(num)
                seen_ok = True
        assert seen_eps and seen_ok

    def test_star_slope_rule(self):
        rng = random.Random(109)
        for _ in range(40):
            s = rand_positive_series(rng)
            slopes = [Fraction(m.exp, m.coeff) for m in s.transient + s.pattern]
            expected = min(slopes + [sigma_inf(s)])
            assert sigma_inf(s_star(s)) == expected


@st.composite
def series_st(draw):
    monos = draw(
        st.lists(st.tuples(st.integers(-9, 9), st.integers(0, 6)), max_size=2)
    )
    transient = [Monomial(t, n) for t, n in monos]
    if draw(st.booleans()):
        pat = draw(
            st.lists(st.tuples(st.integers(-9, 9), st.integers(0, 6)), min_size=1, max_size=2)
        )
        period = Monomial(draw(st.integers(1, 8)), draw(st.integers(1, 4)))
        return make_series(transient, [Monomial(t, n) for t, n in pat], period)
    if not transient:
        transient = [Monomial(draw(st.integers(-9, 9)), draw(st.integers(0, 6)))]
    return make_series(transient)


class TestAlgebraicLaws:
    """Different computation orders must canonicalize identically."""

    @given(series_st(), series_st())
    @settings(max_examples=60, deadline=None)
    def test_commutativity(self, a, b):
        assert s_oplus(a, b) == s_oplus(b, a)
        assert s_wedge(a, b) == s_wedge(b, a)
        assert s_otimes(a, b) == s_otimes(b, a)

    @given(series_st(), series_st(), series_st())
    @settings(max_examples=60, deadline=None)
    def test_associativity(self, a, b, c):
        assert s_oplus(s_oplus(a, b), c) == s_oplus(a, s_oplus(b, c))
        assert s_wedge(s_wedge(a, b), c) == s_wedge(a, s_wedge(b, c))
        assert s_otimes(s_otimes(a, b), c) == s_otimes(a, s_otimes(b, c))

    @given(series_st(), series_st(), series_st())
    @settings(max_examples=60, deadline=None)
    def test_distributivity(self, a, b, c):
        lhs = s_otimes(a, s_oplus(b, c))
        rhs = s_oplus(s_otimes(a, b), s_otimes(a, c))
        assert lhs == rhs

    @given(series_st(), series_st(), series_st())
    @settings(max_examples=60, deadline=None)
    def test_residual_of_composition(self, a, b, x):
        assert s_lres(s_otimes(a, b), x) == s_lres(b, s_lres(a, x))

    @given(series_st())
    @settings(max_examples=60, deadline=None)
    def test_star_fixed_point(self, s):
        st_ = s_star(s)
        assert st_ == s_oplus(S_ONE, s_otimes(s, st_))
        assert s_otimes(st_, st_) == st_
        assert s_star(st_) == st_


class TestSaturatedSeries:
    """Edge behaviour of series that reach top from some exponent on."""

    def test_residual_by_saturating_denominator(self):
        assert s_lres(g("top.g2"), g("3.g1.(2.g1)*")) == S_EPS
        assert s_lres(g("top.g2"), S_TOP) == S_TOP
        assert s_lres(S_TOP, g("3.g1")) == S_EPS
        assert s_lres(S_TOP, S_TOP) == S_TOP

    def test_residual_with_saturating_numerator(self):
        a = g("0.g0.(1.g1)*")
        x = s_lres(a, g("top.g0"))
        assert x == g("top.g0")
        assert s_leq(s_otimes(a, x), g("top.g0"))

    def test_saturating_products(self):
        assert s_otimes(g("top.g2"), g("3.g1")) == g("top.g3")
        assert s_otimes(g("1.g1+top.g4"), g("2.g2")) == g("3.g3+top.g6")
        assert s_oplus(g("top.g3"), g("5.g0.(2.g1)*")) == g("5.g0+7.g1+9.g2+top.g3")
        # top.g3 is eps below exponent 3, so the meet drops the early steps
        assert s_wedge(g("top.g3"), g("5.g0.(2.g1)*")) == g("11.g3.(2.g1)*")

    def test_star_with_saturation(self):
        assert s_star(g("top.g2")) == g("0.g0+top.g2")
        assert s_star(g("1.g1+top.g4")) == g("0.g0+1.g1+2.g2+3.g3+top.g4")


class TestCanonicalInvariants:
    def test_ops_return_canonical_forms(self):
        rng = random.Random(110)
        for _ in range(80):
            a, b = rand_series(rng), rand_series(rng)
            for s in (s_oplus(a, b), s_wedge(a, b), s_otimes(a, b), s_lres(a, b)):
                # the constructor re-validates canonical invariants
                Series(s.transient, s.pattern, s.period, s.all_top)
                # non-decreasing as a map
                prev = zmax.EPS
                for j in window(s):
                    v = value_at(s, j)
                    assert zmax.leq(prev, v)
                    prev = v

    def test_equality_is_semantic(self):
        # two descriptions of the same staircase canonicalize identically
        a = make_series([], [Monomial(3, 1)], Monomial(2, 1))
        b = make_series([Monomial(3, 1)], [Monomial(5, 2)], Monomial(2, 1))
        assert a == b


class TestUncheckedResults:
    """Results are built without the public constructor's checks; rebuilt
    through ``Series(t, p, r)``, every one is accepted and equal."""

    @staticmethod
    def rebuilt(s):
        return Series(s.transient, s.pattern, s.period, s.all_top)

    def test_results_pass_the_constructor(self):
        rng = random.Random("unchecked-results")
        operands = 0
        for i in range(1700):
            kind = ["short", "long", "top-tail"][i % 3]
            a = rand_series(rng, **SERIES_KINDS[kind])
            b = rand_series(rng, **SERIES_KINDS[rng.choice(["short", "long"])])
            p = rand_positive_series(rng)
            m = from_monomials([Monomial(rng.randint(-20, 20), rng.randint(-5, 10))])
            operands += 4
            results = [s_oplus(a, b), s_wedge(a, b), s_otimes(a, b), s_otimes(b, a), s_star(p),
                       mono_odot(m, a), mono_dualres(m, b),
                       parse_series(f"{format_series(a)}+{format_series(b)}")]
            try:
                results.append(s_lres(a, b))
            except DivergenceError:
                pass
            for got in results:
                assert self.rebuilt(got) == got, (format_series(a), format_series(b))
        assert operands >= 5000

    def test_distinguished_and_shifted_results(self):
        for got in (S_EPS, S_TOP, s_otimes(g("top.g2"), g("1.g0.(3.g2)*")), g("e"),
                    s_otimes(g("3.g1"), g("1.g0+top.g4")), s_lres(g("2.g1"), g("5.g0.(1.g3)*"))):
            assert self.rebuilt(got) == got


class TestWindowValues:
    """``_walk`` lists the staircase steps at or below an exponent in one pass;
    read on a window, they must agree with the unrolled monomial semantics
    on every kind of window, and each must be a rise."""

    def check(self, s, lo, hi):
        exps, coeffs = _walk(s, hi)
        assert all(e <= hi for e in exps), (format_series(s), hi)
        for e, c in zip(exps, coeffs):
            assert eval_series(s, e) == c != eval_series(s, e - 1), (format_series(s), e)
        got = [coeffs[bisect_right(exps, j) - 1] if exps and j >= exps[0] else zmax.EPS
               for j in range(lo, hi + 1)]
        assert got == [eval_series(s, j) for j in range(lo, hi + 1)], (format_series(s), lo, hi)

    def test_random_windows(self):
        rng = random.Random(112)
        for kind in SERIES_KINDS:
            for _ in range(40):
                s = rand_series(rng, **SERIES_KINDS[kind])
                first = min(m.exp for m in s.transient + s.pattern)
                for lo in (first - rng.randint(1, 10),  # below the first step
                           first + rng.randint(0, 8),
                           first + rng.randint(50, 200)):  # many periods in
                    self.check(s, lo, lo + rng.randint(-3, 60))  # hi < lo too

    def test_empty_window(self):
        self.check(g("3.g1.(2.g1)*"), 5, 4)
        assert _walk(g("3.g1.(2.g1)*"), 0) == ([], [])

    def test_extremes(self):
        # The all-top series has no steps: every caller takes it first.
        assert _walk(S_EPS, 3) == ([], [])
        self.check(S_EPS, -2, 3)
        self.check(g("1.g0+4.g2+top.g5"), -2, 9)
        self.check(g("top.g3"), 0, 6)

    def test_window_inside_a_constant_run(self):
        s = g("0.g0.(5.g12)*")
        self.check(s, 1, 11)
        self.check(s, 121, 132)
        assert _walk(s, 132) == (list(range(0, 133, 12)), list(range(0, 56, 5)))


class TestResidualFallback:
    """Residual values whose terms meet eps or top."""

    def test_saturating_operands(self):
        # a is top from exponent 3 on and b from 6 on: x(j) >= 3 needs every
        # b(j + k) with k >= 3 to be top
        assert s_lres(g("0.g0+top.g3"), g("1.g0+5.g2+top.g6")) == g("5.g3+top.g6")

    def test_periodic_denominator_under_a_saturating_numerator(self):
        a, b = g("0.g0.(1.g1)*"), g("2.g0+4.g3+top.g5")
        x = s_lres(a, b)
        for j in range(-8, 12):
            # greatest x(j): the least b(j + k) - k over k >= 0
            want = zmax.TOP
            for k in range(0, 30):
                want = zmax.wedge(want, zmax.lres(k, eval_series(b, j + k)))
            assert value_at(x, j) == want
        assert x == g("0.g0+1.g1+2.g2+3.g3+4.g4+top.g5")

    def test_long_period_under_a_saturating_denominator(self):
        # every term past b's top is top, so the cost must not grow with
        # a's period
        start = time.perf_counter()
        assert s_lres(g("0.g0.(1.g4097)*"), g("top.g2")) == g("top.g2")
        assert time.perf_counter() - start < 1.0


class TestWorkBound:
    """Sweeps whose windows fit the cap but whose work does not are refused
    before they run."""

    def test_residual_window_times_steps(self):
        # window about 8,000 values, each a minimum over about 4,000 steps of a
        a, b = g("0.g0.(1.g1)*"), g("0.g0.(4000.g4000)*")
        start = time.perf_counter()
        with pytest.raises(DivergenceError,
                           match=r"residual sweep .*: estimated work \d+ is past the cap"):
            s_lres(a, b)
        assert time.perf_counter() - start < 1.0

    def test_star_horizon_times_items(self):
        # 400 items over a horizon of about 160,000 exponents
        s = from_monomials(Monomial(i, 100 * i + 1) for i in range(1, 401))
        start = time.perf_counter()
        with pytest.raises(DivergenceError, match="star"):
            s_star(s)
        assert time.perf_counter() - start < 1.0


class TestCopiesOfTheFlatterPeriod:
    """A product of patterns with periods r = T.gN steeper than f = t.gn
    multiplies them by e, f, ..., f^(i-1), up to the first power of f that a
    power of r beats; their number and window are checked before any copy is
    built."""

    @pytest.mark.parametrize("width,period", [(1, (300000, 100000)), (1, (130001, 130000)),
                                              (50, (300000, 100000))])
    def test_long_steep_period_is_refused_quickly(self, width, period):
        a = make_series([], [Monomial(3 * k, 200 * k) for k in range(width)], Monomial(*period))
        start = time.perf_counter()
        with pytest.raises(DivergenceError, match=f"period exponent {period[1]}"):
            s_otimes(a, g("0.g0.(1.g1)*"))
        assert time.perf_counter() - start < 0.5

    def test_copies_stop_at_the_first_beaten_power(self):
        # r = 10.g7, f = 4.g3: f^5 = 20.g15 is at most r^2 = 20.g14, so the
        # copies stop at f^4; f^6 = 24.g18 is above r^2 but at most f r^2.
        a, b = g("0.g0.(10.g7)*"), g("0.g0.(4.g3)*")
        got = s_otimes(a, b)
        for j in range(-2, 200):
            want = max((10 * x + 4 * y for x in range(j // 7 + 1)
                        for y in range((j - 7 * x) // 3 + 1)), default=zmax.EPS)
            assert eval_series(got, j) == want, j


class TestClosedFormProducts:
    """Products of the acceptance-criterion-4 projector, which multiplies
    series with equal periods and multi-monomial patterns."""

    C15 = "0.g0+15.g3+17.g4+30.g6.(15.g3)*+32.g7.(15.g3)*+34.g8.(15.g3)*"
    C12 = "0.g0+12.g3+14.g4+27.g6.(15.g3)*+29.g7.(15.g3)*+31.g8.(15.g3)*"

    @pytest.mark.parametrize("a,b,expect", [
        (C15, C15, C15),
        (C12, C12, C12),
        (C15, "0.g0+30.g6.(15.g3)*+32.g7.(15.g3)*+34.g8.(15.g3)*", C15),
        ("-20.g-2+2.g0+4.g1+17.g3.(15.g3)*+19.g4.(15.g3)*+21.g5.(15.g3)*", C15,
         "-20.g-2+2.g0+4.g1+17.g3.(15.g3)*+19.g4.(15.g3)*+21.g5.(15.g3)*"),
        ("-20.g-2+2.g0+4.g1+17.g3.(15.g3)*+19.g4.(15.g3)*+21.g5.(15.g3)*",
         "10.g3+12.g5+25.g6+27.g7+40.g9.(15.g3)*+42.g10.(15.g3)*+44.g11.(15.g3)*",
         "-10.g1+12.g3+14.g4+27.g6.(15.g3)*+29.g7.(15.g3)*+31.g8.(15.g3)*"),
        ("2.g1+4.g3+17.g4+19.g5+32.g7.(15.g3)*+34.g8.(15.g3)*+36.g9.(15.g3)*", C12,
         "2.g1+4.g3+17.g4+19.g5+32.g7.(15.g3)*+34.g8.(15.g3)*+36.g9.(15.g3)*"),
        ("0.g0+10.g1.(18.g1)*", "0.g0+10.g1.(18.g1)*", "0.g0+10.g1.(18.g1)*"),
        ("12.g2.(18.g1)*", "0.g0+10.g1.(18.g1)*", "12.g2.(18.g1)*"),
    ])
    def test_criterion_4_products(self, a, b, expect):
        assert s_otimes(g(a), g(b)) == g(expect)
        assert s_otimes(g(b), g(a)) == g(expect)
        assert_cauchy(g(a), g(b))


class TestPolynomialJoin:
    """A join of two polynomials merges their monomials without a window, so
    exponents far apart cost nothing."""

    def test_monomials_far_apart(self):
        start = time.perf_counter()
        got = s_oplus(g("1.g0"), g("2.g300000"))
        assert time.perf_counter() - start < 1.0
        assert got == from_monomials([Monomial(1, 0), Monomial(2, 300000)])
        assert got == g("1.g0+2.g300000")

    def test_top_tails(self):
        assert s_oplus(g("1.g0+top.g5"), g("2.g3+top.g9")) == g("1.g0+2.g3+top.g5")
        assert s_oplus(g("1.g0+top.g300000"), g("5.g2")) == g("1.g0+5.g2+top.g300000")
        assert s_oplus(g("top.g4"), g("3.g1+9.g4")) == g("3.g1+top.g4")


class TestPolynomialPeriodicJoin:
    """A finite polynomial joins a periodic series on steps, with no window:
    in both orders it equals the window sum of ``_pattern_sum`` and the
    pointwise max, and keeps that sum's work estimate."""

    def check(self, p, s):
        got = s_oplus(p, s)
        assert got == s_oplus(s, p) == _pattern_sum({s.period: pairs(s.pattern)},
                                                    pairs(p.transient + s.transient))
        assert_pointwise(got, lambda j: zmax.oplus(value_at(p, j), value_at(s, j)), p, s)

    def test_random_pairs(self):
        rng = random.Random("poly-periodic-join")
        for _ in range(400):
            s = rand_series(rng, periodic_bias=1.0, **SERIES_KINDS[rng.choice(["short", "long"])])
            p = from_monomials([Monomial(rng.randint(-30, 90), rng.randint(-3, 50))
                                for _ in range(rng.randint(1, 4))])
            self.check(p, s)

    def test_polynomial_above_several_periods(self):
        # 5.g1 and 26.g9.(21.g8)* are a join of the benchmark's stars.  200.g3
        # holds the join from exponent 3 to 100, and 200.g7 from 7 to 33,
        # about 9 periods of its series.
        self.check(g("5.g1"), g("26.g9.(21.g8)*"))
        assert s_oplus(g("5.g1"), g("26.g9.(21.g8)*")) == g("5.g1.(21.g8)*")
        self.check(g("200.g3"), g("0.g0.(2.g1)*+1.g1.(2.g1)*"))
        self.check(g("-4.g0+60.g2+200.g7"), g("1.g2+3.g4.(20.g3)*+9.g5.(20.g3)*"))

    def test_equal_exponents(self):
        # Monomials on the exponents of copies, above, below and equal to them.
        self.check(g("3.g2+8.g4"), g("0.g0.(2.g2)*"))
        self.check(g("4.g4"), g("0.g0.(2.g2)*"))
        self.check(g("1.g2+3.g4+7.g6"), g("0.g0.(2.g2)*"))
        self.check(g("0.g0"), g("0.g0.(1.g2)*+1.g1.(1.g2)*"))

    def test_top_tailed_polynomial_takes_the_window_sum(self, monkeypatch):
        p, finite, s = g("5.g1+top.g9"), g("5.g1"), g("0.g0.(1.g1)*")
        want = g("0.g0+5.g1+6.g6+7.g7+8.g8+top.g9")
        sums = []
        pattern_sum = series_module._pattern_sum
        monkeypatch.setattr(series_module, "_pattern_sum",
                            lambda *args: sums.append(args) or pattern_sum(*args))
        assert s_oplus(p, s) == s_oplus(s, p) == want
        assert len(sums) == 2
        s_oplus(finite, s)
        assert len(sums) == 2

    @pytest.mark.parametrize("poly", ["1000000000.g0"])
    def test_far_polynomial_is_refused_at_once(self, poly):
        # 10^9 copies of the series pass before the polynomial stops adding.
        for a, b in ((g(poly), g("0.g0.(1.g1)*")), (g("0.g0.(1.g1)*"), g(poly))):
            start = time.perf_counter()
            with pytest.raises(DivergenceError, match="pattern with period exponent 1"):
                s_oplus(a, b)
            assert time.perf_counter() - start < 1.0

    def test_polynomial_far_below_lists_few_copies(self):
        # 5.g-300000 adds nothing from exponent 5 on: 8 copies, whatever the
        # exponents between its term and the series' first step.
        p, s = g("5.g-300000"), g("0.g0.(1.g1)*")
        start = time.perf_counter()
        got = s_oplus(p, s)
        assert time.perf_counter() - start < 0.01
        assert got == s_oplus(s, p) == g("5.g-300000+6.g6.(1.g1)*") == g("5.g-300000+0.g0.(1.g1)*")
        for j in (-300001, -300000, -1, 0, 5, 6, 7, 1000):
            assert value_at(got, j) == zmax.oplus(value_at(p, j), value_at(s, j)), j


class TestStepCanonicaliser:
    """``_canonical`` on the steps of exact windows against the window
    canonicalisation it replaced (``canonical_by_window``): the same form,
    or an AssertionError from both where the claimed recurrence fails."""

    @staticmethod
    def both(vals, lo, tau, nu, rank):
        hi = lo + len(vals) - 1
        try:
            want = canonical_by_window(vals, lo, tau, nu, rank)
        except AssertionError:
            with pytest.raises(AssertionError):
                _canonical(*window_steps(vals, lo), hi, tau, nu, rank)
            return None
        got = _canonical(*window_steps(vals, lo), hi, tau, nu, rank)
        assert got == want, (vals, lo, tau, nu, rank)
        return want

    @staticmethod
    def claim(rng, s, scale):
        """A window of s from below its first exponent, a multiple of its
        period, and a rank from which that recurrence holds, past the
        earliest one."""
        tau, nu = s.period.coeff * scale, s.period.exp * scale
        rank = s.pattern[0].exp + rng.randint(0, 2 * nu)
        lo = _min_exp(s) - rng.randint(0, 4)
        hi = rank + 2 * nu + rng.randint(0, nu)
        return [value_at(s, j) for j in range(lo, hi + 1)], lo, tau, nu, rank

    def test_periodic_windows(self):
        # Periods with many divisors (12, 60) and coefficients that leave
        # tau*nu0/nu fractional for some of them; patterns whose copies are
        # not all steps; eps prefixes.
        rng = random.Random("step-canonicaliser")
        refused = 0
        for _ in range(2000):
            nu = rng.choice([1, 2, 3, 4, 6, 12, 12, 60])
            period = Monomial(rng.choice([1, 2, 5, 7, 12, rng.randint(1, 90)]), nu)
            s = make_series([Monomial(rng.randint(-30, 10), rng.randint(-5, 10))
                             for _ in range(rng.randint(0, 3))],
                            [Monomial(rng.randint(-10, 40), rng.randint(0, nu + 8))
                             for _ in range(rng.randint(1, 5))], period)
            vals, lo, tau, nu, rank = self.claim(rng, s, rng.choice([1, 1, 2, 3]))
            assert self.both(vals, lo, tau, nu, rank) == s
            # The same window claimed from the last j below the rank where
            # the recurrence fails: both refuse it.
            fails = [j for j in range(rank - 1, lo - 1, -1)
                     if vals[j - lo] is not zmax.EPS and vals[j - lo + nu] != vals[j - lo] + tau]
            if fails:
                refused += 1
                assert self.both(vals, lo, tau, nu, fails[0]) is None
        assert refused > 500

    @pytest.mark.parametrize("text", ["0.g0.(1.g2)*+1.g1.(1.g2)*", "3.g0.(5.g12)*",
                                      "2.g1+4.g3.(7.g60)*+9.g30.(7.g60)*", "0.g0.(1.g1)*",
                                      "-7.g-3+1.g2.(12.g60)*+6.g40.(12.g60)*"])
    def test_named_windows(self, text):
        rng = random.Random(text)
        s = g(text)
        for scale in (1, 2, 5):
            for _ in range(20):
                assert self.both(*self.claim(rng, s, scale)) == s

    def test_polynomial_and_top_windows(self):
        rng = random.Random("step-canonicaliser-polynomials")
        for _ in range(300):
            s = rand_series(rng, periodic_bias=0.0, top_tail=rng.random() < 0.5)
            last = s.transient[-1].exp
            lo = _min_exp(s) - rng.randint(0, 3)
            # A top tail ends the window's series whatever period is claimed
            # (a meet's); a finite polynomial has none, and needs the rank at
            # or past its last step.
            tau, nu = rng.choice([(0, 1), (3, 2)])
            rank = last + rng.randint(-2, 3)
            vals = [value_at(s, j) for j in range(lo, rank + 2 * nu + rng.randint(0, 3) + 1)]
            got = self.both(vals, lo, tau, nu, rank)
            if s.transient[-1].coeff is TOP:
                assert got == s
            else:
                assert got == (s if tau == 0 and rank >= last else None)

    def test_eps_window(self):
        assert self.both([zmax.EPS] * 5, -2, 0, 1, 0) == S_EPS
        assert self.both([zmax.EPS] * 9, -2, 1, 2, 1) == S_EPS


class TestRecurrenceFill:
    """A group's sum q (x) (tau.g(nu))* is the least solution of
    g[i] = max(q[i], g[i - nu] + tau): in one residue class mod nu the copies
    of each monomial run to the next one of larger key, and give what every
    copy of every monomial gives."""

    def test_random_sums_against_the_oracle(self):
        rng = random.Random("recurrence-sums")
        for _ in range(150):
            period = Monomial(rng.randint(1, 5), rng.randint(1, 4))
            groups = {period: [Monomial(rng.randint(-10, 60), rng.randint(0, 40))
                               for _ in range(rng.randint(2, 20))]}
            if rng.random() < 0.5:
                groups[Monomial(1, rng.randint(3, 6))] = [Monomial(rng.randint(0, 90), 0)]
            TestOneWindowPerSum().check(groups, [Monomial(rng.randint(-5, 99), rng.randint(0, 50))
                                                 for _ in range(rng.randint(0, 2))])

    def test_thousand_term_literal(self):
        # 101i.g(100i).(1.g1)*, i < 1000: no term dominates another, and the
        # copies would fill about 1,000 * 100,000 exponents.
        terms = [f"{101 * i}.g{100 * i}.(1.g1)*" for i in range(1000)]
        start = time.perf_counter()
        got = parse_series("+".join(terms))
        assert time.perf_counter() - start < 1.0
        parts = [g(t) for t in terms]
        for j in (-1, 0, 1, 99, 100, 101, 5050, 54321, 99899, 99900, 99901, 100000, 123456):
            want = max((value_at(p, j) for p in parts), key=lambda v: -1 if v is zmax.EPS else v)
            assert value_at(got, j) == want == (j + min(j // 100, 999) if j >= 0 else zmax.EPS), j
        assert got.period == Monomial(1, 1) and len(got.pattern) == 1


class TestOneWindowPerSum:
    """``_pattern_sum`` joins a polynomial and several (pattern, period)
    groups in one window: the steepest groups set the period, and each
    flatter group only a rank past which the steep ones dominate it."""

    @staticmethod
    def group_value(groups, poly, j):
        best = eval_monomials(poly, j)
        for period, monos in groups.items():
            for m in monos:
                if m.exp <= j:
                    best = zmax.oplus(best, m.coeff + (j - m.exp) // period.exp * period.coeff)
        return best

    def check(self, groups, poly):
        got = _pattern_sum({r: pairs(ms) for r, ms in groups.items()}, pairs(poly))
        hi = max(m.exp for ms in [poly, *groups.values()] for m in ms)
        hi += 4 * math.lcm(*(r.exp for r in groups)) + 40
        for j in range(-3, hi):
            assert eval_series(got, j) == self.group_value(groups, poly, j), (groups, poly, j)
        return got

    def test_equal_slopes(self):
        # periods 1.g1, 2.g2 and 3.g3: one slope, so the window spans their lcm
        got = self.check({Monomial(1, 1): [Monomial(0, 4)],
                          Monomial(2, 2): [Monomial(3, 0), Monomial(4, 1)],
                          Monomial(3, 3): [Monomial(2, 5)]}, [])
        assert got.period == Monomial(1, 1)

    def test_different_slopes(self):
        # the flat group 50.g0.(1.g4)* leads until the steep 0.g0.(3.g2)* passes it
        got = self.check({Monomial(1, 4): [Monomial(50, 0)],
                          Monomial(3, 2): [Monomial(0, 0), Monomial(1, 1)],
                          Monomial(2, 3): [Monomial(20, 2)]}, [])
        assert got.period == Monomial(3, 2) and got.transient

    def test_transient_above_the_steep_group(self):
        got = self.check({Monomial(2, 1): [Monomial(-5, 2)], Monomial(1, 3): [Monomial(4, 0)]},
                         [Monomial(40, 1), Monomial(90, 30)])
        assert got.period == Monomial(2, 1)

    def test_random_groups(self):
        rng = random.Random(140)
        periods = [Monomial(t, n) for t, n in ((1, 1), (2, 2), (3, 2), (1, 3), (5, 4), (2, 1),
                                               (4, 3), (7, 5))]
        for _ in range(80):
            groups = {r: [Monomial(rng.randint(-20, 20), rng.randint(0, 12))
                          for _ in range(rng.randint(1, 3))]
                      for r in rng.sample(periods, rng.randint(2, 6))}
            poly = [Monomial(rng.randint(-20, 60), rng.randint(0, 30))
                    for _ in range(rng.randint(0, 3))]
            self.check(groups, poly)

    def test_top_in_a_group_saturates_the_sum(self):
        got = _pattern_sum({Monomial(1, 1): [(0, 0), (7, TOP)], Monomial(1, 2): [(3, 9)]},
                           [(9, 30)])
        assert got == g("0.g0+1.g1+2.g2+9.g3+10.g5+top.g7")


class TestDominatedPatternMonomials:
    """``_pattern_sum`` drops the pattern monomials that another of the same
    period dominates before it sizes its window, so a far dominated one
    neither widens the window nor costs a fill."""

    @staticmethod
    def dominates(a, b, period):
        (ea, ca), (eb, cb) = a, b
        return ea <= eb and ca + (eb - ea) // period.exp * period.coeff >= cb

    def test_dropped_monomials_are_dominated_by_kept_ones(self):
        rng = random.Random(151)
        for _ in range(400):
            period = Monomial(rng.randint(1, 6), rng.randint(1, 5))
            ms = pairs([Monomial(rng.randint(-15, 15), rng.randint(-4, 25))
                        for _ in range(rng.choice((2, 2, rng.randint(3, 12))))])
            kept = _undominated(ms, period.coeff, period.exp)
            assert set(kept) <= set(ms)
            if len(ms) == 2:
                # A pair is tested directly: one is kept exactly when one
                # dominates the other.
                a, b = ms
                assert (len(kept) == 1) == (self.dominates(a, b, period)
                                            or self.dominates(b, a, period)), (ms, period)
            for m in ms:
                assert m in kept or any(k != m and self.dominates(k, m, period) for k in kept), (
                    ms, period, m)

    def test_residue_decides_domination(self):
        # 0.g3 is not below 4.g5 over period 5.g4: its copy 5.g7 comes after
        # 4.g5.  Keys alone (0 and -1) would drop 4.g5.
        ms = [(3, 0), (5, 4)]
        assert _undominated(ms, 5, 4) == ms
        assert _undominated([(3, 0), (7, 4)], 5, 4) == [(3, 0)]

    def test_groups_with_many_dominated_monomials(self):
        # Up to 12 monomials per group, many far and dominated, against the
        # group-by-group oracle of TestOneWindowPerSum.
        rng = random.Random(152)
        periods = [Monomial(t, n) for t, n in ((1, 1), (2, 2), (3, 2), (1, 3), (5, 4), (2, 1))]
        for _ in range(40):
            groups = {r: [Monomial(rng.randint(-20, 20), rng.choice((rng.randint(0, 12),
                                                                     rng.randint(40, 120))))
                          for _ in range(rng.randint(1, 12))]
                      for r in rng.sample(periods, rng.randint(1, 4))}
            poly = [Monomial(rng.randint(-20, 60), rng.randint(0, 30))
                    for _ in range(rng.randint(0, 3))]
            TestOneWindowPerSum().check(groups, poly)

    def test_far_dominated_product_term(self):
        # The group monomial 1.g300000 of this product lies below the copies
        # of 0.g0; it used to size a window of 300,002.
        start = time.perf_counter()
        got = s_otimes(g("0.g0+1.g300000"), g("0.g0.(1.g1)*"))
        assert time.perf_counter() - start < 1.0
        assert got == g("0.g0.(1.g1)*")

    def test_many_dominated_periodic_terms(self):
        # 1,000 terms of one period, each below the copies of 0.g0.(1.g1)*:
        # one kept monomial and a window of a few exponents.
        text = "+".join(f"{i}.g{100 * i}.(1.g1)*" for i in range(1000))
        start = time.perf_counter()
        got = parse_series(text)
        assert time.perf_counter() - start < 1.0
        assert got == g("0.g0.(1.g1)*")


class TestRoadmapRepros:
    """Joins the lcm window used to refuse: one window per sum sizes them by
    the steep operand alone."""

    def test_join_of_coprime_long_periods(self):
        a, b = g("0.g0.(1.g1009)*"), g("0.g0.(3.g1013)*")
        start = time.perf_counter()
        got = s_oplus(a, b)
        assert time.perf_counter() - start < 1.0
        assert got == g("0.g0+1.g1009+3.g1013.(3.g1013)*")
        for j in range(-2, 5 * 1013):
            assert eval_series(got, j) == zmax.oplus(eval_series(a, j), eval_series(b, j)), j

    def test_far_monomial_below_a_periodic_term(self):
        start = time.perf_counter()
        got = parse_series("0.g0.(1.g1)*+2.g300000")
        assert time.perf_counter() - start < 1.0
        assert got == g("0.g0.(1.g1)*")
        # eval_series unrolls one monomial per exponent, so the far stretch
        # is read with the closed-form value_at.
        for j in [*range(-2, 50), *range(299990, 300010)]:
            want = zmax.oplus(j if j >= 0 else zmax.EPS, 2 if j >= 300000 else zmax.EPS)
            assert (eval_series if j < 50 else value_at)(got, j) == want, j


class TestStepMeetsAndResiduals:
    """Meets and residuals merge step lists, so their work is counted in
    steps: inputs whose exponent windows passed the cap now return, and are
    checked pointwise."""

    @staticmethod
    def timed(op, *args):
        start = time.perf_counter()
        got = op(*args)
        assert time.perf_counter() - start < 1.0
        return got

    def test_residual_by_a_far_polynomial(self):
        a, b = g("0.g0+1.g1000000"), g("0.g0")
        got = self.timed(s_lres, a, b)
        assert got == g("-1.g0")
        for j in range(-5, 6):
            want = zmax.EPS if j < 0 else min(zmax.lres(0, eval_series(b, j)),
                                               zmax.lres(1, eval_series(b, j + 10**6)))
            assert eval_series(got, j) == want == (zmax.EPS if j < 0 else -1), j

    @pytest.mark.parametrize("a,b", [("0.g0.(1.g1000)*", "0.g0.(1.g999)*"),
                                     ("0.g0.(1.g4000)*", "3.g0.(1.g3999)*")])
    def test_meet_of_long_coprime_periods_is_the_flatter_operand(self, a, b):
        a, b = g(a), g(b)
        assert self.timed(s_wedge, a, b) is a
        assert self.timed(s_wedge, b, a) is a
        for j in [*range(-2, 30), *range(3990, 4010), *range(15995990, 15996010, 3)]:
            want = zmax.wedge(value_at(a, j), value_at(b, j))
            assert value_at(a, j) == want, j
            if j < 5000:
                assert eval_series(a, j) == zmax.wedge(eval_series(a, j), eval_series(b, j)), j

    def test_join_of_long_coprime_periods_is_the_steeper_operand(self):
        a, b = g("0.g0.(1.g1000)*"), g("0.g0.(1.g999)*")
        assert self.timed(s_oplus, a, b) == b
        assert self.timed(s_oplus, b, a) == b
        assert s_leq(a, b) and not s_leq(b, a)
        for j in range(-2, 3000):
            assert eval_series(b, j) == zmax.oplus(eval_series(a, j), eval_series(b, j)), j
        for j in range(998000, 999010, 7):
            assert value_at(b, j) == zmax.oplus(value_at(a, j), value_at(b, j)) == j // 999, j

    def test_join_with_neither_operand_above_is_summed_on_copies(self):
        # 0.g0.(1.g1000)* passes 1.g0.(1.g1001)* only past exponent 2*10^6, so
        # neither dominates: the join lists about 2,000 copies of each, and
        # its transient holds the 1,000 steps of the flatter one between.
        a, b = g("0.g0.(1.g1000)*"), g("1.g0.(1.g1001)*")
        got = self.timed(s_oplus, a, b)
        assert got == self.timed(s_oplus, b, a)
        assert got.period == Monomial(1, 1000) and len(got.transient) == 1000
        steps = {m.exp + k * x.period.exp for x in (a, b, got) for m in x.pattern
                 for k in range(2010)} | {m.exp for m in got.transient}
        for j in sorted({-1, *steps, *(e - 1 for e in steps)}):
            assert value_at(got, j) == zmax.oplus(value_at(a, j), value_at(b, j)), j

    def test_join_refused_by_its_meet_too_gives_the_sums_refusal(self):
        # The sum's copies (about 2*10^5 of each operand before the crossing)
        # and the meet's walk, four lcm of steps past the crossing, both pass
        # the cap; the join's refusal is its sum's.
        a, b = g("0.g0.(1.g100000)*"), g("1.g0.(1.g100001)*")
        with pytest.raises(DivergenceError, match="series steps"):
            s_wedge(a, b)
        start = time.perf_counter()
        with pytest.raises(DivergenceError, match="^pattern with period exponent 100000"):
            s_oplus(a, b)
        assert time.perf_counter() - start < 1.0

    def test_meet_whose_literal_the_literal_sum_refuses(self):
        # The literal sum over an exponent window refused this meet's
        # canonical literal (estimated work 435,185); on copies it lists a
        # few per term, and the printed result reads back in.
        a, b = g("-2.g3.(3.g61860)*"), g("5.g2.(1.g72531)*")
        got = self.timed(s_wedge, a, b)
        text = format_series(got)
        assert text == ("-2.g3+1.g61863+4.g123723+7.g185583"
                        "+8.g247443.(1.g72531)*+9.g290126.(1.g72531)*")
        steps = {m.exp + k * x.period.exp for x in (a, b, got) for m in x.pattern
                 for k in range(20)} | {m.exp for m in got.transient}
        for j in sorted({-1, *steps, *(e - 1 for e in steps)}):
            assert value_at(got, j) == zmax.wedge(value_at(a, j), value_at(b, j)), j
        assert parse_series(text) == got


def test_minimal_period_among_many_divisors():
    # Windows claimed at k times the period of series whose steps make
    # h = gcd(nu, tau, steps) a multiple of k: _canonical scans 1..h for
    # the divisors and must stop at the series' own period.
    for text in ("0.g0.(4.g4)*+1.g2.(4.g4)*", "0.g0.(1.g1)*", "3.g0.(5.g12)*",
                 "0.g0.(24.g12)*+1.g1.(24.g12)*+5.g3.(24.g12)*+9.g7.(24.g12)*"):
        s = g(text)
        for k in range(1, 121):
            tau, nu = s.period.coeff * k, s.period.exp * k
            vals = [value_at(s, j) for j in range(0, 2 * nu + 1)]
            assert _canonical(*window_steps(vals, 0), 2 * nu, tau, nu, 0) == s, (text, k)


class TestParseCost:
    def test_polynomial_literal_is_one_sum(self):
        # 1,000 plain terms spread over 100,000 exponents: summed by one
        # from_monomials call, not one window join per term.
        text = "+".join(f"{i}.g{100 * i + 1}" for i in range(1, 1001))
        start = time.perf_counter()
        s = parse_series(text)
        assert time.perf_counter() - start < 1.0
        assert s == from_monomials(Monomial(i, 100 * i + 1) for i in range(1, 1001))

    def test_plain_and_periodic_terms(self):
        assert g("e+1.g2+eps+0.g0.(1.g1)*") == s_oplus(
            from_monomials([Monomial(0, 0), Monomial(1, 2)]), g("0.g0.(1.g1)*"))
        assert g("1.g2+top+0.g0.(1.g1)*") == S_TOP

    def test_terms_after_a_period_are_joined_in_turn(self):
        # The plain terms span exponents 0..321,863, past the work cap; the
        # periodic term dominates them from 181,165 on, and the one window of
        # the literal's sum ends there.
        text = "6.g181153.(4.g6)*+12.g321863+6.g69892+e"
        expect = s_oplus(s_oplus(s_oplus(g("6.g181153.(4.g6)*"), g("12.g321863")),
                                 g("6.g69892")), S_ONE)
        assert parse_series(text) == expect
        assert IGAMMA.parse(text) == Interval(expect, expect)

    def test_period_error_comes_before_any_sum(self):
        # The join of the first two terms passes the work cap; the third
        # term's period is checked before any term is summed.
        with pytest.raises(ParseError, match=r"offset 35: period must have positive"):
            parse_series("1.g0.(5.g2)*+-3.g300000.(4.g4096)*+2.g300000.(7.g0)*")


class TestConstructorChecks:
    """The public constructor refuses forms the operations cannot take."""

    M = Monomial

    @pytest.mark.parametrize("args", [
        ((M(3, 0), M(1, 2)), (), None),  # decreasing coefficients
        ((M(1, 0), M(1, 2)), (), None),  # repeated coefficient
        ((M(1, 2), M(3, 2)), (), None),  # repeated exponent
        ((M(zmax.EPS, 0),), (), None),
        ((M(zmax.TOP, 0), M(5, 1)), (), None),  # top before the end
        ((M(1, 0),), (M(zmax.TOP, 1),), M(1, 1)),  # top in a pattern
        ((), (M(1, 0),), None),  # pattern without period
        ((M(1, 0),), (), M(1, 1)),  # period without pattern
        ((), (M(1, 0),), M(0, 1)),  # non-positive period
        ((), (M(1, 0), M(2, 3)), M(1, 2)),  # pattern wider than its period
    ])
    def test_refused(self, args):
        with pytest.raises(SeriesDomainError):
            Series(*args)

    def test_all_top_has_no_monomials(self):
        with pytest.raises(SeriesDomainError):
            Series((Monomial(1, 0),), (), None, all_top=True)

    def test_checks_survive_optimize(self):
        # python -O strips assert statements; these checks must stay
        code = (
            "from dioid.errors import SeriesDomainError\n"
            "from dioid.series import Monomial, Series\n"
            "try:\n"
            "    Series((Monomial(3, 0), Monomial(1, 2)), (), None)\n"
            "except SeriesDomainError:\n"
            "    print(__debug__, 'refused')\n"
        )
        run = run_python("-O", "-c", code)
        assert run.stdout.split() == ["False", "refused"], run.stderr


class TestTextForm:
    def test_round_trip(self):
        rng = random.Random(111)
        for _ in range(100):
            s = rand_series(rng)
            assert parse_series(format_series(s)) == s

    def test_spaced_input(self):
        assert g("4.g1 + 7.g4.(18.g1)*") == g("4.g1+7.g4.(18.g1)*")

    def test_aliases(self):
        assert g("e") == S_ONE
        assert g("eps") == S_EPS
        assert g("top") == S_TOP

    def test_rejects_garbage(self):
        for bad in ("", "4.g", "g4", "4.g1.(x)*", "4.g1+", "(3.g1)*"):
            with pytest.raises(ParseError):
                g(bad)

    @pytest.mark.parametrize("bad", ["\u0663.g1", "3.g\u0663", "3.g1.(1.g\u0663)*",
                                     "\uff13.g1+1.g0"])
    def test_rejects_non_ascii_digits(self, bad):
        with pytest.raises(ParseError):
            g(bad)


class TestCopyListedSums:
    """``_pattern_sum`` lists copies, not exponents: a long period costs one
    copy per period, every printed result reads back in, and a sum whose
    window the cap admits is not refused for listing more copies."""

    def test_long_period_literal_is_its_own_form(self):
        text = "1.g0.(1.g100000000)*"
        start = time.perf_counter()
        got = parse_series(text)
        assert time.perf_counter() - start < 0.01
        assert format_series(got) == text
        assert got == Series((), (Monomial(1, 0),), Monomial(1, 10**8))
        for j, want in ((-1, zmax.EPS), (0, 1), (10**8 - 1, 1), (10**8, 2), (3 * 10**8, 4)):
            assert value_at(got, j) == want, j

    def test_results_read_back_in(self):
        # Long periods with small slopes, so joins and meets cross far out
        # and print long transients; a literal sum over an exponent window
        # refused some of these literals.  Meets across the two longest
        # periods walk to the cap, so few pairs draw from them.
        rng = random.Random("long-period-round-trips")
        short = [(2, 12), (1, 60), (5, 3)]
        families = ([(1, 999), (1, 1000), *short], [(3, 61860), (1, 72531), *short])

        def operand(periods):
            tau, nu = rng.choice(periods)
            terms = [f"{rng.randint(-6, 6)}.g{rng.randint(0, min(nu, 50))}.({tau}.g{nu})*"
                     for _ in range(rng.randint(1, 2))]
            terms += [f"{rng.randint(-6, 9)}.g{rng.randint(0, 40)}" for _ in range(rng.randint(0, 2))]
            return g("+".join(terms))

        results = 0
        for i in range(480):
            periods = families[i % 60 == 0]
            a, b = operand(periods), operand(periods)
            for op, args in ((s_oplus, (a, b)), (s_wedge, (a, b)), (s_otimes, (a, b)),
                             (s_lres, (a, b)), (s_star, (a,))):
                try:
                    got = op(*args)
                except DivergenceError:
                    continue
                results += 1
                text = format_series(got)
                assert parse_series(text) == got, (op.__name__, *map(format_series, args), text)
        assert results >= 2000

    def test_flat_term_above_a_steep_one(self):
        # The steep 0.g0.(2.g1)* passes 200000.g0.(1.g1)* at 200,000: the two
        # list about 400,000 copies over a window of 200,003 exponents, which
        # bounds the work as the cap counts it.
        a, b = g("0.g0.(2.g1)*"), g("200000.g0.(1.g1)*")
        got = parse_series("0.g0.(2.g1)*+200000.g0.(1.g1)*")
        assert got == s_oplus(a, b) == s_oplus(b, a)
        assert got.period == Monomial(2, 1) and len(got.transient) == 200000
        for j in (-1, 0, 1, 199999, 200000, 200001, 200002, 200010):
            assert value_at(got, j) == zmax.oplus(value_at(a, j), value_at(b, j)), j
