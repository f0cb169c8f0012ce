"""Max-plus scalar laws: case tables, residual characterisations, Galois pairs."""

from __future__ import annotations

import copy
import itertools
import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dioid import EPS, TOP
from dioid import zmax
from dioid.errors import _DIGIT_CAP, ParseError

GRID = [EPS] + list(range(-20, 21)) + [TOP]

scalars = st.one_of(st.sampled_from([EPS, TOP]), st.integers(-50, 50))
fins = st.integers(-50, 50)


def grid_lres(a, b):
    """Greatest grid x with a (x) x <= b, by descending scan."""
    for x in reversed(GRID):
        if zmax.leq(zmax.otimes(a, x), b):
            return x
    raise AssertionError("eps always satisfies the constraint")


def grid_dualres(a, b):
    """Smallest grid x with a (.) x >= b, by ascending scan."""
    for x in GRID:
        if zmax.leq(b, zmax.odot(a, x)):
            return x
    raise AssertionError("top always satisfies the constraint")


class TestCaseTables:
    def test_oplus(self):
        assert zmax.oplus(3, 5) == 5
        assert zmax.oplus(EPS, 7) == 7
        assert zmax.oplus(TOP, EPS) is TOP

    def test_otimes(self):
        assert zmax.otimes(1, 8) == 9
        assert zmax.otimes(EPS, TOP) is EPS
        assert zmax.otimes(0, 5) == 5

    def test_wedge(self):
        assert zmax.wedge(3, 5) == 3
        assert zmax.wedge(TOP, 7) == 7
        assert zmax.wedge(EPS, TOP) is EPS

    def test_odot(self):
        assert zmax.odot(1, 8) == 9
        assert zmax.odot(TOP, EPS) is TOP
        assert zmax.odot(0, 5) == 5

    def test_lres(self):
        assert zmax.lres(1, 8) == 7
        assert zmax.lres(EPS, EPS) is TOP
        # derived from the grid characterisation, then frozen
        assert grid_lres(TOP, 5) is EPS
        assert zmax.lres(TOP, 5) is EPS
        assert zmax.lres(TOP, TOP) is TOP
        assert zmax.lres(4, EPS) is EPS

    def test_dualres(self):
        assert zmax.dualres(1, 8) == 7
        assert zmax.dualres(TOP, 5) is EPS
        assert zmax.dualres(EPS, EPS) is EPS
        assert zmax.dualres(EPS, 3) is TOP
        assert zmax.dualres(4, EPS) is EPS
        assert zmax.dualres(4, TOP) is TOP


class TestResidualsAgainstGrid:
    """Scalar residuals equal their brute-force grid counterparts.

    Finite samples stay within half the grid span so the true residual of
    any pair lands on the grid.
    """

    SAMPLE = [EPS, TOP, -10, -3, -1, 0, 1, 2, 5, 10]

    def test_lres_matches_grid(self):
        for a, b in itertools.product(self.SAMPLE, repeat=2):
            assert zmax.lres(a, b) == grid_lres(a, b), (a, b)

    def test_dualres_matches_grid(self):
        for a, b in itertools.product(self.SAMPLE, repeat=2):
            assert zmax.dualres(a, b) == grid_dualres(a, b), (a, b)


class TestLatticeLaws:
    @given(scalars)
    @settings(max_examples=100)
    def test_oplus_idempotent(self, a):
        assert zmax.oplus(a, a) == a

    @given(scalars, scalars)
    @settings(max_examples=100)
    def test_oplus_commutative(self, a, b):
        assert zmax.oplus(a, b) == zmax.oplus(b, a)

    @given(scalars, scalars, scalars)
    @settings(max_examples=100)
    def test_otimes_distributes(self, a, b, c):
        lhs = zmax.otimes(c, zmax.oplus(a, b))
        rhs = zmax.oplus(zmax.otimes(c, a), zmax.otimes(c, b))
        assert lhs == rhs

    @given(scalars)
    @settings(max_examples=50)
    def test_eps_absorbing(self, a):
        assert zmax.otimes(EPS, a) is EPS
        assert zmax.otimes(a, EPS) is EPS

    @given(scalars)
    @settings(max_examples=50)
    def test_top_absorbing_dual(self, a):
        assert zmax.odot(TOP, a) is TOP
        assert zmax.odot(a, TOP) is TOP

    @given(scalars, scalars, fins)
    @settings(max_examples=100)
    def test_invertible_meet_distributivity(self, a, b, c):
        """Finite c distributes over the meet; in general only <= holds."""
        lhs = zmax.otimes(c, zmax.wedge(a, b))
        rhs = zmax.wedge(zmax.otimes(c, a), zmax.otimes(c, b))
        assert lhs == rhs

    @given(scalars, scalars, scalars)
    @settings(max_examples=100)
    def test_meet_distributivity_inequality(self, a, b, c):
        lhs = zmax.otimes(c, zmax.wedge(a, b))
        rhs = zmax.wedge(zmax.otimes(c, a), zmax.otimes(c, b))
        assert zmax.leq(lhs, rhs)


class TestGaloisPairs:
    @given(scalars, scalars)
    @settings(max_examples=200)
    def test_galois(self, a, b):
        assert zmax.leq(zmax.otimes(a, zmax.lres(a, b)), b)
        assert zmax.leq(b, zmax.lres(a, zmax.otimes(a, b)))

    @given(scalars, scalars)
    @settings(max_examples=200)
    def test_dual_galois(self, a, b):
        assert zmax.leq(b, zmax.odot(a, zmax.dualres(a, b)))
        assert zmax.leq(zmax.dualres(a, zmax.odot(a, b)), b)


class TestAssociativityCondition:
    """b %% (a (x) x) = (b %% a) (x) x over every tag combination."""

    def test_exhaustive_tags_and_fins(self):
        sample = [EPS, TOP, -7, -1, 0, 1, 3]
        for b, a, x in itertools.product(sample, repeat=3):
            lhs = zmax.dualres(b, zmax.otimes(a, x))
            rhs = zmax.otimes(zmax.dualres(b, a), x)
            assert lhs == rhs, (b, a, x)


class TestTextForm:
    @pytest.mark.parametrize("text,value", [("eps", EPS), ("top", TOP), ("e", 0),
                                            ("-17", -17), ("42", 42), ("+3", 3),
                                            ("+5", 5), ("-0", 0)])
    def test_parse(self, text, value):
        assert zmax.parse_scalar(text) == value

    @given(scalars)
    @settings(max_examples=100)
    def test_round_trip(self, a):
        assert zmax.parse_scalar(zmax.format_scalar(a)) == a

    def test_rejects_garbage(self):
        for bad in ("", "1.5", "too", "eps ", "--3", "+", "1_000", " 5"):
            with pytest.raises(ParseError):
                zmax.parse_scalar(bad)

    @pytest.mark.parametrize("bad", ["\u0663", "-\u0663", "\uff15", "\u00b2", "5\n"])
    def test_rejects_non_ascii_digits_and_trailing_newline(self, bad):
        with pytest.raises(ParseError):
            zmax.parse_scalar(bad)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="the interpreter has no int digit limit")
    @pytest.mark.parametrize("limit", [0, 640, None], ids=["unlimited", "640", "default"])
    def test_digit_cap_does_not_depend_on_the_interpreter_limit(self, limit):
        # Literals up to the cap parse under any limit the interpreter can
        # be given, on either side of a 640-digit chunk; one digit more than
        # the cap is refused with the cap in the message.
        old = sys.get_int_max_str_digits()
        try:
            if limit is not None:
                sys.set_int_max_str_digits(limit)
            for length in (639, 640, 641, 1280, 1281, _DIGIT_CAP):
                value = 7 * 10 ** (length - 1) + (10 ** (length - 1) - 1) // 3
                within = "7" + "3" * (length - 1)
                assert zmax.parse_scalar(within) == value, length
                assert zmax.parse_scalar("+" + within) == value, length
                assert zmax.parse_scalar("-" + within) == -value, length
            for past in (within + "1", "+" + within + "0", "-" + within + "9"):
                with pytest.raises(ParseError, match=f"past the cap of {_DIGIT_CAP} digits"):
                    zmax.parse_scalar(past)
        finally:
            sys.set_int_max_str_digits(old)


class TestExtremesAsValues:
    def test_set_members_and_dict_keys(self):
        assert {EPS, TOP, EPS, 3} == {TOP, 3, EPS} and len({EPS, TOP, EPS}) == 2
        keys = {EPS: "bottom", TOP: "top", 0: "zero"}
        assert keys[EPS] == "bottom" and keys[TOP] == "top" and keys[0] == "zero"
        fin = {EPS, 5, TOP, -7, 5}
        fin -= {EPS, TOP}
        assert fin == {5, -7}
        # The literals are not the values.
        assert "eps" not in {EPS, TOP} and EPS not in {"eps", "top"}
        assert hash(EPS) != hash(TOP) and hash(EPS) == hash(EPS)

    @pytest.mark.parametrize("value", [EPS, TOP])
    def test_pickle_and_copy_keep_identity(self, value):
        for proto in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(value, proto)) is value
        assert copy.copy(value) is value and copy.deepcopy(value) is value
        assert copy.deepcopy({value: [value]}) == {value: [value]}

    @pytest.mark.parametrize("value,text", [
        (EPS, "eps"), (TOP, "top"), (0, "0"), (-1, "-1"), (-17, "-17"), (42, "42"),
        (2**64, "18446744073709551616"), (-(2**64), "-18446744073709551616"),
    ])
    def test_formatted_literals(self, value, text):
        assert zmax.format_scalar(value) == text
        assert zmax.ZMAX.format(value) == text
        assert zmax.parse_scalar(text) == value


class TestExtremeText:
    """``str``, ``repr``, f-strings and ``format_matrix`` spell eps and top
    alike: the name is read from the enum field, not its ``value`` property."""

    def test_spellings(self):
        for x, name in ((EPS, "eps"), (TOP, "top")):
            assert str(x) == repr(x) == f"{x}" == f"{x!r}" == f"{x!s}" == name

    def test_format_matrix(self):
        from dioid import ZMAX, format_matrix, from_rows, parse_matrix
        m = from_rows(ZMAX, [[EPS, TOP, 3], [-1, EPS, TOP]])
        assert format_matrix(m) == "2 3\neps top 3\n-1 eps top\n"
        assert parse_matrix(format_matrix(m), ZMAX) == m
