"""Matrix text format: round-trips and positioned parse errors."""

from __future__ import annotations

import random

import pytest

from dioid import GAMMA, IGAMMA, IZMAX, ZMAX, format_matrix, parse_matrix, semiring_by_name
from dioid.errors import ParseError

from conftest import rand_matrix


class TestRegistry:
    def test_names(self):
        assert semiring_by_name("maxplus") is ZMAX
        assert semiring_by_name("series") is GAMMA
        assert semiring_by_name("interval-maxplus") is IZMAX
        assert semiring_by_name("interval-series") is IGAMMA

    def test_unknown(self):
        with pytest.raises(ParseError):
            semiring_by_name("minplus")


class TestRoundTrip:
    def test_maxplus(self):
        rng = random.Random(60)
        for _ in range(50):
            m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            assert parse_matrix(format_matrix(m), ZMAX) == m

    def test_series_and_intervals(self):
        text = "2 2\n4.g1+7.g4.(18.g1)* eps\ntop 0.g0\n"
        m = parse_matrix(text, GAMMA)
        assert format_matrix(m) == text
        itext = "1 2\n[eps,3.g0] [4.g0,7.g0]\n"
        # interval literals never contain whitespace
        mi = parse_matrix(itext, IGAMMA)
        assert format_matrix(mi) == itext

    def test_degenerate_literal(self):
        m = parse_matrix("1 1\n5\n", IZMAX)
        assert m.at(0, 0).lo == 5 and m.at(0, 0).hi == 5


class TestErrors:
    def test_missing_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_matrix("1 2 3\n", ZMAX)

    def test_wrong_row_count(self):
        with pytest.raises(ParseError, match="data lines"):
            parse_matrix("2 2\n1 2\n", ZMAX)

    def test_wrong_entry_count(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_matrix("1 2\n1 2 3\n", ZMAX)

    @pytest.mark.parametrize("semiring,text", [
        (ZMAX, "2 3\n1 2 3\n4 frog 6\n"),
        (GAMMA, "2 3\n1.g0 e eps\n2.g1 4.g1.(x)* top\n"),
        (IZMAX, "2 3\n[1,2] 3 eps\n[0,4] [5,frog] [top,top]\n"),
    ], ids=["maxplus", "series", "interval-maxplus"])
    def test_bad_literal_position(self, semiring, text):
        with pytest.raises(ParseError, match="line 3, entry 2"):
            parse_matrix(text, semiring)

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_matrix("   \n", ZMAX)
