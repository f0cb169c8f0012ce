"""Matrix text format: round-trips and positioned parse errors."""

from __future__ import annotations

import random

import pytest

from dioid import GAMMA, IGAMMA, IZMAX, SEMIRINGS, ZMAX, format_matrix, parse_matrix
from dioid.cli import main
from dioid.errors import DivergenceError, IntervalOrderError, ParseError

from conftest import rand_matrix


class TestRegistry:
    def test_names(self):
        assert SEMIRINGS == {"maxplus": ZMAX, "series": GAMMA,
                             "interval-maxplus": IZMAX, "interval-series": IGAMMA}

    def test_unknown(self, capsys):
        # The CLI takes its --type choices from the registry.
        with pytest.raises(SystemExit) as exc:
            main(["star", "a.mat", "--type", "minplus"])
        assert exc.value.code == 2
        assert "invalid choice: 'minplus'" in capsys.readouterr().err


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

    @pytest.mark.parametrize("semiring,text,line", [
        (ZMAX, "2 3\n1 2 3\n4 frog 6\n", 3),
        (GAMMA, "2 3\n1.g0 e eps\n2.g1 4.g1.(x)* top\n", 3),
        (IZMAX, "2 3\n[1,2] 3 eps\n[0,4] [5,frog] [top,top]\n", 3),
        (ZMAX, "2 2\n\n1 2\n3 frog\n", 4),
    ], ids=["maxplus", "series", "interval-maxplus", "blank-line"])
    def test_bad_literal_position(self, semiring, text, line):
        # Lines are numbered as in the text, blank ones included.
        with pytest.raises(ParseError, match=f"line {line}, entry 2"):
            parse_matrix(text, semiring)

    @pytest.mark.parametrize("semiring,text,error", [
        (IZMAX, "1 2\n0 [5,1]\n", IntervalOrderError),
        (IGAMMA, "1 2\n0.g0 [1.g0.(1.g100000000)*,top]\n", DivergenceError),
    ], ids=["interval-order", "window-cap"])
    def test_domain_check_position(self, semiring, text, error):
        # A literal that parses but fails a domain check keeps its error
        # type and names its position.
        with pytest.raises(error, match="^line 2, entry 2: "):
            parse_matrix(text, semiring)

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_matrix("   \n", ZMAX)
