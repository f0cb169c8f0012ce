"""Matrix text format: round-trips and positioned parse errors."""

from __future__ import annotations

import random

import pytest

from dioid import GAMMA, IGAMMA, IZMAX, SEMIRINGS, ZMAX, format_matrix, from_rows, parse_matrix
from dioid.cli import main
from dioid.errors import DioidError, DivergenceError, IntervalOrderError, ParseError

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


def parse_per_token(text, semiring):
    """The matrix of ``text`` with every token parsed on its own, in order,
    an error named by its line and entry as ``parse_matrix`` names it."""
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    rows = []
    for n, line in lines[1:]:
        row = []
        for c, tok in enumerate(line.split(), start=1):
            try:
                row.append(semiring.parse(tok))
            except DioidError as exc:
                raise type(exc)(f"line {n}, entry {c}: {exc}") from None
        rows.append(row)
    return from_rows(semiring, rows)


BIG = "7" * 700
LITERAL_POOLS = {
    "maxplus": ["+5", "-0", "0", "007", "e", "eps", "top", BIG, "-" + BIG, "-3", "12",
                "frog", "1.5", "--1", "9" * 4301],
    "series": ["e", "eps", "top", "0.g0", "1.g0+3.g2", "4.g1.(18.g1)*", "top.g3", "+5.g1",
               "007.g2", "2.g3.(1.g1)*", BIG + ".g1", "1.g0+", "1.g0.(0.g1)*", "x"],
    "interval-maxplus": ["[1,2]", "[eps,top]", "[+5,007]", "5", "-0", "e", "top", f"[1,{BIG}]",
                         "[5,1]", "[top,eps]", "[1,2", "[1]", "frog"],
    "interval-series": ["[eps,3.g0]", "[4.g0,7.g0]", "[0.g0,1.g0+3.g2]", "top", "e",
                        "[1.g0+3.g2,top]", "[3.g0,1.g0]", "[x,top]", "[1.g0.(1.g100000000)*,top]"],
}


class TestLiteralMemo:
    def test_one_parse_per_distinct_literal(self, monkeypatch):
        literals = ["eps", "top", "e", "0", "-12", "+5", "007"]
        rng = random.Random(61)
        text = "50 50\n" + "".join(
            " ".join(rng.choice(literals) for _ in range(50)) + "\n" for _ in range(50))
        calls = []
        parse = ZMAX.parse

        def spy(tok):
            calls.append(tok)
            return parse(tok)

        monkeypatch.setattr(ZMAX, "parse", spy)
        m = parse_matrix(text, ZMAX)
        assert sorted(calls) == sorted(literals)
        assert m.entries == tuple(parse(t) for t in text.split()[2:])

    def test_repeated_bad_literal_names_its_first_line(self):
        text = "4 3\n1 2 3\n4 frog 6\n7 8 9\nfrog frog 0\n"
        with pytest.raises(ParseError, match="^line 3, entry 2: invalid scalar literal 'frog'$"):
            parse_matrix(text, ZMAX)

    @pytest.mark.parametrize("semiring,left,right,error", [
        (ZMAX, "frog", "toad", ParseError),
        (GAMMA, "1.g0+", "x", ParseError),
        (IZMAX, "[5,1]", "[1,frog]", IntervalOrderError),
        (IZMAX, "[1,frog]", "[5,1]", ParseError),
        (IGAMMA, "[3.g0,1.g0]", "[x,top]", IntervalOrderError),
        (IGAMMA, "[x,top]", "[3.g0,1.g0]", ParseError),
    ], ids=["maxplus", "series", "interval-order-left", "interval-parse-left",
            "interval-series-order-left", "interval-series-parse-left"])
    def test_leftmost_of_two_bad_literals(self, semiring, left, right, error):
        # Two new literals that fail in different ways, at mirrored
        # positions of one row: the left one is named.
        for k in range(3):
            row = ["e"] * 6
            row[k], row[5 - k] = left, right
            text = "2 6\n" + " ".join(["top"] * 6) + "\n" + " ".join(row) + "\n"
            with pytest.raises(error) as exc:
                parse_matrix(text, semiring)
            with pytest.raises(error) as want:
                semiring.parse(left)
            assert str(exc.value) == f"line 3, entry {k + 1}: {want.value}"

    @pytest.mark.parametrize("name", sorted(LITERAL_POOLS))
    def test_differential_against_per_token_parse(self, name):
        semiring, pool = SEMIRINGS[name], LITERAL_POOLS[name]
        good = [t for t in pool if _parses(semiring, t)]
        rng = random.Random(f"memo:{name}")
        for case in range(500):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            # Most files draw only good literals; one in three may fail.
            draw = pool if case % 3 == 0 else good
            lines = [" ".join(rng.choice(draw) for _ in range(cols)) for _ in range(rows)]
            if rng.random() < 0.2:
                lines.insert(rng.randint(0, rows), "")
            text = f"{rows} {cols}\n" + "\n".join(lines) + "\n"
            try:
                want = parse_per_token(text, semiring)
            except DioidError as exc:
                with pytest.raises(type(exc)) as got:
                    parse_matrix(text, semiring)
                assert type(got.value) is type(exc) and str(got.value) == str(exc), text
            else:
                assert parse_matrix(text, semiring) == want, text


def _parses(semiring, tok) -> bool:
    try:
        semiring.parse(tok)
    except DioidError:
        return False
    return True
