"""Matrix text format: round-trips and positioned parse errors."""

from __future__ import annotations

import random

import pytest

from dioid import (EPS, GAMMA, IGAMMA, IZMAX, SEMIRINGS, TOP, ZMAX, Matrix, format_matrix,
                   from_rows, parse_matrix)
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

    def test_big_entries_and_rows_heavy_in_eps_and_top(self):
        rng = random.Random(62)
        big = [2**64, -(2**64), 2**63 + 1, -(2**63) - 5, 10**300, -(10**300)]
        for _ in range(40):
            rows, cols = rng.randint(1, 9), rng.randint(1, 9)
            heavy = rng.random() < 0.5
            draw = (lambda: rng.choice((EPS, TOP, EPS, TOP, 0, -1))) if heavy else \
                (lambda: rng.choice(big + [EPS, TOP, rng.randint(-9, 9)]))
            m = from_rows(ZMAX, [[draw() for _ in range(cols)] for _ in range(rows)])
            text = format_matrix(m)
            assert text == f"{rows} {cols}\n" + "".join(
                " ".join(ZMAX.format(m.at(i, j)) for j in range(cols)) + "\n"
                for i in range(rows))
            assert parse_matrix(text, ZMAX) == m

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
        (IGAMMA, "1 2\n0.g0 [1000000000.g0+0.g0.(1.g1)*,top]\n", DivergenceError),
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
                        "[1.g0+3.g2,top]", "[3.g0,1.g0]", "[x,top]", "[1.g0.(1.g100000000)*,top]",
                        "[1000000000.g0+0.g0.(1.g1)*,top]"],
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


def parse_with_token_loop(text, semiring):
    """``parse_matrix`` as a loop over the tokens: each is looked up in a
    per-call memo and parsed on a miss, and an error names the first
    occurrence of the failing literal in its row."""
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ParseError("empty matrix text")
    n, line = lines[0]
    header = line.split()
    if len(header) != 2:
        raise ParseError(f"line {n}: expected header 'rows cols', got {line!r}")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(f"line {n}: non-integer dimensions in {line!r}") from None
    if rows <= 0 or cols <= 0:
        raise ParseError(f"line {n}: dimensions must be positive, got {rows} {cols}")
    if len(lines) - 1 != rows:
        raise ParseError(f"expected {rows} data lines, found {len(lines) - 1}")
    memo, entries = {}, []
    for n, line in lines[1:]:
        tokens = line.split()
        if len(tokens) != cols:
            raise ParseError(f"line {n}: expected {cols} entries, found {len(tokens)}")
        for tok in tokens:
            if tok not in memo:
                try:
                    memo[tok] = semiring.parse(tok)
                except DioidError as exc:
                    raise type(exc)(f"line {n}, entry {tokens.index(tok) + 1}: {exc}") from None
            entries.append(memo[tok])
    return Matrix(semiring, rows, cols, tuple(entries))


def outcome(parse, text, semiring):
    """The parsed matrix, or the exception's type and message."""
    try:
        return parse(text, semiring)
    except DioidError as exc:
        return type(exc), str(exc)


TYPES = sorted(LITERAL_POOLS)


class TestRowLookup:
    """A row of several entries after one without new literals is resolved
    by one lookup over its tokens; other rows, and one holding a literal not
    seen before, are parsed token by token."""

    @staticmethod
    def split(name):
        semiring, pool = SEMIRINGS[name], LITERAL_POOLS[name]
        good = [t for t in pool if _parses(semiring, t)]
        bad = [t for t in pool if not _parses(semiring, t)]
        return semiring, good, bad

    @pytest.mark.parametrize("name", TYPES)
    def test_literal_seen_first_on_a_late_row(self, name, monkeypatch):
        semiring, good, _ = self.split(name)
        known, late = good[:2], good[2]
        rows = [[known[(i + j) % 2] for j in range(4)] for i in range(5)]
        rows[4][2] = late
        text = "5 4\n" + "".join(" ".join(r) + "\n" for r in rows)
        calls = []
        parse = semiring.parse
        monkeypatch.setattr(semiring, "parse", lambda tok: calls.append(tok) or parse(tok))
        got = parse_matrix(text, semiring)
        monkeypatch.undo()
        assert calls == [known[0], known[1], late]
        assert got == parse_per_token(text, semiring)
        assert got.at(4, 2) == semiring.parse(late) and got.at(4, 3) == semiring.parse(known[1])

    @pytest.mark.parametrize("name", TYPES)
    def test_bad_literal_after_rows_of_known_literals(self, name):
        semiring, good, bad = self.split(name)
        for b in bad:
            row = [good[0], good[1], good[0], b, b]
            text = "4 5\n" + (" ".join(good[:2] * 2 + good[:1]) + "\n") * 3 + " ".join(row) + "\n"
            with pytest.raises(DioidError) as want:
                semiring.parse(b)
            with pytest.raises(type(want.value)) as got:
                parse_matrix(text, semiring)
            assert str(got.value) == f"line 5, entry 4: {want.value}"

    @pytest.mark.parametrize("name", TYPES)
    def test_count_error_wins_over_a_bad_literal_on_its_line(self, name):
        semiring, good, bad = self.split(name)
        text = f"2 3\n{good[0]} {good[1]} {good[0]}\n{bad[0]} {good[1]}\n"
        with pytest.raises(ParseError, match="^line 3: expected 3 entries, found 2$"):
            parse_matrix(text, semiring)

    @pytest.mark.parametrize("name", TYPES)
    def test_blank_lines_between_rows(self, name):
        semiring, good, bad = self.split(name)
        text = f"3 2\n\n{good[0]} {good[1]}\n   \n\n{good[1]} {good[2]}\n\t\n{good[2]} {good[0]}\n\n"
        got = parse_matrix(text, semiring)
        assert got == parse_per_token(text, semiring)
        with pytest.raises(DioidError, match="^line 6, entry 2: "):
            parse_matrix(text.replace(f"{good[1]} {good[2]}", f"{good[1]} {bad[0]}"), semiring)

    @pytest.mark.parametrize("name", TYPES)
    def test_differential_against_the_token_loop(self, name):
        # 600 seeded texts per type, 2,400 in all: new literals on late rows,
        # repeated and bad literals, short and long rows, blank lines and
        # wrong row counts.
        semiring, good, bad = self.split(name)
        rng = random.Random(f"row-lookup:{name}")
        for case in range(600):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            seen = rng.sample(good, rng.randint(1, min(3, len(good))))
            lines = []
            for i in range(rows):
                pool = seen if rng.random() < 0.6 else good + bad * (case % 4 == 0)
                width = cols + (rng.random() < 0.04) * rng.choice((-1, 1))
                lines.append(" ".join(rng.choice(pool) for _ in range(max(width, 1))))
                if rng.random() < 0.15:
                    lines.append(rng.choice(("", "  ", "\t")))
            if rng.random() < 0.03:
                lines.append(" ".join(seen[:1] * cols))
            text = f"{rows} {cols}\n" + "\n".join(lines) + rng.choice(("", "\n", "\n\n"))
            got = outcome(parse_matrix, text, semiring)
            assert got == outcome(parse_with_token_loop, text, semiring), text
