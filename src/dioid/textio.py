"""Matrix text format and literal dispatch.

A matrix file is a header line ``rows cols`` followed by ``rows`` lines of
whitespace-separated element literals.  Element grammars are owned by the
respective semirings (scalars, series, intervals); printed literals never
contain whitespace, so the format round-trips token by token.
"""

from __future__ import annotations

from .errors import DioidError, ParseError
from .intervals import IGAMMA, IZMAX
from .matrices import Matrix
from .series import GAMMA
from .zmax import ZMAX

SEMIRINGS = {
    "maxplus": ZMAX,
    "series": GAMMA,
    "interval-maxplus": IZMAX,
    "interval-series": IGAMMA,
}


def parse_matrix(text: str, semiring) -> Matrix:
    """Parse the header + rows format.  Blank lines are skipped; an error in
    a literal, in its grammar or in a domain check such as interval order,
    is re-raised as the same type naming its line of the text and entry.

    Each distinct literal is parsed once per call: element values are
    immutable, so equal literals share one value.  The memo is keyed by the
    literal's text and is dropped when the call returns.  A row after one
    without new literals is one ``map`` of the memo's lookup.
    """
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
    parse = semiring.parse
    memo: dict = {}
    get, lookup = memo.get, memo.__getitem__
    entries: list = []
    append, extend = entries.append, entries.extend
    fast = False
    for n, line in lines[1:]:
        tokens = line.split()
        if len(tokens) != cols:
            raise ParseError(f"line {n}: expected {cols} entries, found {len(tokens)}")
        if fast:
            try:
                extend(map(lookup, tokens))
                continue
            except KeyError:  # a new literal: back to the row's start, token by token
                del entries[len(entries) // cols * cols:]
        fast = cols > 1  # a one-entry row gains nothing from a map
        for tok in tokens:
            value = get(tok)  # no literal parses to None
            if value is None:
                fast = False
                try:
                    value = memo[tok] = parse(tok)
                except DioidError as exc:
                    # Every literal left of tok parsed, so its first
                    # occurrence in the row is the failing entry.
                    c = tokens.index(tok) + 1
                    raise type(exc)(f"line {n}, entry {c}: {exc}") from None
            append(value)
    return Matrix(semiring, rows, cols, tuple(entries))


def format_matrix(m: Matrix) -> str:
    """Render a matrix with its header line; the output re-parses bit-exactly.

    The entries are formatted by one ``map`` of the table's ``format`` (the
    builtin ``str`` over max-plus) and grouped into rows by ``zip``.
    """
    body = "\n".join(map(" ".join, zip(*[map(m.semiring.format, m.entries)] * m.cols)))
    return f"{m.rows} {m.cols}\n{body}\n"
