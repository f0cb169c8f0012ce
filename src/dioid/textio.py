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
    is re-raised as the same type naming its line of the text and entry."""
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
    entries: list = []
    for n, line in lines[1:]:
        tokens = line.split()
        if len(tokens) != cols:
            raise ParseError(f"line {n}: expected {cols} entries, found {len(tokens)}")
        try:
            entries += map(parse, tokens)
        except DioidError:
            # Only a failing row is scanned again, to name the entry.
            for c, tok in enumerate(tokens, start=1):
                try:
                    parse(tok)
                except DioidError as exc:
                    raise type(exc)(f"line {n}, entry {c}: {exc}") from None
            raise
    return Matrix(semiring, rows, cols, tuple(entries))


def format_matrix(m: Matrix, header: bool = True) -> str:
    """Render a matrix; with the header the output re-parses bit-exactly."""
    fmt, entries, cols = m.semiring.format, m.entries, m.cols
    body = "\n".join(
        " ".join(map(fmt, entries[k : k + cols])) for k in range(0, len(entries), cols)
    )
    if header:
        return f"{m.rows} {m.cols}\n{body}\n"
    return body + "\n"
