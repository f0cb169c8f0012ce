"""Command-line front end.

``_OPS`` is the one table of matrix subcommands: ``prod``, ``dualprod``,
``lres``, ``rres``, ``dualres``, ``star``, ``dualstar`` and ``project``,
each with its kernel, arity and help.  ``verify OP`` runs ``lres``,
``dualres``, ``star`` or ``project`` on max-plus inputs, compares the result
with a brute-force oracle and prints ``verify OP: oracle agrees``; ``slope``
prints the asymptotic slope of every entry of a series matrix.

Inputs are matrix files (header line ``rows cols`` then rows of literals);
the result is printed to stdout as bare rows and written with the header
when ``-o`` is given.  Exit status: 0 on success, 1 on a domain error or an
input or ``-o`` file that cannot be read or written, 2 on a parse error.  A
failure prints one ``dioid: ...`` line on stderr; a success prints one
``dioid: warning: ...`` line per warning.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings

from .errors import DioidError, ParseError
from .matrices import Matrix, kleene_star, left_residual, mat_odot, mat_otimes
from .matrices import dual_residual, right_residual, wedge_closure
from .series import GAMMA, sigma_inf
from .textio import SEMIRINGS, format_matrix, parse_matrix
from .zmax import ZMAX

# Subcommand -> (kernel, arity, help).  Kernels are looked up when they run,
# ``project`` in ``projector``, which loads only then; so a wrapper bound over
# the modules' names (the benchmark's tracer) sees the calls.
_OPS = {
    "prod": ("mat_otimes", 2, "product A (x) B"),
    "dualprod": ("mat_odot", 2, "dual product A (.) B"),
    "lres": ("left_residual", 2, "greatest X with A (x) X <= B"),
    "rres": ("right_residual", 2, "greatest X with X (x) A <= C (arguments: C A)"),
    "dualres": ("dual_residual", 2, "smallest Y with A (.) Y >= X"),
    "star": ("kleene_star", 1, "additive closure A*"),
    "dualstar": ("wedge_closure", 1, "meet closure B_*"),
    "project": ("project", 3, "greatest Y <= X0 with A (x) Y <= Y <= B (.) Y"),
}

_VERIFIABLE = ("lres", "dualres", "star", "project")


def _load(path: str, semiring) -> Matrix:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DioidError(f"cannot read {path}: {exc}") from None
    try:
        return parse_matrix(data.decode("ascii"), semiring)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: non-ASCII byte at offset {exc.start}") from None
    except DioidError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _run(op: str, mats: list[Matrix]) -> Matrix:
    if op == "project":
        from . import projector
        return projector.project(*mats)
    return globals()[_OPS[op][0]](*mats)


def _format(m: Matrix) -> str:
    try:
        return format_matrix(m)
    except ValueError:  # str() of an int past the interpreter's digit limit
        raise DioidError("cannot print the result: an entry has more digits than the "
                         "interpreter converts (PYTHONINTMAXSTRDIGITS sets the limit)") from None


def _verify(op: str, mats: list[Matrix], grid) -> str:
    """Run ``op`` and compare its result with its brute-force oracle on ``grid``."""
    from . import oracle
    got = _run(op, mats)
    if op == "lres":
        expect = oracle.greatest_subsolution(mats[0], mats[1], grid)
        got = Matrix(ZMAX, got.rows, got.cols, tuple(map(grid.clamp_down, got.entries)))
    elif op == "dualres":
        expect = oracle.smallest_supersolution(mats[0], mats[1], grid)
        got = Matrix(ZMAX, got.rows, got.cols, tuple(map(grid.clamp_up, got.entries)))
    elif op == "star":
        expect = oracle.star_by_powers(mats[0])
    else:
        # The projector's solution set is neither a down-set nor an up-set,
        # so the enumeration is exact only when the result lies on the grid.
        for idx, v in enumerate(got.entries):
            if grid.clamp_down(v) != v:
                i, j = divmod(idx, got.cols)
                side = "above" if v > grid.hi else "below"
                raise DioidError(
                    f"verify project: entry ({i + 1},{j + 1}) of the result lies {side} "
                    f"the grid [{grid.lo}, {grid.hi}], where the oracle is not exact; "
                    "widen --grid-lo/--grid-hi")
        expect = oracle.projector_by_enumeration(mats[0], mats[1], mats[2], grid)
    for idx, (x, y) in enumerate(zip(got.entries, expect.entries)):
        if x != y:
            i, j = divmod(idx, got.cols)
            # Printed as the 1x2 matrix "1 2\nx y\n", under _format's digit-limit check.
            x, y = _format(Matrix(ZMAX, 1, 2, (x, y))).split()[2:]
            raise DioidError(f"verify {op}: oracle disagrees at entry ({i + 1},{j + 1}): "
                             f"computed {x}, oracle {y}")
    return f"verify {op}: oracle agrees\n"


def _format_slope(value) -> str:
    if value == float("inf"):
        return "+inf"
    if value == float("-inf"):
        return "-inf"
    return str(value)  # a Fraction: "1/18", or "3" for a whole slope


def _cmd_slope(m: Matrix) -> str:
    sr = m.semiring
    rows = []
    for i in range(m.rows):
        cells = []
        for j in range(m.cols):
            e = m.at(i, j)
            if sr is GAMMA:
                cells.append(_format_slope(sigma_inf(e)))
            else:
                cells.append(f"[{_format_slope(sigma_inf(e.lo))},{_format_slope(sigma_inf(e.hi))}]")
        rows.append(" ".join(cells))
    return "\n".join(rows) + "\n"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args does not change the parser, and
    # argparse writes usage errors to the sys.stderr of the moment.
    parser = argparse.ArgumentParser(
        prog="dioid",
        description="Exact matrix algebra over idempotent semirings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_type(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--type",
            "-t",
            default="maxplus",
            choices=SEMIRINGS,
            help="element type of every input matrix",
        )

    for op, (_, arity, help_text) in _OPS.items():
        p = sub.add_parser(op, help=help_text)
        p.add_argument("inputs", nargs=arity, metavar="MATRIX")
        add_type(p)
        p.add_argument("-o", "--output", help="also write the result to this file (with header)")

    p = sub.add_parser("verify", help="run an operation and its oracle, report agreement")
    p.add_argument("operation", choices=_VERIFIABLE)
    p.add_argument("inputs", nargs="+", metavar="MATRIX")
    add_type(p)
    p.add_argument("--grid-lo", type=int, default=-20)
    p.add_argument("--grid-hi", type=int, default=20)

    p = sub.add_parser("slope", help="asymptotic slope of every entry of a series matrix")
    p.add_argument("inputs", nargs=1, metavar="MATRIX")
    add_type(p)
    return parser


def _command(args: argparse.Namespace) -> str:
    """Run the parsed command, write ``-o`` and return the stdout text."""
    semiring = SEMIRINGS[args.type]
    if args.command == "slope":
        if semiring is not GAMMA and getattr(semiring, "base", None) is not GAMMA:
            raise DioidError("slope: requires --type series or interval-series")
        return _cmd_slope(_load(args.inputs[0], semiring))
    if args.command == "verify":
        op = args.operation
        arity = _OPS[op][1]
        if len(args.inputs) != arity:
            raise DioidError(f"verify {op}: expected {arity} matrices")
        if semiring is not ZMAX:
            raise DioidError("verification is available for --type maxplus only")
        from .oracle import Grid
        try:
            grid = Grid(args.grid_lo, args.grid_hi)
        except ValueError as exc:
            raise DioidError(str(exc)) from None
        return _verify(op, [_load(p, semiring) for p in args.inputs], grid)
    result = _run(args.command, [_load(p, semiring) for p in args.inputs])
    text = _format(result)
    if args.output:
        try:
            with open(args.output, "w", encoding="ascii") as fh:
                fh.write(text)
        except OSError as exc:
            raise DioidError(f"cannot write {args.output}: {exc}") from None
    return text[text.index("\n") + 1:]


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # Recorded under the active filters (-W, PYTHONWARNINGS) instead of
        # shown in Python's two-line format; printed on success.
        with warnings.catch_warnings(record=True) as caught:
            out = _command(args)
    except ParseError as exc:
        print(f"dioid: parse error: {exc}", file=sys.stderr)
        return 2
    except DioidError as exc:
        print(f"dioid: error: {exc}", file=sys.stderr)
        return 1
    for w in caught:
        print(f"dioid: warning: {w.message}", file=sys.stderr)
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
