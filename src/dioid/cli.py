"""Command-line front end.

Subcommands mirror the library: ``prod``, ``dualprod``, ``lres``, ``rres``,
``dualres``, ``star``, ``dualstar``, ``project``, ``verify`` and ``slope``.
Inputs are matrix files (header line ``rows cols`` then rows of literals);
the result is printed to stdout as bare rows and written with the header
when ``-o`` is given.  Exit status: 0 on success, 1 on a domain error,
2 on a parse error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from .errors import DioidError, ParseError
from .matrices import Matrix, kleene_star, left_residual, mat_odot, mat_otimes
from .matrices import dual_residual, right_residual, wedge_closure
from .oracle import (
    Grid,
    greatest_subsolution,
    projector_by_enumeration,
    smallest_supersolution,
    star_by_powers,
)
from .projector import project
from .series import GAMMA, sigma_inf
from .textio import format_matrix, parse_matrix, semiring_by_name
from .zmax import ZMAX

_OPS = {
    "prod": (2, "product A (x) B"),
    "dualprod": (2, "dual product A (.) B"),
    "lres": (2, "greatest X with A (x) X <= B"),
    "rres": (2, "greatest X with X (x) A <= C (arguments: C A)"),
    "dualres": (2, "smallest Y with A (.) Y >= X"),
    "star": (1, "additive closure A*"),
    "dualstar": (1, "meet closure B_*"),
    "project": (3, "greatest Y <= X0 with A (x) Y <= Y <= B (.) Y"),
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
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _run_op(op: str, mats: list[Matrix]) -> Matrix:
    if op == "prod":
        return mat_otimes(mats[0], mats[1])
    if op == "dualprod":
        return mat_odot(mats[0], mats[1])
    if op == "lres":
        return left_residual(mats[0], mats[1])
    if op == "rres":
        return right_residual(mats[0], mats[1])
    if op == "dualres":
        return dual_residual(mats[0], mats[1])
    if op == "star":
        return kleene_star(mats[0])
    if op == "dualstar":
        return wedge_closure(mats[0])
    if op == "project":
        return project(mats[0], mats[1], mats[2])
    raise DioidError(f"unknown operation {op!r}")


def _oracle_check(op: str, mats: list[Matrix], result: Matrix, grid: Grid) -> str:
    """Compare a result with the matching brute-force oracle."""
    if mats[0].semiring is not ZMAX:
        raise DioidError("verification is available for --type maxplus only")
    if op == "lres":
        expect = greatest_subsolution(mats[0], mats[1], grid)
        got = Matrix(ZMAX, result.rows, result.cols,
                     tuple(grid.clamp_down(v) for v in result.entries))
    elif op == "dualres":
        expect = smallest_supersolution(mats[0], mats[1], grid)
        got = Matrix(ZMAX, result.rows, result.cols,
                     tuple(grid.clamp_up(v) for v in result.entries))
    elif op == "star":
        expect = star_by_powers(mats[0])
        got = result
    elif op == "project":
        if mats[0].rows > 2 or mats[2].cols != 1:
            raise DioidError("verify project: enumeration covers n <= 2 with a single column")
        expect = projector_by_enumeration(mats[0], mats[1], mats[2], grid)
        got = result
    else:
        raise DioidError(f"no oracle for operation {op!r}")
    if expect != got:
        raise DioidError(
            f"oracle disagrees for {op}:\noracle:\n{format_matrix(expect)}"
            f"computed:\n{format_matrix(got)}"
        )
    return f"verify {op}: oracle agrees"


def _format_slope(value) -> str:
    if value == float("inf"):
        return "+inf"
    if value == float("-inf"):
        return "-inf"
    return str(Fraction(value))


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

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--type",
            "-t",
            default="maxplus",
            choices=("maxplus", "series", "interval-maxplus", "interval-series"),
            help="element type of every input matrix",
        )
        p.add_argument("-o", "--output", help="also write the result to this file (with header)")

    for op, (arity, help_text) in _OPS.items():
        p = sub.add_parser(op, help=help_text)
        p.add_argument("inputs", nargs=arity, metavar="MATRIX")
        add_common(p)
        if op in _VERIFIABLE:
            p.add_argument(
                "--verify",
                action="store_true",
                help="re-check the result against the brute-force oracle (maxplus only)",
            )

    p = sub.add_parser("verify", help="run an operation and its oracle, report agreement")
    p.add_argument("operation", choices=_VERIFIABLE)
    p.add_argument("inputs", nargs="+", metavar="MATRIX")
    add_common(p)
    p.add_argument("--grid-lo", type=int, default=-20)
    p.add_argument("--grid-hi", type=int, default=20)

    p = sub.add_parser("slope", help="asymptotic slope of every entry of a series matrix")
    p.add_argument("inputs", nargs=1, metavar="MATRIX")
    add_common(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        semiring = semiring_by_name(args.type)
        if args.command == "slope":
            if semiring is not GAMMA and getattr(semiring, "base", None) is not GAMMA:
                raise DioidError("slope: requires --type series or interval-series")
            matrix = _load(args.inputs[0], semiring)
            sys.stdout.write(_cmd_slope(matrix))
            return 0
        if args.command == "verify":
            op = args.operation
            arity = _OPS[op][0]
            if len(args.inputs) != arity:
                raise DioidError(f"verify {op}: expected {arity} matrices")
            try:
                grid = Grid(args.grid_lo, args.grid_hi)
            except ValueError as exc:
                raise DioidError(str(exc)) from None
            mats = [_load(p, semiring) for p in args.inputs]
            result = _run_op(op, mats)
            print(_oracle_check(op, mats, result, grid))
            return 0
        mats = [_load(p, semiring) for p in args.inputs]
        result = _run_op(args.command, mats)
        sys.stdout.write(format_matrix(result, header=False))
        if args.output:
            with open(args.output, "w", encoding="ascii") as fh:
                fh.write(format_matrix(result, header=True))
        if getattr(args, "verify", False):
            print(_oracle_check(args.command, mats, result, Grid()), file=sys.stderr)
        return 0
    except ParseError as exc:
        print(f"dioid: parse error: {exc}", file=sys.stderr)
        return 2
    except DioidError as exc:
        print(f"dioid: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
