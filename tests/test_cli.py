"""Command-line driver: outputs, exit codes, oracle verification."""

from __future__ import annotations

import random
import time
import warnings

import pytest

from dioid import EPS, TOP, ZMAX, Matrix, from_rows
from dioid.cli import main
from dioid.errors import DivergenceWarning

from conftest import loop_entries, run_python


@pytest.fixture
def workdir(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return tmp_path, write


class TestMaxPlusCommands:
    def test_prod_prints_bare_rows(self, workdir, capsys):
        _, write = workdir
        a = write("a.mat", "2 3\n1 top 3\n4 eps 6\n")
        b = write("b.mat", "3 1\n8\n9\n10\n")
        assert main(["prod", a, b]) == 0
        assert capsys.readouterr().out == "top\n16\n"

    def test_star_identity(self, workdir, capsys):
        _, write = workdir
        e = write("e.mat", "2 2\n0 eps\neps 0\n")
        assert main(["star", e]) == 0
        assert capsys.readouterr().out == "0 eps\neps 0\n"

    def test_all_residuals(self, workdir, capsys):
        _, write = workdir
        c = write("c.mat", "3 2\n1 2\n3 4\n5 6\n")
        b = write("b.mat", "3 1\n8\n9\n10\n")
        assert main(["lres", c, b]) == 0
        assert capsys.readouterr().out == "5\n4\n"
        assert main(["dualres", c, b]) == 0
        assert capsys.readouterr().out == "7\n6\n"

    def test_output_file_round_trips(self, workdir, capsys):
        tmp, write = workdir
        a = write("a.mat", "2 3\n1 top 3\n4 eps 6\n")
        b = write("b.mat", "3 1\n8\n9\n10\n")
        out = str(tmp / "r.mat")
        assert main(["prod", a, b, "-o", out]) == 0
        capsys.readouterr()
        assert (tmp / "r.mat").read_text() == "2 1\ntop\n16\n"

    @pytest.mark.parametrize("kind,a,b", [
        ("maxplus", "3 3\n1 top eps\n18446744073709551616 -2 0\neps eps 7\n", "3 1\n8\ntop\n-3\n"),
        ("series", "2 2\n1.g0.(1.g1)* eps\ntop 0.g0\n", "2 1\n2.g3\n0.g0+4.g2\n"),
        ("interval-maxplus", "2 2\n[1,2] eps\n[top,top] 0\n", "2 1\n[eps,3]\n[-5,7]\n"),
        ("interval-series", "2 2\n[0.g0,1.g0] eps\ntop [1.g1,2.g1]\n",
         "2 1\n[eps,3.g0]\n[4.g0,7.g0]\n"),
    ], ids=["maxplus", "series", "interval-maxplus", "interval-series"])
    @pytest.mark.parametrize("op", ["prod", "lres"])
    def test_output_file_is_the_header_and_stdout(self, workdir, capsys, kind, a, b, op):
        tmp, write = workdir
        # A square file and a column: each command runs on each type.
        pa, pb = write("a.mat", a), write("b.mat", b)
        assert main([op, pa, pb, "--type", kind]) == 0
        plain = capsys.readouterr().out
        out = tmp / "r.mat"
        assert main([op, pa, pb, "--type", kind, "-o", str(out)]) == 0
        assert capsys.readouterr().out == plain
        text = out.read_bytes()
        header, body = text.split(b"\n", 1)
        assert body == plain.encode("ascii") and len(header.split()) == 2

    def test_verify_lres(self, workdir, capsys):
        _, write = workdir
        c = write("c.mat", "3 2\n1 2\n3 4\n5 6\n")
        b = write("b.mat", "3 1\n8\n9\n10\n")
        assert main(["verify", "lres", c, b]) == 0
        assert capsys.readouterr() == ("verify lres: oracle agrees\n", "")

    def test_operations_take_no_verify_flag(self, workdir, capsys):
        # Verification is the verify subcommand, not an option of each operation.
        with pytest.raises(SystemExit) as exc:
            main(["lres", "--help"])
        assert exc.value.code == 0
        assert "--verify" not in capsys.readouterr().out

    def test_verify_subcommand(self, workdir, capsys):
        _, write = workdir
        c = write("c.mat", "3 2\n1 2\n3 4\n5 6\n")
        b = write("b.mat", "3 1\n8\n9\n10\n")
        assert main(["verify", "dualres", c, b]) == 0
        assert "oracle agrees" in capsys.readouterr().out

    def test_verify_star_through_positive_loop(self, workdir, capsys):
        _, write = workdir
        a = write("a.mat", "2 2\neps -5\n-5 1\n")
        assert main(["verify", "star", a]) == 0
        assert capsys.readouterr().out == "verify star: oracle agrees\n"

    def test_dualstar_warning_is_one_line(self, workdir, capsys):
        # Both diagonal entries are decreasing dual circuits: the meet closure
        # warns and still succeeds.
        _, write = workdir
        b = write("b.mat", "2 2\n-1 top\ntop -1\n")
        assert main(["dualstar", b]) == 0
        out, err = capsys.readouterr()
        assert out == "eps top\ntop eps\n"
        assert err.startswith("dioid: warning: wedge_closure: ") and err.count("\n") == 1
        assert "pivot(s) 1, 2;" in err

    def test_warning_filters_still_apply(self, workdir, capsys):
        # An ignore filter (as -W or PYTHONWARNINGS sets) silences the line.
        _, write = workdir
        b = write("b.mat", "2 2\n-1 top\ntop -1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DivergenceWarning)
            assert main(["dualstar", b]) == 0
        assert capsys.readouterr() == ("eps top\ntop eps\n", "")

    def test_verify_rejects_series(self, workdir, capsys):
        _, write = workdir
        a = write("a.mat", "1 1\n1.g1\n")
        assert main(["verify", "star", a, "--type", "series"]) == 1
        assert capsys.readouterr().err == (
            "dioid: error: verification is available for --type maxplus only\n")


def write_rows(write, name, rows):
    return write(name, f"{len(rows)} {len(rows[0])}\n"
                 + "".join(" ".join(map(str, r)) + "\n" for r in rows))


def format_rows(m):
    return "".join(" ".join(ZMAX.format(m.at(i, j)) for j in range(m.cols)) + "\n"
                   for i in range(m.rows))


class TestFilesAgainstLoops:
    """Commands on files of small entries, eps, top and entries past 2^63,
    against the kernels folded from the scalar operations."""

    OPS = {"prod": "mat_otimes", "dualprod": "mat_odot", "lres": "left_residual",
           "rres": "right_residual", "dualres": "dual_residual"}

    @staticmethod
    def draw(rng):
        return rng.choice([EPS] * 3 + [TOP] + list(range(-9, 10)))

    def test_square_files_on_packed_rows(self, workdir, capsys):
        # 20 x 20 by 20 x 20, one entry 2^64: the packed reduction on fields
        # past 64 bits for every command.
        _, write = workdir
        rng = random.Random("cli-20x20")
        a, x = ([[self.draw(rng) for _ in range(20)] for _ in range(20)] for _ in "ax")
        a[3][5] = 2**64
        pa, px = write_rows(write, "a.mat", a), write_rows(write, "x.mat", x)
        a, x = from_rows(ZMAX, a), from_rows(ZMAX, x)
        for op, name in self.OPS.items():
            assert main([op, pa, px]) == 0
            got = Matrix(ZMAX, 20, 20, loop_entries(name, a, x, 20, 20, 20))
            assert capsys.readouterr() == (format_rows(got), ""), op

    @pytest.mark.parametrize("op", ["lres", "dualres"])
    def test_residual_by_a_column(self, workdir, capsys, op):
        # 60 x 60 by 60 x 1 with entries past +-2^63: the residual conjugates
        # the column and the result, not the matrix.
        tmp, write = workdir
        rng = random.Random("cli-60x1")
        a = [[self.draw(rng) for _ in range(60)] for _ in range(60)]
        a[7][9], a[8][2] = 2**63 + 5, -(2**63) - 3
        b = [[self.draw(rng)] for _ in range(60)]
        b[4][0] = 2**64
        pa, pb = write_rows(write, "a.mat", a), write_rows(write, "b.mat", b)
        out = tmp / "r.mat"
        assert main([op, pa, pb, "-o", str(out)]) == 0
        got = Matrix(ZMAX, 60, 1, loop_entries(self.OPS[op], from_rows(ZMAX, a),
                                                 from_rows(ZMAX, b), 60, 60, 1))
        assert capsys.readouterr() == (format_rows(got), "")
        assert out.read_text() == "60 1\n" + format_rows(got)


class TestProjectCommand:
    def test_interval_example(self, workdir, capsys):
        _, write = workdir
        a = write("a.mat", "\n".join([
            "5 5",
            "eps eps eps eps eps",
            "[7,11] eps [8,14] eps [2,7]",
            "eps eps eps eps eps",
            "eps eps [4,12] eps [1,5]",
            "eps eps eps eps eps",
        ]) + "\n")
        b = write("b.mat", "\n".join([
            "5 5",
            "top top top top top",
            "[11,16] top [15,19] top [7,10]",
            "top top top top top",
            "top top [13,18] top [5,9]",
            "top top top top top",
        ]) + "\n")
        x0 = write("x0.mat", "5 1\n" + "\n".join(["[10,14]"] * 5) + "\n")
        assert main(["project", a, b, x0, "--type", "interval-maxplus"]) == 0
        out = capsys.readouterr().out
        assert out == "[3,3]\n[10,14]\n[0,0]\n[10,12]\n[7,7]\n"

    def test_hypothesis_violation_is_domain_error(self, workdir, capsys):
        _, write = workdir
        a = write("a.mat", "1 1\neps\n")
        b = write("b.mat", "1 1\n1.g0+3.g2\n")
        x0 = write("x0.mat", "1 1\n5.g0\n")
        assert main(["project", a, b, x0, "--type", "series"]) == 1
        assert "associativity" in capsys.readouterr().err

    def test_hypothesis_violation_names_the_entry(self, workdir, capsys):
        # The benchmark's refused series projector.
        _, write = workdir
        a = write("a.mat", "2 2\neps 2.g1\neps eps\n")
        b = write("b.mat", "2 2\ntop 1.g0+3.g2\ntop top\n")
        x0 = write("x0.mat", "2 1\n4.g1\n5.g2\n")
        assert main(["project", a, b, x0, "--type", "series"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("dioid: error: projector: ")
        assert "fails for B at entry (1,2) = 1.g0+3.g2 " in err


class TestSlopeCommand:
    def test_series_slopes(self, workdir, capsys):
        _, write = workdir
        s = write("s.mat", "2 1\n7.g4.(18.g1)*\n3.g1\n")
        assert main(["slope", s, "--type", "series"]) == 0
        assert capsys.readouterr().out == "1/18\n+inf\n"

    def test_interval_series_slopes(self, workdir, capsys):
        _, write = workdir
        s = write("s.mat", "1 1\n[4.g2.(18.g1)*,5.g1.(18.g1)*]\n")
        assert main(["slope", s, "--type", "interval-series"]) == 0
        assert capsys.readouterr().out == "[1/18,1/18]\n"

    def test_rejects_maxplus(self, workdir, capsys):
        _, write = workdir
        s = write("s.mat", "1 1\n3\n")
        assert main(["slope", s]) == 1


class TestExitCodes:
    def test_parse_error_is_2(self, workdir, capsys):
        _, write = workdir
        bad = write("bad.mat", "1 1\nfrog\n")
        assert main(["star", bad]) == 2
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,literal", [("maxplus", "9" * 5000),
                                              ("series", "9" * 5000 + ".g0")])
    def test_overlong_integer_is_parse_error(self, workdir, capsys, kind, literal):
        _, write = workdir
        big = write("big.mat", f"1 1\n{literal}\n")
        assert main(["star", big, "--type", kind]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "parse error" in err and "line 2, entry 1" in err

    def test_long_period_literal_is_its_own_form(self, workdir, capsys):
        # 1.g0.(1.g100000000)* spans 2*10^8 exponents over two periods, but
        # its sum lists three copies; its star is top from exponent 0.
        _, write = workdir
        lit = write("lit.mat", "1 1\n1.g0.(1.g100000000)*\n")
        start = time.perf_counter()
        assert main(["star", lit, "--type", "series"]) == 0
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr() == ("top.g0\n", "")

    def test_long_period_residual_ends_quickly(self, workdir, capsys):
        _, write = workdir
        a = write("a.mat", "2 2\n0.g0.(1.g4097)* 1.g1\n2.g0 0.g0.(1.g4097)*\n")
        b = write("b.mat", "2 2\ntop.g2 3.g1\ntop.g5 4.g0\n")
        start = time.perf_counter()
        assert main(["lres", "--type", "series", a, b]) == 0
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().out == "top.g5 eps\ntop.g5 eps\n"

    def test_grid_bounds_out_of_order_is_1(self, workdir, capsys):
        _, write = workdir
        m = write("m.mat", "1 1\n0\n")
        assert main(["verify", "lres", m, m, "--grid-lo", "5", "--grid-hi", "1"]) == 1
        err = capsys.readouterr().err
        assert err == "dioid: error: grid bounds out of order: [5, 1]\n"

    @pytest.mark.parametrize("op,grid,oracle", [
        ("project", "3000", "projector_by_enumeration"),
        ("lres", "3000000", "greatest_subsolution"),
    ], ids=["project", "lres"])
    def test_verify_past_the_work_cap_is_1(self, workdir, capsys, op, grid, oracle):
        # The oracles' scans grow with the grid; a wide one is refused before
        # it runs.
        _, write = workdir
        m = write("m.mat", "2 2\n1 2\n3 4\n")
        inputs = [m, m, write("x.mat", "2 1\n1\n2\n")] if op == "project" else [m, m]
        start = time.perf_counter()
        assert main(["verify", op, *inputs, "--grid-lo", f"-{grid}", "--grid-hi", grid]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith(f"dioid: error: {oracle}: estimated work ")
        assert err.count("\n") == 1

    @staticmethod
    def _square(write, n):
        rng = random.Random(n)
        rows = [" ".join("eps" if rng.random() < 0.7 else str(rng.randint(-9, 0))
                         for _ in range(n)) for _ in range(n)]
        return write(f"s{n}.mat", f"{n} {n}\n" + "\n".join(rows) + "\n")

    def test_verify_star_past_the_work_cap_is_1(self, workdir, capsys):
        # n products of n^2 entries: n = 65 passes the cap of 2^18.
        _, write = workdir
        m = self._square(write, 65)
        start = time.perf_counter()
        assert main(["verify", "star", m]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err == "dioid: error: star_by_powers: estimated work 274625 is past the cap 262144\n"

    def test_verify_star_at_the_work_cap_agrees(self, workdir, capsys):
        _, write = workdir
        assert main(["verify", "star", self._square(write, 64)]) == 0
        assert capsys.readouterr() == ("verify star: oracle agrees\n", "")

    def test_verify_project_size_is_bounded_by_work(self, workdir, capsys):
        # n = 2 enumerates every column; n = 3 passes the cap on the default grid.
        _, write = workdir
        a2 = write("a2.mat", "2 2\neps 1\n-2 eps\n")
        b2 = write("b2.mat", "2 2\ntop 3\n2 top\n")
        x2 = write("x2.mat", "2 2\n1 2\n3 eps\n")
        assert main(["verify", "project", a2, b2, x2]) == 0
        assert capsys.readouterr().out == "verify project: oracle agrees\n"
        a3 = write("a3.mat", "3 3\n" + "eps eps eps\n" * 3)
        x3 = write("x3.mat", "3 1\n0\n0\n0\n")
        assert main(["verify", "project", a3, a3, x3]) == 1
        assert "projector_by_enumeration: estimated work" in capsys.readouterr().err

    # The projection of (50, 60) is itself: A (x) X <= X and X <= B (.) X
    # hold for every X.  The enumeration on the grid would return (20, 20).
    PROJECT = ("2 2\n-1 eps\neps -1\n", "2 2\n0 top\ntop 0\n")

    def test_verify_project_off_the_grid_is_1(self, workdir, capsys):
        _, write = workdir
        a, b = (write(f"{n}.mat", t) for n, t in zip("ab", self.PROJECT))
        x0 = write("x0.mat", "2 1\n50\n60\n")
        assert main(["project", a, b, x0]) == 0
        assert capsys.readouterr().out == "50\n60\n"
        assert main(["verify", "project", a, b, x0]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("dioid: error: verify project: entry (1,1) of the result "
                                       "lies above the grid [-20, 20]")
        assert "disagrees" not in captured.err
        assert main(["verify", "project", a, b, x0, "--grid-hi", "60"]) == 0
        assert capsys.readouterr().out == "verify project: oracle agrees\n"

    def test_verify_project_on_the_grid(self, workdir, capsys, monkeypatch):
        # Agreement inside the grid; a wrong result inside it still disagrees.
        _, write = workdir
        a, b = (write(f"{n}.mat", t) for n, t in zip("ab", self.PROJECT))
        x0 = write("x0.mat", "2 1\n5\n-6\n")
        assert main(["verify", "project", a, b, x0]) == 0
        assert capsys.readouterr().out == "verify project: oracle agrees\n"
        monkeypatch.setattr("dioid.projector.project",
                            lambda a, b, x0: from_rows(ZMAX, [[4], [-6]]))
        assert main(["verify", "project", a, b, x0]) == 1
        assert capsys.readouterr().err == ("dioid: error: verify project: oracle disagrees at "
                                           "entry (1,1): computed 4, oracle 5\n")

    def test_shape_error_is_1(self, workdir, capsys):
        _, write = workdir
        a = write("a.mat", "2 3\n1 2 3\n4 5 6\n")
        assert main(["star", a]) == 1

    def test_non_ascii_byte_is_parse_error(self, workdir, capsys):
        tmp, _ = workdir
        m = tmp / "m.mat"
        m.write_bytes(b"1 1\n\xc3\xa9\n")
        assert main(["star", str(m)]) == 2
        err = capsys.readouterr().err
        assert err == f"dioid: parse error: {m}: non-ASCII byte at offset 4\n"

    def test_missing_file_is_1(self, workdir, capsys):
        assert main(["star", "/nonexistent/x.mat"]) == 1

    def test_unwritable_output_is_1(self, workdir, capsys):
        tmp, write = workdir
        a = write("a.mat", "1 1\n3\n")
        out = str(tmp / "missing" / "x.mat")
        assert main(["prod", a, a, "-o", out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"dioid: error: cannot write {out}: ")
        assert captured.err.count("\n") == 1

    def test_series_product_of_far_apart_monomials(self, workdir, capsys):
        # The join of 1.g0 and 2.g300000 merges two polynomials; a window
        # over their exponents would pass the work cap.
        _, write = workdir
        a = write("a.mat", "1 2\n1.g0 2.g300000\n")
        b = write("b.mat", "2 1\n0.g0\n0.g0\n")
        start = time.perf_counter()
        assert main(["prod", "--type", "series", a, b]) == 0
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().out == "1.g0+2.g300000\n"

    @pytest.mark.parametrize("op,negate,n,output", [
        ("prod", False, 1, False), ("lres", True, 1, False), ("lres", True, 3, False),
        ("dualres", True, 3, False), ("prod", False, 3, True),
    ], ids=["prod", "lres", "lres-3x3", "dualres-3x3", "prod-output"])
    def test_result_past_digit_limit_is_1(self, workdir, capsys, op, negate, n, output):
        # 4300 digits parse; their sum has 4301, past the interpreter's limit
        # for printing an int.  The 3x3 residuals by a 3x1 file conjugate
        # the vector and the result, not the matrix; no -o file is written.
        tmp, write = workdir
        nines = "9" * 4300
        a = write("a.mat", f"{n} {n}\n" + f"{'-' if negate else ''}{nines} {'0 ' * (n - 1)}\n" * n)
        b = write("b.mat", f"{n} 1\n" + f"{nines}\n" * n)
        out = tmp / "r.mat"
        assert main([op, a, b] + (["-o", str(out)] if output else [])) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("dioid: error: cannot print the result: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("kind,literal,message", [
        ("interval-maxplus", "[5,1]", "interval bounds are not ordered: [5,1]"),
        ("interval-series", "[1000000000.g0+0.g0.(1.g1)*,top]", "period exponent 1:"),
    ], ids=["interval-order", "window-cap"])
    def test_domain_check_names_file_and_position(self, workdir, capsys, kind, literal,
                                                  message):
        _, write = workdir
        m = write("m.mat", f"1 1\n{literal}\n")
        assert main(["star", m, "--type", kind]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"dioid: error: {m}: line 2, entry 1: ")
        assert message in err and err.count("\n") == 1


class TestInProcessSequence:
    def test_calls_share_no_state(self, workdir, capsys):
        # One parser serves every call in a process: no option or output
        # file of one call may leak into the next.
        tmp, write = workdir
        c = write("c.mat", "3 2\n1 2\n3 4\n5 6\n")
        b = write("b.mat", "3 1\n8\n9\n10\n")
        out = tmp / "out.mat"
        assert main(["lres", c, b, "-o", str(out)]) == 0
        assert capsys.readouterr() == ("5\n4\n", "")
        assert out.read_text() == "2 1\n5\n4\n"
        out.write_text("kept\n")
        assert main(["verify", "lres", c, b]) == 0
        assert capsys.readouterr() == ("verify lres: oracle agrees\n", "")
        assert main(["lres", c, b]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("5\n4\n", "")
        assert out.read_text() == "kept\n"
        with pytest.raises(SystemExit) as exc:
            main(["lres", c])
        assert exc.value.code == 2
        assert "usage: dioid lres" in capsys.readouterr().err
        a = write("a.mat", "2 3\n1 top 3\n4 eps 6\n")
        assert main(["prod", a, b]) == 0
        assert capsys.readouterr() == ("top\n16\n", "")


# Runs ``python -m dioid.cli ARGS`` through runpy, as ``-m`` does, and prints
# the names in sys.modules as the interpreter exits.
LAUNCH = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print('modules:', *sorted(sys.modules), file=sys.stderr))\n"
    "runpy.run_module('dioid.cli', run_name='__main__', alter_sys=True)\n"
)


def launch(*argv: str) -> tuple[int, str, set[str]]:
    """Exit status, stdout and the modules loaded at exit of one CLI launch."""
    run = run_python("-c", LAUNCH, *argv)
    last = run.stderr.splitlines()[-1]
    assert last.startswith("modules: "), run.stderr
    return run.returncode, run.stdout, set(last.split()[1:])


class TestLaunch:
    """The command line through ``python -m dioid.cli`` in a fresh interpreter:
    exit status, stdout, and stderr line by line."""

    NEVER_FOR_PROD = {"dioid.oracle", "dioid.projector", "dataclasses", "inspect", "fractions"}

    def test_parse_error_is_2_with_one_line_naming_the_first(self, workdir):
        # The same bad literal on lines 2 and 3: the file is parsed once and
        # the line names the first.
        _, write = workdir
        bad = write("bad.mat", "3 3\n1 frog 3\nfrog 5 6\n7 8 9\n")
        run = run_python("-m", "dioid.cli", "star", bad)
        assert (run.returncode, run.stdout) == (2, "")
        assert len(run.stderr.splitlines()) == 1 and run.stderr.endswith("\n"), run.stderr
        assert run.stderr.startswith(f"dioid: parse error: {bad}: line 2, entry 2: ")

    def test_unwritable_output_is_1_with_one_line(self, workdir):
        tmp, write = workdir
        a = write("a.mat", "2 2\n1 2\n3 4\n")
        out = tmp / "missing" / "x.mat"
        run = run_python("-m", "dioid.cli", "prod", a, a, "-o", str(out))
        assert (run.returncode, run.stdout) == (1, "")
        assert len(run.stderr.splitlines()) == 1, run.stderr
        assert run.stderr.startswith(f"dioid: error: cannot write {out}: ")
        assert not out.exists()

    def test_dualstar_warning_is_one_line_and_exit_0(self, workdir):
        # Both diagonal entries are decreasing dual circuits.
        _, write = workdir
        b = write("b.mat", "2 2\n-1 top\ntop -1\n")
        run = run_python("-m", "dioid.cli", "dualstar", b)
        assert (run.returncode, run.stdout) == (0, "eps top\ntop eps\n")
        lines = run.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("dioid: warning: wedge_closure: "), lines

    def test_series_residual_by_a_far_polynomial(self, workdir):
        # Counted in steps, the residual reads 2 numerator steps, not the
        # 10^6 exponents between them.
        _, write = workdir
        a = write("a.mat", "1 1\n0.g0+1.g1000000\n")
        b = write("b.mat", "1 1\n0.g0\n")
        run = run_python("-m", "dioid.cli", "lres", "--type", "series", a, b)
        assert (run.returncode, run.stdout, run.stderr) == (0, "-1.g0\n", "")

    def test_interval_project_warning_is_one_line(self, workdir):
        # Both bounds of B close decreasing dual circuits at both pivots.
        _, write = workdir
        a = write("a.mat", "2 2\neps eps\neps eps\n")
        b = write("b.mat", "2 2\n[-1,0] top\ntop [-3,-2]\n")
        x0 = write("x0.mat", "2 1\n5\n5\n")
        run = run_python("-m", "dioid.cli", "project", a, b, x0, "--type", "interval-maxplus")
        assert (run.returncode, run.stdout) == (0, "[eps,eps]\n[eps,eps]\n")
        lines = run.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("dioid: warning: wedge_closure: "), lines
        assert "pivot(s) 1, 2;" in lines[0]

    def test_prod_loads_neither_the_oracle_nor_dataclasses(self, workdir):
        _, write = workdir
        a = write("a.mat", "2 2\n1 2\n3 4\n")
        code, out, modules = launch("prod", a, a)
        assert (code, out) == (0, "5 6\n7 8\n")
        assert {"dioid.matrices", "dioid.series", "dioid.textio"} <= modules
        assert not modules & self.NEVER_FOR_PROD

    def test_verify_project_and_slope_load_what_they_use(self, workdir):
        _, write = workdir
        a = write("a.mat", "2 2\neps 1\n-2 eps\n")
        b = write("b.mat", "2 2\ntop 3\n2 top\n")
        x = write("x.mat", "2 2\n1 2\n3 eps\n")
        code, out, modules = launch("verify", "lres", a, b)
        assert (code, out) == (0, "verify lres: oracle agrees\n")
        assert "dioid.oracle" in modules
        code, out, modules = launch("project", a, b, x)
        assert code == 0 and len(out.splitlines()) == 2
        assert "dioid.projector" in modules and "dioid.oracle" not in modules
        s = write("s.mat", "2 1\n7.g4.(18.g1)*\n3.g1\n")
        code, out, modules = launch("slope", s, "--type", "series")
        assert (code, out) == (0, "1/18\n+inf\n") and "fractions" in modules
