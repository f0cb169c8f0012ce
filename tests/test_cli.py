"""Command-line driver: outputs, exit codes, oracle verification."""

from __future__ import annotations

import time
import warnings

import pytest

from dioid.cli import main
from dioid.errors import DivergenceWarning


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

    def test_long_period_literal_is_refused_quickly(self, workdir, capsys):
        # The window of 1.g0.(1.g100000000)* would hold 2*10^8 values; it used
        # to be filled before any cap was checked.
        _, write = workdir
        lit = write("lit.mat", "1 1\n1.g0.(1.g100000000)*\n")
        start = time.perf_counter()
        assert main(["star", lit, "--type", "series"]) == 1
        assert time.perf_counter() - start < 2.0
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "period exponent 100000000" in err

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

    @pytest.mark.parametrize("argv,negate", [(["prod"], False), (["lres"], True)],
                             ids=["prod", "lres"])
    def test_result_past_digit_limit_is_1(self, workdir, capsys, argv, negate):
        # 4300 digits parse; their sum has 4301, past the interpreter's limit
        # for printing an int.
        _, write = workdir
        nines = "9" * 4300
        a = write("a.mat", f"1 1\n{'-' if negate else ''}{nines}\n")
        b = write("b.mat", f"1 1\n{nines}\n")
        assert main(argv + [a, b]) == 1
        err = capsys.readouterr().err
        assert err.startswith("dioid: error: cannot print the result: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("kind,literal,message", [
        ("interval-maxplus", "[5,1]", "interval bounds are not ordered: [5,1]"),
        ("interval-series", "[1.g0.(1.g100000000)*,top]", "period exponent 100000000"),
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
