"""In-process fuzz of the command line: random bytes and one-character
mutations of valid files, over every element type and every subcommand.
Each input must end within about a second with exit 0, 1 or 2, and a
failing one with a single ``dioid: ...`` line on stderr."""

from __future__ import annotations

import contextlib
import io
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dioid.cli import _OPS, _VERIFIABLE, main
from dioid.textio import SEMIRINGS

SCALARS = ["eps", "top", "e", "0", "-3", "7", "12"]
SERIES = ["eps", "top", "e", "1.g1", "3.g0+5.g2", "0.g0.(1.g1)*", "4.g1+7.g4.(18.g1)*",
          "2.g1+top.g3", "-2.g0.(3.g2)*", "1.g0.(2.g3)*+4.g2.(1.g1)*"]
LITERALS = {
    "maxplus": SCALARS,
    "series": SERIES,
    "interval-maxplus": SCALARS + ["[1,2]", "[eps,3]", "[-4,top]", "[5,5]"],
    "interval-series": SERIES + ["[1.g1,2.g0]", "[eps,0.g0.(1.g1)*]", "[3.g2,top]"],
}
# Characters a mutation may insert or put in place of another.
MUTATIONS = "0123456789-+.,()[]*egopt \n"
COMMANDS = [*_OPS, "verify", "slope"]


@st.composite
def matrix_file(draw, kind: str, rows: int, cols: int) -> bytes:
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=48))
    cell = st.sampled_from(LITERALS[kind])
    text = f"{rows} {cols}\n" + "".join(
        " ".join(draw(cell) for _ in range(cols)) + "\n" for _ in range(rows))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(text)))
        how = draw(st.sampled_from(["replace", "insert", "delete"]))
        new = "" if how == "delete" else draw(st.sampled_from(MUTATIONS))
        text = text[:i] + new + text[i + (how != "insert"):]
    return text.encode("ascii")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# A meet closure that reaches a decreasing dual circuit warns and exits 0.
@pytest.mark.filterwarnings("ignore::dioid.errors.DivergenceWarning")
@settings(derandomize=True, database=None, max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_every_input_ends_with_one_line(workdir, data):
    kind = data.draw(st.sampled_from(list(SEMIRINGS)), label="type")
    command = data.draw(st.sampled_from(COMMANDS), label="command")
    argv = [command]
    op = command
    if command == "verify":
        op = data.draw(st.sampled_from(_VERIFIABLE), label="operation")
        argv.append(op)
    arity = 1 if op == "slope" else _OPS[op][1]
    # Square inputs so that most commands get past their shape checks; the
    # projector's third input is a column.
    n = data.draw(st.integers(1, 3), label="n")
    for k in range(arity):
        path = workdir / f"in{k}.mat"
        cols = 1 if op == "project" and k == 2 else n
        path.write_bytes(data.draw(matrix_file(kind, n, cols), label=f"input {k}"))
        argv.append(str(path))
    argv += ["--type", kind]
    if command in _OPS and data.draw(st.booleans(), label="-o"):
        argv += ["-o", str(workdir / "out.mat")]

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter() - start
    message = err.getvalue()
    assert code in (0, 1, 2)
    if code == 0:
        assert message == "" and out.getvalue()
    else:
        assert message.startswith("dioid: ") and message.count("\n") == 1, message
        assert "Traceback" not in message
    assert elapsed < 1.0, f"{argv}: {elapsed:.2f} s"
