"""Benchmark of ``dioid``: time to an exact, checked result on four workloads.

    python3 bench/run.py --workload maxplus-dense --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --out result.json

One process, one thread, closed loop: each operation of the workload's seeded
corpus is issued after the previous one returns, and the corpus is repeated
until ``--seconds`` have been measured.  At most one child process (a CLI
launch) runs beside it.  Every output is checked after the timed region
against the references in ``reference.py``; a wrong result, an unexpected
exception or a wrong CLI exit code counts as a failed operation and never
aborts the run.

Times are reported at a fixed reference speed.  A shared host changes speed
by up to half for a minute at a time, longer than a run, so raw times of the
same code spread past any useful bound.  A fixed pure-Python calibration loop
therefore runs before the first operation of a pass and after each one, and
an operation's time is taken as a multiple of the median loop near it (see
``near_loop_time``); the median multiple over the passes, times
``CAL_REFERENCE_S`` (the loop's usual time on the 2-vCPU x86 host, Python
3.11, that the benchmark was defined on), is the operation's time.  Set-up is
scaled the same way, by loops before and after it.  A CLI launch is timed
against a bare interpreter launch (``python -c pass``) right after it, which
shares its process start-up costs, and scaled by ``BARE_REFERENCE_S``.  A
change to ``dioid`` moves the operation, not the loops or the bare launch.
The raw pass times and launch times are kept in the ``--out`` file.

With ``--trace 0`` the end-to-end metrics are measured; with ``--trace 1`` the
corpus also runs with every public function of ``dioid`` wrapped in a span,
and the per-layer metrics are reported.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is
false when a failure does not have the shape a ROADMAP open item predicts;
the known ones are listed as such on the lines above it.

``dioid`` is imported from ``src/`` next to this directory and nowhere else;
without it the run exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import reference as R  # noqa: E402
from tracing import PER_LAYER, Tracer, mean_metrics  # noqa: E402

SETUPS = 7  # set-up repetitions in an untraced run; setup_s is their median
MIN_PASSES = 3
CAL_REFERENCE_S = 0.6e-3  # usual time of calibration_loop() on the reference host
CAL_WINDOW = 4  # reach of near_loop_time(), in multiples of the operation's duration
BARE_REFERENCE_S = 62e-3  # usual time of a bare interpreter launch on the reference host
CLI_LAUNCHES = 21
END_TO_END = (("wall_s", "s"), ("op_ms_p50", "ms"), ("op_ms_p90", "ms"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("cli_start_ms", "ms"))


class NoLibrary(Exception):
    pass


_CAL_MATRIX = [[(i * 7 + j * 3) % 19 - 9 if (i + j) % 5 else R.EPS for j in range(6)] for i in range(6)]


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b) -> None:
        self.a, self.b = a, b


def calibration_loop() -> float:
    """Seconds taken by a fixed pure-Python workload in three parts of about
    equal time: an integer loop with comparisons and dict stores, max-plus
    products of nested lists, and building, sorting and folding small
    objects.  Each part tracks a slow spell of the host on a different kind
    of ``dioid`` code; together they track all four workloads best."""
    t0 = time.perf_counter()
    acc, row, seen = 0, tuple(range(64)), {}
    for i in range(500):
        x = row[i & 63] * 3 + i
        acc = max(acc, x) if i % 3 else min(acc, -x)
        seen[i & 127] = (x, acc)
    for _ in range(7):
        R.product(_CAL_MATRIX, _CAL_MATRIX)
    pairs = [_Pair(i * 7 % 101, -i) for i in range(200)]
    pairs.sort(key=lambda p: (p.a, p.b))
    best: dict = {}
    for p in pairs:
        best[p.a] = max(best.get(p.a, -1 << 60), p.b)
    tuple(sorted(best.items()))
    return time.perf_counter() - t0


def near_loop_time(i: int, span: tuple[float, float], loop_at: list[float], loops: list[float]) -> float:
    """Median time of the calibration loops near operation ``i``: those run
    within ``CAL_WINDOW`` times its duration before it starts or after it
    ends, and always the loops right before and after it.  A short operation
    is scaled by the speed of the moment; a long one by more samples, as it
    spans more of the host's changes of speed."""
    t0, t1 = span
    reach = CAL_WINDOW * (t1 - t0)
    lo = bisect.bisect_left(loop_at, t0 - reach)
    hi = bisect.bisect_right(loop_at, t1 + reach)
    near = range(min(lo, i), max(hi, i + 2))
    return statistics.median(loops[k] for k in near)


def loop_time(k: int = 3) -> float:
    """Median seconds of ``k`` calibration loops."""
    return statistics.median(calibration_loop() for _ in range(k))


def load_dioid():
    """Import ``dioid`` afresh from ``ROOT/src``."""
    src = ROOT / "src"
    if not (src / "dioid" / "__init__.py").is_file():
        raise NoLibrary(f"no dioid package under {src}")
    for name in [m for m in sys.modules if m == "dioid" or m.startswith("dioid.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    lib = importlib.import_module("dioid")
    if src not in Path(lib.__file__).resolve().parents:
        raise NoLibrary(f"dioid was imported from {lib.__file__}, not from {src}")
    return lib


class Run:
    """One workload's corpus, its timed passes and their outcomes."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = ROOT / ".bench_work" / workload
        self.notes: Counter = Counter()
        self.ops: list = []
        self.first: list = []
        self.drift = Counter()  # op index -> passes whose output differed from the first
        self.raw_walls: list[float] = []  # uncalibrated seconds of each calibrated pass

    def setup(self) -> float:
        """Import dioid, build the corpus and its files, warm up; return seconds."""
        self.ops = []
        gc.collect()
        t0 = time.perf_counter()
        lib = load_dioid()
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        rng = random.Random(f"{self.workload}:{self.seed}")
        self.ops = corpus.WORKLOADS[self.workload](lib, rng, str(self.workdir))
        smallest = {}
        for op in self.ops:
            if op.kind not in smallest or op.size < smallest[op.kind].size:
                smallest[op.kind] = op
        for op in smallest.values():
            self.call(op)
        return time.perf_counter() - t0

    @staticmethod
    def call(op):
        try:
            return op.run()
        except Exception as exc:  # a failed operation is counted, never fatal
            return corpus.Raised(exc)

    def one_pass(self, tracer: Tracer | None = None, calibrated: bool = False) -> list[float]:
        """Seconds per operation; with ``calibrated``, in reference seconds."""
        gc.collect()
        spans, outs = [], []
        loop_at, loops = [], []  # start time and seconds of each calibration loop
        if calibrated:
            loop_at.append(time.perf_counter())
            loops.append(calibration_loop())
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            out = self.call(op)
            t1 = time.perf_counter()
            spans.append((t0, t1))
            outs.append(out)
            if calibrated:
                loop_at.append(t1)
                loops.append(calibration_loop())
        lat = [t1 - t0 for t0, t1 in spans]
        if calibrated:
            self.raw_walls.append(sum(lat))
            lat = [took * CAL_REFERENCE_S / near_loop_time(i, spans[i], loop_at, loops)
                   for i, took in enumerate(lat)]
        if not self.first:
            self.first = outs
        else:
            for i, (a, b) in enumerate(zip(outs, self.first)):
                if a != b:
                    self.drift[i] += 1
        if tracer is not None:
            for op, out in zip(self.ops, outs):
                if not op.kind.startswith("cli."):
                    continue
                if isinstance(out, corpus.CliResult) and out.code in (0, 1, 2):
                    self.notes[f"cli_exit_{out.code}"] += 1
                else:
                    self.notes["cli_uncaught"] += 1
        return lat

    def traced_pass(self, tracer: Tracer) -> tuple[dict, float]:
        """One pass with spans installed; its per-layer metrics and wall time."""
        self.notes.clear()
        tracer.reset()
        tracer.install()
        try:
            lat = self.one_pass(tracer)
        finally:
            tracer.uninstall()
        return tracer.metrics(self.notes), sum(lat)

    def passes(self, seconds: float, between) -> list[list[float]]:
        """Calibrated latencies of repeated passes over the corpus.

        Passes repeat while another one fits in ``seconds`` of measuring, and
        at least ``MIN_PASSES`` run.  ``between(measured_seconds)`` runs after
        each pass, outside the measured time.
        """
        runs, spent = [], []
        while True:
            t0 = time.perf_counter()
            runs.append(self.one_pass(calibrated=True))
            spent.append(time.perf_counter() - t0)
            between(sum(spent))
            if len(runs) >= MIN_PASSES and sum(spent) + statistics.median(spent) > seconds:
                return runs

    def failures(self) -> list[dict]:
        """The corpus's failed operations, each listed once with its input."""
        listed = []
        for i, op in enumerate(self.ops):
            verdict = op.check(self.first[i])
            if verdict is None and self.drift[i]:
                verdict = corpus.Failure(f"output changed between passes ({self.drift[i]} passes)")
            if verdict is not None:
                listed.append({"op": i, "kind": op.kind, "input": op.describe(),
                               "reason": verdict.reason, "known": verdict.known})
        return listed

    def launch(self) -> tuple[float, float, bool]:
        """Launch the CLI on a tiny input in a child process, then a bare
        interpreter; the two wall times in seconds and the CLI's success."""
        tiny = [[1, 2], [3, 4]]
        path = self.workdir / "tiny.mat"
        path.write_text("2 2\n1 2\n3 4\n", encoding="ascii")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

        def timed(argv):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=120)
            return time.perf_counter() - t0, proc

        cli_s, proc = timed(["-m", "dioid.cli", "prod", str(path), str(path)])
        bare_s, _ = timed(["-c", "pass"])
        return cli_s, bare_s, proc.returncode == 0 and proc.stdout == R.text_rows(R.product(tiny, tiny))


def _count_warnings(notes: Counter):
    def show(message, category, *args, **kwargs):
        if category.__name__ == "DivergenceWarning":
            notes["divergence_warnings"] += 1
    return show


def metadata() -> dict:
    src = ROOT / "src" / "dioid"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(src.glob("*.py")))
    try:
        import numpy  # noqa: F401  (imported last: after every measurement)
        has_numpy = True
    except ImportError:
        has_numpy = False
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy_imports": has_numpy,
        "nproc": os.cpu_count(),
        "src_dioid_lines": lines,
    }


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed)
    warnings.simplefilter("always")
    warnings.showwarning = _count_warnings(run.notes)
    setups = []
    for _ in range(1 if trace else SETUPS):
        before = loop_time()
        took = run.setup()
        setups.append(took * 2 * CAL_REFERENCE_S / (before + loop_time()))
    result: dict = {"workload": workload, "seed": seed, "trace": int(trace), "ops_per_pass": len(run.ops)}
    if trace:
        walls = [sum(run.one_pass())]
        # Scalar calls are counted in a pass of their own, so that the
        # counters do not inflate the span times of the passes after it.
        counted, _ = run.traced_pass(Tracer(count_scalars=True))
        tracer = Tracer(count_scalars=False)
        timed, traced_walls = [], []
        start = time.perf_counter()
        # Untraced and traced passes alternate, so that a change of the host's
        # speed does not fall on one side of the overhead ratio.
        while True:
            m, wall = run.traced_pass(tracer)
            timed.append(m)
            traced_walls.append(wall)
            if time.perf_counter() - start + walls[-1] + wall > seconds:
                break
            walls.append(sum(run.one_pass()))
        metrics = mean_metrics(timed)
        for key in ("zmax.scalar_calls", "zmax.calls_per_inner_step"):
            metrics[key] = counted[key]
        metrics["trace.overhead_ratio"] = statistics.median(t / u for t, u in zip(traced_walls, walls))
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(str(out_dir / f"spans-{workload}-seed{seed}.json"))
        passes = len(walls) + 1 + len(traced_walls)
        units = dict(PER_LAYER)
        result["traced_passes"] = len(traced_walls)
    else:
        launches = []

        def launch_due(spent):
            # Launches are spread over the run, so that a slow spell of a
            # shared machine does not meet every one of them.
            due = min(CLI_LAUNCHES, 1 + int(CLI_LAUNCHES * spent / seconds))
            while len(launches) < due:
                launches.append(run.launch())

        runs = run.passes(seconds, launch_due)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        launch_due(seconds)
        launch_failed = sum(not ok for *_, ok in launches)
        # Each operation's median over the passes, in reference seconds.
        per_op = [statistics.median(r[i] for r in runs) for i in range(len(run.ops))]
        metrics = {
            "wall_s": sum(per_op),
            "op_ms_p50": statistics.median(per_op) * 1e3,
            "op_ms_p90": statistics.quantiles(per_op, n=10)[8] * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_mb,
            "cli_start_ms": statistics.median(c / b for c, b, _ in launches) * BARE_REFERENCE_S * 1e3,
        }
        walls = list(map(sum, runs))
        passes = len(runs)
        units = dict(END_TO_END)
        result["setup_runs_s"] = setups
        result["cli_and_bare_launches_ms"] = [[c * 1e3, b * 1e3] for c, b, _ in launches]
        result["raw_pass_walls_s"] = run.raw_walls
    # Each operation of the corpus counts once, however many passes ran, so
    # that the counts do not depend on the speed of the machine.
    listed = run.failures()
    attempted, failed = len(run.ops), len(listed)
    if not trace:
        attempted += CLI_LAUNCHES
        failed += launch_failed
        if launch_failed:
            listed.append({"op": -1, "kind": "cli.launch", "input": "python -m dioid.cli prod tiny tiny",
                           "reason": f"{launch_failed} launches failed", "known": None})
    shutil.rmtree(run.workdir, ignore_errors=True)
    result.update(
        passes=passes,
        pass_walls_s=walls,
        attempted=attempted,
        failed=failed,
        failed_ratio=failed / attempted,
        correct=all(f["known"] for f in listed),
        failures=listed,
        metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        meta=metadata(),
    )
    return result


def report(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"passes {result['passes']}  ops/pass {result['ops_per_pass']}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']!r} {m['unit']}")
    print(f"  {'failed_ratio':40s} {result['failed_ratio']!r} 1  "
          f"({result['failed']} of {result['attempted']} operations)")
    for f in result["failures"]:
        tag = f"known, {f['known']}" if f["known"] else "NOT KNOWN"
        reason = " | ".join(f["reason"].splitlines())
        print(f"  failure [{tag}] op {f['op']} {f['kind']}: {reason}\n    input: {f['input']}")
    print("meta " + json.dumps(result["meta"]))


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a child process in turn."""
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    merged = {}
    for workload in corpus.WORKLOADS:
        for trace in (0, 1):
            part = out_dir / f"result-{workload}-{trace}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
                   "--out", str(part)]
            proc = subprocess.run(cmd, cwd=ROOT)
            if proc.returncode != 0:
                return proc.returncode
            merged.setdefault(workload, {})["traced" if trace else "untraced"] = json.loads(part.read_text())
    summary = {
        "correct": all(r["correct"] for w in merged.values() for r in w.values()),
        "attempted": sum(r["attempted"] for w in merged.values() for r in w.values()),
        "failed": sum(r["failed"] for w in merged.values() for r in w.values()),
        "metrics": {w: r["untraced"]["metrics"] for w, r in merged.items()},
    }
    if args.out:
        Path(args.out).write_text(json.dumps({"seed": args.seed, "seconds": args.seconds,
                                              "workloads": merged}, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*corpus.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result, with failures, to this JSON file")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dioid" / "__init__.py").is_file():
        print(f"bench: no dioid package under {ROOT / 'src'}", file=sys.stderr)
        return 1
    if args.workload == "all":
        return run_all(args)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except NoLibrary as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    report(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
