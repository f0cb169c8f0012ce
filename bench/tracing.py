"""Spans around the public functions of ``dioid``, for the traced run.

``Tracer.install`` replaces every public function of the traced modules, and
the operations of the semiring tables ``ZMAX``, ``GAMMA``, ``IZMAX`` and
``IGAMMA``, with wrappers, wherever a module of the package binds them.  A call
made inside ``dioid`` is therefore recorded too, under its parent span.  A span
is ``[name, start_ns, end_ns, parent_index, op_index]``; spans stay in memory
and are written out once the run ends.  Max-plus scalar operations and the
cheap series accessors are counted, not timed, because a timer costs as much
as the call; a ``Tracer(count_scalars=False)`` leaves them unwrapped, so that
its span times carry no counting cost.  ``uninstall`` restores every binding.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter

MODULES = ("matrices", "series", "intervals", "projector", "textio", "cli", "oracle", "zmax")
TABLES = (("zmax", "ZMAX"), ("series", "GAMMA"), ("intervals", "IZMAX"), ("intervals", "IGAMMA"))
TABLE_OPS = ("oplus", "wedge", "otimes", "odot", "lres", "rres", "dualres", "star", "leq", "conj",
             "parse", "format", "odot_left_ok", "make", "degenerate")
COUNTED = {"zmax"}  # layers whose calls are counted only
COUNTED_SERIES = {"is_eps", "is_top", "is_monomial", "value_at", "values"}

KERNEL_STEPS = {
    "mat_otimes": lambda a, x: a.rows * x.cols * a.cols,
    "mat_odot": lambda a, x: a.rows * x.cols * a.cols,
    "left_residual": lambda a, b: a.cols * b.cols * a.rows,
    "right_residual": lambda c, a: c.rows * a.rows * c.cols,
    "dual_residual": lambda a, x: a.cols * x.cols * a.rows,
    "kleene_star": lambda a: a.rows**3,
}
MATRIX_KERNELS = tuple(KERNEL_STEPS) + ("wedge_closure",)
SERIES_OPS = ("s_oplus", "s_wedge", "s_otimes", "s_lres", "s_star", "mono_odot", "mono_dualres")

PER_LAYER = (
    [(f"matrices.{k}.{m}", u) for k in MATRIX_KERNELS for m, u in (("calls", "count"), ("self_ms", "ms"))]
    + [("matrices.inner_steps", "count"), ("matrices.ns_per_inner_step", "ns"),
       ("zmax.scalar_calls", "count"), ("zmax.calls_per_inner_step", "calls/step"),
       ("matrices.wedge_closure.iterations", "count"), ("matrices.divergence_warnings", "count")]
    + [(f"series.{op}.{m}", u) for op in SERIES_OPS for m, u in (("calls", "count"), ("us_per_call", "us"))]
    + [("series.result_monomials_mean", "count"),
       ("intervals.calls", "count"), ("intervals.self_ms", "ms"),
       ("projector.check_hypothesis.calls", "count"), ("projector.check_hypothesis.self_ms", "ms"),
       ("projector.projector_matrix.self_ms", "ms"), ("projector.project.self_ms", "ms"),
       ("projector.interval_project.self_ms", "ms"), ("projector.refused", "count"),
       ("textio.parse_matrix.calls", "count"), ("textio.parse_matrix.us_per_entry", "us"),
       ("textio.format_matrix.us_per_entry", "us"), ("textio.bytes_in", "bytes"),
       ("textio.bytes_out", "bytes"),
       ("cli.main.calls", "count"), ("cli.main.self_ms", "ms"), ("cli.exit_0", "count"),
       ("cli.exit_1", "count"), ("cli.exit_2", "count"), ("cli.uncaught", "count"),
       ("oracle.calls", "count"), ("oracle.self_ms", "ms"),
       ("trace.overhead_ratio", "ratio")]
)


class Tracer:
    def __init__(self, count_scalars: bool) -> None:
        self.count_scalars = count_scalars
        self.spans: list[list] = []
        self.stack = [-1]
        self.op = -1
        self.counts: Counter = Counter()
        self.stats: Counter = Counter()
        self._undo: list[tuple] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.stats.clear()

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, hook=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1], tracer.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _hook(self, layer, name):
        stats = self.stats
        if layer == "matrices" and name in KERNEL_STEPS:
            steps = KERNEL_STEPS[name]

            def hook(args, result):
                stats["inner_steps"] += steps(*args[:2])
            return hook
        if layer == "series" and name in SERIES_OPS:
            def hook(args, result):
                stats["series_results"] += 1
                stats["series_monomials"] += len(result.transient) + len(result.pattern)
            return hook
        if name == "check_hypothesis":
            def hook(args, result):
                stats["refused"] += not result
            return hook
        if name == "parse_matrix":
            def hook(args, result):
                stats["bytes_in"] += len(args[0])
                stats["entries_in"] += result.rows * result.cols
            return hook
        if name == "format_matrix":
            def hook(args, result):
                stats["bytes_out"] += len(result)
                stats["entries_out"] += args[0].rows * args[0].cols
            return hook
        return None

    def _wrap(self, layer, name, fn):
        if layer in COUNTED or (layer == "series" and name in COUNTED_SERIES):
            return self._count(f"{layer}.{name}", fn) if self.count_scalars else fn
        return self._span(f"{layer}.{name}", fn, self._hook(layer, name))

    def _set(self, obj, attr, value) -> None:
        own = attr in vars(obj)
        self._undo.append((obj, attr, vars(obj).get(attr), own))
        setattr(obj, attr, value)

    def install(self) -> None:
        mods = {m: sys.modules[f"dioid.{m}"] for m in MODULES if f"dioid.{m}" in sys.modules}
        wrapped: dict[int, object] = {}
        for layer, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__
                        and (layer != "cli" or name == "main")):
                    wrapped[id(fn)] = (fn, self._wrap(layer, name, fn))
        for layer, table_name in TABLES:
            table = getattr(mods[layer], table_name)
            for op in TABLE_OPS:
                fn = getattr(table, op, None)
                if fn is None:
                    continue
                if id(fn) in wrapped:
                    wrapper = wrapped[id(fn)][1]
                elif inspect.ismethod(fn):
                    wrapper = self._wrap(layer, op, fn)
                else:
                    wrapper = self._wrap(layer, fn.__name__, fn)
                    wrapped[id(fn)] = (fn, wrapper)
                if wrapper is not fn:
                    self._set(table, op, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "dioid" and not mod_name.startswith("dioid."):
                continue
            for name, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value and hit[1] is not value:
                    self._set(mod, name, hit[1])

    def uninstall(self) -> None:
        for obj, attr, value, own in reversed(self._undo):
            if own:
                setattr(obj, attr, value)
            else:
                delattr(obj, attr)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"fields": ["name", "start_ns", "end_ns", "parent", "op"], "spans": [\n')
            fh.write(",\n".join(json.dumps(s) for s in self.spans))
            fh.write("\n]}\n")

    def metrics(self, notes: Counter) -> dict:
        """Per-layer metrics of the spans and counts recorded since ``reset``.

        ``notes`` carries what the benchmark itself observed: CLI exit codes
        and DivergenceWarnings.
        """
        spans = self.spans
        child = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        outer_ns: Counter = Counter()  # inclusive time of spans with no same-name ancestor
        closures = {}
        for idx, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            self_ns[name] += end - start - child[idx]
            up = parent
            while up >= 0 and spans[up][0] != name:
                up = spans[up][3]
            if up < 0:
                outer_ns[name] += end - start
            if name == "matrices.wedge_closure":
                closures[idx] = 0
            elif name == "matrices.mat_odot" and parent in closures:
                closures[parent] += 1
        st = self.stats
        scalar_calls = sum(v for k, v in self.counts.items() if k.startswith("zmax."))
        steps = st["inner_steps"]
        kernel_ns = sum(self_ns[f"matrices.{k}"] for k in KERNEL_STEPS)

        def ratio(a, b):
            return a / b if b else 0.0

        out: dict = {}
        for k in MATRIX_KERNELS:
            out[f"matrices.{k}.calls"] = calls[f"matrices.{k}"]
            out[f"matrices.{k}.self_ms"] = self_ns[f"matrices.{k}"] / 1e6
        out["matrices.inner_steps"] = steps
        out["matrices.ns_per_inner_step"] = ratio(kernel_ns, steps)
        out["zmax.scalar_calls"] = scalar_calls
        out["zmax.calls_per_inner_step"] = ratio(scalar_calls, steps)
        out["matrices.wedge_closure.iterations"] = ratio(sum(closures.values()), len(closures))
        out["matrices.divergence_warnings"] = notes["divergence_warnings"]
        for op in SERIES_OPS:
            out[f"series.{op}.calls"] = calls[f"series.{op}"]
            out[f"series.{op}.us_per_call"] = ratio(outer_ns[f"series.{op}"], calls[f"series.{op}"]) / 1e3
        out["series.result_monomials_mean"] = ratio(st["series_monomials"], st["series_results"])
        layer_calls: Counter = Counter()
        layer_self: Counter = Counter()
        for name in calls:
            layer = name.split(".", 1)[0]
            layer_calls[layer] += calls[name]
            layer_self[layer] += self_ns[name]
        out["intervals.calls"] = layer_calls["intervals"]
        out["intervals.self_ms"] = layer_self["intervals"] / 1e6
        out["projector.check_hypothesis.calls"] = calls["projector.check_hypothesis"]
        for name in ("check_hypothesis", "projector_matrix", "project", "interval_project"):
            out[f"projector.{name}.self_ms"] = self_ns[f"projector.{name}"] / 1e6
        out["projector.refused"] = st["refused"]
        out["textio.parse_matrix.calls"] = calls["textio.parse_matrix"]
        out["textio.parse_matrix.us_per_entry"] = ratio(outer_ns["textio.parse_matrix"], st["entries_in"]) / 1e3
        out["textio.format_matrix.us_per_entry"] = ratio(outer_ns["textio.format_matrix"], st["entries_out"]) / 1e3
        out["textio.bytes_in"] = st["bytes_in"]
        out["textio.bytes_out"] = st["bytes_out"]
        out["cli.main.calls"] = calls["cli.main"]
        out["cli.main.self_ms"] = self_ns["cli.main"] / 1e6
        for key in ("exit_0", "exit_1", "exit_2", "uncaught"):
            out[f"cli.{key}"] = notes[f"cli_{key}"]
        out["oracle.calls"] = layer_calls["oracle"]
        out["oracle.self_ms"] = layer_self["oracle"] / 1e6
        return out


def mean_metrics(per_pass: list[dict]) -> dict:
    keys = per_pass[0].keys()
    return {k: sum(p[k] for p in per_pass) / len(per_pass) for k in keys}
