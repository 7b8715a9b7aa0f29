"""Outside-in tracing of dealerlab's layers, and the per-layer metrics built from it.

``Tracer.install`` replaces the module attributes through which one layer
calls another (for example ``dealerlab.asymptotics.standard_normal_block``)
with wrappers that record a span: name, start, end, parent, and the
``tracemalloc`` peak above the level at entry, children included. Nothing
under ``src/`` changes; the wrappers live only in the traced process.

A span's layer is the prefix of its name. ``kernel``, ``processes`` and
``market`` are closed-form helpers and get no spans: their time counts in
their callers' self time. ``layer_metrics`` needs no numpy, so the runner
can compute metrics from a spans file without importing the program.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("paths", "asymptotics", "fbsde", "equilibrium", "oracle", "scenarios", "reports",
          "cli")
PEAK_LAYERS = ("paths", "asymptotics", "oracle", "equilibrium", "reports")
SUBCOMMANDS = ("liquidation", "diffusive", "welfare", "scaling-smooth", "scaling-diffusive",
               "oracle-check", "equilibrium")

# (calling module, attribute it calls through, span name). Local imports such as
# oracle's `from .equilibrium import solve_equilibrium` read the callee module's
# attribute at call time, so wrapping that attribute catches them.
BOUNDARIES = (
    ("cli", "scaling_study", "asymptotics.scaling_study"),
    ("cli", "solve_equilibrium", "equilibrium.solve_equilibrium"),
    ("cli", "oracle_gap", "oracle.oracle_gap"),
    ("cli", "liquidation_closed_form", "scenarios.liquidation_closed_form"),
    ("cli", "diffusive_simulate", "scenarios.diffusive_simulate"),
    ("cli", "price_reversion_regression", "scenarios.price_reversion_regression"),
    ("cli", "segmentation_welfare", "scenarios.segmentation_welfare"),
    ("cli", "write_csv", "reports.write_csv"),
    ("cli", "write_json", "reports.write_json"),
    ("cli", "run_metadata", "reports.run_metadata"),
    ("reports", "version_string", "reports.version_string"),
    ("asymptotics", "standard_normal_block", "paths.standard_normal_block"),
    ("asymptotics", "integrate_against", "paths.integrate_against"),
    ("asymptotics", "solve_forward", "fbsde.solve_forward"),
    ("scenarios", "standard_normal_block", "paths.standard_normal_block"),
    ("equilibrium", "solve_equilibrium", "equilibrium.solve_equilibrium"),
    ("equilibrium", "consistency_report", "equilibrium.consistency_report"),
    ("equilibrium", "realize_driver", "fbsde.realize_driver"),
    ("equilibrium", "solve_forward", "fbsde.solve_forward"),
    ("equilibrium", "kernel_expectation_path", "fbsde.kernel_expectation_path"),
    ("equilibrium", "realize", "paths.realize"),
    ("fbsde", "kernel_expectation_path", "fbsde.kernel_expectation_path"),
    ("fbsde", "realize", "paths.realize"),
    ("oracle", "assemble_and_solve", "oracle.assemble_and_solve"),
    ("oracle", "realize", "paths.realize"),
)


class _View:
    """A stand-in for a module: ``overrides`` first, every other name from ``target``."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    """Spans kept in memory; ``spans`` is written out once the op set is done.

    With ``memory=True`` each span also records its ``tracemalloc`` peak, which
    needs ``tracemalloc`` tracing while spans are open. That slows Python-heavy
    code several times over, so times come from a pass with ``memory=False``.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans = []
        self.substreams = 0
        self._stack = []  # [span, traced bytes at entry, running absolute peak]

    def enter(self, name: str) -> dict:
        current = 0
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1][2] = max(self._stack[-1][2], peak)
            tracemalloc.reset_peak()
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1][0]["id"] if self._stack else None,
                "start": time.perf_counter(), "end": None, "peak_bytes": 0}
        self.spans.append(span)
        self._stack.append([span, current, current])
        return span

    def exit(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        frame = self._stack.pop()  # spans close in order: every span is a try/finally
        if not self.memory:
            return
        frame[2] = max(frame[2], tracemalloc.get_traced_memory()[1])
        span["peak_bytes"] = frame[2] - frame[1]
        if self._stack:
            self._stack[-1][2] = max(self._stack[-1][2], frame[2])
        tracemalloc.reset_peak()

    def call(self, name, fn, args=(), kwargs=None, before=None, after=None):
        """Run ``fn`` inside a span; ``before`` may rewrite the arguments, ``after``
        records counts from the arguments and the result into ``span``."""
        kwargs = kwargs or {}
        span = self.enter(name)
        try:
            if before:
                args, kwargs = before(span, args, kwargs)
            result = fn(*args, **kwargs)
        finally:
            self.exit(span)
        if after:
            after(span, args, kwargs, result)
        return result

    def _wrap(self, module, attr, name):
        fn = getattr(module, attr)
        before, after = _HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, before, after)

        setattr(module, attr, traced)

    def install(self) -> None:
        """Wrap every layer boundary of the imported dealerlab package."""
        import scipy  # here, not at the top: the runner imports this module without numpy
        import scipy.linalg

        mods = {m: importlib.import_module(f"dealerlab.{m}") for m, _, _ in BOUNDARIES}
        for mod, attr, name in BOUNDARIES:
            self._wrap(mods[mod], attr, name)
        paths = importlib.import_module("dealerlab.paths")
        substream = paths.substream

        @functools.wraps(substream)
        def counted_substream(*args, **kwargs):
            self.substreams += 1
            return substream(*args, **kwargs)

        paths.substream = counted_substream
        # the LU exactly as the oracle calls it: `scipy.linalg.solve` seen from dealerlab.oracle
        solve = scipy.linalg.solve
        oracle = importlib.import_module("dealerlab.oracle")
        oracle.scipy = _View(scipy, linalg=_View(scipy.linalg, solve=functools.wraps(solve)(
            lambda *a, **k: self.call("oracle.lu", solve, a, k, after=_note_lu))))


# ----------------------------------------------------------------------
# counts recorded at the boundaries
# ----------------------------------------------------------------------

def _count_rows(span, args, kwargs):
    path, header, rows = args[:3]

    def counted(rows):
        n = 0
        for n, row in enumerate(rows, 1):
            yield row
        span["rows"] = n

    span["columns"] = len(header)
    return (path, header, counted(rows)) + tuple(args[3:]), kwargs


def _note_file(span, args, kwargs, result):
    span["bytes"] = os.path.getsize(_arg(args, kwargs, 0, "path"))


def _note_block(span, args, kwargs, block):
    span["normals"] = int(block.size)
    span["block_bytes"] = int(block.nbytes)


def _note_steps(span, args, kwargs, result):
    span["grid_steps"] = int(_arg(args, kwargs, 2, "horizon").n_steps)


def _note_residual(span, args, kwargs, report):
    span["max_residual"] = float(max(report.values()))


def _note_oracle(span, args, kwargs, disc):
    span["residual_rel"] = float(disc.residual_rel)


def _note_lu(span, args, kwargs, x):
    span["unknowns"] = int(_arg(args, kwargs, 0, "a").shape[0])


_HOOKS = {
    "reports.write_csv": (_count_rows, _note_file),
    "reports.write_json": (None, _note_file),
    "paths.standard_normal_block": (None, _note_block),
    "fbsde.solve_forward": (None, _note_steps),
    "equilibrium.consistency_report": (None, _note_residual),
    "oracle.assemble_and_solve": (None, _note_oracle),
}


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list, memory_spans: list, substreams: int, l2_bytes: int,
                  l3_bytes: int) -> dict:
    """Per-layer metrics from a timed and a memory-traced pass over one op set.

    Self time is a span's duration minus its child spans, summed over the
    layer's spans. Times are seconds; each ``<x>_s`` time also comes as
    ``<x>_share``, its fraction of the root spans' total. Sizes are MB
    (1e6 bytes). Figures derived from array shapes rather than measured
    (normals, block and matrix bytes, LU flops, grid steps, cells) are listed
    in ``COMPUTED``.
    """
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += dur[s["id"]]
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def total(name, key=None):
        return sum(dur[s["id"]] if key is None else s.get(key, 0) for s in by_name[name])

    def largest(name, key):
        return max((s.get(key, 0) for s in by_name[name]), default=0)

    def self_time(spans_):
        return sum(dur[s["id"]] - child[s["id"]] for s in spans_)

    def of_layer(layer, spans_=spans):
        return [s for s in spans_ if s["name"].split(".")[0] == layer]

    block = "paths.standard_normal_block"
    t = {f"{layer}.self_s": self_time(of_layer(layer)) for layer in LAYERS}
    t["paths.normal_block_s"] = total(block)
    t["fbsde.solve_forward_s"] = total("fbsde.solve_forward")
    t["fbsde.G_s"] = total("fbsde.kernel_expectation_path")
    t["equilibrium.consistency_s"] = total("equilibrium.consistency_report")
    t["oracle.lu_s"] = total("oracle.lu")
    t["oracle.assemble_s"] = self_time(by_name["oracle.assemble_and_solve"])
    t["scenarios.diffusive_s"] = (total("scenarios.diffusive_simulate")
                                  + total("scenarios.price_reversion_regression"))
    t["scenarios.welfare_s"] = total("scenarios.segmentation_welfare")
    t["scenarios.liquidation_s"] = total("scenarios.liquidation_closed_form")
    t["reports.write_s"] = total("reports.write_csv") + total("reports.write_json")
    t["reports.version_s"] = total("reports.version_string")
    for sub in SUBCOMMANDS:
        t[f"cli.{sub}_s"] = total(f"cli.{sub}")
    root_s = sum(dur[s["id"]] for s in spans if s["parent"] is None)

    m = dict(t)
    m.update({name[:-2] + "_share": _ratio(value, root_s) for name, value in t.items()})
    m["trace.root_s"] = root_s
    m["trace.spans"] = len(spans)
    for layer in PEAK_LAYERS:
        m[f"{layer}.peak_mb"] = max((s["peak_bytes"] for s in of_layer(layer, memory_spans)),
                                    default=0) / 1e6

    block_bytes = largest(block, "block_bytes")
    m["paths.normals"] = total(block, "normals")
    m["paths.substreams"] = substreams
    m["paths.normals_per_s"] = _ratio(m["paths.normals"], t["paths.normal_block_s"])
    m["paths.normal_block_mb"] = block_bytes / 1e6
    m["paths.normal_block_per_l2"] = _ratio(block_bytes, l2_bytes)
    m["paths.normal_block_per_l3"] = _ratio(block_bytes, l3_bytes)

    # the MC sweep draws one normal per path step
    m["asymptotics.path_steps"] = sum(s["normals"] for s in by_name[block]
                                      if s["parent"] is not None
                                      and spans[s["parent"]]["name"].startswith("asymptotics."))
    m["asymptotics.path_steps_per_s"] = _ratio(m["asymptotics.path_steps"],
                                               t["asymptotics.self_s"])

    m["fbsde.grid_steps"] = total("fbsde.solve_forward", "grid_steps")
    m["fbsde.steps_per_s"] = _ratio(m["fbsde.grid_steps"], t["fbsde.solve_forward_s"])
    m["equilibrium.max_residual"] = largest("equilibrium.consistency_report", "max_residual")

    m["oracle.unknowns_max"] = largest("oracle.lu", "unknowns")
    m["oracle.lu_gflop"] = sum(2.0 / 3.0 * s["unknowns"] ** 3 for s in by_name["oracle.lu"]) / 1e9
    m["oracle.lu_gflop_per_s"] = _ratio(m["oracle.lu_gflop"], t["oracle.lu_s"])
    m["oracle.matrix_mb"] = 8.0 * m["oracle.unknowns_max"] ** 2 / 1e6
    m["oracle.residual_rel"] = largest("oracle.assemble_and_solve", "residual_rel")

    m["reports.cells"] = sum(s.get("rows", 0) * s["columns"] for s in by_name["reports.write_csv"])
    m["reports.bytes"] = total("reports.write_csv", "bytes") + total("reports.write_json", "bytes")
    m["reports.cells_per_s"] = _ratio(m["reports.cells"], total("reports.write_csv"))
    m["reports.version_calls"] = len(by_name["reports.version_string"])
    return m


COMPUTED = ("paths.normals", "paths.normal_block_mb", "paths.normal_block_per_l2",
            "paths.normal_block_per_l3", "asymptotics.path_steps", "fbsde.grid_steps",
            "oracle.unknowns_max", "oracle.lu_gflop", "oracle.matrix_mb", "reports.cells")
