"""One fresh process: import the program, run one op set through the CLI, check it.

Started by ``run.py``; prints one JSON object on its last stdout line. Set-up
time runs from ``--spawned-at`` (the runner's monotonic clock just before it
started this process; CLOCK_MONOTONIC is shared by all processes) to the
first op, so it includes interpreter start and ``import dealerlab.cli``.
With ``--probe`` the process stops there.

The ops run one after another in this process (a closed loop with one
client). Peak RSS is read before the checks, so reading outputs back does
not count. With ``--spans-file`` the layer boundaries are traced and the
spans written to that file; ``--memory`` adds ``tracemalloc`` peaks to them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INJECTIONS = ("none", "prefactor", "exit2")


def _versions() -> dict:
    import numpy
    import scipy

    out = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    for name, mod in (("numpy", numpy), ("scipy", scipy)):
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            out[f"{name}_blas"] = f"{blas['name']} {blas['version']}"
        except (TypeError, KeyError):
            out[f"{name}_blas"] = "unknown"
    return out


def _inject_exit2(cli, op) -> None:
    """Make the op's subcommand raise a numerical failure, so main() returns 2."""
    def fail(args):
        raise cli.NumericalError("injected by the benchmark self-test")

    setattr(cli, "cmd_" + op.name.replace("-", "_"), fail)


def _inject_prefactor(out: Path) -> None:
    """Scale the emitted prefactor by 1.1, as a wrong program would."""
    path = out / "scaling_report.json"
    doc = json.loads(path.read_text())
    doc["report"]["prefactor"] *= 1.1
    path.write_text(json.dumps(doc))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True, type=Path)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--probe", action="store_true")
    p.add_argument("--spans-file", type=Path)
    p.add_argument("--memory", action="store_true", help="record tracemalloc peaks in spans")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--inject", choices=INJECTIONS, default="none")
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import dealerlab.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"dealerlab imported from {cli.__file__}, not this checkout", file=sys.stderr)
        return 3
    sys.path.insert(0, str(HERE))
    import workloads

    args.workdir.mkdir(parents=True, exist_ok=True)
    ops = workloads.ops(args.workload, args.seed, args.smoke)
    for op in ops:
        for name, text in op.inputs:
            (args.workdir / name).write_text(text)
    os.chdir(args.workdir)  # ops name their inputs and outputs relative to it
    setup_s = time.monotonic() - args.spawned_at
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.spans_file:
        from layertrace import Tracer

        tracer = Tracer(memory=args.memory)
        tracer.install()
        if args.memory:
            tracemalloc.start()
    if args.inject == "exit2":
        _inject_exit2(cli, ops[0])

    results = []
    for i, op in enumerate(ops):
        argv = list(op.argv) + ["--out", f"{i}-{op.name}"]
        t0 = time.perf_counter()
        try:
            if tracer:
                code = tracer.call(f"cli.{op.name}", cli.main, (argv,))
            else:
                code = cli.main(argv)
        except Exception:  # an op that crashes is a failed op; the rest still run
            traceback.print_exc()
            code = "exception"
        results.append({"name": op.name, "seconds": time.perf_counter() - t0, "exit": code})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    if tracer:
        tracemalloc.stop()  # a no-op when not tracing
        args.spans_file.write_text(json.dumps(
            {"spans": tracer.spans, "substreams": tracer.substreams}))
    for i, (op, res) in enumerate(zip(ops, results)):
        out = Path(f"{i}-{op.name}")
        if res["exit"] != 0:
            res["problems"] = [f"exit code {res['exit']}"]
            continue
        if args.inject == "prefactor" and (out / "scaling_report.json").exists():
            _inject_prefactor(out)
        try:
            res["problems"] = op.check(out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            res["problems"] = [f"unreadable output: {exc!r}"]

    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": sum(r["seconds"] for r in results),
        "peak_rss_mb": peak_rss_mb,
        "ops": results,
        "versions": _versions(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
