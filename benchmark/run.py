"""dealerlab benchmark: three CLI workloads, end to end and layer by layer.

    python3 benchmark/run.py --workload mc_diffusive --seed 1 --seconds 40 --trace 0
    python3 benchmark/run.py --all            # every workload, every metric by name
    python3 benchmark/run.py --all --smoke    # the same at tiny sizes, in seconds

Run from the root of a checkout; the program is imported from its ``src/``.
Every op set runs in a fresh worker process (``worker.py``), one op after
another: a closed loop with one client and one BLAS thread (<= ``nproc``).

``--trace 0`` first starts one unmeasured set-up probe, then runs whole op
sets until ``--seconds`` would be exceeded (at least one). Each op-set
process measures its own set-up; set-up probes (processes that stop before
the first op) make up the rest of at least five set-up samples. It reports
medians over the set-up samples and over the op sets. ``--trace 1`` runs an
untraced, a traced and a memory-traced op set and reports the per-layer
metrics of the traced ones, with the tracing overhead. The last stdout line
is the result JSON; the line before it records the run environment. Both,
and the spans, are also written under ``.perfbench/results/``. See
README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
SETUP_PROBES = 5
RUN_LIMIT_S = 170  # a run must end within 180 s; workers still running then are killed
# One BLAS thread: with two on a 2-core machine the oracle's LU ran about 30%
# faster, but its time spread several times wider from run to run.
BLAS_THREADS = 1

sys.path.insert(0, str(HERE))
from layertrace import COMPUTED, layer_metrics  # noqa: E402
from worker import INJECTIONS  # noqa: E402
from workloads import WORKLOADS, ops  # noqa: E402


def cache_bytes() -> dict:
    """Unified L2 and L3 sizes of cpu0 as the kernel reports them (0 if unknown)."""
    sizes = {"l2": 0, "l3": 0}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if f"l{level}" in sizes and size.endswith("K"):
            sizes[f"l{level}"] = int(size[:-1]) * 1024
    return sizes


def child_env() -> dict:
    """The environment of every process the runner starts: git looks no higher
    than the checkout, bytecode is cached as an installed package's is, and BLAS
    runs one thread."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def git_state() -> dict:
    def git(*args):
        try:
            out = subprocess.run(["git", *args], cwd=ROOT, env=child_env(), capture_output=True,
                                 text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {"commit": commit, "dirty": None if status is None else bool(status)}


def environment() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "python": sys.version.split()[0], "cache_bytes": cache_bytes(), **git_state()}


class Runner:
    """Starts workers for one workload and keeps their results."""

    def __init__(self, workload, seed, smoke=False, inject="none"):
        self.workload, self.seed, self.smoke, self.inject = workload, seed, smoke, inject
        self.n_ops = len(ops(workload, seed, smoke))
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.versions = {}
        self._count = 0
        self._deadline = time.monotonic() + RUN_LIMIT_S

    def spawn(self, *extra) -> dict | None:
        """One worker process; None if it crashed or timed out."""
        self._count += 1
        workdir = STATE / "work" / f"{self.workload}-{os.getpid()}-{self._count}"
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--workdir", str(workdir), "--inject", self.inject,
                *(["--smoke"] if self.smoke else []), *extra]
        timeout = max(1.0, self._deadline - time.monotonic())
        try:
            proc = subprocess.run(argv + ["--spawned-at", repr(time.monotonic())],
                                  env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=timeout)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except subprocess.TimeoutExpired:
            result = None
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return result

    def op_set(self, *extra) -> dict | None:
        """Run and check one op set; count its ops as attempted and the failed ones."""
        result = self.spawn(*extra)
        self.attempted += self.n_ops
        if result is None:
            self.failed += self.n_ops
            self.failures.append(f"worker {self._count} crashed or timed out")
            return None
        self.versions = result["versions"]
        for op in result["ops"]:
            self.failed += bool(op["problems"])
            self.failures += [f"{op['name']}: {p}" for p in op["problems"]]
        return result


def measure_end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    runner.spawn("--probe")  # unmeasured: compiles bytecode and fills the page cache
    sets, durations = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        result = runner.op_set()
        durations.append(time.monotonic() - t0)
        if result:
            sets.append(result)
        if time.monotonic() + max(durations) > start + seconds:
            break
    # Every op-set process measures its own set-up, so set-up is sampled across
    # the whole run, under the same host load as the op sets; probe processes,
    # which stop before the first op, make up the rest of the minimum.
    setups = [s["setup_s"] for s in sets]
    while len(setups) < SETUP_PROBES:
        if (probe := runner.spawn("--probe")):
            setups.append(probe["setup_s"])
    if not sets or not setups:
        raise RuntimeError("no op set or set-up probe completed")
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(s["wall_s"] for s in sets),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sets),
        "success_ratio": 1.0 - runner.failed / runner.attempted,
        "fail_ratio": runner.failed / runner.attempted,
    }
    samples = {"setup_s": setups, "wall_s": [s["wall_s"] for s in sets],
               "peak_rss_mb": [s["peak_rss_mb"] for s in sets],
               "op_seconds": [{o["name"]: o["seconds"] for o in s["ops"]} for s in sets]}
    return metrics, samples


def measure_layers(runner: Runner, spans_file: Path) -> tuple[dict, dict]:
    """An untraced, a timed and a memory-traced op set; times come from the timed one."""
    memory_file = spans_file.with_name(spans_file.stem + "-memory.json")
    plain = runner.op_set()
    traced = runner.op_set("--spans-file", str(spans_file))
    memory = runner.op_set("--spans-file", str(memory_file), "--memory")
    if not (plain and traced and memory):
        raise RuntimeError("an untraced or traced op set did not complete")
    doc = json.loads(spans_file.read_text())
    caches = cache_bytes()
    metrics = layer_metrics(doc["spans"], json.loads(memory_file.read_text())["spans"],
                            doc["substreams"], caches["l2"], caches["l3"])
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.untraced_wall_s"] = plain["wall_s"]
    metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    metrics["trace.memory_overhead_ratio"] = memory["wall_s"] / plain["wall_s"]
    metrics["trace.root_share"] = metrics["trace.root_s"] / traced["wall_s"]
    return metrics, {"computed": list(COMPUTED)}


def run(workload, seed, seconds, trace, smoke=False, inject="none") -> dict:
    """Measure one workload and write the record to the results file.

    The record holds the ``result`` object, the run ``env``, and
    ``all_metrics``: every metric measured, a superset of the result's.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    runner = Runner(workload, seed, smoke, inject)
    tag = f"{workload}-seed{seed}-trace{trace}" + ("-smoke" if smoke else "")
    (STATE / "results").mkdir(parents=True, exist_ok=True)
    if trace:
        values, extra = measure_layers(runner, STATE / "results" / f"{tag}-spans.json")
    else:
        values, extra = measure_end_to_end(runner, seconds)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {', '.join(missing)}")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "env": {**environment(), **runner.versions}, "result": result,
              "failures": runner.failures, "all_metrics": values, **extra}
    (STATE / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1))
    for failure in runner.failures:
        print(f"FAILED {workload}: {failure}", file=sys.stderr)
    return record


def print_all(seed: int, seconds: float, smoke: bool) -> bool:
    """Every workload, both modes: one line per metric measured, with its unit.

    Metrics outside BENCHMARK.json are the layer times in seconds and ``fail_ratio``.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["fail_ratio"] = "ratio"
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            record = run(workload, seed, seconds, trace, smoke)
            ok = ok and record["result"]["correct"]
            for name, value in record["all_metrics"].items():
                unit = units.get(name) or ("s" if name.endswith("_s") else "")
                print(f"{workload:13s} {name:36s} {value:16.6g} {unit}")
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload, print every metric")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    p.add_argument("--inject", choices=INJECTIONS, default="none",
                   help="corrupt the first op's result, for the self-test")
    args = p.parse_args(argv)
    # exit through SystemExit, so subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.all == bool(args.workload):
        p.error("give exactly one of --workload and --all")
    if not (ROOT / "src" / "dealerlab" / "cli.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'dealerlab'} is missing", file=sys.stderr)
        return 2
    try:
        if args.all:
            return 0 if print_all(args.seed, args.seconds, args.smoke) else 1
        record = run(args.workload, args.seed, args.seconds, args.trace, args.smoke, args.inject)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"env": record["env"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
