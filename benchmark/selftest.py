"""Self-test of the benchmark, at tiny sizes, through the same code as a real run.

    python3 benchmark/selftest.py

It checks that
1. every metric BENCHMARK.json names is emitted with its unit, on every
   workload, with ``--trace 0`` and ``--trace 1``, and no op fails;
2. a corrupted report counts as a failed op: a prefactor scaled by 1.1, and
   a subcommand forced to exit with code 2;
3. ``run.py --all --smoke`` prints every metric by name;
4. in a directory holding only BENCHMARK.json and benchmark/, ``run.py``
   exits non-zero without printing a result.

Prints one line per check and exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmark/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def smoke(workload: str, trace: int, inject: str = "none") -> dict:
    return result_of(run("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace), "--smoke", "--inject", inject))


def check_metrics() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = smoke(workload, trace)
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())
            assert res["correct"] and res["failed"] == 0 < res["attempted"], (workload, res)
        print(f"ok   {workload}: all {len(SPEC['end_to_end'])} end-to-end and "
              f"{len(SPEC['per_layer'])} per-layer metrics, with units; no op failed")


def check_corruption() -> None:
    for workload, inject in (("mc_diffusive", "prefactor"), ("figures", "exit2")):
        res = smoke(workload, 0, inject)
        assert not res["correct"] and res["failed"] >= 1, (workload, inject, res)
        assert res["metrics"]["success_ratio"]["value"] < 1.0
        print(f"ok   {workload} with --inject {inject}: {res['failed']} of "
              f"{res['attempted']} ops failed, correct=false")


def check_print_all() -> None:
    proc = run("--all", "--smoke", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr[-2000:]
    printed = {tuple(line.split()[:2]) for line in proc.stdout.splitlines()}
    for workload in (w["name"] for w in SPEC["workloads"]):
        for m in SPEC["end_to_end"] + SPEC["per_layer"] + [{"name": "fail_ratio"}]:
            assert (workload, m["name"]) in printed, (workload, m["name"])
    print("ok   run.py --all prints every metric of every workload by name")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run("--workload", "mc_diffusive", "--seed", "1", "--seconds", "1", "--trace", "0",
                   cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok   without the program: exit {proc.returncode}, no result printed")


def main() -> int:
    for check in (check_metrics, check_corruption, check_print_all, check_bare_directory):
        try:
            check()
        except AssertionError as exc:
            print(f"FAIL {check.__name__}: {exc}")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
