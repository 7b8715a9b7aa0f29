"""The benchmark's trace points name attributes that exist in the package."""

import importlib
import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path


def test_benchmark_trace_points_resolve():
    # `benchmark/run.py --trace 1` wraps every (module, attribute) pair of BOUNDARIES
    path = Path(__file__).resolve().parents[1] / "benchmark" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    missing = [
        f"dealerlab.{module}.{attr}"
        for module, attr, _ in layertrace.BOUNDARIES
        if not callable(getattr(importlib.import_module(f"dealerlab.{module}"), attr, None))
    ]
    assert not missing


def test_traced_smoke_figures_op_set_runs(tmp_path):
    # the benchmark's worker, with its tracer installed, on the smoke `figures` op set
    root = Path(__file__).resolve().parents[1]
    spans_file = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(root / "benchmark" / "worker.py"), "--workload", "figures",
         "--seed", "1", "--smoke", "--workdir", str(tmp_path / "work"),
         "--spawned-at", str(time.monotonic()), "--spans-file", str(spans_file)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    ops = json.loads(proc.stdout.splitlines()[-1])["ops"]
    assert [op["name"] for op in ops] == [
        "liquidation", "diffusive", "welfare", "scaling-smooth", "equilibrium"]
    assert all(op["exit"] == 0 and op["problems"] == [] for op in ops), ops
    names = [span["name"] for span in json.loads(spans_file.read_text())["spans"]]
    assert names.count("reports.write_csv") == 6  # fig1 x2, fig2, fig3, scaling, equilibrium


def test_traced_smoke_mc_diffusive_op_set_counts_every_normal(tmp_path):
    # the tile-drawn sweep still reports one normal per path step to the tracer
    root = Path(__file__).resolve().parents[1]
    spans_file = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(root / "benchmark" / "worker.py"), "--workload", "mc_diffusive",
         "--seed", "1", "--smoke", "--workdir", str(tmp_path / "work"),
         "--spawned-at", str(time.monotonic()), "--spans-file", str(spans_file)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    ops = json.loads(proc.stdout.splitlines()[-1])["ops"]
    assert [op["name"] for op in ops] == ["scaling-diffusive"]
    assert all(op["exit"] == 0 and op["problems"] == [] for op in ops), ops
    report = json.loads((tmp_path / "work" / "0-scaling-diffusive" / "scaling_report.json")
                        .read_text())["report"]
    spans = json.loads(spans_file.read_text())["spans"]
    normals = sum(s["normals"] for s in spans if s["name"] == "paths.standard_normal_block")
    assert normals == sum(p * n for p, n in zip(report["path_counts"], report["steps"]))
