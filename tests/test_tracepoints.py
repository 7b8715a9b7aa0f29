"""The benchmark's trace points name attributes that exist in the package."""

import importlib
import importlib.util
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from dealerlab.kernel import Horizon
from dealerlab.scenarios import SLICE_STEPS


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
    # the sliced sweep reports every normal it draws to the tracer: one per path and
    # step of the longest grid, which every impact cost's sweep reads (256 x 4,083),
    # in one span per 1,024-step slice opened on the calling thread, whatever threads
    # fill the slice
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
    blocks = [s for s in spans if s["name"] == "paths.standard_normal_block"]
    assert len(blocks) == math.ceil(4_083 / 1_024) == 4
    normals = sum(s["normals"] for s in blocks)
    assert normals == report["path_counts"][0] * max(report["steps"]) == 1_045_248
    block_ids = {s["id"] for s in blocks}
    assert not [s for s in spans if s["parent"] in block_ids]  # no span nests in a fill
    assert max(s["block_bytes"] for s in blocks) == 256 * 1_024 * 8  # the slice buffer


def test_traced_smoke_figures_op_set_counts_every_diffusive_normal(tmp_path):
    # the diffusive shocks are drawn slice by slice through `scenarios.standard_normal_block`,
    # which the tracer wraps; a draw through any other helper would go uncounted
    root = Path(__file__).resolve().parents[1]
    spans_file = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(root / "benchmark" / "worker.py"), "--workload", "figures",
         "--seed", "2", "--smoke", "--workdir", str(tmp_path / "work"),
         "--spawned-at", str(time.monotonic()), "--spans-file", str(spans_file)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    ops = json.loads(proc.stdout.splitlines()[-1])["ops"]
    assert [op["name"] for op in ops][1] == "diffusive"
    config = json.loads((tmp_path / "work" / "1-diffusive" / "ou_regression.json")
                        .read_text())["config"]
    steps, paths, T = config["steps"], config["paths"], config["T"]
    # the regression steps to T/2 and takes that node's shock: the slices up to it;
    # fig2_paths.csv's one-path runs at M=1 and M=inf draw every step
    cut = int(np.searchsorted(Horizon.uniform(T, steps).grid, T / 2))
    drawn = min(steps, (cut // SLICE_STEPS + 1) * SLICE_STEPS)
    spans = json.loads(spans_file.read_text())["spans"]
    blocks = [s for s in spans if s["name"] == "paths.standard_normal_block"]
    assert sum(s["normals"] for s in blocks) == paths * drawn + 2 * steps
    block_ids = {s["id"] for s in blocks}
    assert not [s for s in spans if s["parent"] in block_ids]  # no span nests in a fill
