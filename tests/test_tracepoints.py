"""The benchmark's trace points name attributes that exist in the package."""

import importlib
import importlib.util
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
