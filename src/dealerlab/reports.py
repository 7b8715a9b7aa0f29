"""Deterministic CSV/JSON emission for figure data and study reports.

Numbers are fixed at 12 significant digits and row/key order is fully
determined by the inputs, so a rerun with the same configuration and seed
reproduces every output byte for byte (worker counts and chunk sizes are
execution details and never enter a report).
"""

from __future__ import annotations

import functools
import json
import subprocess
from importlib import metadata
from pathlib import Path


def fmt(value) -> str:
    """Canonical cell format: 12 significant digits for floats."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int,)):
        return str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    import numpy as np

    if isinstance(obj, np.floating):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_round_floats(v) for v in obj.tolist()]
    return obj


def write_json(path: Path, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(_round_floats(payload), sort_keys=True, indent=2) + "\n"
    )


@functools.lru_cache(maxsize=None)
def version_string() -> str:
    """Package version plus ``git describe --always --dirty``, computed once per process."""
    try:
        version = metadata.version("dealerlab")
    except metadata.PackageNotFoundError:
        version = "0+unknown"
    describe = None
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0:
            describe = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return f"dealerlab {version}" + (f" ({describe})" if describe else "")


def run_metadata(config: dict, seed: int | None, grid_steps: int | None) -> dict:
    """The provenance block embedded in every JSON report."""
    return {
        "config": _round_floats(config),
        "seed": seed,
        "grid_steps": grid_steps,
        "version": version_string(),
    }
