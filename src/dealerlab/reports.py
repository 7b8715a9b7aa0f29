"""Deterministic CSV/JSON emission for figure data and study reports.

Numbers are fixed at 12 significant digits and row/key order is fully
determined by the inputs, so a rerun with the same configuration and seed
reproduces every output byte for byte (worker counts and chunk sizes are
execution details and never enter a report).  CSV and JSON share one set of
cell rules (numpy scalars write as their Python counterparts).  The CSV writer
takes columns and writes their rows in blocks of ``ROW_BLOCK``, so its memory
does not grow with the table.  In each block a float array column with one
bit pattern is formatted once, into the block's row format (a solution on its
plateau holds most columns constant); one with several formats each distinct
value once and looks the rest up, so a long path that revisits few values
costs few formatting calls.
"""

from __future__ import annotations

import functools
import json
import subprocess
from pathlib import Path

ROW_BLOCK = 4096  # CSV rows formatted and written at once; read at each call


def _plain(value):
    """Numpy scalars and arrays as Python bools, ints, floats and lists; other values pass."""
    import numpy as np

    return value.tolist() if isinstance(value, (np.generic, np.ndarray)) else value


def fmt(value) -> str:
    """Canonical cell format: 12 significant digits for floats, ``true``/``false``."""
    value = _plain(value)
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _block_text(columns) -> str:
    """One block of CSV rows, each cell as ``fmt`` writes it.

    A float array is keyed on its bit patterns, so ``-0.0`` and ``0.0`` (and
    NaNs with different payloads) stay apart.  Each varying column enters
    the row format as ``%s``, so cell text is never read as a directive, and
    the block is one ``%`` of the repeated row format over the varying cells
    in row order.
    """
    import numpy as np

    row, varying = [], []
    for column in columns:
        if isinstance(column, np.ndarray) and column.dtype.kind == "f" and column.itemsize <= 8:
            bits = column.view(f"i{column.itemsize}")
            if (bits == bits[0]).all():
                row.append("%.12g" % column[0].item())  # float text holds no '%'
                continue
            values, inverse = np.unique(bits, return_inverse=True)
            text = "%.12g\n" * values.size % tuple(values.view(column.dtype).tolist())
            varying.append(np.array(text.split("\n"), dtype=object)[inverse])
        else:
            varying.append(list(map(fmt, column)))
        row.append("%s")
    cells = np.empty((len(columns[0]), len(varying)), dtype=object)
    for j, texts in enumerate(varying):
        cells[:, j] = texts
    return (",".join(row) + "\n") * len(cells) % tuple(cells.ravel().tolist())


def write_csv(path: Path, header: list[str], columns) -> None:
    """Write one column per header name; every column must have the same length.

    ``columns`` is iterated once; each column is a sequence that slices (an
    array, list or tuple).  The lengths are checked before the file is
    opened, and the rows go out ``ROW_BLOCK`` at a time.
    """
    columns = list(columns)
    lengths = [len(column) for column in columns]
    if len(columns) != len(header) or len(set(lengths)) > 1:
        raise ValueError(
            f"CSV {Path(path).name}: {len(header)} header names, columns of lengths {lengths}"
        )
    block = ROW_BLOCK
    with Path(path).open("w") as f:
        f.write(",".join(header) + "\n")
        for lo in range(0, lengths[0] if lengths else 0, block):
            f.write(_block_text([column[lo : lo + block] for column in columns]))


def _round_floats(obj):
    obj = _plain(obj)
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def write_json(path: Path, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(_round_floats(payload), sort_keys=True, indent=2) + "\n"
    )


@functools.lru_cache(maxsize=None)
def version_string() -> str:
    """Package version plus ``git describe --always --dirty``, computed once per process."""
    from . import __version__

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
    return f"dealerlab {__version__}" + (f" ({describe})" if describe else "")


def run_metadata(config: dict, seed: int | None, grid_steps: int | None) -> dict:
    """The provenance block embedded in every JSON report."""
    return {
        "config": _round_floats(config),
        "seed": seed,
        "grid_steps": grid_steps,
        "version": version_string(),
    }
