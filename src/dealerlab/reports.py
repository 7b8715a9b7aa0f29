"""Deterministic CSV/JSON emission for figure data and study reports.

Numbers are fixed at 12 significant digits and row/key order is fully
determined by the inputs, so a rerun with the same configuration and seed
reproduces every output byte for byte (worker counts, chunk sizes and the
checkout are execution details and never enter a report).  CSV and JSON share
one set of cell rules (numpy scalars write as their Python counterparts).  The
CSV writer takes row blocks (``row_blocks`` cuts a column table into
``ROW_BLOCK`` rows each), so its memory does not grow with the table.  In each
block a float array column with one bit pattern is formatted once, into the
block's row format (a solution on its plateau holds most columns constant);
every other cell is formatted by the block's one ``%`` call.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

ROW_BLOCK = 4096  # rows in each block of ``row_blocks``; read at each call


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

    A float array is constant when all its bit patterns agree, so ``-0.0``
    and ``0.0`` (and NaNs with different payloads) stay apart.  A varying
    float array enters the row format as ``%.12g`` with its ``tolist()``;
    any other column as ``%s`` with its ``fmt`` texts, so cell text is never
    read as a directive.  The block is one ``%`` of the repeated row format
    over the varying cells in row order.
    """
    import numpy as np

    row, varying = [], []
    for column in columns:
        if isinstance(column, np.ndarray) and column.dtype.kind == "f" and column.itemsize <= 8:
            bits = column.view(f"i{column.itemsize}")
            if (bits == bits[0]).all():
                row.append("%.12g" % column[0].item())  # float text holds no '%'
            else:
                row.append("%.12g")
                varying.append(column.tolist())
            continue
        row.append("%s")
        varying.append(list(map(fmt, column)))
    rows, k = len(columns[0]), len(varying)
    cells = [None] * (rows * k)
    for j, values in enumerate(varying):
        cells[j::k] = values
    return (",".join(row) + "\n") * rows % tuple(cells)


def row_blocks(columns):
    """A column table as ``write_csv`` row blocks of ``ROW_BLOCK`` rows, its lengths checked now."""
    columns, block = list(columns), ROW_BLOCK
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ValueError(f"CSV columns of lengths {sorted(lengths)}")
    stop = max([*lengths, 1])  # a table with no rows is one block, checked against the header
    return ([column[lo : lo + block] for column in columns] for lo in range(0, stop, block))


def write_csv(path: Path, header: list[str], blocks) -> None:
    """Write row blocks, each a list of equal-length columns, one per header name.

    ``blocks`` is iterated once; each block is checked as it comes, the first
    before the file is opened.
    """

    def fitted(block):
        lengths = [len(column) for column in block]
        if len(block) != len(header) or len(set(lengths)) > 1:
            raise ValueError(f"{Path(path).name}: {len(header)} header names, lengths {lengths}")
        return block

    blocks = map(fitted, blocks)
    first = list(itertools.islice(blocks, 1))
    with Path(path).open("w") as f:
        f.write(",".join(header) + "\n")
        filled = (block for block in itertools.chain(first, blocks) if any(map(len, block)))
        f.writelines(map(_block_text, filled))  # a block with no rows writes none


def _round_floats(obj):
    obj = _plain(obj)
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


class NonFiniteError(RuntimeError):
    """A report value that JSON cannot hold: a NaN or an infinity."""


def write_json(path: Path, payload: dict) -> None:
    """Write the payload as JSON; a NaN or infinite float is refused before the file is opened."""
    try:
        text = json.dumps(_round_floats(payload), sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:  # the only value json.dumps refuses here: a non-finite float
        raise NonFiniteError(f"{Path(path).name}: {exc}") from None
    Path(path).write_text(text + "\n")


def version_string() -> str:
    """The installed package's name and version; no part of it depends on the checkout."""
    from . import __version__

    return f"dealerlab {__version__}"


def run_metadata(config: dict, seed: int | None, grid_steps: int | None) -> dict:
    """The provenance block embedded in every JSON report."""
    return {
        "config": _round_floats(config),
        "seed": seed,
        "grid_steps": grid_steps,
        "version": version_string(),
    }
