"""Report writers: the CSV column rules and the shared cell rules of CSV and JSON."""

import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dealerlab
from dealerlab import reports
from dealerlab.reports import NonFiniteError, fmt, row_blocks, write_csv, write_json

from memory import traced_peak

# NaNs with three different bit patterns: the quiet NaN, its negative, and one with a payload
PAYLOAD_NAN = np.array([0x7FF8000000000123], dtype=np.int64).view(np.float64)[0]
FLOATS = np.array([
    0.1, -0.0, 0.0, math.nan, -math.nan, PAYLOAD_NAN, math.inf, -math.inf, 0.1, -0.0,
    1.0 / 3.0, 1e-300, 1e300, -1.2345678901234e-150, 6.02214076e23, 2.5e-7, 1e15, 1e16,
    12345678901234.0, math.nan, 0.0, -1.0, 0.1, 123456789012.5,
])
N = FLOATS.size

with np.errstate(over="ignore"):
    COLUMNS = {
        "float64": FLOATS,
        "float32": FLOATS.astype(np.float32),
        "float16": FLOATS.astype(np.float16),
        "float64-strided": np.repeat(FLOATS, 2)[::2],
        "int64": np.array([7, -12, 0, 10**15, 7, -1] * 4, dtype=np.int64),
        "uint8": np.arange(N, dtype=np.uint8) * 11,
        "bool-array": np.arange(N) % 3 == 0,
        "float-list": FLOATS.tolist(),
        "int-list": [i * (-1) ** i for i in range(N)],
        "bool-list": [i % 2 == 0 for i in range(N)],
        "str-list": [f"s{i % 5}" for i in range(N)],
        # in blocks of 7 rows (7, 7, 7 and 3), each constant in some blocks and varying in others
        "float64-blocks": np.array([0.5] * 7 + [0.5, 0.25] * 3 + [0.5] + [-1.0] * 7 + [1.0, 2.0, 3.0]),
        "signed-zero-blocks": np.array([-0.0] * 7 + [0.0] * 7 + [-0.0] * 7 + [-0.0, 0.0, -0.0]),
        "nan-payload-blocks": np.array([PAYLOAD_NAN] * 7 + [math.nan] * 7
                                       + [PAYLOAD_NAN, math.nan] * 3 + [PAYLOAD_NAN] * 4),
        "float32-blocks": np.array([0.1] * 7 + [1e-40] * 7 + [0.1, 0.2] * 3 + [0.1] + [3.0] * 3,
                                   dtype=np.float32),
        "float16-blocks": np.array([0.1] * 7 + [-0.0] * 7 + [70000.0] * 7 + [0.1, 0.2, 0.3],
                                   dtype=np.float16),
        "str-directives": ["%s"] * 7 + ["%", "%%s", "a%sb", "%(x)s", "%d", "100%", "%.12g"] * 2
                          + ["%d%%"] * 3,
    }


def expected_csv(header, columns):
    """The reference: every cell through ``fmt``, rows joined by hand."""
    rows = zip(*[[fmt(cell) for cell in column] for column in columns])
    return "\n".join([",".join(header)] + [",".join(row) for row in rows]) + "\n"


@pytest.mark.parametrize("kind", list(COLUMNS))
def test_csv_column_matches_the_per_cell_format(tmp_path, kind):
    column = COLUMNS[kind]
    assert len(column) == N
    write_csv(tmp_path / "col.csv", [kind], row_blocks([column]))
    assert (tmp_path / "col.csv").read_text() == expected_csv([kind], [column])


def test_csv_mixed_columns_from_a_one_shot_iterable(tmp_path):
    header = list(COLUMNS)
    write_csv(tmp_path / "all.csv", header, row_blocks(iter(COLUMNS.values())))
    assert (tmp_path / "all.csv").read_text() == expected_csv(header, COLUMNS.values())


def test_float_column_keeps_signed_zeros_and_nan_payloads_apart(tmp_path):
    column = np.array([-0.0, 0.0, -0.0, PAYLOAD_NAN, 0.0])
    write_csv(tmp_path / "z.csv", ["x"], row_blocks([column]))
    assert (tmp_path / "z.csv").read_text() == "x\n-0\n0\n-0\nnan\n0\n"


def test_csv_numeric_cells_render_exactly(tmp_path):
    write_csv(tmp_path / "x.csv", ["a", "b", "c", "d", "e"],
              row_blocks([[1e-300], [-0.0], [math.nan], [7], [0.1]]))
    assert (tmp_path / "x.csv").read_text() == "a,b,c,d,e\n1e-300,-0,nan,7,0.1\n"


def test_header_with_no_rows(tmp_path):
    write_csv(tmp_path / "empty.csv", ["a", "b"], row_blocks([np.array([]), []]))
    assert (tmp_path / "empty.csv").read_text() == "a,b\n"


@pytest.mark.parametrize(
    "columns, match",
    [([[1.0, 2.0], [3.0]], r"columns of lengths \[1, 2\]"), ([[1.0]], "header names"),
     ([[1.0]] * 3, "header names")],
    ids=["ragged", "missing", "extra"],
)
def test_csv_columns_must_fit_the_header(tmp_path, monkeypatch, columns, match):
    # checked before the file is opened: "ragged" by row_blocks, though its first one-row
    # block fits; "missing" and "extra" by the writer, on the first block
    monkeypatch.setattr(reports, "ROW_BLOCK", 1)
    with pytest.raises(ValueError, match=match):
        write_csv(tmp_path / "bad.csv", ["a", "b"], row_blocks(iter(columns)))
    assert not (tmp_path / "bad.csv").exists()


def test_csv_blocks_are_checked_as_they_come(tmp_path):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match="header names, lengths \\[2, 1\\]"):
        write_csv(path, ["a", "b"], iter([[[1.0, 2.0], [3.0]]]))  # a ragged first block
    assert not path.exists()
    with pytest.raises(ValueError, match="header names, lengths \\[1\\]"):
        write_csv(path, ["a", "b"], iter([[[1.0], [2.0]], [[3.0]]]))  # a later block one short
    assert path.read_text() == "a,b\n1,2\n"  # the rows before it are written


@pytest.mark.parametrize("kind", list(COLUMNS))
def test_csv_column_in_blocks_of_seven(tmp_path, monkeypatch, kind):
    # 24 rows: three full blocks and one of 3, each with its own distinct-value lookup
    # or, for a float column with one bit pattern in the block, one formatted cell
    monkeypatch.setattr(reports, "ROW_BLOCK", 7)
    test_csv_column_matches_the_per_cell_format(tmp_path, kind)


def test_csv_mixed_columns_in_blocks_of_seven(tmp_path, monkeypatch):
    monkeypatch.setattr(reports, "ROW_BLOCK", 7)
    test_csv_mixed_columns_from_a_one_shot_iterable(tmp_path)


@pytest.mark.parametrize("rows, block", [(21, 7), (24, 8), (24, 24), (1, 7), (0, 7)])
def test_csv_row_count_on_and_off_the_block_edges(tmp_path, monkeypatch, rows, block):
    monkeypatch.setattr(reports, "ROW_BLOCK", block)
    header = list(COLUMNS)
    columns = [column[:rows] for column in COLUMNS.values()]
    write_csv(tmp_path / "all.csv", header, row_blocks(columns))
    assert (tmp_path / "all.csv").read_text() == expected_csv(header, columns)


def test_csv_memory_does_not_grow_with_the_table(tmp_path):
    # the 200k-step equilibrium table's shape, each value held for 100 rows as a
    # path's few distinct values are; the table itself is 20.8 MB
    table = np.repeat(np.random.default_rng(3).standard_normal((13, 2001)), 100, axis=1)
    table = table[:, :200_001]
    _, peak = traced_peak(write_csv, tmp_path / "big.csv", [f"c{i}" for i in range(13)],
                          row_blocks(table))
    assert peak < 16 * 2**20
    with open(tmp_path / "big.csv") as f:
        assert sum(1 for _ in f) == 1 + 200_001


@pytest.mark.parametrize(
    "numpy_value, python_value",
    [
        (np.bool_(True), True),
        (np.bool_(False), False),
        (np.int64(-3), -3),
        (np.uint16(7), 7),
        (np.float64(0.1), 0.1),
        (np.float32(0.1), float(np.float32(0.1))),
    ],
)
def test_numpy_scalars_format_like_python_in_both_writers(tmp_path, numpy_value, python_value):
    assert fmt(numpy_value) == fmt(python_value)
    for name, value in (("numpy", numpy_value), ("python", python_value)):
        write_json(tmp_path / f"{name}.json", {"x": value, "xs": [value, value]})
    numpy_columns = [[numpy_value], np.array([numpy_value])]
    write_csv(tmp_path / "numpy.csv", ["x", "y"], row_blocks(numpy_columns))
    write_csv(tmp_path / "python.csv", ["x", "y"], row_blocks([[python_value], [python_value]]))
    for suffix in ("json", "csv"):
        numpy_text = (tmp_path / f"numpy.{suffix}").read_text()
        assert numpy_text == (tmp_path / f"python.{suffix}").read_text()


def test_bool_and_float32_cells():
    assert fmt(np.bool_(True)) == fmt(True) == "true"
    assert fmt(np.float32(0.1)) == "0.10000000149"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
def test_json_refuses_a_non_finite_float_before_opening_the_file(tmp_path, value):
    path = tmp_path / "report.json"
    with pytest.raises(NonFiniteError, match="report.json"):
        write_json(path, {"ok": 1.0, "nested": {"xs": [0.5, value]}})
    assert not path.exists()


@pytest.mark.skipif(shutil.which("git") is None,
                    reason="needs git on PATH to build the enclosing repository")
def test_the_version_names_no_enclosing_repository(tmp_path):
    # the package copied into another project's work tree, whose tracked file is edited:
    # the version is the package's alone, not that project's commit and dirty flag
    env = {k: v for k, v in os.environ.items() if not k.startswith("GIT_")}

    def git(*args):
        subprocess.run(["git", "-c", "user.name=dealerlab", "-c", "user.email=dealerlab@localhost",
                        "-c", "commit.gpgsign=false", *args],
                       cwd=tmp_path, env=env, check=True, capture_output=True, timeout=60)

    git("init", "-q")
    (tmp_path / "tracked.txt").write_text("committed\n")
    git("add", "tracked.txt")
    git("commit", "-q", "-m", "first")
    (tmp_path / "tracked.txt").write_text("edited\n")
    site = tmp_path / ".venv" / "lib" / "site-packages"
    shutil.copytree(Path(dealerlab.__file__).parent, site / "dealerlab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env["PYTHONPATH"] = os.pathsep.join([str(site)] + [p for p in [env.get("PYTHONPATH")] if p])
    code = "import dealerlab.reports as r; print(r.__file__); print(r.version_string())"
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    origin, version = proc.stdout.splitlines()
    assert Path(origin).parent == site / "dealerlab"
    assert version == f"dealerlab {dealerlab.__version__}"
