"""Report writers: the CSV column rules and the shared cell rules of CSV and JSON."""

import math
import tracemalloc

import numpy as np
import pytest

from dealerlab import reports
from dealerlab.reports import fmt, write_csv, write_json

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
    write_csv(tmp_path / "col.csv", [kind], [column])
    assert (tmp_path / "col.csv").read_text() == expected_csv([kind], [column])


def test_csv_mixed_columns_from_a_one_shot_iterable(tmp_path):
    header = list(COLUMNS)
    write_csv(tmp_path / "all.csv", header, iter(COLUMNS.values()))
    assert (tmp_path / "all.csv").read_text() == expected_csv(header, COLUMNS.values())


def test_float_column_keeps_signed_zeros_and_nan_payloads_apart(tmp_path):
    write_csv(tmp_path / "z.csv", ["x"], [np.array([-0.0, 0.0, -0.0, PAYLOAD_NAN, 0.0])])
    assert (tmp_path / "z.csv").read_text() == "x\n-0\n0\n-0\nnan\n0\n"


def test_csv_numeric_cells_render_exactly(tmp_path):
    write_csv(tmp_path / "x.csv", ["a", "b", "c", "d", "e"],
              [[1e-300], [-0.0], [math.nan], [7], [0.1]])
    assert (tmp_path / "x.csv").read_text() == "a,b,c,d,e\n1e-300,-0,nan,7,0.1\n"


def test_header_with_no_rows(tmp_path):
    write_csv(tmp_path / "empty.csv", ["a", "b"], [np.array([]), []])
    assert (tmp_path / "empty.csv").read_text() == "a,b\n"


@pytest.mark.parametrize("columns", [[[1.0, 2.0], [3.0]], [[1.0]], [[1.0]] * 3],
                         ids=["ragged", "missing", "extra"])
def test_csv_columns_must_fit_the_header(tmp_path, monkeypatch, columns):
    # checked before the file is opened: the first one-row block of "ragged" fits
    monkeypatch.setattr(reports, "ROW_BLOCK", 1)
    with pytest.raises(ValueError, match="header names"):
        write_csv(tmp_path / "bad.csv", ["a", "b"], iter(columns))
    assert not (tmp_path / "bad.csv").exists()


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
    write_csv(tmp_path / "all.csv", header, columns)
    assert (tmp_path / "all.csv").read_text() == expected_csv(header, columns)


def test_csv_memory_does_not_grow_with_the_table(tmp_path):
    # the 200k-step equilibrium table's shape, each value held for 100 rows as a
    # path's few distinct values are; the table itself is 20.8 MB
    table = np.repeat(np.random.default_rng(3).standard_normal((13, 2001)), 100, axis=1)
    table = table[:, :200_001]
    tracemalloc.start()
    try:
        write_csv(tmp_path / "big.csv", [f"c{i}" for i in range(13)], table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
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
    write_csv(tmp_path / "numpy.csv", ["x", "y"], [[numpy_value], np.array([numpy_value])])
    write_csv(tmp_path / "python.csv", ["x", "y"], [[python_value], [python_value]])
    for suffix in ("json", "csv"):
        numpy_text = (tmp_path / f"numpy.{suffix}").read_text()
        assert numpy_text == (tmp_path / f"python.{suffix}").read_text()


def test_bool_and_float32_cells():
    assert fmt(np.bool_(True)) == fmt(True) == "true"
    assert fmt(np.float32(0.1)) == "0.10000000149"
