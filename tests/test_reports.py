"""Report writers: the CSV row templates and the shared cell rules of CSV and JSON."""

import math

import numpy as np
import pytest

from dealerlab.reports import fmt, write_csv, write_json

MIXED_ROWS = [
    (0.1, np.float64(1.0 / 3.0), 7, np.int64(-12), True, np.bool_(False), "a"),
    (math.nan, math.inf, -math.inf, -0.0, np.float64(-0.0), np.int64(0), 10**20),
    (1e-300, 1e300, -1.2345678901234e-150, 6.02214076e23, 2.5e-7, 1.0, 123456789012.5),
    tuple(np.array([0.1, 1e-300, 1e300, np.nan])) + (np.int32(3), np.uint8(255), -7),
    (np.float32(0.1), np.float16(0.1), 1e15, 1e16, 12345678901234.0, -1.0, "x,y"),
]


def expected_csv(header, rows):
    return "\n".join([",".join(header)] + [",".join(map(fmt, row)) for row in rows]) + "\n"


@pytest.mark.parametrize("as_generator", [False, True], ids=["list", "generator"])
def test_csv_rows_match_the_per_cell_format(tmp_path, as_generator):
    header = [f"c{i}" for i in range(7)]
    rows = MIXED_ROWS + [list(MIXED_ROWS[0]), MIXED_ROWS[2]]  # signatures repeat and mix
    path = tmp_path / "rows.csv"
    write_csv(path, header, (r for r in rows) if as_generator else rows)
    assert path.read_text() == expected_csv(header, rows)


def test_csv_numeric_cells_render_exactly(tmp_path):
    write_csv(tmp_path / "x.csv", ["a", "b", "c", "d", "e"], [(1e-300, -0.0, math.nan, 7, 0.1)])
    assert (tmp_path / "x.csv").read_text() == "a,b,c,d,e\n1e-300,-0,nan,7,0.1\n"
    write_csv(tmp_path / "empty.csv", ["a"], iter(()))
    assert (tmp_path / "empty.csv").read_text() == "a\n"


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
        write_csv(tmp_path / f"{name}.csv", ["x", "y"], [(value, value)])
    for suffix in ("json", "csv"):
        numpy_text = (tmp_path / f"numpy.{suffix}").read_text()
        assert numpy_text == (tmp_path / f"python.{suffix}").read_text()


def test_bool_and_float32_cells():
    assert fmt(np.bool_(True)) == fmt(True) == "true"
    assert fmt(np.float32(0.1)) == "0.10000000149"
