"""CLI subcommands: file contracts, defaults, exit codes, and byte determinism."""

import json
import math

import pytest

from dealerlab.cli import ConfigError, main, parse_process
from dealerlab.processes import (
    BrownianMartingale,
    Constant,
    OrnsteinUhlenbeck,
    SmoothRate,
    ZERO,
)


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _reject_constant(name):
    raise ValueError(f"{name} in a report")


def read_json(path):
    """A report as strict JSON: NaN and Infinity fail the read."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def test_parse_process_grammar():
    assert parse_process("zero") == ZERO
    assert parse_process("constant:-1") == Constant(-1.0)
    assert parse_process("brownian:0,1") == BrownianMartingale(0.0, 1.0)
    assert parse_process("ou:0,1,0.5,0.3") == OrnsteinUhlenbeck(0.0, 1.0, 0.5, 0.3)
    assert parse_process("smooth:constant:2") == SmoothRate(Constant(2.0))
    with pytest.raises(ConfigError):
        parse_process("poisson:3")
    with pytest.raises(ConfigError):
        parse_process("brownian:0")


def test_liquidation_outputs(tmp_path):
    assert main(["liquidation", "--out", str(tmp_path), "--steps", "100"]) == 0
    header, rows = read_rows(tmp_path / "fig1_strategies.csv")
    assert header == ["t", "K_c_M1", "K_c_Minf"]
    assert rows[0][0] == "0"
    assert float(rows[0][1]) == pytest.approx(-0.5, abs=1e-12)
    assert float(rows[0][2]) == pytest.approx(-0.5, abs=1e-12)
    header, rows = read_rows(tmp_path / "fig1_price.csv")
    assert header == ["t", "price_dev_M1", "price_dev_Minf"]
    assert float(rows[0][1]) == pytest.approx(-0.7071057610384575, rel=1e-10)
    assert float(rows[0][2]) == pytest.approx(-0.5, rel=1e-6)
    meta = read_json(tmp_path / "run_meta.json")
    assert "version" in meta and meta["grid_steps"] == 100


def test_liquidation_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["liquidation", "--out", str(a)])
    main(["liquidation", "--out", str(b)])
    for name in ("fig1_strategies.csv", "fig1_price.csv", "run_meta.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_diffusive_outputs(tmp_path):
    rc = main(
        ["diffusive", "--out", str(tmp_path), "--steps", "200", "--paths", "300", "--seed", "5"]
    )
    assert rc == 0
    header, rows = read_rows(tmp_path / "fig2_paths.csv")
    assert header == ["t", "xi_c", "K_c_M1", "K_c_Minf"]
    assert float(rows[0][1]) == 0.0  # target starts at zero
    reg = read_json(tmp_path / "ou_regression.json")["regression"]
    assert reg["mean_reversion_theory"] == pytest.approx(math.sqrt(50.0), rel=1e-12)


def test_diffusive_single_path(tmp_path):
    rc = main(["diffusive", "--out", str(tmp_path), "--steps", "50", "--paths", "1"])
    assert rc == 0
    reg = read_json(tmp_path / "ou_regression.json")["regression"]
    assert reg["n_paths"] == 1
    assert all(math.isfinite(reg[k]) for k in ("mean_reversion", "loading"))


def test_diffusive_without_paths_exits_one(tmp_path):
    assert main(["diffusive", "--out", str(tmp_path), "--steps", "50", "--paths", "0"]) == 1
    assert not any(tmp_path.iterdir())


def test_welfare_small_lambda_ratio(tmp_path):
    rc = main(["welfare", "--out", str(tmp_path), "--lambda", "1e-6", "--m-max", "3"])
    assert rc == 0
    report = read_json(tmp_path / "welfare_report.json")["report"]
    assert report["ratio"] == pytest.approx(1.2762479634718042, rel=0.01)
    header, rows = read_rows(tmp_path / "fig3_welfare.csv")
    assert header == ["M", "J_c", "J_c_int"]
    assert len(rows) == 3
    for row in rows:
        assert float(row[2]) >= float(row[1])  # integration helps the clients


def test_scaling_smooth_deterministic(tmp_path):
    rc = main(
        ["scaling-smooth", "--out", str(tmp_path), "--lambda", "1e-2,1e-3,1e-4", "--m", "2"]
    )
    assert rc == 0
    rep = read_json(tmp_path / "scaling_report.json")["report"]
    assert rep["family"] == "smooth"
    assert 0.95 <= rep["slope"] <= 1.05
    assert rep["stderrs"] == [0.0, 0.0, 0.0]
    assert rep["prefactor_theory"] == pytest.approx(1.5)


def test_scaling_diffusive_bytes_and_workers(tmp_path):
    args = ["scaling-diffusive", "--lambda", "1e-1,1e-2", "--paths", "400", "--seed", "7"]
    a, b, c = (tmp_path / x for x in "abc")
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert main(args + ["--out", str(c), "--workers", "3"]) == 0
    for name in ("scaling_report.json", "scaling_report.csv"):
        bytes_a = (a / name).read_bytes()
        assert bytes_a == (b / name).read_bytes()
        assert bytes_a == (c / name).read_bytes()


@pytest.mark.parametrize("paths", ["0", "1"])
def test_scaling_diffusive_needs_two_paths(tmp_path, paths):
    argv = ["scaling-diffusive", "--out", str(tmp_path), "--lambda", "1e-1,1e-2"]
    assert main(argv + ["--paths", paths]) == 1
    assert not (tmp_path / "scaling_report.json").exists()


def test_single_impact_cost_has_null_slope(tmp_path):
    assert main(["scaling-smooth", "--out", str(tmp_path), "--lambda", "1e-3"]) == 0
    rep = read_json(tmp_path / "scaling_report.json")["report"]
    assert rep["slope"] is None and rep["slope_ci"] is None
    assert rep["prefactor"] == pytest.approx(rep["prefactor_theory"], rel=0.02)


def test_repeated_impact_cost_exits_one(tmp_path, capsys):
    argv = ["scaling-diffusive", "--out", str(tmp_path), "--lambda", "1e-2,1e-2", "--paths", "8"]
    assert main(argv) == 1
    assert "distinct" in capsys.readouterr().err
    assert not (tmp_path / "scaling_report.json").exists()


def test_oracle_check(tmp_path):
    rc = main(["oracle-check", "--out", str(tmp_path), "--steps-list", "100,200,400"])
    assert rc == 0
    rep = read_json(tmp_path / "oracle_gap.json")
    assert rep["report"]["fitted_order"] == pytest.approx(1.0, abs=0.3)
    assert rep["worst_gap"] < 0.1


def test_oracle_check_single_grid_has_null_order(tmp_path):
    assert main(["oracle-check", "--out", str(tmp_path), "--steps-list", "100"]) == 0
    rep = read_json(tmp_path / "oracle_gap.json")
    assert rep["report"]["fitted_order"] is None
    assert rep["report"]["steps"] == [100] and rep["worst_gap"] < 0.1


def test_oracle_check_repeated_grids_exit_one(tmp_path, capsys):
    assert main(["oracle-check", "--out", str(tmp_path), "--steps-list", "100,100"]) == 1
    assert "distinct" in capsys.readouterr().err
    assert not (tmp_path / "oracle_gap.json").exists()


@pytest.mark.parametrize("command", ["scaling-smooth", "scaling-diffusive"])
@pytest.mark.parametrize("workers", ["0", "-2"])
def test_scaling_rejects_nonpositive_workers(tmp_path, capsys, command, workers):
    argv = [command, "--out", str(tmp_path), "--lambda", "1e-2,1e-3", "--paths", "8"]
    assert main(argv + ["--workers", workers]) == 1
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "scaling_report.json").exists()


CONFIG = """
[market]
T = 1.0
impact_cost = 0.1
steps = 400

[noise]
process = zero

[agent dealer]
mass = 0.5
risk_tolerance = 0.1
open_cost = 0

[agent client]
mass = 0.5
risk_tolerance = 0.1
open_cost = inf
target = constant:-1
"""


def test_equilibrium_from_config(tmp_path):
    cfg = tmp_path / "market.ini"
    cfg.write_text(CONFIG)
    rc = main(["equilibrium", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_rows(tmp_path / "equilibrium.csv")
    assert header[:7] == ["t", "U_bar", "u_bar", "mu", "price_dev", "K_N", "xi_bar"]
    assert "K_client" in header and "u_dealer" in header
    k_client = header.index("K_client")
    assert float(rows[0][k_client]) == pytest.approx(-0.5, abs=1e-10)


def test_equilibrium_config_errors(tmp_path):
    missing = tmp_path / "nope.ini"
    assert main(["equilibrium", "--config", str(missing), "--out", str(tmp_path)]) == 1
    bad = tmp_path / "bad.ini"
    bad.write_text("[market]\nT = -1\nimpact_cost = 0.1\nsteps = 10\n")
    assert main(["equilibrium", "--config", str(bad), "--out", str(tmp_path)]) == 1
    frictionless = tmp_path / "frictionless.ini"
    frictionless.write_text(
        "[market]\nT = 1.0\nimpact_cost = 0\nsteps = 10\n"
        "[agent d]\nmass = 1\nrisk_tolerance = 0.1\nopen_cost = 0\n"
    )
    assert main(["equilibrium", "--config", str(frictionless), "--out", str(tmp_path)]) == 1


def test_bad_lambda_list_exits_one(tmp_path):
    assert main(["scaling-smooth", "--out", str(tmp_path), "--lambda", "abc"]) == 1


def test_unknown_subcommand_exits_one():
    assert main(["frobnicate"]) == 1


def test_numerical_failure_maps_to_exit_two(tmp_path, monkeypatch, capsys):
    from dealerlab import cli

    def boom(args):
        raise cli.NumericalError("tolerance breach")

    monkeypatch.setitem(cli.build_parser.__globals__, "cmd_liquidation", boom)
    # rebuild routes through the patched handler
    rc = cli.main(["liquidation", "--out", str(tmp_path)])
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err
