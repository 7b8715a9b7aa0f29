"""CLI subcommands: file contracts, defaults, exit codes, and byte determinism."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dealerlab
from dealerlab.cli import (
    SUBCOMMANDS,
    ConfigError,
    build_parser,
    load_market_config,
    main,
    parse_process,
)
from dealerlab.equilibrium import solve_equilibrium
from dealerlab.processes import (
    BrownianMartingale,
    Constant,
    OrnsteinUhlenbeck,
    SmoothRate,
    ZERO,
)

from memory import traced_peak


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _reject_constant(name):
    raise ValueError(f"{name} in a report")


def read_json(path):
    """A report as strict JSON: NaN and Infinity fail the read."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def test_parse_process_grammar():
    assert parse_process("zero") == ZERO == parse_process("constant:0")
    assert parse_process("constant:-1") == Constant(-1.0)
    assert parse_process("brownian:0,1") == BrownianMartingale(0.0, 1.0)
    assert parse_process("ou:0,1,0.5,0.3") == OrnsteinUhlenbeck(0.0, 1.0, 0.5, 0.3)
    assert parse_process("smooth:constant:2") == SmoothRate(Constant(2.0))
    with pytest.raises(ConfigError):
        parse_process("poisson:3")
    with pytest.raises(ConfigError):
        parse_process("brownian:0")


def test_nested_process_spec_error_is_wrapped_once():
    with pytest.raises(ConfigError) as err:
        parse_process("smooth:ou:0,1,0,nan")
    message = str(err.value)
    assert message.count("bad process spec") == 1
    assert message.startswith("bad process spec 'smooth:ou:0,1,0,nan': sigma")


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
    assert meta["version"] == f"dealerlab {dealerlab.__version__}" and meta["grid_steps"] == 100


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


def test_a_still_target_writes_a_positive_zero_mean_reversion(tmp_path):
    # sigma_xi = 0 regresses to the min-norm (0, 0), whose negation must not write -0.0
    argv = ["diffusive", "--out", str(tmp_path), "--sigma-xi", "0", "--paths", "50",
            "--steps", "200"]
    assert main(argv) == 0
    assert '"mean_reversion": 0.0,' in (tmp_path / "ou_regression.json").read_text()
    reg = read_json(tmp_path / "ou_regression.json")["regression"]
    assert math.copysign(1.0, reg["mean_reversion"]) == 1.0


def test_diffusive_without_paths_exits_one(tmp_path):
    assert main(["diffusive", "--out", str(tmp_path), "--steps", "50", "--paths", "0"]) == 1
    assert not any(tmp_path.iterdir())


def test_diffusive_figure_path_does_not_depend_on_the_regression_paths(tmp_path):
    # fig2's path 0 is a function of (seed, 0) alone, however many paths the fit steps
    for paths in ("1", "300"):
        argv = ["diffusive", "--out", str(tmp_path / paths), "--steps", "200", "--seed", "9"]
        assert main(argv + ["--paths", paths]) == 0
    name = "fig2_paths.csv"
    assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "300" / name).read_bytes()


@pytest.mark.parametrize("steps", ["1", "2"])
def test_diffusive_regression_window_under_two_steps_exits_one(tmp_path, capsys, steps):
    # the window [0, T/2) holds one step, whose regressor is 0: nothing is identified
    out = tmp_path / "out"
    assert main(["diffusive", "--out", str(out), "--steps", steps, "--paths", "5"]) == 1
    assert f"--steps {steps}" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("flag", ["--m-max", "--m"])
def test_welfare_rejects_dealer_counts_below_one(tmp_path, capsys, flag):
    out = tmp_path / "out"
    assert main(["welfare", "--out", str(out), "--m-max", "3", flag, "0"]) == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()  # rejected before any file or directory is written


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


def test_a_clipped_grid_reaches_stderr(tmp_path):
    # a separate interpreter: in-process, pytest's log capture stands in for logging's
    # last-resort handler, which is what prints a warning to the user's stderr
    src = Path(dealerlab.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    argv = ["scaling-smooth", "--out", str(tmp_path), "--lambda", "1e-9,1e-3"]
    proc = subprocess.run([sys.executable, "-m", "dealerlab.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    note = "step cap on market 0 at lambda=1e-09: 4082483 steps wanted, 1000000 used"
    assert note in proc.stderr
    assert read_json(tmp_path / "scaling_report.json")["report"]["warnings"] == [note]


# the events with which CPython audits a new process: none may fire during a CLI run
PROCESS_EVENTS = ("subprocess.Popen", "os.posix_spawn", "os.fork", "os.exec", "os.system")


# a small run of every subcommand; the config path is read from the working directory
RUNS = {
    "liquidation": ["--steps", "200"],
    "diffusive": ["--steps", "50", "--paths", "20"],
    "welfare": ["--m-max", "3"],
    "scaling-smooth": ["--lambda", "1e-1,1e-2"],
    "scaling-diffusive": ["--lambda", "1e-1,1e-2", "--paths", "20"],
    "oracle-check": ["--steps-list", "100,200"],
    "equilibrium": ["--config", "market.ini", "--steps", "200"],
}


def subparsers(parser) -> argparse._SubParsersAction:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def test_no_subcommand_starts_a_process(tmp_path):
    # a separate interpreter, so the audit hook (which cannot be removed) goes with it;
    # the hook is in place before dealerlab is imported
    (tmp_path / "market.ini").write_text(CONFIG)
    assert set(RUNS) == set(subparsers(build_parser()).choices)
    argvs = [[name, *argv, "--out", str(tmp_path / name)] for name, argv in RUNS.items()]
    code = "\n".join([
        "import sys",
        "seen = []",
        f"sys.addaudithook(lambda event, _: event in {PROCESS_EVENTS} and seen.append(event))",
        "from dealerlab.cli import main",
        f"print([main(argv) for argv in {argvs!r}], seen)",
    ])
    src = Path(dealerlab.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"{[0] * len(RUNS)} []"


@pytest.mark.parametrize("name", RUNS)
def test_one_subcommands_parser_reads_its_argv_as_the_full_parser(name):
    argv = [name, *RUNS[name], "--out", "out"]
    alone, full = build_parser(name), build_parser()
    assert set(subparsers(alone).choices) == {name}
    assert vars(alone.parse_args(argv)) == vars(full.parse_args(argv))  # func included
    assert alone.format_usage() == full.format_usage()  # SUBCOMMANDS in the declared order


def full_parser_exit(capsys, argv) -> tuple:
    """(exit code, stdout, stderr) with which the full parser leaves on ``argv``."""
    with pytest.raises(SystemExit) as exit_:
        build_parser().parse_args(argv)
    return (exit_.value.code, *capsys.readouterr())


def test_help_lists_every_subcommand_with_its_help(capsys):
    code, expected, _ = full_parser_exit(capsys, ["--help"])
    assert main(["--help"]) == 0 == code
    out = capsys.readouterr().out
    assert out == expected
    for name in SUBCOMMANDS:
        assert re.search(rf"^    {name} +\w", out, re.MULTILINE), name


def test_subcommand_help_shows_its_flags(capsys):
    argv = ["oracle-check", "--help"]
    code, expected, _ = full_parser_exit(capsys, argv)
    assert main(argv) == 0 == code
    out = capsys.readouterr().out
    assert out == expected and "--steps-list" in out


def test_another_subcommands_flag_exits_one_as_the_full_parser(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["oracle-check", "--paths", "3", "--out", str(out)]
    code, _, expected = full_parser_exit(capsys, argv)
    assert main(argv) == 1 and code == 2
    assert capsys.readouterr().err == expected
    assert "unrecognized arguments: --paths 3" in expected
    assert not out.exists()


def test_a_call_builds_two_parsers(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["oracle-check", "--steps-list", "50,100", "--out", str(tmp_path / "d")]) == 0
    assert built == ["dealerlab", "dealerlab oracle-check"]  # the full parser builds 8


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


def test_single_impact_cost_has_null_reduction_factor(tmp_path):
    # one tracking mean over itself reduces nothing: null, like the slope
    argv = ["scaling-diffusive", "--out", str(tmp_path), "--lambda", "1e-2", "--paths", "4"]
    assert main(argv) == 0
    rep = read_json(tmp_path / "scaling_report.json")["report"]
    assert rep["track_reduction_factor"] is None
    assert rep["slope"] is None and rep["slope_ci"] is None


def test_two_impact_costs_have_a_slope_and_no_interval(tmp_path):
    # a line through two points leaves no residual, so the fit has no interval to give
    assert main(["scaling-smooth", "--out", str(tmp_path), "--lambda", "1e-2,1e-3"]) == 0
    rep = read_json(tmp_path / "scaling_report.json")["report"]
    assert rep["slope"] == pytest.approx(1.0, abs=0.05) and rep["slope_ci"] is None
    assert main(["scaling-smooth", "--out", str(tmp_path), "--lambda", "1e-2,1e-3,1e-4"]) == 0
    lo, hi = read_json(tmp_path / "scaling_report.json")["report"]["slope_ci"]
    assert lo < hi


def test_repeated_impact_cost_exits_one(tmp_path, capsys):
    argv = ["scaling-diffusive", "--out", str(tmp_path), "--lambda", "1e-2,1e-2", "--paths", "8"]
    assert main(argv) == 1
    assert "distinct" in capsys.readouterr().err
    assert not (tmp_path / "scaling_report.json").exists()


@pytest.mark.parametrize(
    "flag, value, field",
    [("--rho-d", "0", "agent dealer0: risk tolerance"),
     ("--rho-d", "-1", "agent dealer0: risk tolerance"), ("--m", "0", "n_dealers"),
     ("--T", "0", "T")],
)
def test_scaling_rejects_a_bad_dealer_setting(tmp_path, capsys, flag, value, field):
    out = tmp_path / "out"
    argv = ["scaling-diffusive", "--out", str(out), "--lambda", "1e-2,1e-3", "--paths", "8"]
    assert main(argv + [flag, value]) == 1
    assert f"configuration error: {field} " in capsys.readouterr().err
    assert not out.exists()


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


def test_oracle_check_without_a_gap_has_null_order(tmp_path):
    # a zero target: oracle and engine agree exactly, and log(0) fits no order
    argv = ["oracle-check", "--out", str(tmp_path), "--xi-c", "0", "--steps-list", "100,200"]
    assert main(argv) == 0
    rep = read_json(tmp_path / "oracle_gap.json")
    assert rep["report"]["fitted_order"] is None and rep["worst_gap"] == 0.0


def test_oracle_check_order_out_of_range_exits_two_leaving_no_directory(tmp_path, monkeypatch):
    from dealerlab import cli
    from dealerlab.oracle import GapReport

    def steep(params, T, steps_list):
        return GapReport(steps_list, {"mu": [0.1, 0.0125]}, {"mu": [0.1, 0.0125]}, 3.0)

    monkeypatch.setattr(cli, "oracle_gap", steep)
    out = tmp_path / "out"
    assert main(["oracle-check", "--out", str(out), "--steps-list", "100,200"]) == 2
    assert not out.exists()


def test_oracle_check_rejects_an_oversized_grid_before_building_it(tmp_path, capsys):
    # the market is built on one step: a 2*10^7-step grid is never allocated
    out = tmp_path / "out"
    rc, peak = traced_peak(main, ["oracle-check", "--out", str(out),
                                  "--steps-list", "100,20000000"])
    assert rc == 1 and "too large" in capsys.readouterr().err
    assert peak < 8e6
    assert not out.exists()


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


def test_equilibrium_run_meta_carries_the_identity_residuals(tmp_path):
    cfg = tmp_path / "market.ini"
    cfg.write_text(CONFIG)
    assert main(["equilibrium", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    residuals = read_json(tmp_path / "run_meta.json")["residuals"]
    solved = solve_equilibrium(*load_market_config(str(cfg))[:2]).residuals
    assert residuals == {name: float(f"{r:.12g}") for name, r in solved.items()}
    assert list(residuals) == ["clearing", "foc", "price", "share"]  # sorted keys
    assert all(0 <= r <= 1e-10 for r in residuals.values())


def test_equilibrium_mixes_brownian_noise_and_ou_target(tmp_path):
    cfg = tmp_path / "market.ini"
    cfg.write_text(CONFIG.replace("process = zero", "process = brownian:0,1")
                   .replace("constant:-1", "ou:-1,2,-0.5,0.4"))
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["equilibrium", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 0
    for name in ("equilibrium.csv", "run_meta.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    header, rows = read_rows(a / "equilibrium.csv")
    assert float(rows[0][header.index("xi_bar")]) == pytest.approx(-0.5, rel=1e-14)


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


@pytest.mark.parametrize(
    "config",
    ["T = 1.0\n" + CONFIG,
     CONFIG + "[market]\nT = 2.0\n",
     CONFIG.replace("T = 1.0\n", "T = 1.0\nT = 2.0\n"),
     CONFIG.replace("impact_cost = 0.1", "impact_cost = 10%")],
    ids=["no-section-header", "duplicate-section", "duplicate-option", "bare-percent"],
)
def test_malformed_config_exits_one_naming_the_file(tmp_path, capsys, config):
    cfg = tmp_path / "market.ini"
    cfg.write_text(config)
    out = tmp_path / "out"
    assert main(["equilibrium", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and repr(str(cfg)) in err
    assert not out.exists()


def test_readme_config_example_runs(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    cfg = tmp_path / "market.ini"
    cfg.write_text(example)
    assert main(["equilibrium", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    header, rows = read_rows(tmp_path / "out" / "equilibrium.csv")
    assert len(rows) == 1001
    assert float(rows[0][header.index("K_client")]) == pytest.approx(-0.5, abs=1e-10)


def test_readme_library_example_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    namespace = {}
    exec(compile(example, "README.md", "exec"), namespace)
    sol = namespace["sol"]
    assert sol.at().agents["client0"].K[0] == pytest.approx(-0.5, abs=1e-12)
    assert sol.at().price_dev[0] == pytest.approx(-0.7071, abs=1e-4)


def test_steps_flag_writes_the_csv_of_the_config_grid(tmp_path):
    # --steps replaces the config's grid and nothing else
    cfg, cfg_5000 = tmp_path / "market.ini", tmp_path / "market_5000.ini"
    cfg.write_text(CONFIG)
    cfg_5000.write_text(CONFIG.replace("steps = 400", "steps = 5000"))
    flag, ini = tmp_path / "flag", tmp_path / "ini"
    assert main(["equilibrium", "--config", str(cfg), "--steps", "5000", "--out", str(flag)]) == 0
    assert main(["equilibrium", "--config", str(cfg_5000), "--out", str(ini)]) == 0
    csv = (flag / "equilibrium.csv").read_bytes()
    assert csv == (ini / "equilibrium.csv").read_bytes()
    assert csv.count(b"\n") == 5002  # the header and 5,001 nodes


def test_deterministic_ini_target_runs_on_any_steps(tmp_path):
    # three samples joined linearly over [0, T]: one market on a 50-step grid
    cfg = tmp_path / "market.ini"
    cfg.write_text(CONFIG.replace("constant:-1", "deterministic:0,1,2"))
    out = tmp_path / "out"
    assert main(["equilibrium", "--config", str(cfg), "--steps", "50", "--out", str(out)]) == 0
    _, rows = read_rows(out / "equilibrium.csv")
    assert len(rows) == 51


SEED_RANGE = "seed must lie in [0, 2**64)"


@pytest.mark.parametrize(
    "argv, config, named",
    [
        (["scaling-diffusive", "--seed", "-1", "--paths", "4", "--lambda", "1e-2"], None,
         SEED_RANGE),
        (["diffusive", "--seed", "-1", "--steps", "50"], None, SEED_RANGE),
        (["diffusive", "--seed", str(2**64), "--steps", "50"], None, SEED_RANGE),
        (["equilibrium", "--seed", "-3"],
         CONFIG.replace("process = zero", "process = brownian:0,1"), SEED_RANGE),
        (["liquidation", "--xi-c", "nan"], None, "--xi-c"),
        (["oracle-check", "--rho-d", "nan"], None, "--rho-d"),
        (["oracle-check", "--lambda", "nan"], None, "--lambda"),
        (["oracle-check", "--lambda", "inf"], None, "--lambda"),
        (["diffusive", "--sigma-xi", "inf", "--steps", "50"], None, "--sigma-xi"),
        (["scaling-smooth", "--lambda", "inf"], None, "--lambda"),
        (["scaling-smooth", "--paths", "-5"], None, "--paths"),
        (["scaling-diffusive", "--lambda", "1e-2,nan"], None, "--lambda"),
        (["equilibrium"], CONFIG.replace("impact_cost = 0.1", "impact_cost = nan"),
         "impact cost"),
        (["equilibrium"], CONFIG.replace("open_cost = 0\n", "open_cost = nan\n"),
         "open-market cost"),
        (["oracle-check", "--lambda", "0"], None, "frictionless"),
        (["oracle-check", "--lambda", "-1"], None, "impact cost must be >= 0"),
        (["equilibrium"], CONFIG.replace("mass = 0.5\nrisk_tolerance = 0.1\nopen_cost = 0\n",
                                         "mass = inf\nrisk_tolerance = 0.1\nopen_cost = 0\n"),
         "agent dealer: mass must be positive and finite, got inf"),
        (["equilibrium"], CONFIG.replace("mass = 0.5\nrisk_tolerance = 0.1\nopen_cost = 0\n",
                                         "mass = 0.5\nrisk_tolerance = inf\nopen_cost = 0\n"),
         "agent dealer: risk tolerance must be positive and finite, got inf"),
        (["equilibrium"], CONFIG.replace("constant:-1", "constant:nan"),
         "'constant:nan': level must be finite"),
        (["equilibrium"], CONFIG.replace("process = zero", "process = brownian:nan,1"),
         "'brownian:nan,1': x0 must be finite"),
        (["equilibrium"], CONFIG.replace("constant:-1", "ou:0,1,inf,1"),
         "'ou:0,1,inf,1': theta must be finite"),
        (["equilibrium"], CONFIG.replace("constant:-1", "smooth:ou:0,1,0,nan"),
         "'smooth:ou:0,1,0,nan'"),
        (["equilibrium"], CONFIG.replace("constant:-1", "deterministic:0,nan,1"),
         "'deterministic:0,nan,1': deterministic samples must be finite"),
        (["equilibrium"], CONFIG.replace("constant:-1", "deterministic:1"),
         "'deterministic:1': a deterministic path needs at least two samples, got 1"),
        (["equilibrium"], CONFIG.replace("T = 1.0", "T = nan"), "got T=nan"),
        (["equilibrium"], CONFIG.replace("T = 1.0", "T = inf"), "got T=inf"),
        (["equilibrium", "--steps", "0"], CONFIG,
         "--steps must be an integer of at least 1, got 0"),
        (["equilibrium", "--steps", "-3"], CONFIG,
         "--steps must be an integer of at least 1, got -3"),
        (["equilibrium"], CONFIG.replace("open_cost = inf", "open_cots = inf"),
         "unknown key 'open_cots' in config section [agent client]"),
        (["equilibrium"], CONFIG.replace("target = constant:-1", "targt = constant:-1"),
         "unknown key 'targt' in config section [agent client]"),
        (["equilibrium"], CONFIG.replace("steps = 400", "steps = 400\nimpact = 0.1"),
         "unknown key 'impact' in config section [market]"),
        (["equilibrium"], CONFIG.replace("[agent dealer]", "[agnet other]"),
         "unknown config section [agnet other]"),
        (["equilibrium"], "[DEFAULT]\nrisk_tolerance = 0.1\n" + CONFIG,
         "unknown config section [DEFAULT]"),
        (["equilibrium"], CONFIG.replace("[agent client]", "[agent cli,ent]"),
         "equilibrium.csv column 'K_cli,ent' would repeat"),
        (["equilibrium"], CONFIG.replace("[agent client]", '[agent "client"]'),
         "equilibrium.csv column 'K_\"client\"' would repeat"),
        (["equilibrium"], CONFIG.replace("[agent client]", "[agent bar]"),
         "equilibrium.csv column 'U_bar' would repeat"),
        (["equilibrium"], CONFIG.replace("[agent client]", "[agent N]"),
         "equilibrium.csv column 'K_N' would repeat"),
        (["equilibrium"], CONFIG.replace("[agent client]", "[agent ]"),
         "bad [agent ] section: agent name must not be empty or blank"),
    ],
    ids=["seed-scaling-diffusive", "seed-diffusive-negative", "seed-diffusive-2**64",
         "seed-equilibrium", "xi-c-nan", "rho-d-nan", "lambda-nan", "lambda-inf", "sigma-xi-inf",
         "scaling-smooth-inf", "scaling-smooth-negative-paths", "scaling-diffusive-nan",
         "ini-impact-cost-nan", "ini-open-cost-nan",
         "oracle-frictionless", "oracle-negative-lambda", "ini-mass-inf",
         "ini-risk-tolerance-inf", "ini-constant-nan", "ini-brownian-nan",
         "ini-ou-inf", "ini-smooth-nan", "ini-deterministic-nan", "ini-deterministic-one",
         "ini-T-nan", "ini-T-inf", "equilibrium-zero-steps", "equilibrium-negative-steps",
         "ini-key-open-cots", "ini-key-targt", "ini-key-market", "ini-section-agnet",
         "ini-section-default", "ini-header-comma", "ini-header-quote", "ini-header-U_bar",
         "ini-header-K_N", "ini-agent-blank-name"],
)
def test_invalid_input_exits_one_naming_it(tmp_path, capsys, argv, config, named):
    if config is not None:
        cfg = tmp_path / "market.ini"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_nan_equilibrium_exits_two(tmp_path, capsys):
    # a vanishing dealer mass makes the dealer's share inf/inf; no NaN report is written
    cfg = tmp_path / "market.ini"
    cfg.write_text(CONFIG.replace("mass = 0.5\nrisk_tolerance = 0.1\nopen_cost = 0\n",
                                  "mass = 1e-320\nrisk_tolerance = 0.1\nopen_cost = 0\n"))
    out = tmp_path / "out"
    assert main(["equilibrium", "--config", str(cfg), "--out", str(out)]) == 2
    assert "'foc': nan" in capsys.readouterr().err
    assert not out.exists()


def test_bad_lambda_list_exits_one(tmp_path):
    assert main(["scaling-smooth", "--out", str(tmp_path), "--lambda", "abc"]) == 1


@pytest.mark.parametrize(
    "argv",
    [["scaling-smooth", "--lambda", "abc"],
     ["oracle-check", "--steps-list", "100,abc"],
     ["oracle-check", "--steps-list", "0,100"],
     ["diffusive", "--steps", "50", "--paths", "0"],
     ["equilibrium", "--config", "nope.ini"],
     ["liquidation", "--steps", "0"],
     ["equilibrium", "--config", "market.ini", "--steps", "0"]],
    ids=["bad-lambda", "bad-steps-list", "zero-steps-list", "no-paths", "no-config",
         "no-steps", "equilibrium-no-steps"],
)
def test_exit_one_leaves_no_output_directory(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # a relative config path resolves inside the test directory
    (tmp_path / "market.ini").write_text(CONFIG)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    assert not out.exists()


def test_bad_steps_list_names_the_flag(tmp_path, capsys):
    assert main(["oracle-check", "--out", str(tmp_path), "--steps-list", "100,abc"]) == 1
    assert "--steps-list" in capsys.readouterr().err


def test_unknown_subcommand_exits_one():
    assert main(["frobnicate"]) == 1
    assert main([]) == 1  # nor none at all


def test_numerical_failure_maps_to_exit_two(tmp_path, monkeypatch, capsys):
    from dealerlab import cli

    def boom(args):
        raise cli.NumericalError("tolerance breach")

    monkeypatch.setitem(cli.build_parser.__globals__, "cmd_liquidation", boom)
    # rebuild routes through the patched handler
    rc = cli.main(["liquidation", "--out", str(tmp_path)])
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["liquidation"], ["diffusive", "--steps", "50", "--paths", "4"], ["welfare"],
     ["scaling-smooth"], ["scaling-diffusive", "--paths", "4"], ["oracle-check"],
     ["equilibrium", "--config", "market.ini"]],
    ids=lambda argv: argv[0],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")  # refused before any arithmetic overflows
def test_a_mesh_rate_that_overflows_exits_one(tmp_path, monkeypatch, capsys, argv):
    # eta * eta_bar overflows at lambda = 1e-300: refused, not written as NaN
    monkeypatch.chdir(tmp_path)
    (tmp_path / "market.ini").write_text(CONFIG.replace("impact_cost = 0.1",
                                                        "impact_cost = 1e-300"))
    out = tmp_path / "out"
    lam = [] if argv[0] == "equilibrium" else ["--lambda", "1e-300"]
    assert main(argv + lam + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "delta must be positive and finite, got inf" in err
    assert "--steps" not in err
    assert not out.exists()


def test_welfare_without_a_client_target(tmp_path):
    assert main(["welfare", "--out", str(tmp_path / "zero"), "--xi-c", "0", "--m-max", "3"]) == 0
    assert main(["welfare", "--out", str(tmp_path / "one"), "--xi-c", "-1", "--m-max", "3"]) == 0
    zero = read_json(tmp_path / "zero" / "welfare_report.json")["report"]
    one = read_json(tmp_path / "one" / "welfare_report.json")["report"]
    for key in ("J_c_segmented", "J_c_integrated", "asymptotic_J_c", "asymptotic_J_c_int"):
        assert zero[key] == 0 and math.copysign(1.0, zero[key]) == 1.0, key
    assert zero["ratio"] == one["ratio"]
    _, rows = read_rows(tmp_path / "zero" / "fig3_welfare.csv")
    assert [row[1:] for row in rows] == [["0", "0"]] * 3


@pytest.mark.parametrize(
    "argv",
    [["liquidation", "--steps", "10"],
     ["diffusive", "--steps", "20", "--paths", "4"],
     ["welfare", "--m-max", "2"],
     ["scaling-smooth", "--lambda", "1e-2,1e-3"],
     ["scaling-diffusive", "--lambda", "1e-1,1e-2", "--paths", "4", "--demand", "ou"],
     ["oracle-check", "--steps-list", "50,100"],
     ["equilibrium", "--config", "market.ini", "--steps", "20"]],
    ids=lambda argv: argv[0],
)
def test_every_parsed_flag_is_read(tmp_path, monkeypatch, argv):
    # a flag that its subcommand never reads accepts any value and does nothing
    monkeypatch.chdir(tmp_path)
    (tmp_path / "market.ini").write_text(CONFIG)
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    args = build_parser().parse_args(argv + ["--out", "out"], namespace=Recording())
    read.clear()  # argparse reads attributes while it fills them
    args.func(args)
    parsed = set(vars(args)) - {"out", "func", "command"}
    assert parsed - read == set()


@pytest.mark.parametrize("command", ["liquidation", "welfare", "oracle-check"])
def test_subcommands_that_draw_no_normals_take_no_seed(tmp_path, command):
    out = tmp_path / "out"
    assert main([command, "--seed", "-5", "--out", str(out)]) == 1
    assert not out.exists()


# the benchmark's `equilibrium` market: one dealer and one client without open-market
# access liquidating a unit position at a tiny impact cost (sqrt(delta) = 2236)
SEGMENTED_CONFIG = CONFIG.replace("impact_cost = 0.1", "impact_cost = 1e-6")


@pytest.mark.parametrize(
    "argv, config, named",
    [(["scaling-smooth", "--lambda", "1e-12,1e-3"], None,
      ["lambda=1e-12", "1000000 used", "max F*dt = 2.58", "at least 1290995 steps"]),
     (["equilibrium", "--config", "market.ini", "--steps", "1000"], SEGMENTED_CONFIG,
      ["lambda=1e-06", "on 1000 steps", "max F*dt = 2.24", "at least 1119 steps"]),
     (["diffusive", "--lambda", "1e-6", "--steps", "1000", "--paths", "4"], None,
      ["--steps 1000", "lambda=1e-06", "max F*dt = 2.24", "at least 1119 steps"])],
    ids=["scaling-smooth-step-cap", "equilibrium-coarse-grid", "diffusive-coarse-grid"],
)
def test_an_unstable_time_step_exits_one_naming_the_grid(tmp_path, monkeypatch, capsys, argv,
                                                         config, named):
    # Heun's and Euler's steps amplify errors above F*dt = 2: refused before any sweep, not
    # written as NaN
    monkeypatch.chdir(tmp_path)
    if config:
        (tmp_path / "market.ini").write_text(config)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error")
    assert all(text in err for text in named), err
    assert not out.exists()


def test_a_non_finite_report_value_exits_two(tmp_path, monkeypatch, capsys):
    from dealerlab import cli
    from dealerlab.scenarios import WelfareReport

    monkeypatch.setattr(cli, "segmentation_welfare", lambda s: WelfareReport(*[math.nan] * 6))
    out = tmp_path / "out"
    assert main(["welfare", "--m-max", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure") and "welfare_report.json" in err
    assert not (out / "welfare_report.json").exists()


def test_equilibrium_op_memory_is_a_few_node_columns(tmp_path):
    # solve, identity check and CSV: the solution keeps U_bar, u_bar, xi_bar and the two
    # realized targets, the solve peaks near 7 node columns, and the CSV's 4,096-row blocks
    # add about 2 MB; every other column is evaluated one block at a time
    n = 50_000
    cfg = tmp_path / "market.ini"
    cfg.write_text(SEGMENTED_CONFIG.replace("steps = 400", f"steps = {n}"))
    rc, peak = traced_peak(main, ["equilibrium", "--config", str(cfg),
                                  "--out", str(tmp_path / "out")])
    assert rc == 0
    assert peak < 16 * (n + 1) * 8


def _mixed_config(steps: int = 60) -> str:
    # OU noise, a Brownian target on an agent with open-market access, a deterministic
    # target on one without
    samples = ",".join(f"{-1.0 + 0.03 * (7 * i % 11):.2f}" for i in range(steps + 1))
    return f"""
[market]
T = 1.0
impact_cost = 0.05
steps = {steps}

[noise]
process = ou:0.2,1.5,-0.1,0.7

[agent dealer]
mass = 0.6
risk_tolerance = 0.12
open_cost = 0.02
target = brownian:0.3,0.5

[agent client]
mass = 0.4
risk_tolerance = 0.08
open_cost = inf
target = deterministic:{samples}
"""


def test_equilibrium_csv_is_the_same_in_any_blocks(tmp_path, monkeypatch):
    from dealerlab import equilibrium, reports

    cfg = tmp_path / "market.ini"
    cfg.write_text(_mixed_config())
    argv = ["equilibrium", "--config", str(cfg), "--seed", "3", "--out"]
    assert main(argv + [str(tmp_path / "whole")]) == 0  # 61 nodes: one block
    monkeypatch.setattr(reports, "ROW_BLOCK", 7)
    monkeypatch.setattr(equilibrium, "_NODE_BLOCK", 7)  # 8 blocks of 7 nodes and one of 5
    assert main(argv + [str(tmp_path / "blocks")]) == 0
    monkeypatch.undo()
    for name in ("equilibrium.csv", "run_meta.json"):
        assert (tmp_path / "whole" / name).read_bytes() == (tmp_path / "blocks" / name).read_bytes()
    # the same bytes as the full-grid arrays written in one go
    params, horizon, _ = load_market_config(str(cfg))
    sol = solve_equilibrium(params, horizon, seed=3)
    header, _ = read_rows(tmp_path / "whole" / "equilibrium.csv")
    values = sol.at()
    columns = [sol.horizon.grid, sol.U_bar, sol.u_bar, values.mu, values.price_dev, sol.noise,
               sol.xi_bar]
    for a in params.agents:
        paths = values.agents[a.name]
        columns += [paths.K, paths.U, paths.u]
    reports.write_csv(tmp_path / "full.csv", header, reports.row_blocks(columns))
    assert (tmp_path / "full.csv").read_bytes() == (tmp_path / "whole" / "equilibrium.csv").read_bytes()
