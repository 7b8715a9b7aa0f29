"""The three benchmark workloads: CLI op sets and the check on each op's output.

An op is one ``dealerlab.cli.main`` call. Its check reads the files the op
wrote and returns a list of problems; an op fails when it exits non-zero or
its list is not empty. Tolerances are the acceptance-suite ones.

``smoke=True`` shrinks every op to a size that runs in seconds, for the
self-test. The checks are the same code; where a tolerance belongs to a grid
size (the oracle gap at N=2000), it is scaled to the size actually run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("mc_diffusive", "oracle_gap", "figures")

# Segmented market for the `equilibrium` op: one dealer, one client without
# open-market access liquidating a unit position at a tiny impact cost.
EQUILIBRIUM_INI = """\
[market]
T = 1.0
impact_cost = 1e-6
steps = {steps}

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


@dataclass(frozen=True)
class Op:
    """One CLI call: ``argv`` without ``--out``, and the check of its output directory.

    ``inputs`` are (file name, text) pairs the op reads; the worker writes them
    into its work directory, and ``argv`` names them relative to it.
    """

    name: str
    argv: tuple
    check: Callable[[Path], list]
    inputs: tuple = ()


def _report(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())


def _rows(out: Path, name: str) -> list:
    lines = (out / name).read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


def _close(label: str, value: float, want: float, tol: float) -> list:
    if abs(value - want) <= tol:
        return []
    return [f"{label} = {value!r}, want {want!r} within {tol:g}"]


def check_scaling_diffusive(out: Path) -> list:
    rep = _report(out, "scaling_report.json")["report"]
    tol = 0.05 * rep["prefactor_theory"] + 2.0 * rep["prefactor_stderr"]
    return _close("slope", rep["slope"], 0.5, 0.05) + _close(
        "prefactor", rep["prefactor"], rep["prefactor_theory"], tol
    )


def check_scaling_smooth(out: Path) -> list:
    rep = _report(out, "scaling_report.json")["report"]
    return _close("prefactor", rep["prefactor"], rep["prefactor_theory"],
                  0.02 * rep["prefactor_theory"])


def oracle_check_for(n_max: int) -> Callable[[Path], list]:
    """Worst gap <= 5e-3 at N=2000 (first-order scaled to ``n_max``), order 1 +- 0.3."""
    gap_tol = 5e-3 * 2000 / n_max

    def check(out: Path) -> list:
        rep = _report(out, "oracle_gap.json")["report"]
        worst = max(gaps[-1] for gaps in rep["max_gaps"].values())
        problems = [] if worst <= gap_tol else [f"worst gap {worst!r} > {gap_tol:g}"]
        return problems + _close("fitted order", rep["fitted_order"], 1.0, 0.3)

    return check


def check_liquidation(out: Path) -> list:
    strat = _rows(out, "fig1_strategies.csv")[0]
    price = _rows(out, "fig1_price.csv")[0]
    return _close("fig1 K_c_M1[0]", float(strat[1]), -0.5, 1e-6) + _close(
        "fig1 price_dev_M1[0]", float(price[1]), -0.70710576, 1e-6
    )


def check_diffusive(out: Path) -> list:
    reg = _report(out, "ou_regression.json")["regression"]
    problems = []
    for key in ("mean_reversion", "loading"):
        theory = reg[f"{key}_theory"]
        problems += _close(key, reg[key], theory, 0.05 * abs(theory))
    return problems


def check_welfare(out: Path) -> list:
    rows = _rows(out, "fig3_welfare.csv")
    bad = [r[0] for r in rows if float(r[2]) < float(r[1])]
    problems = [f"J_c_int < J_c at M={','.join(bad)}"] if bad else []
    return problems + ([] if rows else ["fig3_welfare.csv has no rows"])


def equilibrium_check_for(steps: int) -> Callable[[Path], list]:
    """``steps + 1`` data rows and the client's initial bulk trade K_client(0) = -0.5."""

    def check(out: Path) -> list:
        with open(out / "equilibrium.csv") as fh:
            header = fh.readline().rstrip("\n").split(",")
            first = fh.readline().rstrip("\n").split(",")
            rows = 1 + sum(1 for _ in fh)
        problems = [] if rows == steps + 1 else [f"{rows} data rows, want {steps + 1}"]
        k0 = float(first[header.index("K_client")])
        return problems + _close("K_client[0]", k0, -0.5, 1e-6)

    return check


def ops(workload: str, seed: int, smoke: bool = False) -> list:
    """The op set of ``workload``; the same seed gives the same inputs."""
    if workload == "mc_diffusive":
        lambdas, paths = ("1e-2,1e-3", 256) if smoke else ("1e-3,1e-5", 2048)
        return [Op("scaling-diffusive",
                   ("scaling-diffusive", "--lambda", lambdas, "--paths", str(paths),
                    "--seed", str(seed), "--workers", "1"),
                   check_scaling_diffusive)]
    if workload == "oracle_gap":
        steps = (100, 200, 400) if smoke else (250, 500, 1000, 2000)
        argv = ("oracle-check",)
        if smoke:
            argv += ("--steps-list", ",".join(map(str, steps)))
        return [Op("oracle-check", argv, oracle_check_for(max(steps)))]
    if workload == "figures":
        eq_steps = 2000 if smoke else 200_000
        ini = ("segmented_market.ini", EQUILIBRIUM_INI.format(steps=eq_steps))
        # (name, argv, extra argv in smoke mode, check)
        table = (
            ("liquidation", ("liquidation",), ("--steps", "200"), check_liquidation),
            ("diffusive", ("diffusive", "--seed", str(seed)),
             ("--steps", "200", "--paths", "1000"), check_diffusive),
            ("welfare", ("welfare",), ("--m-max", "3"), check_welfare),
            ("scaling-smooth", ("scaling-smooth",), ("--lambda", "1e-3,1e-4"),
             check_scaling_smooth),
            ("equilibrium", ("equilibrium", "--config", ini[0]), (),
             equilibrium_check_for(eq_steps)),
        )
        return [Op(name, argv + (small if smoke else ()), check,
                   (ini,) if name == "equilibrium" else ())
                for name, argv, small, check in table]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
