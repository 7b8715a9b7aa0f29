"""Acceptance criteria.

Each test is one gate criterion at its stated tolerance and prints one
pass line; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest

from dealerlab import asymptotics
from dealerlab.asymptotics import scaling_study, simulate_costs
from dealerlab.cli import main
from dealerlab.equilibrium import consistency_report, goal_functional, solve_equilibrium
from dealerlab.kernel import Horizon, eval_F
from dealerlab.market import (
    AgentSpec,
    MarketParams,
    NO_ACCESS,
    dealers_only_market,
    integrated_market,
    segmented_market,
)
from dealerlab.oracle import oracle_gap
from dealerlab.processes import (
    BrownianMartingale,
    Constant,
    Deterministic,
    SmoothRate,
    ZERO,
)
from dealerlab.scenarios import (
    DiffusiveScenario,
    LiquidationScenario,
    diffusive_simulate,
    scenario_delta,
    segmentation_welfare,
)

RATIO_M1_SYMMETRIC = 7 * math.sqrt(12) / 19  # ~1.2762


def _random_market(rng: np.random.Generator, horizon: Horizon) -> MarketParams:
    n_agents = int(rng.integers(2, 6))
    grid = horizon.grid
    agents = []
    finite_access = rng.integers(0, n_agents)  # at least this agent reaches the open market
    for i in range(n_agents):
        if i == finite_access:
            open_cost = float(rng.choice([0.0, rng.uniform(0.05, 1.0)]))
        else:
            open_cost = float(rng.choice([0.0, rng.uniform(0.05, 1.0), NO_ACCESS]))
        kind = rng.integers(0, 3)
        if kind == 0:
            target = ZERO
        elif kind == 1:
            target = Constant(float(rng.uniform(-2.0, 2.0)))
        else:
            a, b, w = rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.5, 6.0)
            target = Deterministic(tuple(a + b * np.sin(w * grid)))
        agents.append(
            AgentSpec(
                name=f"agent{i}",
                mass=float(rng.uniform(0.1, 1.0)),
                risk_tolerance=float(rng.uniform(0.02, 0.5)),
                open_cost=open_cost,
                target=target,
            )
        )
    noise = ZERO if rng.random() < 0.5 else Deterministic(tuple(rng.uniform(-1, 1) * grid**2))
    lam = float(rng.uniform(0.01, 0.5))
    return MarketParams(lam, tuple(agents), noise)


def test_criterion_1_internal_consistency():
    start = time.time()
    rng = np.random.default_rng(20260810)
    horizon = Horizon.uniform(1.0, 800)
    worst = 0.0
    for _ in range(20):
        params = _random_market(rng, horizon)
        sol = solve_equilibrium(params, horizon)
        report = consistency_report(sol)
        worst = max(worst, max(report.values()))
        assert max(report.values()) <= 1e-8, report
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(
        f"\n[PASS] criterion 1: 20 randomized markets, worst identity residual "
        f"{worst:.2e} <= 1e-8 in {elapsed:.1f}s"
    )


def test_criterion_2_oracle_equivalence():
    start = time.time()
    params = segmented_market(0.1, 0.1, 0.1, 1, Constant(-1.0))
    report = oracle_gap(params, 1.0, [250, 500, 1000, 2000])
    gap_2000 = max(report.max_gaps[k][-1] for k in report.max_gaps)
    assert gap_2000 <= 5e-3
    assert abs(report.fitted_order - 1.0) <= 0.3
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(
        f"\n[PASS] criterion 2: oracle max gap {gap_2000:.2e} <= 5e-3 at N=2000, "
        f"order {report.fitted_order:.2f} = 1 +- 0.3 in {elapsed:.1f}s"
    )


def test_criterion_3_smooth_demand_law(monkeypatch):
    start = time.time()
    lambdas = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]
    # deterministic smooth family, exact evaluation, all three dealer counts
    for m in (1, 2, 10):
        market = dealers_only_market(lambdas[-1], 0.1, m, SmoothRate(Constant(1.0)))
        rep = scaling_study(market, 1.0, lambdas, n_paths=0)
        assert abs(rep.slope - 1.0) <= 0.05, (m, rep.slope)
        assert abs(rep.prefactor - rep.prefactor_theory) <= 0.05 * rep.prefactor_theory
        assert abs(rep.prefactor - rep.prefactor_theory) <= 0.02 * rep.prefactor_theory
    # deterministic varying-rate variant stays exact to 2%
    n = 40_000
    grid = Horizon.uniform(1.0, n).grid
    varying = SmoothRate(Deterministic(tuple(1.0 + np.sin(2 * np.pi * grid))))
    with monkeypatch.context() as patch:  # the grid wants 40,825 steps: the cap bites
        patch.setattr(asymptotics, "STEP_CAP", n)
        rep_var = scaling_study(dealers_only_market(1e-5, 0.1, 2, varying), 1.0, [1e-5], n_paths=0)
    assert rep_var.steps == [n]
    assert abs(rep_var.prefactor - rep_var.prefactor_theory) <= 0.02 * rep_var.prefactor_theory
    # stochastic smooth demand (OU rate), 1e4 paths per impact cost
    from dealerlab.processes import OrnsteinUhlenbeck

    stoch = SmoothRate(OrnsteinUhlenbeck(x0=1.0, kappa=1.0, theta=1.0, sigma=0.3))
    rep_s = scaling_study(dealers_only_market(1e-4, 0.1, 2, stoch), 1.0,
                          [1e-1, 1e-2, 1e-3, 1e-4], n_paths=10_000, seed=3)
    assert abs(rep_s.slope - 1.0) <= 0.05, rep_s.slope
    tol = 0.05 * rep_s.prefactor_theory + 2 * rep_s.prefactor_stderr
    assert abs(rep_s.prefactor - rep_s.prefactor_theory) <= tol
    elapsed = time.time() - start
    assert elapsed < 120.0
    print(
        f"\n[PASS] criterion 3: smooth-law slopes within 0.05, deterministic prefactors "
        f"within 2%, stochastic within 5% (slope {rep_s.slope:.3f}) in {elapsed:.1f}s"
    )


def test_criterion_4_diffusive_demand_law():
    start = time.time()
    lambdas = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]
    demand = BrownianMartingale(0.0, 1.0)
    market = dealers_only_market(lambdas[-1], 0.1, 2, demand)
    rep = scaling_study(market, 1.0, lambdas, n_paths=10_000, seed=17)
    assert abs(rep.slope - 0.5) <= 0.05, rep.slope
    tol = 0.05 * rep.prefactor_theory + 2 * rep.prefactor_stderr
    assert abs(rep.prefactor - rep.prefactor_theory) <= tol
    # rho_d sweep at the smallest impact cost: prefactor ~ rho_d^{-1/2}
    prefs = {0.1: rep.prefactor}
    for rho in (0.05, 0.2):
        (costs,), _ = simulate_costs(
            dealers_only_market(1e-5, rho, 2, demand), 1.0, [1e-5], 10_000, seed=17
        )
        prefs[rho] = float(np.mean(costs)) / math.sqrt(1e-5)
    for rho in (0.05, 0.2):
        expected = prefs[0.1] * math.sqrt(0.1 / rho)
        assert abs(prefs[rho] - expected) <= 0.10 * expected, (rho, prefs)
    elapsed = time.time() - start
    assert elapsed < 600.0
    print(
        f"\n[PASS] criterion 4: diffusive slope {rep.slope:.3f} = 0.50 +- 0.05, prefactor "
        f"{rep.prefactor:.3f} vs {rep.prefactor_theory:.3f} (5%), rho_d^(-1/2) sweep "
        f"within 10% in {elapsed:.1f}s"
    )


def test_criterion_5_price_convergence_proxy():
    rep = scaling_study(
        dealers_only_market(1e-4, 0.1, 1, BrownianMartingale(0.0, 1.0)),
        1.0,
        [1e-1, 1e-2, 1e-3, 1e-4],
        n_paths=2000,
        seed=9,
    )
    assert rep.track_monotone_within_2se
    assert rep.track_reduction_factor >= 10.0
    print(
        f"\n[PASS] criterion 5: tracking proxy falls monotonically, "
        f"{rep.track_reduction_factor:.1f}x >= 10x from lambda 1e-1 to 1e-4"
    )


def test_criterion_6_segmentation_welfare():
    # (a) integration helps the clients across the (M, rho_c/rho_d) grid
    for m in range(1, 21):
        for ratio in (0.5, 1.0, 2.0):
            s = LiquidationScenario(rho_c=0.1 * ratio, rho_d=0.1, n_dealers=m)
            rep = segmentation_welfare(s)
            assert rep.J_c_integrated >= rep.J_c_segmented, (m, ratio)
    # (b) the ~27% welfare gap at M=1, equal risk tolerances, tiny impact cost
    tiny = segmentation_welfare(LiquidationScenario(impact_cost=1e-6))
    assert tiny.ratio == pytest.approx(RATIO_M1_SYMMETRIC, rel=0.01)
    # (c) quadrature agrees with the simulated goal functional
    for lam, steps in ((0.1, 20_000), (1e-6, 200_000)):
        s = LiquidationScenario(impact_cost=lam)
        rep = segmentation_welfare(s)
        h = Horizon.uniform(1.0, steps)
        params = segmented_market(lam, 0.1, 0.1, 1, Constant(-1.0))
        j_sim = goal_functional(solve_equilibrium(params, h), "client0")
        assert j_sim == pytest.approx(rep.J_c_segmented, rel=1e-3)
        params_int = integrated_market(lam, 0.1, 0.1, 1, Constant(-1.0))
        j_sim_int = goal_functional(solve_equilibrium(params_int, h), "client0")
        assert j_sim_int == pytest.approx(rep.J_c_integrated, rel=1e-3)
    print(
        f"\n[PASS] criterion 6: segmentation hurts clients on the full grid; ratio "
        f"{tiny.ratio:.4f} = 7*sqrt(12)/19 within 1%; quadrature = simulation to 1e-3"
    )


def test_criterion_7_figure_reproduction(tmp_path):
    # figure 1 (caption parameters are the defaults)
    fig1 = tmp_path / "fig1"
    assert main(["liquidation", "--out", str(fig1)]) == 0
    rows = (fig1 / "fig1_strategies.csv").read_text().strip().splitlines()[1:]
    first = rows[0].split(",")
    assert abs(float(first[1]) - (-0.5)) < 1e-6
    assert abs(float(first[2]) - (-0.5)) < 1e-6
    prow = (fig1 / "fig1_price.csv").read_text().strip().splitlines()[1].split(",")
    assert abs(float(prow[1]) - (-0.70710576)) < 1e-6
    assert abs(float(prow[2]) - (-0.5)) < 1e-6
    # figure 2: per-step martingale loading is exactly the dealers' share
    s = DiffusiveScenario(seed=0, steps=1000)
    sim = diffusive_simulate(s, 1)
    xi_c, K_c, d_xi = sim.xi_c[0], sim.K_c[0], sim.d_xi[0]
    F = eval_F(scenario_delta(s), sim.grid, s.T)
    dt = np.diff(sim.grid)
    fig2 = tmp_path / "fig2"
    assert main(["diffusive", "--out", str(fig2), "--paths", "500", "--seed", "0"]) == 0
    csv_k = np.loadtxt(fig2 / "fig2_paths.csv", delimiter=",", skiprows=1)
    # the emitted file carries 12 significant digits
    np.testing.assert_allclose(csv_k[:, 2], K_c, rtol=1e-11, atol=1e-12)
    for i in range(s.steps):
        recomputed = (K_c[i] + F[i] * (xi_c[i] - K_c[i]) * dt[i]) + 0.5 * d_xi[i]
        assert K_c[i + 1] == recomputed
    # figure 3
    fig3 = tmp_path / "fig3"
    assert main(["welfare", "--out", str(fig3), "--m-max", "20"]) == 0
    data = np.loadtxt(fig3 / "fig3_welfare.csv", delimiter=",", skiprows=1)
    assert data.shape == (20, 3)
    assert np.all(data[:, 2] >= data[:, 1])
    print(
        "\n[PASS] criterion 7: fig1 endpoints match closed forms to 1e-6; fig2 "
        "martingale loading exactly rho_d/(rho_c+rho_d) per step; fig3 regenerated"
    )


def test_criterion_8_byte_determinism(tmp_path):
    cases = [
        (["liquidation"], ["fig1_strategies.csv", "fig1_price.csv", "run_meta.json"]),
        (
            ["diffusive", "--steps", "300", "--paths", "200", "--seed", "11"],
            ["fig2_paths.csv", "ou_regression.json"],
        ),
        (["welfare", "--m-max", "4"], ["fig3_welfare.csv", "welfare_report.json"]),
        (
            ["scaling-smooth", "--lambda", "1e-2,1e-3"],
            ["scaling_report.json", "scaling_report.csv"],
        ),
        (
            ["scaling-diffusive", "--lambda", "1e-1,1e-2", "--paths", "500", "--seed", "3"],
            ["scaling_report.json", "scaling_report.csv"],
        ),
        (["oracle-check", "--steps-list", "100,200"], ["oracle_gap.json"]),
    ]
    for idx, (args, files) in enumerate(cases):
        a = tmp_path / f"a{idx}"
        b = tmp_path / f"b{idx}"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for name in files:
            assert (a / name).read_bytes() == (b / name).read_bytes(), (args, name)
    # different parallelism level, identical bytes
    base = ["scaling-diffusive", "--lambda", "1e-1,1e-2", "--paths", "500", "--seed", "3"]
    w1 = tmp_path / "w1"
    w4 = tmp_path / "w4"
    assert main(base + ["--out", str(w1), "--workers", "1"]) == 0
    assert main(base + ["--out", str(w4), "--workers", "4"]) == 0
    for name in ("scaling_report.json", "scaling_report.csv"):
        assert (w1 / name).read_bytes() == (w4 / name).read_bytes()
    cfg = tmp_path / "market.ini"
    cfg.write_text(
        "[market]\nT = 1.0\nimpact_cost = 0.1\nsteps = 300\n"
        "[noise]\nprocess = brownian:0,1\n"
        "[agent dealer]\nmass = 1\nrisk_tolerance = 0.1\nopen_cost = 0\n"
    )
    e1, e2 = tmp_path / "e1", tmp_path / "e2"
    assert main(["equilibrium", "--config", str(cfg), "--seed", "5", "--out", str(e1)]) == 0
    assert main(["equilibrium", "--config", str(cfg), "--seed", "5", "--out", str(e2)]) == 0
    assert (e1 / "equilibrium.csv").read_bytes() == (e2 / "equilibrium.csv").read_bytes()
    print("\n[PASS] criterion 8: byte-identical reruns across all subcommands and worker counts")
