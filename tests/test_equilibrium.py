"""Equilibrium identities, price representations, and welfare optimality."""

import math

import numpy as np
import pytest

from dealerlab.equilibrium import (
    ConsistencyError,
    consistency_report,
    goal_functional,
    solve_equilibrium,
)
from dealerlab.kernel import Horizon
from dealerlab.market import (
    AgentSpec,
    MarketParams,
    NO_ACCESS,
    aggregate,
    segmented_market,
)
from dealerlab.processes import (
    BrownianMartingale,
    Constant,
    Deterministic,
    OrnsteinUhlenbeck,
    SmoothRate,
)

from crosschecks import check_price_representations
from memory import traced_peak

H1000 = Horizon.uniform(1.0, 1000)


def liquidation_params(M=1, lam=0.1, rho_c=0.1, rho_d=0.1, xi_c=-1.0):
    return segmented_market(lam, rho_c, rho_d, M, Constant(xi_c))


def test_no_trading_motive_gives_zero_everything():
    params = MarketParams(0.1, (AgentSpec("d", 1.0, 0.1, 0.0),))
    sol = solve_equilibrium(params, H1000)
    np.testing.assert_array_equal(sol.U_bar, 0.0)
    np.testing.assert_array_equal(sol.at().mu, 0.0)
    np.testing.assert_array_equal(sol.at().price_dev, 0.0)
    np.testing.assert_array_equal(sol.at().agents["d"].K, 0.0)


def test_liquidation_initial_bulk_trade():
    # symmetric risk tolerances: the client sells half at t=0
    sol = solve_equilibrium(liquidation_params(M=1), H1000)
    assert sol.at().agents["client0"].K[0] == pytest.approx(-0.5, abs=1e-12)


def test_liquidation_initial_price_deviation():
    # xi_c * tanh(sqrt(delta) T)/((rho_c+rho_d) sqrt(delta)); M=1 -> delta=50
    sol = solve_equilibrium(liquidation_params(M=1), Horizon.uniform(1.0, 10_000))
    assert sol.at().price_dev[0] == pytest.approx(-0.7071057610384575, abs=1e-6)


def test_identities_hold_on_mixed_market():
    grid = H1000.grid
    params = MarketParams(
        0.07,
        (
            AgentSpec("dealer", 0.4, 0.15, 0.0),
            AgentSpec("slow", 0.3, 0.08, 0.5, target=Deterministic(tuple(np.sin(2 * grid)))),
            AgentSpec("client", 0.3, 0.2, NO_ACCESS, target=Constant(-2.0)),
        ),
        noise_demand=Deterministic(tuple(0.3 * grid**2)),
    )
    sol = solve_equilibrium(params, H1000)
    report = consistency_report(sol)
    assert max(report.values()) < 1e-12


def test_consistency_error_on_tampered_solution():
    # the check evaluates K from the stored paths: a target shifted at one node breaks clearing
    params = liquidation_params()
    sol = solve_equilibrium(params, H1000)
    sol.targets["client0"][500] += 0.1
    report = consistency_report(sol)
    assert report["clearing"] > 1e-3


def test_nan_residuals_fail_the_identity_check():
    # the first agent's NaN is not hidden by the later agents' finite residuals
    params = liquidation_params()
    sol = solve_equilibrium(params, H1000)
    sol.U_bar[5] = math.nan
    report = consistency_report(sol)
    assert math.isnan(report["foc"]) and math.isnan(report["share"])
    # a vanishing mass overflows the dealer's elasticity: its share eta_a/eta_bar is inf/inf
    tiny = MarketParams(
        0.1,
        (AgentSpec("dealer", 1e-320, 0.1), AgentSpec("client", 0.5, 0.1, NO_ACCESS, Constant(-1.0))),
    )
    with pytest.raises(ConsistencyError, match="'foc': nan, 'share': nan"):
        solve_equilibrium(tiny, Horizon.uniform(1.0, 50))


@pytest.mark.parametrize("node", [0, 52, 100])
def test_identity_check_in_node_blocks(monkeypatch, node):
    # a residual or a NaN at any node reaches the report, whatever the block it falls in
    from dealerlab import equilibrium

    params = liquidation_params(M=2)
    sol = solve_equilibrium(params, Horizon.uniform(1.0, 100))
    assert sol.residuals == consistency_report(sol)
    sol.targets["client0"][node] += 0.1
    whole = consistency_report(sol)  # 101 nodes: one block
    assert whole["clearing"] > 1e-3
    monkeypatch.setattr(equilibrium, "_NODE_BLOCK", 7)  # 14 blocks of 7 nodes and one of 3
    assert consistency_report(sol) == whole
    sol.U_bar[node] = math.nan
    report = consistency_report(sol)
    assert math.isnan(report["foc"]) and math.isnan(report["share"])


def test_writing_into_evaluated_paths_changes_nothing():
    params = liquidation_params(M=2)
    sol = solve_equilibrium(params, Horizon.uniform(1.0, 100))
    mu, K = sol.at().mu.copy(), sol.at().agents["client0"].K.copy()
    sol.at().mu[:] = 0.0
    sol.at().agents["client0"].K[:] = 0.0
    np.testing.assert_array_equal(sol.at().mu, mu)
    np.testing.assert_array_equal(sol.at().agents["client0"].K, K)
    assert consistency_report(sol) == sol.residuals


def test_solution_at_a_node_slice_is_the_whole_grid_sliced():
    params = liquidation_params(M=2)
    sol = solve_equilibrium(params, Horizon.uniform(1.0, 100))
    whole, part = sol.at(), sol.at(slice(30, 61))
    np.testing.assert_array_equal(part.mu, whole.mu[30:61])
    np.testing.assert_array_equal(part.price_dev, whole.price_dev[30:61])
    for name, paths in whole.agents.items():
        for q in ("K", "U", "u", "target"):
            np.testing.assert_array_equal(getattr(part.agents[name], q), getattr(paths, q)[30:61])


def test_solve_holds_little_beyond_its_solution():
    # the segmented market of the benchmark's 200k-step equilibrium op, at 50,000 steps;
    # the returned solution holds 5 columns of nodes x 8 bytes, and the solve peaks near 7
    n = 50_000
    params = MarketParams(
        1e-6,
        (AgentSpec("dealer", 0.5, 0.1, 0.0),
         AgentSpec("client", 0.5, 0.1, NO_ACCESS, target=Constant(-1.0))),
    )
    # the grid is built inside the traced call, so its nodes count toward the peak
    _, peak = traced_peak(lambda: solve_equilibrium(params, Horizon.uniform(1.0, n)))
    assert peak < 20 * (n + 1) * 8


def test_delta_price_weight_identity():
    # delta * (1/eta + 1/eta_bar) = 1/rho_bar, pure arithmetic
    for M in (1, 2, 7):
        params = liquidation_params(M=M, rho_c=0.13, rho_d=0.07)
        ag = aggregate(params)
        assert ag.delta.delta * ag.impact_weight == pytest.approx(
            1.0 / ag.rho_bar, rel=1e-14
        )


def test_price_representation_deterministic():
    sol = solve_equilibrium(liquidation_params(), Horizon.uniform(1.0, 10_000))
    gap = check_price_representations(sol)
    assert gap <= 1e-4


def test_price_representation_zero_market():
    params = MarketParams(0.1, (AgentSpec("d", 1.0, 0.1, 0.0),))
    sol = solve_equilibrium(params, H1000)
    assert check_price_representations(sol) == 0.0


def test_price_representation_brownian_target():
    params = segmented_market(0.1, 0.1, 0.1, 1, BrownianMartingale(0.0, 1.0))
    sol = solve_equilibrium(params, Horizon.uniform(1.0, 2000), seed=3)
    gap = check_price_representations(sol, anchors=32)
    assert gap < 1e-5


def test_stochastic_identities_hold_pathwise():
    params = segmented_market(0.1, 0.12, 0.08, 2, BrownianMartingale(0.0, 1.0))
    for k in range(3):
        sol = solve_equilibrium(params, Horizon.uniform(1.0, 500), seed=11, path_index=k)
        assert max(consistency_report(sol).values()) < 1e-12


def test_price_representation_ou_target():
    from dealerlab.processes import OrnsteinUhlenbeck

    params = segmented_market(
        0.1, 0.1, 0.1, 1, OrnsteinUhlenbeck(x0=-1.0, kappa=2.0, theta=-0.5, sigma=0.4)
    )
    sol = solve_equilibrium(params, Horizon.uniform(1.0, 2000), seed=8)
    gap = check_price_representations(sol, anchors=24)
    assert gap < 1e-4


def test_price_representation_rejects_stochastic_smooth_rate():
    params = segmented_market(0.1, 0.1, 0.1, 1, SmoothRate(BrownianMartingale(0.0, 1.0)))
    sol = solve_equilibrium(params, Horizon.uniform(1.0, 300), seed=2)
    with pytest.raises(ValueError):
        check_price_representations(sol)


@pytest.mark.parametrize(
    "target",
    [Deterministic(tuple(-np.cos(np.linspace(0.0, 1.0, 2001)))), SmoothRate(Constant(1.0))],
    ids=["deterministic", "smooth-constant"],
)
def test_price_representation_deterministic_term_in_stochastic_driver(target):
    # a deterministic term's conditional mean is its own path, its E_t[G(s)] its own G
    params = segmented_market(
        0.1, 0.1, 0.1, 1, target, noise_demand=BrownianMartingale(0.0, 0.5)
    )
    sol = solve_equilibrium(params, Horizon.uniform(1.0, 2000), seed=1)
    assert check_price_representations(sol, anchors=24) < 1e-5


def test_mixed_noise_and_target_driver():
    # Brownian noise demand alongside a constant client target
    params = segmented_market(
        0.1, 0.1, 0.15, 2, Constant(-1.0), noise_demand=BrownianMartingale(0.0, 0.5)
    )
    sol = solve_equilibrium(params, Horizon.uniform(1.0, 800), seed=4)
    assert max(consistency_report(sol).values()) < 1e-12
    assert np.max(np.abs(sol.noise)) > 0.01
    assert sol.xi_bar[0] == pytest.approx(-0.5, rel=1e-14)


def test_mixed_stochastic_kinds_solve():
    # OU noise, a Brownian dealer target and an OU client target: three terms, three streams
    params = MarketParams(
        0.1,
        (
            AgentSpec("dealer", 0.5, 0.1, 0.0, target=BrownianMartingale(0.0, 0.5)),
            AgentSpec(
                "client", 0.5, 0.1, NO_ACCESS, target=OrnsteinUhlenbeck(-1.0, 2.0, -0.5, 0.4)
            ),
        ),
        OrnsteinUhlenbeck(0.0, 1.0, 0.0, 0.5),
    )
    sol = solve_equilibrium(params, Horizon.uniform(1.0, 2000), seed=3)
    assert len(sol.aggregates.xi_bar) == 2
    assert check_price_representations(sol, anchors=24) < 1e-5


def test_goal_functional_zero_solution():
    params = MarketParams(0.1, (AgentSpec("d", 1.0, 0.1, 0.0),))
    sol = solve_equilibrium(params, H1000)
    assert goal_functional(sol, "d") == 0.0


def test_goal_functional_names_an_unknown_agent():
    sol = solve_equilibrium(liquidation_params(), H1000)
    with pytest.raises(ValueError, match="no agent named 'nobody'"):
        goal_functional(sol, "nobody")


def test_goal_functional_matches_direct_integral_for_client():
    # locked-out client: J = int [(U_bar - xi_bar) K / rho_bar - (xi - K)^2/(2 rho_c)] dt
    params = liquidation_params(M=1)
    sol = solve_equilibrium(params, Horizon.uniform(1.0, 4000))
    c = sol.at().agents["client0"]
    grid = sol.horizon.grid
    integrand = (sol.U_bar - sol.xi_bar) / aggregate(params).rho_bar * c.K - (
        c.target - c.K
    ) ** 2 / (2 * 0.1)
    direct = np.sum(0.5 * (integrand[:-1] + integrand[1:]) * np.diff(grid))
    assert goal_functional(sol, "client0") == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("agent", ["dealer0", "client0"])
def test_perturbations_decrease_welfare(agent):
    params = liquidation_params(M=1)
    sol = solve_equilibrium(params, Horizon.uniform(1.0, 2000))
    grid = sol.horizon.grid
    base = goal_functional(sol, agent)
    bumps = [
        np.sin(math.pi * k * grid / grid[-1]) + (0.2 if k == 5 else 0.0) for k in (1, 2, 3, 4, 5)
    ]
    eps = 1e-2
    for phi in bumps:
        for sgn in (+1.0, -1.0):
            K_pert = sol.at().agents[agent].K + sgn * eps * phi
            assert goal_functional(sol, agent, K=K_pert) < base
            if agent == "dealer0":
                u_pert = sol.at().agents[agent].u + sgn * eps * phi
                assert goal_functional(sol, agent, u=u_pert) < base


def test_multi_path_welfare_shapes():
    params = segmented_market(0.1, 0.1, 0.1, 1, SmoothRate(Constant(1.0)))
    sol = solve_equilibrium(params, Horizon.uniform(1.0, 200))
    val = goal_functional(sol, "client0")
    assert isinstance(val, float)
