"""Equilibrium identities, price representations, and welfare optimality."""

import math

import numpy as np
import pytest

from dealerlab.equilibrium import (
    ConsistencyError,
    check_price_representations,
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

H1000 = Horizon.uniform(1.0, 1000)


def liquidation_params(M=1, steps=1000, lam=0.1, rho_c=0.1, rho_d=0.1, xi_c=-1.0):
    return segmented_market(
        Horizon.uniform(1.0, steps), lam, rho_c, rho_d, M, Constant(xi_c)
    )


def test_no_trading_motive_gives_zero_everything():
    params = MarketParams(H1000, 0.1, (AgentSpec("d", 1.0, 0.1, 0.0),))
    sol = solve_equilibrium(params)
    np.testing.assert_array_equal(sol.U_bar, 0.0)
    np.testing.assert_array_equal(sol.mu, 0.0)
    np.testing.assert_array_equal(sol.price_dev, 0.0)
    np.testing.assert_array_equal(sol.agents["d"].K, 0.0)


def test_liquidation_initial_bulk_trade():
    # symmetric risk tolerances: the client sells half at t=0
    sol = solve_equilibrium(liquidation_params(M=1))
    assert sol.agents["client0"].K[0] == pytest.approx(-0.5, abs=1e-12)


def test_liquidation_initial_price_deviation():
    # xi_c * tanh(sqrt(delta) T)/((rho_c+rho_d) sqrt(delta)); M=1 -> delta=50
    sol = solve_equilibrium(liquidation_params(M=1, steps=10_000))
    assert sol.price_dev[0] == pytest.approx(-0.7071057610384575, abs=1e-6)


def test_identities_hold_on_mixed_market():
    grid = H1000.grid
    params = MarketParams(
        H1000,
        0.07,
        (
            AgentSpec("dealer", 0.4, 0.15, 0.0),
            AgentSpec("slow", 0.3, 0.08, 0.5, target=Deterministic(tuple(np.sin(2 * grid)))),
            AgentSpec("client", 0.3, 0.2, NO_ACCESS, target=Constant(-2.0)),
        ),
        noise_demand=Deterministic(tuple(0.3 * grid**2)),
    )
    sol = solve_equilibrium(params)
    report = consistency_report(sol, params)
    assert max(report.values()) < 1e-12


def test_consistency_error_on_tampered_solution():
    params = liquidation_params()
    sol = solve_equilibrium(params)
    sol.agents["client0"].K[:] += 0.1
    report = consistency_report(sol, params)
    assert report["clearing"] > 1e-3
    with pytest.raises(ConsistencyError):
        solve_equilibrium(params, check_tol=-1.0)


def test_nan_residuals_fail_the_identity_check():
    # the first agent's NaN is not hidden by the later agents' finite residuals
    params = liquidation_params()
    sol = solve_equilibrium(params)
    sol.agents["dealer0"].U[5] = math.nan
    report = consistency_report(sol, params)
    assert math.isnan(report["foc"]) and math.isnan(report["share"])
    # a vanishing mass overflows the dealer's elasticity: its share eta_a/eta_bar is inf/inf
    tiny = MarketParams(
        Horizon.uniform(1.0, 50),
        0.1,
        (AgentSpec("dealer", 1e-320, 0.1), AgentSpec("client", 0.5, 0.1, NO_ACCESS, Constant(-1.0))),
    )
    with pytest.raises(ConsistencyError, match="'foc': nan, 'share': nan"):
        solve_equilibrium(tiny)


def test_delta_price_weight_identity():
    # delta * (1/eta + 1/eta_bar) = 1/rho_bar, pure arithmetic
    for M in (1, 2, 7):
        params = liquidation_params(M=M, rho_c=0.13, rho_d=0.07)
        ag = aggregate(params)
        assert ag.delta.delta * ag.impact_weight == pytest.approx(
            1.0 / ag.rho_bar, rel=1e-14
        )


def test_price_representation_deterministic():
    sol = solve_equilibrium(liquidation_params(steps=10_000))
    params = liquidation_params(steps=10_000)
    gap = check_price_representations(sol, params)
    assert gap <= 1e-4


def test_price_representation_zero_market():
    params = MarketParams(H1000, 0.1, (AgentSpec("d", 1.0, 0.1, 0.0),))
    sol = solve_equilibrium(params)
    assert check_price_representations(sol, params) == 0.0


def test_price_representation_brownian_target():
    params = segmented_market(
        Horizon.uniform(1.0, 2000), 0.1, 0.1, 0.1, 1, BrownianMartingale(0.0, 1.0)
    )
    sol = solve_equilibrium(params, seed=3)
    gap = check_price_representations(sol, params, anchors=32)
    assert gap < 1e-5


def test_stochastic_identities_hold_pathwise():
    params = segmented_market(
        Horizon.uniform(1.0, 500), 0.1, 0.12, 0.08, 2, BrownianMartingale(0.0, 1.0)
    )
    for k in range(3):
        sol = solve_equilibrium(params, seed=11, path_index=k)
        assert max(consistency_report(sol, params).values()) < 1e-12


def test_price_representation_ou_target():
    from dealerlab.processes import OrnsteinUhlenbeck

    params = segmented_market(
        Horizon.uniform(1.0, 2000), 0.1, 0.1, 0.1, 1,
        OrnsteinUhlenbeck(x0=-1.0, kappa=2.0, theta=-0.5, sigma=0.4),
    )
    sol = solve_equilibrium(params, seed=8)
    gap = check_price_representations(sol, params, anchors=24)
    assert gap < 1e-4


def test_price_representation_rejects_stochastic_smooth_rate():
    params = segmented_market(
        Horizon.uniform(1.0, 300), 0.1, 0.1, 0.1, 1,
        SmoothRate(BrownianMartingale(0.0, 1.0)),
    )
    sol = solve_equilibrium(params, seed=2)
    with pytest.raises(ValueError):
        check_price_representations(sol, params)


@pytest.mark.parametrize(
    "target",
    [Deterministic(tuple(-np.cos(np.linspace(0.0, 1.0, 2001)))), SmoothRate(Constant(1.0))],
    ids=["deterministic", "smooth-constant"],
)
def test_price_representation_deterministic_term_in_stochastic_driver(target):
    # a deterministic term's conditional mean is its own path, its E_t[G(s)] its own G
    params = segmented_market(
        Horizon.uniform(1.0, 2000), 0.1, 0.1, 0.1, 1, target,
        noise_demand=BrownianMartingale(0.0, 0.5),
    )
    sol = solve_equilibrium(params, seed=1)
    assert check_price_representations(sol, params, anchors=24) < 1e-5


def test_mixed_noise_and_target_driver():
    # Brownian noise demand alongside a constant client target
    params = segmented_market(
        Horizon.uniform(1.0, 800), 0.1, 0.1, 0.15, 2, Constant(-1.0),
        noise_demand=BrownianMartingale(0.0, 0.5),
    )
    sol = solve_equilibrium(params, seed=4)
    assert max(consistency_report(sol, params).values()) < 1e-12
    assert np.max(np.abs(sol.noise)) > 0.01
    assert sol.xi_bar[0] == pytest.approx(-0.5, rel=1e-14)


def test_mixed_stochastic_kinds_solve():
    # OU noise, a Brownian dealer target and an OU client target: three terms, three streams
    params = MarketParams(
        Horizon.uniform(1.0, 2000),
        0.1,
        (
            AgentSpec("dealer", 0.5, 0.1, 0.0, target=BrownianMartingale(0.0, 0.5)),
            AgentSpec(
                "client", 0.5, 0.1, NO_ACCESS, target=OrnsteinUhlenbeck(-1.0, 2.0, -0.5, 0.4)
            ),
        ),
        OrnsteinUhlenbeck(0.0, 1.0, 0.0, 0.5),
    )
    sol = solve_equilibrium(params, seed=3, check_tol=1e-8)
    assert len(sol.aggregates.xi_bar) == 2
    assert check_price_representations(sol, params, anchors=24) < 1e-5


def test_goal_functional_zero_solution():
    params = MarketParams(H1000, 0.1, (AgentSpec("d", 1.0, 0.1, 0.0),))
    sol = solve_equilibrium(params)
    assert goal_functional(sol, params, "d") == 0.0


def test_goal_functional_matches_direct_integral_for_client():
    # locked-out client: J = int [(U_bar - xi_bar) K / rho_bar - (xi - K)^2/(2 rho_c)] dt
    params = liquidation_params(M=1, steps=4000)
    sol = solve_equilibrium(params)
    c = sol.agents["client0"]
    grid = params.horizon.grid
    integrand = (sol.U_bar - sol.xi_bar) / aggregate(params).rho_bar * c.K - (
        c.target - c.K
    ) ** 2 / (2 * 0.1)
    direct = np.sum(0.5 * (integrand[:-1] + integrand[1:]) * np.diff(grid))
    assert goal_functional(sol, params, "client0") == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("agent", ["dealer0", "client0"])
def test_perturbations_decrease_welfare(agent):
    params = liquidation_params(M=1, steps=2000)
    sol = solve_equilibrium(params)
    grid = params.horizon.grid
    base = goal_functional(sol, params, agent)
    bumps = [
        np.sin(math.pi * k * grid / grid[-1]) + (0.2 if k == 5 else 0.0) for k in (1, 2, 3, 4, 5)
    ]
    eps = 1e-2
    for phi in bumps:
        for sgn in (+1.0, -1.0):
            K_pert = sol.agents[agent].K + sgn * eps * phi
            assert goal_functional(sol, params, agent, K=K_pert) < base
            if agent == "dealer0":
                u_pert = sol.agents[agent].u + sgn * eps * phi
                assert goal_functional(sol, params, agent, u=u_pert) < base


def test_multi_path_welfare_shapes():
    params = segmented_market(
        Horizon.uniform(1.0, 200), 0.1, 0.1, 0.1, 1, SmoothRate(Constant(1.0))
    )
    sol = solve_equilibrium(params)
    val = goal_functional(sol, params, "client0")
    assert isinstance(val, float)
