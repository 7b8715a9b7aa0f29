"""Discrete Nash oracle: independence, symmetry, and convergence to the closed form."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from dealerlab import oracle
from dealerlab.equilibrium import solve_equilibrium
from dealerlab.kernel import Horizon
from dealerlab.market import (
    AgentSpec,
    MarketParams,
    NO_ACCESS,
    aggregate,
    dealers_only_market,
    segmented_market,
)
from dealerlab.oracle import DiscreteEquilibrium, assemble_and_solve, oracle_gap
from dealerlab.paths import realize
from dealerlab.processes import BrownianMartingale, Constant, Deterministic, SmoothRate


def delta_identity_residual(params: MarketParams, disc: DiscreteEquilibrium) -> float:
    """Residual of u_bar_i = -delta * sum_{j>=i} (U_bar_j - K^N_j - xi_bar_j) dt.

    The identity ties the oracle's aggregate rate to the mesh rate the
    oracle itself never uses; it must hold to O(dt).
    """
    ag = aggregate(params)
    n = disc.times.size
    dt = 1.0 / n
    h = Horizon.uniform(1.0, n)
    xi_bar = sum(a.mass * realize(a.target, h)[0][:-1] for a in params.agents)
    noise = realize(params.noise_demand, h)[0][:-1]
    U_bar = sum(a.mass * disc.U[a.name] for a in params.agents)
    exposure = U_bar - noise - xi_bar
    suffix = np.cumsum(exposure[::-1])[::-1] * dt
    return float(np.max(np.abs(disc.u_bar + ag.delta.delta * suffix)))


def aux_objective(
    impact_cost: float, n_dealers: int, rho_d: float, demand: np.ndarray, u: np.ndarray, dt: float
) -> float:
    """Discretized auxiliary control objective whose optimizer is the aggregate rate.

    integral [ lam u^2 + (M/(rho_d (M+1))) (K^N - U)^2 ] dt, U the
    left-endpoint integral of u.  The quadratic weight is the one whose
    first-order condition reproduces the equilibrium rate.
    """
    U = dt * np.concatenate([[0.0], np.cumsum(u[:-1])])
    gamma = n_dealers / (rho_d * (n_dealers + 1))
    return float(dt * np.sum(impact_cost * u**2 + gamma * (demand - U) ** 2))


def dealerlab_imports(source: str) -> list:
    """(module, imported name, enclosing function) for each dealerlab import in ``source``.

    ``module`` is relative to the package ("" for the package itself); a
    whole-module import has name "*"; the function is None at module level.
    """
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and (
                child.level or (child.module or "").split(".")[0] == "dealerlab"
            ):
                module = (child.module or "").removeprefix("dealerlab").strip(".")
                for alias in child.names:
                    found.append((module, alias.name, func) if module else (alias.name, "*", func))
            elif isinstance(child, ast.Import):
                for alias in child.names:
                    if alias.name.split(".")[0] == "dealerlab":
                        found.append((alias.name.removeprefix("dealerlab").strip("."), "*", func))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else func)

    visit(ast.parse(source), None)
    return found


def dense_reference(params: MarketParams, n: int) -> np.ndarray:
    """``np.linalg.solve`` on the undifferenced stacked first-order conditions.

    The unknowns are K^a, u^a, U^a per agent, then mu, each a block of n;
    the solution comes back as one row per block, in that order.  The
    block rows are the oracle module docstring's three condition families
    plus U's recursion U^a_0 = 0, U^a_{i+1} = U^a_i + dt u^a_i, as one
    dense matrix: a route that shares nothing with the sweep.
    """
    agents = params.agents
    h = Horizon.uniform(1.0, n)
    xi = [realize(a.target, h)[0][:-1] for a in agents]
    noise = realize(params.noise_demand, h)[0][:-1]
    dt, lam = 1.0 / n, params.impact_cost
    eye, lag = np.eye(n), np.eye(n, k=-1)
    suffix = np.triu(np.ones((n, n)))  # (suffix @ v)_i = sum_{j>=i} v_j
    n_blocks = 3 * len(agents) + 1
    mu = n_blocks - 1
    A = np.zeros((n_blocks * n, n_blocks * n))
    b = np.zeros(n_blocks * n)

    def put(row, col, block):
        A[row * n:(row + 1) * n, col * n:(col + 1) * n] += block

    for j, a in enumerate(agents):
        K, u, U = 3 * j, 3 * j + 1, 3 * j + 2
        put(K, mu, a.risk_tolerance * eye)  # dealer-market optimality
        put(K, K, -eye)
        put(K, U, -eye)
        b[K * n:(K + 1) * n] = -xi[j]
        if a.has_open_access:  # open-market optimality
            weight = dt / a.risk_tolerance
            for k, o in enumerate(agents):
                own = 2 * a.mass * lam + a.open_cost
                put(u, 3 * k + 1, (own if k == j else lam * o.mass) * eye)
            put(u, K, weight * suffix)
            put(u, U, weight * suffix)
            b[u * n:(u + 1) * n] = weight * suffix @ xi[j]
        else:
            put(u, u, eye)
        put(U, U, eye - lag)
        put(U, u, -dt * lag)
    for k, o in enumerate(agents):  # clearing
        put(mu, 3 * k, o.mass * eye)
    b[mu * n:] = -noise
    return np.linalg.solve(A, b).reshape(n_blocks, n)


def liquidation_params(M=1):
    return segmented_market(0.1, 0.1, 0.1, M, Constant(-1.0))


def test_oracle_imports_stay_independent_of_the_engine():
    # the oracle is a second route only while it shares no kernel, solver or closed form
    source = Path(oracle.__file__).read_text()
    imports = dealerlab_imports(source)
    assert not [i for i in imports if i[0] in ("", "fbsde", "asymptotics", "scenarios")]
    assert {name for module, name, _ in imports if module == "kernel"} == {"Horizon"}
    assert {func for module, _, func in imports if module == "equilibrium"} == {"oracle_gap"}
    # and the sweep is scalar: no scipy, and no linear algebra from numpy or elsewhere
    nodes = list(ast.walk(ast.parse(source)))
    modules = [a.name for node in nodes if isinstance(node, ast.Import) for a in node.names]
    modules += [node.module or "" for node in nodes if isinstance(node, ast.ImportFrom)]
    assert not [m for m in modules if m.split(".")[0] == "scipy"]
    names = [a.name for node in nodes if isinstance(node, ast.ImportFrom) for a in node.names]
    names += [node.attr for node in nodes if isinstance(node, ast.Attribute)]
    assert not [n for n in modules + names if "linalg" in n.split(".")]


def test_cli_import_loads_no_scipy():
    # every subcommand imports the oracle through the CLI; scipy stays off that path, and
    # so does importlib.metadata (the report version is the package's own __version__)
    src = Path(oracle.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}

    def watched_modules(imports):
        code = (f"import sys{imports}; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy' or m.startswith('importlib.metadata')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return ast.literal_eval(proc.stdout.strip())

    bare = watched_modules("")
    assert not any(m.startswith("scipy") for m in bare)
    assert [m for m in watched_modules(", dealerlab.cli") if m not in bare] == []


def mixed_open_cost_params(n):
    h = Horizon.uniform(1.0, n)
    return MarketParams(
        0.05,
        (
            AgentSpec("a", 0.3, 0.1, 0.0, target=Constant(0.5)),
            AgentSpec("b", 0.3, 0.2, 0.02, target=Deterministic(tuple(np.cos(3.0 * h.grid)))),
            AgentSpec("c", 0.4, 0.15, 0.5, target=Constant(-1.0)),
        ),
        noise_demand=Deterministic(tuple(0.1 * h.grid)),
    )


def no_open_access_params(n):
    h = Horizon.uniform(1.0, n)
    return MarketParams(
        0.1,
        (
            AgentSpec("a", 0.5, 0.1, NO_ACCESS, target=Deterministic(tuple(np.sin(h.grid)))),
            AgentSpec("b", 0.5, 0.3, NO_ACCESS, target=Constant(-1.0)),
        ),
        noise_demand=Deterministic(tuple(0.2 * h.grid)),
    )


@pytest.mark.parametrize(
    "build, n",
    [pytest.param(lambda n: liquidation_params(), 60, id="liquidation_params-60"),
     (mixed_open_cost_params, 50), (no_open_access_params, 40)],
)
def test_sweep_agrees_with_dense_stacked_solve(build, n):
    params = build(n)
    disc = assemble_and_solve(params, 1.0, n)
    blocks = [path[a.name] for a in params.agents for path in (disc.K, disc.u, disc.U)]
    reference = dense_reference(params, n)
    gap = np.max(np.abs(np.array(blocks + [disc.mu]) - reference))
    assert gap <= 1e-12 * np.max(np.abs(reference))
    assert disc.residual_rel <= 1e-12


def test_market_without_open_access_prices_the_demand_directly():
    # nobody trades the open market, so clearing alone sets mu = d
    n = 40
    params = no_open_access_params(n)
    disc = assemble_and_solve(params, 1.0, n)
    h = Horizon.uniform(1.0, n)
    demand = realize(params.noise_demand, h)[0][:-1] + sum(
        a.mass * realize(a.target, h)[0][:-1] for a in params.agents)
    R = sum(a.mass * a.risk_tolerance for a in params.agents)
    np.testing.assert_array_equal(disc.mu, -demand / R)
    for a in params.agents:
        np.testing.assert_array_equal(disc.u[a.name], 0.0)
        np.testing.assert_array_equal(disc.U[a.name], 0.0)


def test_zero_demands_give_zero_solution():
    params = MarketParams(0.1, (AgentSpec("d", 1.0, 0.1, 0.0),))
    disc = assemble_and_solve(params, 1.0, 50)
    np.testing.assert_allclose(disc.mu, 0.0, atol=1e-12)
    np.testing.assert_allclose(disc.K["d"], 0.0, atol=1e-12)
    np.testing.assert_allclose(disc.u["d"], 0.0, atol=1e-12)


def test_linear_system_residual_is_tiny():
    disc = assemble_and_solve(liquidation_params(), 1.0, 200)
    assert disc.residual_rel < 1e-12


def test_symmetric_dealers_get_identical_paths():
    params = MarketParams(
        0.1,
        (
            AgentSpec("d1", 0.25, 0.1, 0.0),
            AgentSpec("d2", 0.25, 0.1, 0.0),
            AgentSpec("c", 0.5, 0.1, NO_ACCESS, target=Constant(-1.0)),
        ),
    )
    disc = assemble_and_solve(params, 1.0, 100)
    np.testing.assert_allclose(disc.K["d1"], disc.K["d2"], atol=1e-11)
    np.testing.assert_allclose(disc.u["d1"], disc.u["d2"], atol=1e-11)


def test_locked_out_agents_never_trade_the_open_market():
    disc = assemble_and_solve(liquidation_params(), 1.0, 100)
    np.testing.assert_array_equal(disc.u["client0"], 0.0)
    assert np.max(np.abs(disc.u["dealer0"])) > 0.1


def test_oracle_rejects_stochastic_demands():
    params = MarketParams(
        0.1, (AgentSpec("d", 1.0, 0.1, 0.0, target=BrownianMartingale(0.0, 1.0)),)
    )
    with pytest.raises(ValueError, match="deterministic"):
        assemble_and_solve(params, 1.0, 10)


def test_oracle_rejects_oversized_system():
    # 7 blocks of 300k unknowns exceed MAX_UNKNOWNS; rejected before anything is built
    params = liquidation_params()
    with pytest.raises(ValueError, match="too large"):
        assemble_and_solve(params, 1.0, 300_000)


def test_clearing_holds_at_solver_tolerance():
    params = liquidation_params()
    disc = assemble_and_solve(params, 1.0, 150)
    total = sum(a.mass * disc.K[a.name] for a in params.agents)
    assert np.max(np.abs(total)) < 1e-11


def test_dealer_market_foc_holds_per_agent():
    params = liquidation_params()
    disc = assemble_and_solve(params, 1.0, 150)
    for a in params.agents:
        xi = -1.0 if a.name.startswith("client") else 0.0
        foc = a.risk_tolerance * disc.mu - disc.K[a.name] - disc.U[a.name] + xi
        assert np.max(np.abs(foc)) < 1e-9


def test_convergence_to_engine_solution():
    params = liquidation_params()
    report = oracle_gap(params, 1.0, [125, 250, 500])
    worst = [max(report.max_gaps[k][i] for k in report.max_gaps) for i in range(3)]
    assert worst[0] / worst[1] == pytest.approx(2.0, rel=0.2)
    assert worst[1] / worst[2] == pytest.approx(2.0, rel=0.2)
    assert report.fitted_order == pytest.approx(1.0, abs=0.3)


def test_single_grid_has_no_order_and_repeated_grids_fail():
    params = liquidation_params()
    report = oracle_gap(params, 1.0, [100])
    assert report.fitted_order is None and len(report.max_gaps["K"]) == 1
    with pytest.raises(ValueError, match="distinct"):
        oracle_gap(params, 1.0, [100, 100])


@pytest.mark.filterwarnings("error::RuntimeWarning")  # refused before any arithmetic overflows
def test_oracle_gap_refuses_a_mesh_rate_that_overflows_before_solving(monkeypatch):
    # eta * eta_bar overflows at lambda = 1e-300: the oracle is never asked to solve
    monkeypatch.setattr(oracle, "assemble_and_solve", lambda *args: pytest.fail("solved"))
    params = segmented_market(1e-300, 0.1, 0.1, 1, Constant(-1.0))
    with pytest.raises(ValueError, match="^delta must be positive and finite, got inf$"):
        oracle_gap(params, 1.0, [100])


def test_one_market_solves_on_two_grids_and_feeds_the_oracle():
    # a market holds no grid: the same params solve on 1,000 and on 4,000 steps, no rebuild
    params = liquidation_params()
    coarse = solve_equilibrium(params, Horizon.uniform(1.0, 1000))
    fine = solve_equilibrium(params, Horizon.uniform(1.0, 4000))
    assert (coarse.U_bar.size, fine.U_bar.size) == (1001, 4001)
    np.testing.assert_allclose(fine.U_bar[::4], coarse.U_bar, rtol=0, atol=1e-5)
    report = oracle_gap(params, 1.0, [1000, 4000])
    assert report.steps == [1000, 4000]
    assert report.fitted_order == pytest.approx(1.0, abs=0.05)


def test_first_order_convergence_at_large_step_counts():
    params = liquidation_params()
    report = oracle_gap(params, 1.0, [4000, 8000, 16_000])
    for gaps in report.max_gaps.values():
        assert gaps[0] / gaps[1] == pytest.approx(2.0, abs=0.1)
        assert gaps[1] / gaps[2] == pytest.approx(2.0, abs=0.1)
    assert report.fitted_order == pytest.approx(1.0, abs=0.05)
    assert assemble_and_solve(params, 1.0, 8000).residual_rel < 1e-12


def test_oracle_with_time_varying_deterministic_target():
    n = 300
    h = Horizon.uniform(1.0, n)
    target = Deterministic(tuple(-np.sin(2.0 * h.grid)))
    params = MarketParams(
        0.08,
        (
            AgentSpec("dealer", 0.5, 0.12, 0.0),
            AgentSpec("client", 0.5, 0.08, NO_ACCESS, target=target),
        ),
        noise_demand=Deterministic(tuple(0.2 * h.grid)),
    )
    disc = assemble_and_solve(params, 1.0, n)
    engine = solve_equilibrium(params, h)
    assert np.max(np.abs(disc.K["client"] - engine.agents["client"].K[:-1])) < 0.02
    assert np.max(np.abs(disc.mu - engine.mu[:-1])) < 0.05


def test_delta_identity():
    # oracle rate satisfies the mesh-rate fixed-point relation to O(dt)
    params = liquidation_params()
    disc = assemble_and_solve(params, 1.0, 500)
    assert delta_identity_residual(params, disc) < 20.0 / 500


def test_aggregate_rate_minimizes_aux_objective():
    # dealers-only market: the aggregate rate optimizes the tracking control
    # problem up to the O(dt) mismatch between the inclusive suffix sums of
    # the discrete optimality conditions and the objective's exact gradient
    M, rho_d, lam = 2, 0.1, 0.05
    improvements = []
    for n in (200, 400):
        h = Horizon.uniform(1.0, n)
        demand = Deterministic(tuple(h.grid**2))
        params = dealers_only_market(lam, rho_d, M, demand)
        disc = assemble_and_solve(params, 1.0, n)
        u_star = disc.u_bar
        k_path = (h.grid**2)[:-1]
        dt = 1.0 / n
        base = aux_objective(lam, M, rho_d, k_path, u_star, dt)
        rng = np.random.default_rng(1)
        best_improvement = 0.0
        for _ in range(5):
            bump = rng.standard_normal(n)
            bump /= np.max(np.abs(bump))
            for eps in (0.05, -0.05):
                # beyond the discretization scale every perturbation loses
                assert aux_objective(lam, M, rho_d, k_path, u_star + eps * bump, dt) > base
            for eps in (1e-3, -1e-3):
                delta = aux_objective(lam, M, rho_d, k_path, u_star + eps * bump, dt) - base
                best_improvement = max(best_improvement, -delta)
        improvements.append(best_improvement)
        assert best_improvement < 10.0 * dt * 1e-3  # gradient is O(dt)
    assert improvements[1] < improvements[0]  # and vanishes under refinement


levels = st.floats(-1.0, 1.0)
demands = st.one_of(levels.map(Constant), levels.map(lambda c: SmoothRate(Constant(c))))
open_costs = st.one_of(st.sampled_from([0.0, NO_ACCESS]),
                       st.floats(-3.0, 1.0).map(lambda x: 10.0**x))
agent_fields = st.tuples(st.floats(0.03, 1.0), st.floats(0.03, 3.0), open_costs, demands)
agent_lists = st.lists(agent_fields, min_size=1, max_size=4).filter(
    lambda fs: any(cost < math.inf for _, _, cost, _ in fs))
# deterministic markets of 1-4 agents, at least one with open-market access
random_markets = st.builds(
    lambda log_lam, fields, noise: MarketParams(10.0**log_lam, tuple(
        AgentSpec(f"a{i}", *f[:3], target=f[3]) for i, f in enumerate(fields)), noise),
    st.floats(-3.0, 0.0), agent_lists, demands)


# no shrink phase: a failure reports its first market at once, where shrinking ran for minutes
@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          phases=[Phase.generate])
@given(random_markets)
def test_engine_meets_the_oracle_on_random_markets(params):
    # several open agents, mixed frictions and access: more than segmented_market builds
    n = max(400, math.ceil(4 * aggregate(params).delta.sqrt_delta))
    report = oracle_gap(params, 1.0, [n, 2 * n, 4 * n])
    inputs = [params.noise_demand, *(a.target for a in params.agents)]
    if any(getattr(p, "rate", p).level for p in inputs):  # a constant, or its smooth rate
        assert 0.8 <= report.fitted_order <= 1.25, report
    else:
        assert report.fitted_order is None
    for steps in report.steps:
        assert assemble_and_solve(params, 1.0, steps).residual_rel <= 1e-10
