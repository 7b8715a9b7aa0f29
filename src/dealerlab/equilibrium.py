"""Assembly of the competitive dealer-market equilibrium.

Given market parameters, the aggregate open-market position is the
forward solution driven by noise demand plus the aggregate target,

    U_bar = solve_forward(K^N + xi_bar),    with the market's mesh rate,

and everything else is algebra on top of it:

    mu        = (U_bar - K^N - xi_bar) / rho_bar          (risk premium)
    S - D     = (1/eta + 1/eta_bar) * u_bar               (price deviation)
    K^a       = xi^a - (eta^a/eta_bar) U_bar + (rho^a/rho_bar)(U_bar - K^N - xi_bar)
    U^a, u^a  = (eta^a/eta_bar) * (U_bar, u_bar)

The fundamental price D is never simulated: every reported quantity is a
deviation from it, and the welfare integrals are written D-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .fbsde import (
    RealizedDriver,
    driver_is_deterministic,
    heun_path,
    kernel_expectation_path,
    realize_driver,
    solve_forward,
)
from .kernel import Horizon, cumulative_trapezoid, eval_F, trapezoid
from .market import Aggregates, MarketParams, aggregate
from .paths import RealizedPath, realize
from .processes import DemandProcess, combine


class ConsistencyError(RuntimeError):
    """Internal identities of a computed equilibrium violated beyond tolerance."""


@dataclass
class AgentPaths:
    """One agent's dealer-market position, open-market position and rate, target."""

    K: np.ndarray
    U: np.ndarray
    u: np.ndarray
    target: np.ndarray


@dataclass
class EquilibriumSolution:
    horizon: Horizon
    aggregates: Aggregates
    U_bar: np.ndarray
    u_bar: np.ndarray
    mu: np.ndarray
    price_dev: np.ndarray
    agents: Dict[str, AgentPaths]
    noise: np.ndarray
    xi_bar: np.ndarray
    realized: RealizedDriver


def solve_equilibrium(
    params: MarketParams,
    seed: int | None = None,
    path_index: int = 0,
    check_tol: float | None = None,
) -> EquilibriumSolution:
    """Solve one equilibrium path (deterministic scenarios need no seed).

    The computed solution is self-checked: clearing, the per-agent
    first-order condition, the elasticity shares, and the price identity
    must hold at every node, else a ConsistencyError carries the residuals.
    """
    ag = aggregate(params)
    horizon = params.horizon
    driver = combine([(1.0, params.noise_demand), *ag.xi_bar])
    realized = realize_driver(driver, horizon, seed=seed, path_index=path_index)
    # the driver drops only ZERO (masses are positive, the noise weight is 1): no stream
    for p in (params.noise_demand, *(a.target for a in params.agents)):
        if p not in realized.paths:
            realized.paths[p] = realize(p, horizon)

    fb = solve_forward(realized, ag.delta, horizon)

    def path_of(p: DemandProcess) -> np.ndarray:
        return realized.paths[p].values

    noise = path_of(params.noise_demand)
    xi_bar = np.zeros(horizon.grid.size)
    for w, p in ag.xi_bar:
        xi_bar = xi_bar + w * path_of(p)

    exposure = fb.U - noise - xi_bar
    mu = exposure / ag.rho_bar
    price_dev = ag.impact_weight * fb.u

    agents: Dict[str, AgentPaths] = {}
    for spec, eta_a in zip(params.agents, ag.eta_a):
        share = eta_a / ag.eta_bar
        target = path_of(spec.target)
        K = target - share * fb.U + (spec.risk_tolerance / ag.rho_bar) * exposure
        agents[spec.name] = AgentPaths(K=K, U=share * fb.U, u=share * fb.u, target=target)

    sol = EquilibriumSolution(
        horizon=horizon,
        aggregates=ag,
        U_bar=fb.U,
        u_bar=fb.u,
        mu=mu,
        price_dev=price_dev,
        agents=agents,
        noise=noise,
        xi_bar=xi_bar,
        realized=realized,
    )
    if check_tol is None:
        check_tol = 1e-10 if driver_is_deterministic(driver) else 1e-8
    report = consistency_report(sol, params)
    if not all(r <= check_tol for r in report.values()):  # a NaN residual fails too
        raise ConsistencyError(f"equilibrium identities violated: {report}")
    return sol


def consistency_report(sol: EquilibriumSolution, params: MarketParams) -> Dict[str, float]:
    """Max-node residuals of the four internal identities.

    clearing:  K^N + sum_a m(a) K^a = 0
    foc:       mu = (U^a + K^a - xi^a)/rho^a for every agent
    share:     U^a = (eta^a/eta_bar) U_bar;  sum_a m(a) u^a = u_bar
    price:     price_dev = (1/eta + 1/eta_bar) u_bar
    """
    ag = sol.aggregates
    total_K = sol.noise.copy()
    total_u = np.zeros_like(sol.u_bar)
    foc, share = [], []
    for spec, eta_a in zip(params.agents, ag.eta_a):
        a = sol.agents[spec.name]
        total_K = total_K + spec.mass * a.K
        total_u = total_u + spec.mass * a.u
        foc.append(np.max(np.abs((a.U + a.K - a.target) / spec.risk_tolerance - sol.mu)))
        share.append(np.max(np.abs(a.U - (eta_a / ag.eta_bar) * sol.U_bar)))
    share.append(np.max(np.abs(total_u - sol.u_bar)))
    return {  # np.max, unlike max, carries a NaN through
        "clearing": float(np.max(np.abs(total_K))),
        "foc": float(np.max(foc)),
        "share": float(np.max(share)),
        "price": float(np.max(np.abs(sol.price_dev - ag.impact_weight * sol.u_bar))),
    }


# ----------------------------------------------------------------------
# the conditional-integral price route, demoted to a verification check
# ----------------------------------------------------------------------

def _conditional_path(p: DemandProcess, path: RealizedPath, grid: np.ndarray, i: int):
    """The realized path up to node i and E_{t_i}[X_s] from there on.

    A deterministic path is its own conditional mean.
    """
    if p.deterministic:
        return path
    mean = p.conditional_mean(path.state(i), grid[i:], grid[i])
    return RealizedPath(*(np.concatenate([v[:i], m]) for v, m in zip(path.state(), mean)))


def check_price_representations(
    sol: EquilibriumSolution, params: MarketParams, anchors: int = 64
) -> float:
    """Max gap between -E_t[integral_t^T mu ds] and the concise price formula.

    Deterministic drivers integrate the computed mu path directly (an
    independent numerical route, checked at every node).  Stochastic
    drivers propagate closed-form conditional means from a set of anchor
    nodes; G is affine in each term's state, so E_t[G(s)] is G on the
    conditional-mean paths.  Smooth-rate drivers with stochastic rates
    have no conditional mean here and are outside this check.
    """
    grid = sol.horizon.grid
    ag = sol.aggregates
    if driver_is_deterministic(sol.realized.terms):
        running = cumulative_trapezoid(sol.mu, grid)
        return float(np.max(np.abs(running - running[..., -1:] - sol.price_dev)))

    F = eval_F(ag.delta, grid, sol.horizon.T)
    terms = sol.realized.terms
    worst = 0.0
    for i in np.unique(np.linspace(0, grid.size - 2, anchors).astype(int)):
        means = {p: _conditional_path(p, sol.realized.paths[p], grid, i) for _, p in terms}
        mean_driver = RealizedDriver(terms, means)
        eg = kernel_expectation_path(mean_driver, ag.delta, sol.horizon)[i:]
        mean_x = mean_driver.values()[i:]
        # propagate m_U' = E_t[G(s)] - F(s) m_U from the anchor
        m_u, _ = heun_path(eg, F[i:], np.diff(grid[i:]), U0=sol.U_bar[i])
        integral = trapezoid((m_u - mean_x) / ag.rho_bar, grid[i:])
        worst = max(worst, abs(-integral - sol.price_dev[i]))
    return worst


# ----------------------------------------------------------------------
# welfare
# ----------------------------------------------------------------------

def goal_functional(
    sol: EquilibriumSolution,
    params: MarketParams,
    agent: str,
    K: np.ndarray | None = None,
    u: np.ndarray | None = None,
) -> float | np.ndarray:
    """Agent welfare: trading gains minus open-market costs minus inventory penalty.

    J^a = int K^a mu dt
          - int [ lam * ubar^{-a} u^a + (lam m(a) + open_cost/2) (u^a)^2 ] dt
          - int (xi^a - K^a - U^a)^2 / (2 rho^a) dt

    mu and the other agents' rates are held fixed, so evaluating a
    perturbed (K, u) measures this agent's deviation payoff.  Per-path
    values are returned for multi-path solutions.
    """
    spec = next(a for a in params.agents if a.name == agent)
    paths = sol.agents[agent]
    grid = sol.horizon.grid
    K = paths.K if K is None else K
    if u is None:
        u_a, U_a = paths.u, paths.U
    else:
        u_a, U_a = u, cumulative_trapezoid(u, grid)
    gains = trapezoid(K * sol.mu, grid)
    if spec.has_open_access:
        u_other = sol.u_bar - spec.mass * paths.u
        lam = params.impact_cost
        cost_rate = lam * u_other * u_a + (lam * spec.mass + 0.5 * spec.open_cost) * u_a**2
        open_cost = trapezoid(cost_rate, grid)
    else:
        open_cost = 0.0  # no access: u^a = 0 and the inf coefficient never meets a trade
    tracking = trapezoid((paths.target - K - U_a) ** 2, grid) / (2.0 * spec.risk_tolerance)
    J = gains - open_cost - tracking
    return float(J) if np.ndim(J) == 0 else J
