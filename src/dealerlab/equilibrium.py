"""Assembly of the competitive dealer-market equilibrium.

Given market parameters, the aggregate open-market position is the
forward solution driven by noise demand plus the aggregate target,

    U_bar = solve_forward(K^N + xi_bar),    with the market's mesh rate,

and everything else is algebra on top of it:

    mu        = (U_bar - K^N - xi_bar) / rho_bar          (risk premium)
    S - D     = (1/eta + 1/eta_bar) * u_bar               (price deviation)
    K^a       = xi^a - (eta^a/eta_bar) U_bar + (rho^a/rho_bar)(U_bar - K^N - xi_bar)
    U^a, u^a  = (eta^a/eta_bar) * (U_bar, u_bar)

So a solution keeps its market and what the solve produces, U_bar and
u_bar, with xi_bar and the realized paths that drove it, and evaluates the
algebra where it is read: the identity check and the CSV writer read its
node blocks (``blocks``), so no full-length column of the algebra is ever
held.
The fundamental price D is never simulated: every reported quantity is a
deviation from it, and the welfare integrals are written D-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Tuple

import numpy as np

from .fbsde import RealizedDriver, driver_is_deterministic, realize_driver
from .fbsde import require_stable_step, solve_forward
from .fbsde import kernel_expectation_path  # noqa: F401  kept: the benchmark tracer wraps it
from .kernel import Horizon, cumulative_trapezoid, trapezoid
from .market import Aggregates, MarketParams, aggregate
from .paths import realize
from .processes import combine


_NODE_BLOCK = 4096  # grid nodes evaluated at once by ``EquilibriumSolution.blocks``


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
class NodeValues:
    """The risk premium, the price deviation and each agent's paths at some grid nodes."""

    mu: np.ndarray
    price_dev: np.ndarray
    agents: Dict[str, AgentPaths]


@dataclass
class EquilibriumSolution:
    """One solved equilibrium: its market, the forward solve, the paths that drove it.

    ``at`` evaluates everything else at a slice of grid nodes (the whole
    grid by default), ``blocks`` block by block.
    """

    horizon: Horizon
    params: MarketParams
    aggregates: Aggregates
    U_bar: np.ndarray
    u_bar: np.ndarray
    noise: np.ndarray
    xi_bar: np.ndarray
    targets: Dict[str, np.ndarray]  # each agent's realized target; agents may share one
    realized: RealizedDriver
    residuals: Dict[str, float] = field(default_factory=dict)  # set by solve_equilibrium

    def at(self, nodes: slice = slice(None)) -> NodeValues:
        """mu, price_dev and each agent's K, U and u at the grid nodes ``nodes``.

        Each is computed afresh from the stored paths, so writing into what
        this returns changes nothing in the solution; each ``target`` is a
        view of the stored target.
        """
        ag = self.aggregates
        nodes = np.s_[..., nodes]
        U_bar, u_bar = self.U_bar[nodes], self.u_bar[nodes]
        exposure = U_bar - self.noise[nodes] - self.xi_bar[nodes]
        agents = {}
        for spec, eta_a in zip(self.params.agents, ag.eta_a):
            share = eta_a / ag.eta_bar
            target = self.targets[spec.name][nodes]
            K = target - share * U_bar + (spec.risk_tolerance / ag.rho_bar) * exposure
            agents[spec.name] = AgentPaths(K=K, U=share * U_bar, u=share * u_bar, target=target)
        return NodeValues(
            mu=exposure / ag.rho_bar, price_dev=ag.impact_weight * u_bar, agents=agents
        )

    def blocks(self) -> Iterator[Tuple[slice, NodeValues]]:
        """``(nodes, self.at(nodes))`` for each block of ``_NODE_BLOCK`` grid nodes, in order."""
        for lo in range(0, self.u_bar.shape[-1], _NODE_BLOCK):
            nodes = slice(lo, lo + _NODE_BLOCK)
            yield nodes, self.at(nodes)


def solve_equilibrium(
    params: MarketParams,
    horizon: Horizon,
    seed: int | None = None,
    path_index: int = 0,
) -> EquilibriumSolution:
    """Solve one equilibrium path on ``horizon`` (deterministic scenarios need no seed).

    A grid too coarse for a stable step is refused (``require_stable_step``)
    before any path is drawn.  The computed solution is self-checked:
    clearing, the per-agent first-order condition, the elasticity shares,
    and the price identity must hold at every node to 1e-10 (1e-8 for a
    stochastic driver), else a ConsistencyError carries the residuals.  The
    solution keeps them as ``residuals``, the ``consistency_report`` of its
    identities.
    """
    ag = aggregate(params)
    require_stable_step(ag.delta, horizon, f"lambda={params.impact_cost:g}")
    driver = combine([(1.0, params.noise_demand), *ag.xi_bar])
    realized = realize_driver(driver, horizon, seed=seed, path_index=path_index)
    # the driver drops only ZERO (masses are positive, the noise weight is 1): no stream
    for p in (params.noise_demand, *(a.target for a in params.agents)):
        if p not in realized.paths:
            realized.paths[p] = realize(p, horizon)

    U_bar, u_bar = solve_forward(realized, ag.delta, horizon)

    xi_bar = np.zeros(horizon.grid.size)
    for w, p in ag.xi_bar:
        xi_bar = xi_bar + w * realized.paths[p][0]

    sol = EquilibriumSolution(
        horizon=horizon,
        params=params,
        aggregates=ag,
        U_bar=U_bar,
        u_bar=u_bar,
        noise=realized.paths[params.noise_demand][0],
        xi_bar=xi_bar,
        targets={spec.name: realized.paths[spec.target][0] for spec in params.agents},
        realized=realized,
    )
    tol = 1e-10 if driver_is_deterministic(driver) else 1e-8
    sol.residuals = consistency_report(sol)
    if not all(r <= tol for r in sol.residuals.values()):  # a NaN residual fails too
        raise ConsistencyError(f"equilibrium identities violated: {sol.residuals}")
    return sol


def consistency_report(sol: EquilibriumSolution) -> Dict[str, float]:
    """Max-node residuals of the four internal identities.

    clearing:  K^N + sum_a m(a) K^a = 0
    foc:       mu = (U^a + K^a - xi^a)/rho^a for every agent
    share:     U^a = (eta^a/eta_bar) U_bar;  sum_a m(a) u^a = u_bar
    price:     price_dev = (1/eta + 1/eta_bar) u_bar

    The solution is read through ``sol.blocks()``, so the temporaries stay
    O(block) at any step count.  ``at`` builds all it checks from U_bar and
    u_bar, so it catches non-finite values and wrong aggregate sums, not a
    wrong forward solve: ``oracle_gap`` and the drift residual
    (``tests/crosschecks.fbsde_residual``) check that.
    """
    ag = sol.aggregates
    agents = [(spec, eta_a / ag.eta_bar) for spec, eta_a in zip(sol.params.agents, ag.eta_a)]
    worst: Dict[str, list] = {"clearing": [], "foc": [], "share": [], "price": []}
    for nodes, values in sol.blocks():
        U_bar, u_bar = sol.U_bar[..., nodes], sol.u_bar[..., nodes]
        total_K, total_u = sol.noise[..., nodes], 0.0
        for spec, share in agents:
            a = values.agents[spec.name]
            total_K = total_K + spec.mass * a.K
            total_u = total_u + spec.mass * a.u
            foc = (a.U + a.K - a.target) / spec.risk_tolerance - values.mu
            worst["foc"].append(np.max(np.abs(foc)))
            worst["share"].append(np.max(np.abs(a.U - share * U_bar)))
        worst["clearing"].append(np.max(np.abs(total_K)))
        worst["share"].append(np.max(np.abs(total_u - u_bar)))
        price = values.price_dev - ag.impact_weight * u_bar
        worst["price"].append(np.max(np.abs(price)))
    # np.max, unlike max, carries a NaN through
    return {name: float(np.max(maxima)) for name, maxima in worst.items()}


# ----------------------------------------------------------------------
# welfare
# ----------------------------------------------------------------------

def goal_functional(
    sol: EquilibriumSolution,
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
    spec = next((a for a in sol.params.agents if a.name == agent), None)
    if spec is None:
        raise ValueError(f"no agent named {agent!r} in the market")
    values = sol.at()
    paths = values.agents[agent]
    grid = sol.horizon.grid
    K = paths.K if K is None else K
    if u is None:
        u_a, U_a = paths.u, paths.U
    else:
        u_a, U_a = u, cumulative_trapezoid(u, grid)
    gains = trapezoid(K * values.mu, grid)
    if spec.has_open_access:
        u_other = sol.u_bar - spec.mass * paths.u
        lam = sol.params.impact_cost
        cost_rate = lam * u_other * u_a + (lam * spec.mass + 0.5 * spec.open_cost) * u_a**2
        open_cost = trapezoid(cost_rate, grid)
    else:
        open_cost = 0.0  # no access: u^a = 0 and the inf coefficient never meets a trade
    tracking = trapezoid((paths.target - K - U_a) ** 2, grid) / (2.0 * spec.risk_tolerance)
    J = gains - open_cost - tracking
    return float(J) if np.ndim(J) == 0 else J
