"""Discrete-time Nash oracle: the first-order conditions as one banded sparse system.

Completely independent verification route: the equilibrium of the
N-step, deterministic-demand game is pinned down by

  * dealer-market optimality   rho^a mu_i - K^a_i - U^a_i = -xi^a_i,
  * open-market optimality     lam ubar^{-a}_i + (2 m(a) lam + open^a) u^a_i
                                 + (dt/rho^a) sum_{j>=i} (K^a_j + U^a_j - xi^a_j) = 0,
  * clearing                   K^N_i + sum_a m(a) K^a_i = 0,

with U^a accumulated by the left-endpoint rule U^a_i = dt sum_{j<i} u^a_j.
Two exact rewrites make every row banded.  U^a is carried as an unknown
with U^a_0 = 0 and U^a_{i+1} = U^a_i + dt u^a_i.  Each open-market row is
differenced with the next one: D = I - shift_up inverts the suffix sum,
so the sum leaves the single term (dt/rho^a)(K^a_i + U^a_i - xi^a_i).
The stacked unknowns {K^a, u^a, U^a}_a + mu are solved by sparse LU, and
``residual_rel`` is taken on the undifferenced conditions above, so every
solve also checks the rewrite.  No kernel, feedback function, or mesh
rate enters anywhere; agreement with the closed form is the test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .kernel import Horizon
from .market import MarketParams
from .paths import realize

#: largest stacked system, (3 * agents + 1) * n_steps unknowns; at this size the
#: sparse LU peaked at 1.1 GB RSS with 2 agents and at 1.4 GB with 5
MAX_UNKNOWNS = 2_000_000


@dataclass
class DiscreteEquilibrium:
    """Solved step-function paths on the left-endpoint grid t_i = i dt."""

    times: np.ndarray
    mu: np.ndarray
    K: Dict[str, np.ndarray]
    u: Dict[str, np.ndarray]
    U: Dict[str, np.ndarray]
    residual_rel: float
    n_unknowns: int

    def aggregate_rate(self, params: MarketParams) -> np.ndarray:
        return sum(a.mass * self.u[a.name] for a in params.agents)

    def aggregate_position(self, params: MarketParams) -> np.ndarray:
        return sum(a.mass * self.U[a.name] for a in params.agents)


def assemble_and_solve(params: MarketParams, n_steps: int) -> DiscreteEquilibrium:
    """Solve the stacked first-order-condition system for deterministic demands."""
    for a in params.agents:
        if not a.target.deterministic:
            raise ValueError("the discrete oracle supports deterministic targets only")
    if not params.noise_demand.deterministic:
        raise ValueError("the discrete oracle supports deterministic noise demand only")
    agents = params.agents
    n = n_steps
    n_blocks = 3 * len(agents) + 1  # K^a, u^a, U^a per agent, then mu
    n_unknowns = n_blocks * n
    if n_unknowns > MAX_UNKNOWNS:
        raise ValueError(
            f"first-order-condition system too large: {n_unknowns} unknowns > {MAX_UNKNOWNS}"
        )

    h = Horizon.uniform(params.horizon.T, n)
    xi = {a.name: realize(a.target, h).values[:-1] for a in agents}
    noise = realize(params.noise_demand, h).values[:-1]
    dt = params.horizon.T / n
    lam = params.impact_cost

    eye = sparse.identity(n, format="csr")
    diff = eye - sparse.eye(n, k=1)  # D = I - shift_up
    lag = sparse.eye(n, k=-1)  # (lag v)_i = v_{i-1}, with v_{-1} = 0
    mu_col, zero = n_blocks - 1, np.zeros(n)
    system = []  # block rows: ({unknown block: coefficient matrix}, right-hand side)
    for j, agent in enumerate(agents):
        K, u, U = 3 * j, 3 * j + 1, 3 * j + 2
        system.append(({K: -eye, U: -eye, mu_col: agent.risk_tolerance * eye}, -xi[agent.name]))
        if agent.has_open_access:
            weight = dt / agent.risk_tolerance
            row = {3 * k + 1: lam * o.mass * diff for k, o in enumerate(agents) if k != j}
            row[u] = (2 * agent.mass * lam + agent.open_cost) * diff
            row[K] = row[U] = weight * eye
            system.append((row, weight * xi[agent.name]))
        else:
            system.append(({u: eye}, zero))
        system.append(({U: eye - lag, u: -dt * lag}, zero))
    system.append(({3 * k: o.mass * eye for k, o in enumerate(agents)}, -noise))

    A = sparse.bmat([[row.get(c) for c in range(n_blocks)] for row, _ in system], format="csc")
    try:
        x = splu(A).solve(np.concatenate([b for _, b in system]))
    except RuntimeError:
        raise RuntimeError(
            "singular first-order-condition system; "
            "degenerate parameters such as frictionless open-market trading can cause this"
        ) from None

    blocks = x.reshape(n_blocks, n)
    K = {a.name: blocks[3 * j] for j, a in enumerate(agents)}
    u = {a.name: blocks[3 * j + 1] for j, a in enumerate(agents)}
    U = {name: dt * np.concatenate([[0.0], np.cumsum(rates[:-1])]) for name, rates in u.items()}
    mu = blocks[mu_col]

    # the undifferenced conditions as lists of terms that sum to zero
    conditions = [[a.mass * K[a.name] for a in agents] + [noise]]
    for a in agents:
        conditions.append([a.risk_tolerance * mu, -K[a.name], -U[a.name], xi[a.name]])
        if a.has_open_access:
            weight = dt / a.risk_tolerance
            terms = [lam * o.mass * u[o.name] for o in agents if o is not a]
            terms.append((2 * a.mass * lam + a.open_cost) * u[a.name])
            suffix_sums = (np.cumsum(v[::-1])[::-1] for v in (K[a.name], U[a.name], -xi[a.name]))
            terms += [weight * v for v in suffix_sums]
            conditions.append(terms)
        else:
            conditions.append([u[a.name]])
    residual = max(np.max(np.abs(sum(terms))) for terms in conditions)
    scale = max(np.max(sum(np.abs(t) for t in terms)) for terms in conditions)
    return DiscreteEquilibrium(
        times=h.grid[:-1],
        mu=mu,
        K=K,
        u=u,
        U=U,
        residual_rel=float(residual / max(scale, 1e-300)),
        n_unknowns=n_unknowns,
    )


# ----------------------------------------------------------------------
# gap measurement against the closed-form/engine route
# ----------------------------------------------------------------------

@dataclass
class GapReport:
    steps: list
    max_gaps: Dict[str, list]
    l2_gaps: Dict[str, list]
    fitted_order: float | None


def oracle_gap(params: MarketParams, steps_list) -> GapReport:
    """Per-quantity gaps oracle vs. engine on matching grids, with fitted order.

    Quantities: dealer-market positions (worst agent), the aggregate
    open-market rate, and the risk premium.  The order is the slope of
    log(max gap) against log(dt), or None on a single grid.
    """
    from .equilibrium import solve_equilibrium

    steps_list = list(steps_list)
    if len(set(steps_list)) < len(steps_list):
        raise ValueError(f"grid step counts must be distinct, got {steps_list}")
    max_gaps = {"K": [], "u_bar": [], "mu": []}
    l2_gaps = {"K": [], "u_bar": [], "mu": []}
    for n in steps_list:
        disc = assemble_and_solve(params, n)
        h = Horizon.uniform(params.horizon.T, n)
        engine = solve_equilibrium(
            MarketParams(h, params.impact_cost, params.agents, params.noise_demand)
        )
        dt = params.horizon.T / n
        gaps = {
            "K": [disc.K[a.name] - engine.agents[a.name].K[:-1] for a in params.agents],
            "u_bar": [disc.aggregate_rate(params) - engine.u_bar[:-1]],
            "mu": [disc.mu - engine.mu[:-1]],
        }
        for key, arrays in gaps.items():
            max_gaps[key].append(max(float(np.max(np.abs(g))) for g in arrays))
            l2_gaps[key].append(max(math.sqrt(dt * np.sum(g**2)) for g in arrays))
    log_dt = np.log([params.horizon.T / n for n in steps_list])
    worst = np.log([max(max_gaps[k][i] for k in max_gaps) for i in range(len(steps_list))])
    order = float(np.polyfit(log_dt, worst, 1)[0]) if len(steps_list) > 1 else None
    return GapReport(steps=steps_list, max_gaps=max_gaps, l2_gaps=l2_gaps, fitted_order=order)
