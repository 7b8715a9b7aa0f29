"""Discrete-time Nash oracle: the first-order conditions as one dense linear system.

Completely independent verification route: the equilibrium of the
N-step, deterministic-demand game is pinned down by

  * dealer-market optimality   rho^a mu_i - K^a_i - U^a_i = -xi^a_i,
  * open-market optimality     lam ubar^{-a}_i + (2 m(a) lam + open^a) u^a_i
                                 + (dt/rho^a) sum_{j>=i} (K^a_j + U^a_j - xi^a_j) = 0,
  * clearing                   K^N_i + sum_a m(a) K^a_i = 0,

with U^a accumulated by the left-endpoint rule U^a_i = dt sum_{j<i} u^a_j.
The stacked unknown vector {K^a_i, u^a_i}_{a,i} + {mu_i}_i is solved by
dense LU with partial pivoting.  No kernel, feedback function, or mesh
rate enters anywhere; agreement with the closed form is the test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

import numpy as np
import scipy.linalg

from .market import MarketParams
from .paths import realize
from .processes import is_deterministic


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


def _left_endpoint_samples(params: MarketParams, n_steps: int) -> tuple:
    from .kernel import Horizon

    T = params.horizon.T
    h = Horizon.uniform(T, n_steps)
    xi = {a.name: realize(a.target, h).values[:-1] for a in params.agents}
    noise = realize(params.noise_demand, h).values[:-1]
    return h.grid[:-1], xi, noise


def assemble_and_solve(params: MarketParams, n_steps: int) -> DiscreteEquilibrium:
    """Solve the stacked first-order-condition system for deterministic demands."""
    for a in params.agents:
        if not is_deterministic(a.target):
            raise ValueError("the discrete oracle supports deterministic targets only")
    if not is_deterministic(params.noise_demand):
        raise ValueError("the discrete oracle supports deterministic noise demand only")
    n_agents = len(params.agents)
    n = n_steps
    n_unknowns = (2 * n_agents + 1) * n
    if n_agents * n > 10_000:
        raise ValueError(f"system too large for a dense solve: {n_agents * n} > 10000")

    times, xi, noise = _left_endpoint_samples(params, n)
    dt = params.horizon.T / n
    lam = params.impact_cost

    idx = np.arange(n)
    L = np.tril(np.ones((n, n)), -1)  # U = dt * L @ u
    R = np.triu(np.ones((n, n)))  # (R v)_i = sum_{j >= i} v_j
    RL = np.maximum(n - np.maximum.outer(idx, idx + 1), 0.0)  # R @ L in closed form

    def K_cols(j):
        return slice(2 * n * j, 2 * n * j + n)

    def u_cols(j):
        return slice(2 * n * j + n, 2 * n * (j + 1))

    mu_cols = slice(2 * n_agents * n, n_unknowns)

    # Fortran order feeds LAPACK without an extra transposed copy
    A = np.zeros((n_unknowns, n_unknowns), order="F")
    b = np.zeros(n_unknowns)
    eye = np.eye(n)

    row = 0
    for j, agent in enumerate(params.agents):
        # dealer-market optimality
        rows = slice(row, row + n)
        A[rows, K_cols(j)] = -eye
        A[rows, u_cols(j)] = -dt * L
        A[rows, mu_cols] = agent.risk_tolerance * eye
        b[rows] = -xi[agent.name]
        row += n
        # open-market optimality (or no access)
        rows = slice(row, row + n)
        if agent.has_open_access:
            for k, other in enumerate(params.agents):
                if k == j:
                    continue
                A[rows, u_cols(k)] = lam * other.mass * eye
            A[rows, u_cols(j)] = (2 * agent.mass * lam + agent.open_cost) * eye + (
                dt**2 / agent.risk_tolerance
            ) * RL
            A[rows, K_cols(j)] = (dt / agent.risk_tolerance) * R
            b[rows] = (dt / agent.risk_tolerance) * (R @ xi[agent.name])
        else:
            A[rows, u_cols(j)] = eye
        row += n
    # clearing
    rows = slice(row, row + n)
    for k, other in enumerate(params.agents):
        A[rows, K_cols(k)] = other.mass * eye
    b[rows] = -noise

    try:
        x = scipy.linalg.solve(A, b, check_finite=False)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
        cond = np.linalg.cond(A, 1)
        raise RuntimeError(
            f"singular first-order-condition system (1-norm condition ~ {cond:.2e}); "
            "degenerate parameters such as no open-market access can cause this"
        ) from None

    residual = np.max(np.abs(A @ x - b))
    scale = np.max(np.abs(A)) * max(np.max(np.abs(x)), 1e-300)
    K = {a.name: x[K_cols(j)] for j, a in enumerate(params.agents)}
    u = {a.name: x[u_cols(j)] for j, a in enumerate(params.agents)}
    U = {name: dt * np.concatenate([[0.0], np.cumsum(rates[:-1])]) for name, rates in u.items()}
    return DiscreteEquilibrium(
        times=times,
        mu=x[mu_cols],
        K=K,
        u=u,
        U=U,
        residual_rel=float(residual / scale),
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
    fitted_order: float


def oracle_gap(params: MarketParams, steps_list) -> GapReport:
    """Per-quantity gaps oracle vs. engine on matching grids, with fitted order.

    Quantities: dealer-market positions (worst agent), the aggregate
    open-market rate, and the risk premium.  The order is the slope of
    log(max gap) against log(dt).
    """
    from .equilibrium import solve_equilibrium
    from .kernel import Horizon
    from .market import MarketParams as MP

    steps_list = list(steps_list)
    max_gaps = {"K": [], "u_bar": [], "mu": []}
    l2_gaps = {"K": [], "u_bar": [], "mu": []}
    for n in steps_list:
        disc = assemble_and_solve(params, n)
        h = Horizon.uniform(params.horizon.T, n)
        engine = solve_equilibrium(
            MP(h, params.impact_cost, params.agents, params.noise_demand)
        )
        dt = params.horizon.T / n
        k_gap = max(
            np.max(np.abs(disc.K[a.name] - engine.agents[a.name].K[:-1]))
            for a in params.agents
        )
        u_gap = np.max(np.abs(disc.aggregate_rate(params) - engine.u_bar[:-1]))
        mu_gap = np.max(np.abs(disc.mu - engine.mu[:-1]))
        for key, gap in (("K", k_gap), ("u_bar", u_gap), ("mu", mu_gap)):
            max_gaps[key].append(float(gap))
        k_l2 = max(
            math.sqrt(dt * np.sum((disc.K[a.name] - engine.agents[a.name].K[:-1]) ** 2))
            for a in params.agents
        )
        l2_gaps["K"].append(float(k_l2))
        l2_gaps["u_bar"].append(
            float(math.sqrt(dt * np.sum((disc.aggregate_rate(params) - engine.u_bar[:-1]) ** 2)))
        )
        l2_gaps["mu"].append(float(math.sqrt(dt * np.sum((disc.mu - engine.mu[:-1]) ** 2))))
    log_dt = np.log([params.horizon.T / n for n in steps_list])
    worst = np.log([max(max_gaps[k][i] for k in max_gaps) for i in range(len(steps_list))])
    order = float(np.polyfit(log_dt, worst, 1)[0]) if len(steps_list) > 1 else float("nan")
    return GapReport(steps=steps_list, max_gaps=max_gaps, l2_gaps=l2_gaps, fitted_order=order)
