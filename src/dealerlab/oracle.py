"""Discrete-time Nash oracle: the first-order conditions reduced to one scalar sweep.

Completely independent verification route: the equilibrium of the
N-step, deterministic-demand game is pinned down by

  * dealer-market optimality   rho^a mu_i - K^a_i - U^a_i = -xi^a_i,
  * open-market optimality     lam ubar^{-a}_i + (2 m(a) lam + open^a) u^a_i
                                 + (dt/rho^a) sum_{j>=i} (K^a_j + U^a_j - xi^a_j) = 0,
  * clearing                   K^N_i + sum_a m(a) K^a_i = 0,

with U^a accumulated by the left-endpoint rule U^a_i = dt sum_{j<i} u^a_j.
They reduce exactly to one scalar recursion.  Dealer-market optimality
turns each open agent's suffix term into dt S_i, S_i = sum_{j>=i} mu_j, so
its condition reads (m(a) lam + open^a) u^a + lam ubar = -dt S, with ubar =
sum_open m(b) u^b.  Weighting it by m(a) e_a, e_a = 1/(m(a) lam + open^a), and
summing over the open agents gives ubar, hence u^a = -dt v_a S with
v_a = e_a / (1 + lam sum_open m(b) e_b) (u^a = 0 for the others), and
U^a = -dt^2 v_a P, with P_i = sum_{j<i} S_j.  Clearing then gives
mu = d - alpha P, where d = -(K^N + sum_a m(a) xi^a) / R,
alpha = dt^2 sum_open m(a) v_a / R >= 0 and R = sum_a m(a) rho^a.  A backward
Riccati sweep S_i = a_i P_i + b_i, a_i = (a_{i+1} - alpha) / (1 - a_{i+1}),
b_i = (b_{i+1} + d_i) / (1 - a_{i+1}) from a_n = b_n = 0 (so S_n = 0, and
every pivot is at least 1), then a forward pass P_{i+1} = P_i + S_i from
P_0 = 0, give S and P; finally K^a = rho^a mu - U^a + xi^a.
``residual_rel`` is taken on the undifferenced conditions above, so every
solve also checks the reduction.  No kernel, feedback function, or mesh
rate enters anywhere; agreement with the closed form is the test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

import numpy as np

from .kernel import Horizon
from .market import MarketParams
from .paths import realize

#: largest discrete game solved, in unknowns: K, u and U per agent and mu, each
#: n_steps long.  At the cap the scalar sweep and its residual check peak at 102 MB
#: (VmHWM, about 29 MB of it the imports) with 2 agents and 76 MB with 5
MAX_UNKNOWNS = 2_000_000


@dataclass
class DiscreteEquilibrium:
    """Solved step-function paths on the left-endpoint grid t_i = i dt."""

    times: np.ndarray
    mu: np.ndarray
    K: Dict[str, np.ndarray]
    u: Dict[str, np.ndarray]
    U: Dict[str, np.ndarray]
    u_bar: np.ndarray  # the aggregate open-market rate, sum_a m(a) u^a
    residual_rel: float


def assemble_and_solve(params: MarketParams, T: float, n_steps: int) -> DiscreteEquilibrium:
    """Solve the deterministic-demand first-order conditions on n_steps steps of [0, T]."""
    for a in params.agents:
        if not a.target.deterministic:
            raise ValueError("the discrete oracle supports deterministic targets only")
    if not params.noise_demand.deterministic:
        raise ValueError("the discrete oracle supports deterministic noise demand only")
    agents = params.agents
    n = n_steps
    n_unknowns = (3 * len(agents) + 1) * n  # K^a, u^a, U^a per agent, then mu
    if n_unknowns > MAX_UNKNOWNS:
        raise ValueError(
            f"discrete game too large: {n_unknowns} unknowns (K, u and U per agent and mu, "
            f"{n} steps each) > {MAX_UNKNOWNS}"
        )

    h = Horizon.uniform(T, n)
    xi = {a.name: realize(a.target, h)[0][:-1] for a in agents}
    noise = realize(params.noise_demand, h)[0][:-1]
    dt = T / n
    lam = params.impact_cost

    e = {a.name: 1.0 / (a.mass * lam + a.open_cost) for a in agents if a.has_open_access}
    scale = 1.0 + lam * sum(a.mass * e[a.name] for a in agents if a.name in e)
    v = {name: e_a / scale for name, e_a in e.items()}
    R = sum(a.mass * a.risk_tolerance for a in agents)
    alpha = dt * dt * sum(a.mass * v[a.name] for a in agents if a.name in v) / R
    d = -(noise + sum(a.mass * xi[a.name] for a in agents)) / R

    A, B, a_i, b_i = [], [], 0.0, 0.0  # S_i = a_i P_i + b_i, from i = n - 1 down to 0
    for d_i in reversed(d.tolist()):
        a_i, b_i = (a_i - alpha) / (1.0 - a_i), (b_i + d_i) / (1.0 - a_i)
        A.append(a_i)
        B.append(b_i)
    P, S, p = [], [], 0.0
    for a_i, b_i in zip(reversed(A), reversed(B)):
        P.append(p)
        S.append(a_i * p + b_i)
        p += S[-1]
    del A, B  # the sweep's floats go before the residual check builds its arrays

    mu = d - alpha * np.array(P)
    S = np.array(S)
    u = {a.name: -dt * v[a.name] * S if a.name in v else np.zeros(n) for a in agents}
    U = {name: dt * np.concatenate([[0.0], np.cumsum(rates[:-1])]) for name, rates in u.items()}
    K = {a.name: a.risk_tolerance * mu - U[a.name] + xi[a.name] for a in agents}

    def conditions():
        """The undifferenced conditions, one at a time, as lists of terms that sum to zero."""
        yield [a.mass * K[a.name] for a in agents] + [noise]
        for a in agents:
            yield [a.risk_tolerance * mu, -K[a.name], -U[a.name], xi[a.name]]
            if not a.has_open_access:
                yield [u[a.name]]
                continue
            terms = [lam * o.mass * u[o.name] for o in agents if o is not a]
            terms.append((2 * a.mass * lam + a.open_cost) * u[a.name])
            suffix_sums = (np.cumsum(v[::-1])[::-1] for v in (K[a.name], U[a.name], -xi[a.name]))
            yield terms + [dt / a.risk_tolerance * v for v in suffix_sums]

    # each condition's residual and scale, reduced before the next condition is built
    sizes = [(np.max(np.abs(sum(terms))), np.max(sum(np.abs(t) for t in terms)))
             for terms in conditions()]
    residual, scale = map(max, zip(*sizes))
    return DiscreteEquilibrium(
        times=h.grid[:-1],
        mu=mu,
        K=K,
        u=u,
        U=U,
        u_bar=sum(a.mass * u[a.name] for a in agents),
        residual_rel=float(residual / max(scale, 1e-300)),
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


def oracle_gap(params: MarketParams, T: float, steps_list) -> GapReport:
    """Per-quantity gaps oracle vs. engine on matching uniform grids of [0, T], with fitted order.

    Quantities: dealer-market positions (worst agent), the aggregate
    open-market rate, and the risk premium.  The order is the slope of
    log(max gap) against log(dt), or None on a single grid or when a worst
    gap is 0 (the routes agree exactly and there is no log to fit).  A
    market whose mesh rate overflows is refused before the first oracle solve.
    """
    from .equilibrium import solve_equilibrium
    from .market import aggregate

    aggregate(params)  # the engine's mesh rate: an overflow raises here, not as NaN gaps
    steps_list = list(steps_list)
    if not steps_list or len(set(steps_list)) < len(steps_list):
        raise ValueError(f"grid step counts must be one or more and distinct, got {steps_list}")
    max_gaps = {"K": [], "u_bar": [], "mu": []}
    l2_gaps = {"K": [], "u_bar": [], "mu": []}
    for n in steps_list:
        disc = assemble_and_solve(params, T, n)
        engine = solve_equilibrium(params, Horizon.uniform(T, n))
        values = engine.at(slice(None, -1))
        dt = T / n
        gaps = {
            "K": [disc.K[a.name] - values.agents[a.name].K for a in params.agents],
            "u_bar": [disc.u_bar - engine.u_bar[:-1]],
            "mu": [disc.mu - values.mu],
        }
        for key, arrays in gaps.items():
            max_gaps[key].append(max(float(np.max(np.abs(g))) for g in arrays))
            l2_gaps[key].append(max(math.sqrt(dt * np.sum(g**2)) for g in arrays))
    worst = [max(gaps) for gaps in zip(*max_gaps.values())]
    order = None
    if len(worst) > 1 and min(worst) > 0:
        log_dt = np.log([T / n for n in steps_list])
        order = float(np.polyfit(log_dt, np.log(worst), 1)[0])
    return GapReport(steps=steps_list, max_gaps=max_gaps, l2_gaps=l2_gaps, fitted_order=order)
