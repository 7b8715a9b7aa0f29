"""Independent routes that the tests compare the library against.

None of these is called by the package itself: each is a second way to
compute something the package computes, kept next to the tests that use
it.  The module is not collected as tests; tests import it with
``from crosschecks import ...``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from dealerlab.equilibrium import EquilibriumSolution
from dealerlab.fbsde import (
    RealizedDriver,
    driver_is_deterministic,
    heun_coefficients,
    kernel_expectation_path,
    solve_forward,
)
from dealerlab.kernel import (
    DeltaParam,
    Horizon,
    _check_time,
    cumulative_trapezoid,
    eval_F,
    stable_cosh_ratio,
    stable_sinh_over_cosh,
    trapezoid,
)
from dealerlab.paths import standard_normal_block
from dealerlab.processes import DemandProcess, OrnsteinUhlenbeck
from dealerlab.scenarios import LiquidationPaths, LiquidationScenario, scenario_delta


# ----------------------------------------------------------------------
# composite Simpson quadrature
# ----------------------------------------------------------------------

def simpson(f, a: float, b: float, panels: int = 4096) -> float:
    """Composite Simpson rule for a vectorized integrand on [a, b]."""
    if panels < 1:
        raise ValueError("need at least one panel")
    panels += panels % 2
    x = np.linspace(a, b, panels + 1)
    y = np.asarray(f(x), dtype=float)
    h = (b - a) / panels
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum()))


# ----------------------------------------------------------------------
# the kernel, pointwise
# ----------------------------------------------------------------------

def eval_k(d: DeltaParam, t, s, T: float):
    """Kernel k(t, s) = delta * cosh(sqrt(delta)*(T-s)) / cosh(sqrt(delta)*(T-t)).

    Defined for 0 <= t <= s <= T and evaluated in rescaled form
    ``delta * e^{sqrt(delta)(t-s)} * (1+e^{-2 sqrt(delta)(T-s)}) / (1+e^{-2 sqrt(delta)(T-t)})``
    so that arbitrarily large delta stays finite.
    """
    t = _check_time(t, T)
    s = _check_time(s, T, name="s")
    if np.any(s < t):
        raise ValueError("kernel requires t <= s")
    b = d.sqrt_delta
    return d.delta * stable_cosh_ratio(b * (T - s), b * (T - t))


# ----------------------------------------------------------------------
# normals and the folded Heun step, one at a time
# ----------------------------------------------------------------------

def normal_block(streams, n_steps: int) -> np.ndarray:
    """The streams' next ``n_steps`` normals in a new path-major (len(streams), n_steps) array."""
    return standard_normal_block(streams, n_steps, np.empty((len(streams), n_steps)))


def heun_step(U, u, g_next, F_next: float, a: float, b: float, c: float):
    """One Heun step of dU = (G - F U) dt from a node where the rate is u = G - F U.

    ``a``, ``b`` and ``c`` are the step's ``heun_coefficients``.  Returns the
    position at the next node and the rate there, ``g_next - F_next * U_next``,
    which is the next step's first slope: the step ``heun_path`` takes inline,
    on floats or on arrays.
    """
    U_next = a * U + b * u + c * g_next
    return U_next, g_next - F_next * U_next


# ----------------------------------------------------------------------
# the FBSDE drift residual
# ----------------------------------------------------------------------

@dataclass
class ResidualReport:
    max_drift_residual: float
    terminal_rate: float


def fbsde_residual(realized: RealizedDriver, d: DeltaParam, horizon: Horizon) -> ResidualReport:
    """The forward solve of ``realized``: its drift residual and its |u_T|.

    The drift residual is max_i |(u_{i+1}-u_i)/(dt_i delta) - (U_i - X_i)|.
    Only meaningful for deterministic drivers, where the martingale part
    of du vanishes; both statistics are O(dt) for the Heun scheme.
    """
    if not driver_is_deterministic(realized.terms):
        raise ValueError("drift residual is defined for deterministic drivers only")
    U, u = solve_forward(realized, d, horizon)
    drift = np.diff(u, axis=-1) / (horizon.dt * d.delta)
    resid = drift - (U[..., :-1] - realized.values()[..., :-1])
    return ResidualReport(
        max_drift_residual=float(np.max(np.abs(resid))),
        terminal_rate=float(np.max(np.abs(u[..., -1]))),
    )


# ----------------------------------------------------------------------
# the integrated-market liquidation
# ----------------------------------------------------------------------

def integrated_liquidation_closed_form(
    s: LiquidationScenario, grid: np.ndarray
) -> LiquidationPaths:
    """The liquidation when the clients also reach the open market (mesh delta_{2M}).

    The clients' combined dealer+open position jumps by the same initial
    bulk trade but unwinds at the faster rate delta_{2M}.
    """
    grid = np.asarray(grid, dtype=float)
    b = scenario_delta(replace(s, n_dealers=2 * s.n_dealers)).sqrt_delta
    T = s.T
    C = stable_cosh_ratio(b * (T - grid), b * T)
    rho_sum = s.rho_c + s.rho_d
    U_bar = (1.0 - C) * s.xi_c / 2.0
    K_total = s.xi_c / 2.0 + (s.rho_d - s.rho_c) / (2.0 * rho_sum) * C * s.xi_c
    price_dev = s.xi_c / rho_sum * stable_sinh_over_cosh(b * (T - grid), b * T) / b
    return LiquidationPaths(U_bar=U_bar, K_c=K_total, price_dev=price_dev)


# ----------------------------------------------------------------------
# the conditional-integral price representation
# ----------------------------------------------------------------------

def _conditional_path(p: DemandProcess, path: tuple, grid: np.ndarray, i: int):
    """The realized path up to node i and E_{t_i}[X_s] from there on.

    A deterministic path is its own conditional mean; an OU process (Brownian
    motion included) reverts to theta + (x_t - theta) e^{-kappa (s - t)}.
    """
    if p.deterministic:
        return path
    if not isinstance(p, OrnsteinUhlenbeck):
        raise ValueError(f"no closed-form conditional mean for {type(p).__name__}")
    x = path[0][i]
    mean = p.theta + (x - p.theta) * np.exp(-p.kappa * (grid[i:] - grid[i]))
    return (np.concatenate([path[0][:i], mean]),)


def check_price_representations(sol: EquilibriumSolution, anchors: int = 64) -> float:
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
        running = cumulative_trapezoid(sol.at().mu, grid)
        return float(np.max(np.abs(running - running[..., -1:] - sol.at().price_dev)))

    F = eval_F(ag.delta, grid, sol.horizon.T)
    steps = heun_coefficients(F[1:], sol.horizon.dt)
    terms = sol.realized.terms
    worst = 0.0
    for i in np.unique(np.linspace(0, grid.size - 2, anchors).astype(int)):
        means = {p: _conditional_path(p, sol.realized.paths[p], grid, i) for _, p in terms}
        mean_driver = RealizedDriver(terms, means)
        eg = kernel_expectation_path(mean_driver, ag.delta, sol.horizon)[i:].tolist()
        mean_x = mean_driver.values()[i:]
        # propagate m_U' = E_t[G(s)] - F(s) m_U from the anchor
        U_j = float(sol.U_bar[i])
        m_u, u_j = [U_j], eg[0] - float(F[i]) * U_j
        for g_next, *step in zip(eg[1:], *(s[i:] for s in steps)):
            U_j, u_j = heun_step(U_j, u_j, g_next, *step)
            m_u.append(U_j)
        integral = trapezoid((np.array(m_u) - mean_x) / ag.rho_bar, grid[i:])
        worst = max(worst, abs(-integral - sol.at().price_dev[i]))
    return worst


# ----------------------------------------------------------------------
# segmentation welfare by quadrature of the welfare integrands
# ----------------------------------------------------------------------

def _layered_simpson(f, T: float, beta: float) -> float:
    """Composite Simpson (4096 panels) on each side of the width-40/beta boundary layer."""
    split = min(T, 40.0 / beta)
    total = simpson(f, 0.0, split)
    if split < T:
        total += simpson(f, split, T)
    return total


def welfare_segmented_quadrature(s: LiquidationScenario) -> float:
    """J_c by Simpson quadrature of the segmented-market integrand."""
    b = scenario_delta(s).sqrt_delta
    rho_sum = s.rho_c + s.rho_d
    rho_bar = rho_sum / 2.0
    share_c = s.rho_c / rho_sum

    def integrand(t):
        C = stable_cosh_ratio(b * (s.T - t), b * s.T)
        return (2.0 / rho_bar) * C * (1.0 - share_c * C) + (2.0 * s.rho_c / rho_sum**2) * C**2

    return -(s.xi_c**2) / 4.0 * _layered_simpson(integrand, s.T, b)


def welfare_integrated_quadrature(s: LiquidationScenario) -> float:
    """J_c_int by Simpson quadrature of the integrated-market integrand (mesh delta_{2M})."""
    d2 = scenario_delta(replace(s, n_dealers=2 * s.n_dealers))
    b = d2.sqrt_delta
    rho_sum = s.rho_c + s.rho_d
    rho_bar = rho_sum / 2.0
    skew = (s.rho_d - s.rho_c) / rho_sum

    def integrand(t):
        C = stable_cosh_ratio(b * (s.T - t), b * s.T)
        SR = stable_sinh_over_cosh(b * (s.T - t), b * s.T)
        return (
            (1.0 / rho_bar) * C * (1.0 + skew * C)
            + (2.0 * s.rho_c / rho_sum**2) * C**2
            + s.impact_cost * d2.delta * SR**2
        )

    return -(s.xi_c**2) / 4.0 * _layered_simpson(integrand, s.T, b)
