"""Liquidity costs of noise-trader demand and their small-impact-cost scaling laws.

Setting: M identical dealers of mass 1/M and risk tolerance rho_d absorb
an exogenous demand K^N; the mesh rate is delta = M/(lam rho_d (M+1)).
The noise traders' cost of trading through the dealers rather than at the
fundamental price is computed D-free through the integration-by-parts
identity

    cost = -lam (M+1)/M * integral K^N du_bar,

discretized with left-endpoint sums.  Two laws are verified numerically:
smooth demand costs lam (M+1)/M * integral (mu^N)^2 dt + o(lam), while
diffusive demand costs sqrt(lam (M+1)/(M rho_d)) * integral (sigma^N)^2 dt
+ o(sqrt(lam)) -- one order of lam cheaper to hedge, and sensitive to the
dealers' inventory cost through rho_d^{-1/2}.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .fbsde import heun_step, solve_forward
from .kernel import DeltaParam, Horizon, KernelWeight, eval_F, trapezoid
from .paths import integrate_against, standard_normal_block
from .processes import DemandProcess, is_deterministic, validate_process

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DealerSetting:
    """M identical dealers of mass 1/M facing noise demand; no trading targets."""

    n_dealers: int = 1
    rho_d: float = 0.1
    T: float = 1.0

    def delta(self, impact_cost: float) -> DeltaParam:
        m = self.n_dealers
        return DeltaParam.from_value(m / (impact_cost * self.rho_d * (m + 1)))

    def cost_multiplier(self, impact_cost: float) -> float:
        return impact_cost * (self.n_dealers + 1) / self.n_dealers


def steps_for(d: DeltaParam, T: float, resolution: int = 50, floor: int = 400,
              cap: int = 1_000_000) -> int:
    """Grid size resolving the width-1/sqrt(delta) boundary layer near maturity."""
    return int(min(cap, max(floor, math.ceil(resolution * d.sqrt_delta * T))))


def liquidity_cost_from_paths(
    demand_path: np.ndarray, rate_path: np.ndarray, setting: DealerSetting, impact_cost: float
) -> np.ndarray:
    """-lam (M+1)/M * sum_i K^N_i (u_{i+1} - u_i): the integration-by-parts route."""
    return -setting.cost_multiplier(impact_cost) * integrate_against(demand_path, rate_path)


def liquidity_cost_deterministic(
    setting: DealerSetting,
    demand: DemandProcess,
    impact_cost: float,
    steps: int | None = None,
) -> float:
    """Exact (no Monte Carlo) liquidity cost of a deterministic demand path."""
    _check_demand(demand)
    if not is_deterministic(demand):
        raise ValueError("deterministic route needs a deterministic demand process")
    d = setting.delta(impact_cost)
    horizon = Horizon.uniform(setting.T, steps or steps_for(d, setting.T))
    fb = solve_forward(demand, d, horizon)
    return float(liquidity_cost_from_paths(fb.X, fb.u, setting, impact_cost))


def _check_demand(demand: DemandProcess) -> None:
    problems = validate_process(demand)
    if problems:
        raise ValueError("invalid demand process: " + "; ".join(problems))


# ----------------------------------------------------------------------
# fused Monte Carlo sweep (cost and tracking error per path)
# ----------------------------------------------------------------------

def _chunk_sweep(
    demand: DemandProcess,
    d: DeltaParam,
    horizon: Horizon,
    setting: DealerSetting,
    impact_cost: float,
    seed: int,
    first_path: int,
    n_paths: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Cost and tracking integral for one contiguous block of paths.

    One fused Heun sweep holding only O(n_paths) state: the z block is the
    single O(n_paths * steps) array.  The state advance and G come from the
    demand's kind, exactly as in ``realize`` and ``solve_forward``.
    """
    dt = horizon.dt
    F = eval_F(d, horizon.grid, horizon.T)
    coef = demand.g_coefficients(KernelWeight(d, horizon.grid, horizon.T))
    advance = demand.stepper(dt)
    z = standard_normal_block(horizon, seed, first_path, n_paths)
    state = demand.start(n_paths)
    x = state[0]
    U = np.zeros(n_paths)
    u = demand.g(coef, state, 0)
    cost = np.zeros(n_paths)
    track = np.zeros(n_paths)
    for i in range(horizon.n_steps):
        track += (x - U) ** 2 * (dt[i] * 0.5)
        state = advance(state, i, z[:, i])
        U, u_next = heun_step(U, u, demand.g(coef, state, i + 1), F[i + 1], dt[i])
        cost += x * (u_next - u)
        x, u = state[0], u_next
        track += (x - U) ** 2 * (dt[i] * 0.5)
    cost *= -setting.cost_multiplier(impact_cost)
    return cost, track


def simulate_costs(
    setting: DealerSetting,
    demand: DemandProcess,
    impact_cost: float,
    n_paths: int,
    seed: int,
    steps: int | None = None,
    workers: int = 1,
    chunk: int = 1024,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-path (cost, tracking integral) arrays, path index order.

    Each path is a pure function of (seed, path index); chunking and the
    worker count affect scheduling only, never values.
    """
    _check_demand(demand)
    d = setting.delta(impact_cost)
    horizon = Horizon.uniform(setting.T, steps or steps_for(d, setting.T))
    costs = np.empty(n_paths)
    tracks = np.empty(n_paths)
    starts = list(range(0, n_paths, chunk))

    def run(start: int):
        count = min(chunk, n_paths - start)
        c, t = _chunk_sweep(
            demand, d, horizon, setting, impact_cost, seed, start, count
        )
        costs[start : start + count] = c
        tracks[start : start + count] = t

    if workers <= 1:
        for s in starts:
            run(s)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, starts))
    return costs, tracks


# ----------------------------------------------------------------------
# theory prefactors
# ----------------------------------------------------------------------

def theoretical_prefactor(setting: DealerSetting, demand: DemandProcess) -> float:
    """Leading-order cost prefactor of the demand family.

    Smooth demand: (M+1)/M * E int (mu^N)^2 dt multiplying lam.
    Diffusive demand: sqrt((M+1)/(M rho_d)) * E int (sigma^N)^2 dt multiplying sqrt(lam).
    """
    m = setting.n_dealers
    order, intensity = demand.scaling_law(setting.T)
    if order == 1.0:
        return (m + 1) / m * intensity
    return math.sqrt((m + 1) / (m * setting.rho_d)) * intensity


# ----------------------------------------------------------------------
# studies
# ----------------------------------------------------------------------

@dataclass
class LiquidityCostReport:
    family: str
    n_dealers: int
    rho_d: float
    lambdas: list
    means: list
    stderrs: list
    path_counts: list
    steps: list
    slope: float
    slope_ci: tuple
    prefactor: float
    prefactor_stderr: float
    prefactor_theory: float
    order_theory: float
    seed: int | None = None
    warnings: list = field(default_factory=list)


def _slope_fit(lambdas, means) -> tuple[float, tuple[float, float]]:
    if len(lambdas) < 2:
        return math.nan, (math.nan, math.nan)
    x = np.log(np.asarray(lambdas))
    y = np.log(np.asarray(means))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = max(x.size - 2, 1)
    se = math.sqrt(float(resid @ resid) / dof / float(np.sum((x - x.mean()) ** 2)))
    return float(slope), (float(slope - 1.96 * se), float(slope + 1.96 * se))


def scaling_study(
    setting: DealerSetting,
    demand: DemandProcess,
    lambdas,
    n_paths: int,
    seed: int = 0,
    workers: int = 1,
    steps_cap: int = 1_000_000,
) -> LiquidityCostReport:
    """Mean cost per impact cost, log-log slope, and the leading-order prefactor.

    Deterministic demands are evaluated exactly (zero standard error, one
    'path'); stochastic ones by Monte Carlo over per-path substreams.
    The prefactor is read off at the smallest impact cost as
    mean / lam^order and compared against the closed-form theory value.
    """
    _check_demand(demand)
    order, _ = demand.scaling_law(setting.T)
    lambdas = sorted(float(x) for x in lambdas)
    means, stderrs, counts, steps_used, warnings = [], [], [], [], []
    deterministic = is_deterministic(demand)
    for lam in lambdas:
        d = setting.delta(lam)
        wanted = steps_for(d, setting.T, cap=math.inf)
        steps = min(wanted, steps_cap)
        if steps < wanted:
            msg = f"step cap at lambda={lam:g}: {wanted} steps wanted, {steps} used"
            warnings.append(msg)
            logger.warning(msg)
        steps_used.append(steps)
        if deterministic:
            means.append(liquidity_cost_deterministic(setting, demand, lam, steps))
            stderrs.append(0.0)
            counts.append(1)
        else:
            costs, _ = simulate_costs(
                setting, demand, lam, n_paths, seed, steps=steps, workers=workers
            )
            means.append(float(np.mean(costs)))
            stderrs.append(float(np.std(costs, ddof=1) / math.sqrt(n_paths)))
            counts.append(n_paths)
    slope, ci = _slope_fit(lambdas, means)
    lam_min = lambdas[0]
    prefactor = means[0] / lam_min**order
    prefactor_se = stderrs[0] / lam_min**order
    report = LiquidityCostReport(
        family="smooth" if order == 1.0 else "diffusive",
        n_dealers=setting.n_dealers,
        rho_d=setting.rho_d,
        lambdas=list(lambdas),
        means=means,
        stderrs=stderrs,
        path_counts=counts,
        steps=steps_used,
        slope=slope,
        slope_ci=ci,
        prefactor=float(prefactor),
        prefactor_stderr=float(prefactor_se),
        prefactor_theory=theoretical_prefactor(setting, demand),
        order_theory=order,
        seed=seed,
        warnings=warnings,
    )
    if not deterministic and stderrs[0] > 0.1 * abs(means[0]):
        msg = (
            f"standard error at the smallest impact cost is {stderrs[0]:.3g} "
            f"({stderrs[0] / abs(means[0]):.1%} of the mean); increase the path count"
        )
        report.warnings.append(msg)
        logger.warning(msg)
    return report


@dataclass
class ConvergenceReport:
    lambdas: list
    means: list
    stderrs: list
    monotone_within_2se: bool
    reduction_factor: float


def convergence_check(
    setting: DealerSetting,
    demand: DemandProcess,
    lambdas,
    n_paths: int,
    seed: int = 0,
    workers: int = 1,
) -> ConvergenceReport:
    """E integral (K^N - U_bar)^2 dt per impact cost: the price-convergence proxy.

    Must fall monotonically (within two standard errors) as the open
    market becomes more liquid.
    """
    _check_demand(demand)
    lambdas = sorted((float(x) for x in lambdas), reverse=True)
    means, stderrs = [], []
    for lam in lambdas:
        if is_deterministic(demand):
            d = setting.delta(lam)
            horizon = Horizon.uniform(setting.T, steps_for(d, setting.T))
            fb = solve_forward(demand, d, horizon)
            means.append(float(trapezoid((fb.X - fb.U) ** 2, horizon.grid)))
            stderrs.append(0.0)
        else:
            _, tracks = simulate_costs(setting, demand, lam, n_paths, seed, workers=workers)
            means.append(float(np.mean(tracks)))
            stderrs.append(float(np.std(tracks, ddof=1) / math.sqrt(n_paths)))
    monotone = all(
        means[i + 1] <= means[i] + 2.0 * math.hypot(stderrs[i], stderrs[i + 1])
        for i in range(len(means) - 1)
    )
    return ConvergenceReport(
        lambdas=list(lambdas),
        means=means,
        stderrs=stderrs,
        monotone_within_2se=monotone,
        reduction_factor=means[0] / means[-1] if means[-1] > 0 else math.inf,
    )
