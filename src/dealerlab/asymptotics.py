"""Liquidity costs of noise-trader demand and their small-impact-cost scaling laws.

Setting: M identical dealers of mass 1/M and risk tolerance rho_d absorb
an exogenous demand K^N.  The mesh rate delta = M/(lam rho_d (M+1)) and the
impact weight 1/eta + 1/eta_bar = lam (M+1)/M are read from the
aggregates of that dealers-only market, exactly as the equilibrium reads
them.  The noise traders' cost of trading through the dealers rather than
at the fundamental price is computed D-free through the
integration-by-parts identity

    cost = -(1/eta + 1/eta_bar) * integral K^N du_bar,

discretized with left-endpoint sums.  Two laws are verified numerically:
smooth demand costs lam (M+1)/M * integral (mu^N)^2 dt + o(lam), while
diffusive demand costs sqrt(lam (M+1)/(M rho_d)) * integral (sigma^N)^2 dt
+ o(sqrt(lam)) -- one order of lam cheaper to hedge, and sensitive to the
dealers' inventory cost through rho_d^{-1/2}.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .fbsde import heun_step, realize_driver, require_stable_step, solve_forward
from .kernel import DeltaParam, Horizon, KernelWeight, eval_F, trapezoid
from .market import Aggregates, aggregate, dealers_only_market
from .paths import integrate_against, path_streams, standard_normal_block
from .processes import DemandProcess, ZERO

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DealerSetting:
    """M identical dealers of mass 1/M facing noise demand; no trading targets."""

    n_dealers: int = 1
    rho_d: float = 0.1
    T: float = 1.0

    def __post_init__(self):
        m = self.n_dealers
        if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 1:
            raise ValueError(f"n_dealers must be an integer of at least 1, got {m!r}")
        for name in ("rho_d", "T"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")

    def aggregates(self, impact_cost: float) -> Aggregates:
        """The dealers-only market's aggregates: its mesh rate and impact weight."""
        # aggregate never reads the grid, so a one-step horizon serves every study grid
        return aggregate(dealers_only_market(
            Horizon.uniform(self.T, 1), impact_cost, self.rho_d, self.n_dealers, ZERO
        ))


STEP_CAP = 1_000_000  # most grid steps a study picks by itself; read at each call
SLICE_STEPS = 1024  # time steps of normals the sweep draws at once; read at each call
_TILE_PATHS = 64  # paths per normal draw: a tile's transpose into the slice stays in cache


def steps_for(d: DeltaParam, T: float) -> int:
    """Grid size resolving the width-1/sqrt(delta) boundary layer near maturity."""
    return max(400, math.ceil(50 * d.sqrt_delta * T))


def _capped_steps(setting: DealerSetting, impact_cost: float):
    """``steps_for`` clipped at ``STEP_CAP``, and the logged note of a clip."""
    wanted = steps_for(setting.aggregates(impact_cost).delta, setting.T)
    steps = min(wanted, STEP_CAP)
    if steps == wanted:
        return steps, None
    msg = f"step cap at lambda={impact_cost:g}: {wanted} steps wanted, {steps} used"
    logger.warning(msg)
    return steps, msg


def _step_context(impact_cost: float, clipped: str | None) -> str:
    """The impact cost, and the step cap's note when it clipped the grid, for a step error."""
    return f"lambda={impact_cost:g}" + (f" ({clipped})" if clipped else "")


def liquidity_cost_from_paths(
    demand_path: np.ndarray, rate_path: np.ndarray, impact_weight: float
) -> np.ndarray:
    """-(1/eta + 1/eta_bar) * sum_i K^N_i (u_{i+1} - u_i): the integration-by-parts route."""
    return -impact_weight * integrate_against(demand_path, rate_path)


# ----------------------------------------------------------------------
# fused Monte Carlo sweep (cost and tracking error per path)
# ----------------------------------------------------------------------

def _normal_rows(streams, n_steps: int):
    """Each step's normals across ``streams`` in turn, drawn ``SLICE_STEPS`` steps at a time.

    A row is a view into one reused step-major buffer of ``SLICE_STEPS`` x
    len(streams) floats, valid until the next row is taken.  Each slice is
    drawn in tiles of ``_TILE_PATHS`` streams, and each tile's transpose is
    copied into the buffer's columns: the rows are exactly those of
    ``standard_normal_block(streams, n_steps).T``, and no path-major block
    larger than one tile is ever built.
    """
    width, n = SLICE_STEPS, len(streams)
    rows = np.empty((min(width, n_steps), n))
    for lo in range(0, n_steps, width):
        w = min(width, n_steps - lo)
        for p in range(0, n, _TILE_PATHS):
            rows[:w, p : p + _TILE_PATHS] = standard_normal_block(
                streams[p : p + _TILE_PATHS], w
            ).T
        yield from rows[:w]


def _chunk_sweep(
    demand: DemandProcess,
    ag: Aggregates,
    horizon: Horizon,
    seed: int,
    first_path: int,
    n_paths: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Cost and tracking integral for one contiguous block of paths.

    One fused Heun sweep holding O(n_paths) state plus one time slice of
    normals, O(n_paths * SLICE_STEPS), whatever the step count.  The state
    advance and G come from the demand's kind, exactly as in ``realize``
    and ``solve_forward``.  Each node's squared gap (x - U)^2 is computed
    once and serves both trapezoid halves next to it; the cost and tracking
    sums accumulate in place through one work vector.
    """
    dt = horizon.dt
    half_dt = dt * 0.5
    d = ag.delta
    F = eval_F(d, horizon.grid, horizon.T)
    coef = demand.g_coefficients(KernelWeight(d, horizon.grid, horizon.T))
    advance = demand.stepper(dt)
    state = demand.start(n_paths)
    x = state[0]
    U = np.zeros(n_paths)
    u = demand.g(coef, state, 0)
    cost = np.zeros(n_paths)
    track = np.zeros(n_paths)
    gap_sq = (x - U) ** 2
    work = np.empty(n_paths)
    z = _normal_rows(path_streams(seed, first_path, n_paths), horizon.n_steps)
    for i, z_i in enumerate(z):
        h = half_dt[i]
        track += np.multiply(gap_sq, h, out=work)
        state = advance(state, i, z_i)
        U, u_next = heun_step(U, u, demand.g(coef, state, i + 1), F[i + 1], dt[i])
        cost += np.multiply(x, np.subtract(u_next, u, out=work), out=work)
        x, u = state[0], u_next
        np.square(np.subtract(x, U, out=gap_sq), out=gap_sq)
        track += np.multiply(gap_sq, h, out=work)
    cost *= -ag.impact_weight
    return cost, track


def simulate_costs(
    setting: DealerSetting,
    demand: DemandProcess,
    impact_cost: float,
    n_paths: int,
    seed: int,
    steps: int | None = None,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-path (cost, tracking integral) arrays, path index order.

    A grid too coarse for a stable step is refused before any sweep
    (``require_stable_step``).  A deterministic demand gives one exact row.
    A stochastic one needs two or more paths, each a pure function of
    (seed, path index): the worker count sets the chunking only, never
    values.  The paths are split into one chunk per worker, of at most 2048
    paths, swept in order on the calling thread; a chunk's sweep holds about
    chunk x ``SLICE_STEPS`` x 8 bytes of normals.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    ag = setting.aggregates(impact_cost)
    clipped = None
    if steps is None:
        steps, clipped = _capped_steps(setting, impact_cost)
    horizon = Horizon.uniform(setting.T, steps)
    require_stable_step(ag.delta, horizon, _step_context(impact_cost, clipped))
    if demand.deterministic:
        fb = solve_forward(realize_driver(((1.0, demand),), horizon), ag.delta, horizon)
        cost = liquidity_cost_from_paths(fb.X, fb.u, ag.impact_weight)
        return np.array([cost]), np.array([trapezoid((fb.X - fb.U) ** 2, horizon.grid)])
    if n_paths < 2:
        raise ValueError(f"Monte Carlo needs at least 2 paths, got {n_paths}")
    chunk = min(2048, math.ceil(n_paths / workers))
    parts = [_chunk_sweep(demand, ag, horizon, seed, start, min(chunk, n_paths - start))
             for start in range(0, n_paths, chunk)]
    return tuple(np.concatenate(p) for p in zip(*parts))


def _means_stderrs(samples: list) -> tuple[list, list]:
    """Mean and standard error of each sample; a single exact row has no error."""
    means = [float(np.mean(v)) for v in samples]
    stderrs = [float(np.std(v, ddof=1) / math.sqrt(v.size)) if v.size > 1 else 0.0
               for v in samples]
    return means, stderrs


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
    slope: float | None  # None (null in reports) for one impact cost or a mean <= 0
    slope_ci: tuple | None  # None as well for two impact costs: no residual to size it
    prefactor: float
    prefactor_stderr: float
    prefactor_theory: float
    order_theory: float
    track_means: list  # E integral (K^N - U_bar)^2 dt: the price-convergence proxy
    track_stderrs: list
    track_monotone_within_2se: bool
    track_reduction_factor: float | None  # largest-lambda over smallest-lambda mean; None at 0
    warnings: list = field(default_factory=list)


def _slope_fit(lambdas, means) -> tuple[float | None, tuple[float, float] | None]:
    """Log-log slope and its 95% interval; one impact cost, or a mean <= 0, fits nothing.

    A line through two points leaves no residual to size the interval, so
    two impact costs give a slope and no interval.
    """
    if len(lambdas) < 2 or min(means) <= 0:
        return None, None
    x = np.log(np.asarray(lambdas))
    y = np.log(np.asarray(means))
    slope, intercept = np.polyfit(x, y, 1)
    if x.size < 3:
        return float(slope), None
    resid = y - (slope * x + intercept)
    se = math.sqrt(float(resid @ resid) / (x.size - 2) / float(np.sum((x - x.mean()) ** 2)))
    return float(slope), (float(slope - 1.96 * se), float(slope + 1.96 * se))


def scaling_study(
    setting: DealerSetting,
    demand: DemandProcess,
    lambdas,
    n_paths: int,
    seed: int = 0,
    workers: int = 1,
) -> LiquidityCostReport:
    """Mean cost per impact cost, log-log slope, the leading-order prefactor, and tracking.

    One ``simulate_costs`` call per impact cost (a deterministic demand is one
    exact row with standard error 0); grids clipped at ``STEP_CAP`` are
    listed in the warnings, and every grid is checked for a stable step
    before the first sweep runs.  The prefactor is read off at
    the smallest impact cost as mean / lam^order, next to the theory value.
    The impact costs must be distinct; with only one there is no slope.

    The same sweeps give the price-convergence proxy E integral
    (K^N - U_bar)^2 dt, which must fall (within two standard errors) as the
    open market becomes more liquid; its reduction factor is the mean at the
    largest impact cost over the mean at the smallest.
    """
    order, _ = demand.scaling_law(setting.T)
    lambdas = sorted(float(x) for x in lambdas)
    if len(set(lambdas)) < len(lambdas):
        raise ValueError(f"impact costs must be distinct, got {lambdas}")
    steps_used, warnings = [], []
    for lam in lambdas:  # every grid is checked before the first sweep runs
        steps, clipped = _capped_steps(setting, lam)
        require_stable_step(setting.aggregates(lam).delta, Horizon.uniform(setting.T, steps),
                            _step_context(lam, clipped))
        if clipped:
            warnings.append(clipped)
        steps_used.append(steps)
    costs, tracks = [], []
    for lam, steps in zip(lambdas, steps_used):
        cost, track = simulate_costs(setting, demand, lam, n_paths, seed, steps, workers)
        costs.append(cost)
        tracks.append(track)
    means, stderrs = _means_stderrs(costs)
    track_means, track_stderrs = _means_stderrs(tracks)
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
        path_counts=[c.size for c in costs],
        steps=steps_used,
        slope=slope,
        slope_ci=ci,
        prefactor=float(prefactor),
        prefactor_stderr=float(prefactor_se),
        prefactor_theory=theoretical_prefactor(setting, demand),
        order_theory=order,
        track_means=track_means,
        track_stderrs=track_stderrs,
        track_monotone_within_2se=all(
            lo <= hi + 2.0 * math.hypot(se_lo, se_hi)
            for lo, hi, se_lo, se_hi in zip(
                track_means, track_means[1:], track_stderrs, track_stderrs[1:]
            )
        ),
        track_reduction_factor=track_means[-1] / track_means[0] if track_means[0] > 0 else None,
        warnings=warnings,
    )
    if stderrs[0] > 0.1 * abs(means[0]):
        msg = (
            f"standard error at the smallest impact cost is {stderrs[0]:.3g} "
            f"({stderrs[0] / abs(means[0]):.1%} of the mean); increase the path count"
        )
        report.warnings.append(msg)
        logger.warning(msg)
    return report
