"""Liquidity costs of noise-trader demand and their small-impact-cost scaling laws.

A study sweeps a list of dealers-only markets of one noise demand K^N,
absorbed by agents without trading targets.  Each market's mesh rate delta
and impact weight 1/eta + 1/eta_bar are read from its own aggregates,
exactly as the equilibrium reads them.  The noise traders' cost of trading
through the dealers rather than at the fundamental price is computed D-free
through the integration-by-parts identity

    cost = -(1/eta + 1/eta_bar) * integral K^N du_bar,

discretized with left-endpoint sums.  Two laws are verified numerically:
smooth demand costs (1/eta + 1/eta_bar) * integral (mu^N)^2 dt + o(lam),
diffusive demand (1/eta + 1/eta_bar) sqrt(delta) * integral (sigma^N)^2 dt
+ o(sqrt(lam)).  For M dealers of mass 1/M and risk tolerance rho_d the
weights are lam (M+1)/M and sqrt(lam (M+1)/(M rho_d)): diffusive demand is
one order of lam cheaper to hedge, and sensitive to the dealers' inventory
cost through rho_d^{-1/2}.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .fbsde import heun_coefficients, realize_driver, require_stable_step, solve_forward
from .kernel import (
    DeltaParam, Horizon, KernelWeight, eval_F, require_count, require_positive, trapezoid
)
from .market import Aggregates, MarketParams, aggregate
from .paths import integrate_against, path_streams, require_key_word, standard_normal_block
from .processes import DemandProcess

logger = logging.getLogger(__name__)


STEP_CAP = 1_000_000  # most grid steps a study picks by itself; read at each call
SLICE_STEPS = 1024  # time steps of normals the sweep draws at once; read at each call


def steps_for(d: DeltaParam, T: float) -> int:
    """Grid size resolving the width-1/sqrt(delta) boundary layer near maturity."""
    return max(400, math.ceil(50 * d.sqrt_delta * T))


def _require_study(markets: list, T: float) -> None:
    """Refuse no markets, two noise demands, a T that is not positive and finite, or a target."""
    if not markets or any(m.noise_demand != markets[0].noise_demand for m in markets):
        raise ValueError("a cost study takes one or more markets of one noise demand")
    require_positive("T", T)
    if any(aggregate(market).xi_bar for market in markets):
        raise ValueError("a cost study takes a market without trading targets, "
                         "driven by its noise demand alone")


def _capped_steps(markets: list, T: float) -> list:
    """Each market's ``steps_for`` clipped at ``STEP_CAP``, with the note of a clip (None
    without one), which names the market by its index in ``markets`` and its impact cost."""
    capped = []
    for i, market in enumerate(markets):
        wanted = steps_for(aggregate(market).delta, T)
        steps = min(wanted, STEP_CAP)
        note = (f"step cap on market {i} at lambda={market.impact_cost:g}: "
                f"{wanted} steps wanted, {steps} used")
        capped.append((steps, note if steps < wanted else None))
    return capped


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

def _normal_slices(streams, n_steps: int):
    """The normals of ``streams`` for steps 0 .. n_steps - 1, ``SLICE_STEPS`` steps at a time.

    Yields (first step, rows), where rows[j] holds each stream's normal of
    step first + j: a view into one reused step-major buffer of
    ``SLICE_STEPS`` x len(streams) floats, valid until the next slice is
    taken.  Each slice is one ``standard_normal_block`` call that fills the
    buffer's transpose, its streams split over the process's CPUs in tiles:
    the rows are exactly the transpose of one path-major fill of all
    ``n_steps`` steps whatever the thread count, and no path-major block
    larger than one tile is ever built.
    """
    width = SLICE_STEPS
    rows = np.empty((min(width, n_steps), len(streams)))
    for lo in range(0, n_steps, width):
        w = min(width, n_steps - lo)
        standard_normal_block(streams, w, out=rows[:w].T)
        yield lo, rows[:w]


def _grid_sweep(demand: DemandProcess, ag: Aggregates, horizon: Horizon, n_paths: int):
    """One grid's fused Heun sweep over a block of paths, as a generator fed its normals.

    Send it each slice (first step, rows) of the block's normals in turn: it
    takes its steps among them, step i on rows[i - first], up to its last,
    and yields the per-path cost and tracking integral so far; a slice past
    its last step changes nothing.  Each slice's arrays are built from that
    slice's nodes alone and indexed from its first step: F, the Heun
    coefficients, the tracking weights, the G coefficients and the demand's
    stepper.  Every one of them is elementwise in the nodes, so they are the
    whole grid's values bit for bit, and the sweep holds O(paths + slice)
    floats whatever the step count.  The state advance and G come from the
    demand's kind, exactly as in ``realize`` and ``solve_forward``, and the
    step is ``heun_path``'s U' = a U + b u + c g' on in-place ufuncs, its
    scalars converted to Python floats by ``heun_coefficients``.  Each
    node's squared gap (x - U)^2 enters the tracking trapezoid once,
    weighted by (dt_{i-1} + dt_i) / 2.
    """
    d, grid, T = ag.delta, horizon.grid, horizon.T
    state = demand.start(n_paths)
    x, U = state[0], np.zeros(n_paths)
    u = demand.g(demand.g_coefficients(KernelWeight(d, grid[:1], T)), state, 0)  # G at node 0
    cost, track = np.zeros(n_paths), np.square(x - U) * (0.5 * (grid[1] - grid[0]))
    gap, work = np.empty(n_paths), np.empty(n_paths)
    totals = None
    while True:
        lo, rows = yield totals
        hi = min(lo + len(rows), horizon.n_steps)
        if hi <= lo:
            continue  # the grid ended before this slice
        nodes = grid[lo : hi + 1]
        dt = np.diff(nodes)
        steps = heun_coefficients(eval_F(d, nodes[1:], T), dt)
        # h_i = dt_i / 2 for the slice's steps and the one after it, and h_n = 0 past the end
        half_dt = np.append(0.5 * np.diff(grid[lo : hi + 2]), 0.0)
        weights = (half_dt[: hi - lo] + half_dt[1 : hi - lo + 1]).tolist()
        coef = demand.g_coefficients(KernelWeight(d, nodes, T))
        advance = demand.stepper(dt)
        for j, z_j, F_j, a, b, c, w in zip(range(hi - lo), rows, *steps, weights):
            state = advance(state, j, z_j)
            g = demand.g(coef, state, j + 1)
            U *= a
            U += np.multiply(u, b, out=work)
            U += np.multiply(g, c, out=work)
            np.subtract(g, np.multiply(U, F_j, out=work), out=work)  # the next node's rate
            np.subtract(work, u, out=u)
            u *= x
            cost += u
            u, work = work, u
            x = state[0]
            np.square(np.subtract(x, U, out=gap), out=gap)
            gap *= w
            track += gap
        # this slice's arrays and floats go before the next slice's are built
        del dt, steps, half_dt, weights, coef, advance
        totals = -ag.impact_weight * cost, track


def _chunk_sweep(
    demand: DemandProcess, grids: list, seed: int, first_path: int, n_paths: int
) -> list:
    """(cost, tracking integral) on each (aggregates, horizon) grid for a block of paths.

    The block's path streams are built once and its normals drawn once,
    for the longest grid, in slices of O(n_paths * SLICE_STEPS) floats;
    every grid's sweep takes its steps from each slice in turn, building
    its per-step arrays from that slice's nodes.  Step i of every grid reads
    normal i of each path, so a grid's arrays are the ones a sweep of that
    grid alone gives.  It holds one slice of normals, one fill tile and
    O(paths + slice) floats per grid; only the grids' nodes, which the
    caller builds, grow with the step count.
    """
    sweeps = [_grid_sweep(demand, ag, horizon, n_paths) for ag, horizon in grids]
    for sweep in sweeps:
        next(sweep)  # each grid's set-up, up to its first slice
    streams = path_streams(seed, first_path, n_paths)
    for block in _normal_slices(streams, max(h.n_steps for _, h in grids)):
        totals = [sweep.send(block) for sweep in sweeps]
    return totals


def simulate_costs(
    markets: list,
    T: float,
    n_paths: int,
    seed: int,
    steps=None,
    workers: int = 1,
) -> tuple[list, list]:
    """Per-path cost and tracking-integral arrays, path index order, for each market.

    Returns (costs, tracks), one array per market in each list: the noise
    demand on [0, T], which the markets must share, each market at its own
    impact cost and agents; none may hold a trading target.  Each market's
    grid has ``steps`` steps (a sequence as long as ``markets``), by
    default ``steps_for``'s clipped at ``STEP_CAP``, each clip logged.
    Every grid too coarse for a stable step is refused before any sweep
    (``require_stable_step``).  A deterministic demand gives one exact row
    per market.  A stochastic one needs two or more paths, each a pure
    function of (seed, path index): the worker count sets the chunking only,
    never values.  The paths are split into one chunk per worker, of at most
    2048 paths, swept in order on the calling thread.  A chunk draws its
    normals once, for its longest grid, and every market's grid reads them;
    its sweep holds about chunk x ``SLICE_STEPS`` x 8 bytes of normals, and
    each grid's sweep builds its per-step arrays one slice at a time.  The
    only arrays as long as a grid are its nodes, held to the end (the
    stability check goes a block at a time).  Only each slice's fill runs on
    more than one thread: ``standard_normal_block`` splits the chunk's
    streams over the process's CPUs and joins them before the sweep reads
    the slice; the values do not depend on the CPU count, and the fill's own
    buffers hold one tile of ``TILE_PATHS`` streams in all.
    """
    _require_study(markets, T)
    require_count("workers", workers, 1)
    require_count("n_paths", n_paths, 0)
    require_key_word("seed", seed)  # on both branches, though a deterministic demand draws none
    demand = markets[0].noise_demand
    capped = _capped_steps(markets, T) if steps is None else [(n, None) for n in steps]
    grids = []
    for market, (n, clipped) in zip(markets, capped, strict=True):
        if clipped:
            logger.warning(clipped)
        ag, horizon = aggregate(market), Horizon.uniform(T, n)
        require_stable_step(ag.delta, horizon, _step_context(market.impact_cost, clipped))
        grids.append((ag, horizon))
    if demand.deterministic:
        pairs = []
        for ag, horizon in grids:
            realized = realize_driver(((1.0, demand),), horizon)
            U, u = solve_forward(realized, ag.delta, horizon)
            X = realized.values()
            cost = liquidity_cost_from_paths(X, u, ag.impact_weight)
            track = trapezoid((X - U) ** 2, horizon.grid)
            pairs.append((np.array([cost]), np.array([track])))
    else:
        if n_paths < 2:
            raise ValueError(f"Monte Carlo needs at least 2 paths, got {n_paths}")
        chunk = min(2048, math.ceil(n_paths / workers))
        parts = [_chunk_sweep(demand, grids, seed, start, min(chunk, n_paths - start))
                 for start in range(0, n_paths, chunk)]
        pairs = [tuple(np.concatenate(p) for p in zip(*chunks)) for chunks in zip(*parts)]
    return [cost for cost, _ in pairs], [track for _, track in pairs]


def _means_stderrs(samples: list) -> tuple[list, list]:
    """Mean and standard error of each sample; a single exact row has no error."""
    means = [float(np.mean(v)) for v in samples]
    stderrs = [float(np.std(v, ddof=1) / math.sqrt(v.size)) if v.size > 1 else 0.0
               for v in samples]
    return means, stderrs


# ----------------------------------------------------------------------
# theory prefactors
# ----------------------------------------------------------------------

def theoretical_prefactor(market: MarketParams, T: float) -> float:
    """Leading-order cost prefactor of the market's noise demand on [0, T], at its impact cost.

    With w = 1/eta + 1/eta_bar the impact weight and delta the mesh rate:
    smooth demand, w/lam * E int (mu^N)^2 dt multiplying lam ((M+1)/M for M
    dealers of mass 1/M); diffusive demand, w sqrt(delta)/sqrt(lam) *
    E int (sigma^N)^2 dt multiplying sqrt(lam) (sqrt((M+1)/(M rho_d))).
    """
    ag, lam = aggregate(market), market.impact_cost
    order, intensity = market.noise_demand.scaling_law(T)
    if order == 1.0:
        return ag.impact_weight / lam * intensity
    return ag.impact_weight * ag.delta.sqrt_delta / math.sqrt(lam) * intensity


# ----------------------------------------------------------------------
# studies
# ----------------------------------------------------------------------

@dataclass
class LiquidityCostReport:
    family: str
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
    track_reduction_factor: float | None  # largest- over smallest-lambda mean; None for one or at 0
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
    market: MarketParams,
    T: float,
    lambdas,
    n_paths: int,
    seed: int = 0,
    workers: int = 1,
) -> LiquidityCostReport:
    """Mean cost per impact cost, log-log slope, the leading-order prefactor, and tracking.

    One ``simulate_costs`` call sweeps the market, taking each impact cost in
    place of its own, over one draw of normals of its noise demand on [0, T]
    (a deterministic demand is one exact row per impact cost, with standard
    error 0); grids clipped at ``STEP_CAP`` are listed in the warnings, and
    every grid is checked for a stable step before the first sweep runs.
    The prefactor is read off at the smallest impact cost as mean /
    lam^order, next to the theory value of the market at that impact cost.
    The impact costs must be one or more, distinct and positive; with only
    one there is no slope and no reduction factor.

    The same sweeps give the price-convergence proxy E integral
    (K^N - U_bar)^2 dt, which must fall (within two standard errors) as the
    open market becomes more liquid; its reduction factor is the mean at the
    largest impact cost over the mean at the smallest.
    """
    lambdas = sorted(float(x) for x in lambdas)
    if not lambdas or len(set(lambdas)) < len(lambdas) or not lambdas[0] > 0:
        raise ValueError(f"impact costs must be one or more, distinct and positive, got {lambdas}")
    markets = [replace(market, impact_cost=lam) for lam in lambdas]
    costs, tracks = simulate_costs(markets, T, n_paths, seed, workers=workers)
    capped = _capped_steps(markets, T)  # the grids simulate_costs picked
    order, _ = market.noise_demand.scaling_law(T)
    means, stderrs = _means_stderrs(costs)
    track_means, track_stderrs = _means_stderrs(tracks)
    slope, ci = _slope_fit(lambdas, means)
    lam_min = lambdas[0]
    prefactor = means[0] / lam_min**order
    prefactor_se = stderrs[0] / lam_min**order
    report = LiquidityCostReport(
        family="smooth" if order == 1.0 else "diffusive",
        lambdas=list(lambdas),
        means=means,
        stderrs=stderrs,
        path_counts=[c.size for c in costs],
        steps=[steps for steps, _ in capped],
        slope=slope,
        slope_ci=ci,
        prefactor=float(prefactor),
        prefactor_stderr=float(prefactor_se),
        prefactor_theory=theoretical_prefactor(markets[0], T),
        order_theory=order,
        track_means=track_means,
        track_stderrs=track_stderrs,
        track_monotone_within_2se=all(
            lo <= hi + 2.0 * math.hypot(se_lo, se_hi)
            for lo, hi, se_lo, se_hi in zip(
                track_means, track_means[1:], track_stderrs, track_stderrs[1:]
            )
        ),
        track_reduction_factor=(track_means[-1] / track_means[0]
                                if len(lambdas) > 1 and track_means[0] > 0 else None),
        warnings=[note for _, note in capped if note],
    )
    if stderrs[0] > 0.1 * abs(means[0]):
        msg = (
            f"standard error at the smallest impact cost is {stderrs[0]:.3g} "
            f"({stderrs[0] / abs(means[0]):.1%} of the mean); increase the path count"
        )
        report.warnings.append(msg)
        logger.warning(msg)
    return report
