"""Worked scenarios: optimal liquidation, diffusive targets, segmentation welfare.

The stylized roster throughout: M dealers (no targets, free open-market
access) facing M clients (common target xi_c, no open-market access),
all of mass 1/(2M).  The single mesh rate is then

    delta_M = 2 M / ((rho_c + rho_d) * lambda * (M + 1)),

with the competitive limit delta_inf = 2/((rho_c+rho_d) lambda), and the
integrated market (clients trade the open market too) runs at delta_{2M}.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .fbsde import require_stable_step
from .kernel import (
    DeltaParam,
    Horizon,
    compute_delta,
    eval_F,
    stable_cosh_ratio,
    stable_sech,
    stable_sinh_over_cosh,
)
from .paths import path_streams, require_key_word, standard_normal_block

INF_DEALERS = math.inf
SLICE_STEPS = 256  # time steps of diffusive shocks drawn at once; read at each call


@dataclass(frozen=True)
class LiquidationScenario:
    """Constant client target xi_c (a liquidation when negative)."""

    impact_cost: float = 0.1
    rho_c: float = 0.1
    rho_d: float = 0.1
    T: float = 1.0
    xi_c: float = -1.0
    n_dealers: float = 1

    def __post_init__(self):
        for name in ("impact_cost", "rho_c", "rho_d", "T"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not math.isfinite(self.xi_c):
            raise ValueError(f"xi_c must be finite, got {self.xi_c!r}")
        m = self.n_dealers
        if isinstance(m, bool) or not (m == INF_DEALERS or (float(m).is_integer() and m >= 1)):
            raise ValueError(f"n_dealers must be a positive integer or inf, got {m!r}")
        scenario_delta(self)  # its DeltaParam refuses a mesh rate that overflows


def scenario_delta(s: LiquidationScenario, doubled: bool = False) -> DeltaParam:
    """delta_M for the scenario; ``doubled`` gives the integrated market's delta_{2M}.

    The m agents with open-market access (the M dealers, joined by the M
    clients when doubled), each of mass 1/(2M), give eta_bar = m/lambda; at
    M = inf that is inf, and ``compute_delta`` gives the competitive limit.
    """
    m = 2 * s.n_dealers if doubled else s.n_dealers
    return compute_delta((s.rho_c + s.rho_d) / 2.0, 1.0 / s.impact_cost, m / s.impact_cost)


@dataclass
class LiquidationPaths:
    grid: np.ndarray
    U_bar: np.ndarray
    K_c: np.ndarray
    price_dev: np.ndarray


def liquidation_closed_form(s: LiquidationScenario, grid: np.ndarray) -> LiquidationPaths:
    """Exact hyperbolic paths of the liquidation equilibrium.

    U_bar   = (1 - cosh(b(T-t))/cosh(bT)) xi_c/2
    K_c     = xi_c - rho_c/(rho_c+rho_d) * cosh(b(T-t))/cosh(bT) * xi_c
    S - D   = xi_c/(rho_c+rho_d) * sinh(b(T-t)) / (b cosh(bT))
    """
    grid = np.asarray(grid, dtype=float)
    b = scenario_delta(s).sqrt_delta
    T = s.T
    C = stable_cosh_ratio(b * (T - grid), b * T)
    share_c = s.rho_c / (s.rho_c + s.rho_d)
    U_bar = (1.0 - C) * s.xi_c / 2.0
    K_c = s.xi_c * (1.0 - share_c * C)
    price_dev = s.xi_c / (s.rho_c + s.rho_d) * stable_sinh_over_cosh(b * (T - grid), b * T) / b
    return LiquidationPaths(grid=grid, U_bar=U_bar, K_c=K_c, price_dev=price_dev)


# ----------------------------------------------------------------------
# diffusive trading targets
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DiffusiveScenario(LiquidationScenario):
    """Brownian client target ('high-frequency trading need'), started at 0.

    The liquidation scenario with ``xi_c`` fixed at 0: it keeps the market
    fields and their checks, and adds the target volatility and the run's
    ``seed`` and ``steps`` (keyword-only).
    """

    xi_c: float = field(default=0.0, init=False, repr=False)
    sigma_xi: float = field(default=1.0, kw_only=True)
    seed: int = field(default=0, kw_only=True)
    steps: int = field(default=1000, kw_only=True)

    def __post_init__(self):
        super().__post_init__()
        if not 0 <= self.sigma_xi < math.inf:
            raise ValueError(f"sigma_xi must be >= 0 and finite, got {self.sigma_xi!r}")
        steps = self.steps
        if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 1:
            raise ValueError(f"steps must be an integer of at least 1, got {steps!r}")
        require_key_word("seed", self.seed)


@dataclass
class DiffusivePaths:
    grid: np.ndarray
    xi_c: np.ndarray
    K_c: np.ndarray
    xi_minus_U: np.ndarray
    price_dev: np.ndarray
    d_xi: np.ndarray  # per-step target shocks; share_d * d_xi is K_c's martingale part


def _diffusive_rows(s: DiffusiveScenario, n_paths: int, horizon: Horizon):
    """Euler-Maruyama steps of the diffusive-target equilibrium, one node at a time.

    dK_c       = F(t)(xi_c - K_c) dt + rho_d/(rho_c+rho_d) dxi_c
    d(xi - U)  = -F(t)(xi - U) dt + (1/2) dxi_c      (xi := xi_bar = xi_c/2)
    S - D      = F(t) (xi - U) / (delta rho_bar)

    Yields ``(xi_c, K_c, xi - U, S - D, dxi_c)`` at each node of ``horizon``:
    rows over the (seed, i) substreams, with ``dxi_c`` the shock to the next
    node (None at T).  The normals are drawn ``SLICE_STEPS`` steps at a time,
    when the rows first reach a slice, by one ``standard_normal_block`` fill
    of the transpose of one reused step-major buffer, and each step's
    contiguous row of it is scaled into its shock row; a consumer that keeps
    no rows works in O(paths x SLICE_STEPS) memory and draws no slice past
    its last row.  A substream drawn in pieces gives the numbers of one
    draw, whatever the fill's thread count, and the scheme is elementwise,
    so path i's rows depend on (seed, i) alone.
    """
    if n_paths < 1:
        raise ValueError(f"the diffusive simulation needs at least one path, got {n_paths}")
    d = scenario_delta(s)
    # an Euler step multiplies an error by 1 - F dt, past -1 where Heun's passes 1: F dt = 2
    require_stable_step(d, horizon, f"lambda={s.impact_cost:g}")
    F = eval_F(d, horizon.grid, s.T).tolist()
    dt = horizon.dt
    streams = path_streams(s.seed, 0, n_paths)
    shock_sd = (s.sigma_xi * np.sqrt(dt)).tolist()

    def shocks():
        width = SLICE_STEPS
        rows = np.empty((min(width, s.steps), n_paths))
        for lo in range(0, s.steps, width):
            w = min(width, s.steps - lo)
            standard_normal_block(streams, w, out=rows[:w].T)
            yield from map(np.multiply, shock_sd[lo : lo + w], rows[:w])

    share_d = s.rho_d / (s.rho_c + s.rho_d)
    rho_bar = (s.rho_c + s.rho_d) / 2.0
    scale = d.delta * rho_bar
    xi = K = Z = np.zeros(n_paths)
    for F_i, dt_i, dxi_i in zip(F, dt.tolist(), shocks()):
        yield xi, K, Z, F_i * Z / scale, dxi_i
        xi, K, Z = (xi + dxi_i,
                    K + F_i * (xi - K) * dt_i + share_d * dxi_i,
                    Z - F_i * Z * dt_i + 0.5 * dxi_i)
    yield xi, K, Z, F[-1] * Z / scale, None


def diffusive_simulate(s: DiffusiveScenario, n_paths: int) -> DiffusivePaths:
    """Euler-Maruyama simulation of the diffusive-target equilibrium, every node kept.

    The scheme of ``_diffusive_rows``: the martingale part of each K_c step
    is exactly the dealers' share of the target shock.  The time-major rows
    come back path-major: (paths, steps+1), and (paths, steps) for the
    shocks, one path included.
    """
    horizon = Horizon.uniform(s.T, s.steps)
    xi, K, Z, price_dev = (np.empty((horizon.grid.size, n_paths)) for _ in range(4))
    d_xi = np.empty((s.steps, n_paths))
    for i, (*node, shock) in enumerate(_diffusive_rows(s, n_paths, horizon)):
        xi[i], K[i], Z[i], price_dev[i] = node
        if shock is not None:
            d_xi[i] = shock
    return DiffusivePaths(
        grid=horizon.grid, xi_c=xi.T, K_c=K.T, xi_minus_U=Z.T, price_dev=price_dev.T,
        d_xi=d_xi.T,
    )


def price_reversion_regression(
    s: DiffusiveScenario, n_paths: int, t_max: float | None = None
) -> dict:
    """Regress d(S-D) on (S-D) dt and dxi_c over the steps of ``n_paths`` paths below ``t_max``.

    Away from the terminal boundary layer F ~ sqrt(delta), so the price
    deviation is approximately an OU process with mean-reversion rate
    sqrt(delta) and shock loading 1/(2 sqrt(delta) rho_bar).  The paths are
    stepped, not stored: each step in the window (the whole grid when
    ``t_max`` is None or at least T) adds its dot products to the 2x2 normal
    equations, summed over the steps by ``fsum``, which ``lstsq`` solves (to
    the min-norm (0, 0) when sigma_xi = 0).  The first step's regressor is 0,
    since S - D starts at 0, so the window needs at least two steps.
    """
    if t_max is not None and math.isnan(t_max):
        raise ValueError(f"t_max must be a number, got {t_max!r}")
    horizon = Horizon.uniform(s.T, s.steps)
    cut = s.steps if t_max is None else min(int(np.searchsorted(horizon.grid, t_max)), s.steps)
    if cut < 2:
        raise ValueError(
            f"the regression needs at least two steps before t_max={t_max!r}, "
            f"got {cut} of the {s.steps}-step grid"
        )
    rows = _diffusive_rows(s, n_paths, horizon)
    xi, _, _, price_dev, _ = next(rows)
    terms = []
    for dt_i in horizon.dt[:cut].tolist():
        xi_next, _, _, price_dev_next, _ = next(rows)
        x1 = price_dev * dt_i
        x2 = xi_next - xi
        y = price_dev_next - price_dev
        terms.append((x1 @ x1, x1 @ x2, x2 @ x2, x1 @ y, x2 @ y))
        xi, price_dev = xi_next, price_dev_next
    s11, s12, s22, s1y, s2y = (math.fsum(column) for column in zip(*terms))
    coef, *_ = np.linalg.lstsq(np.array([[s11, s12], [s12, s22]]), np.array([s1y, s2y]),
                               rcond=None)
    d = scenario_delta(s)
    rho_bar = (s.rho_c + s.rho_d) / 2.0
    return {
        "mean_reversion": 0.0 - float(coef[0]),  # 0 - x, not -x: a zero writes 0, not -0
        "loading": float(coef[1]),
        "mean_reversion_theory": d.sqrt_delta,
        "loading_theory": 1.0 / (2.0 * d.sqrt_delta * rho_bar),
        "n_paths": n_paths,
    }


# ----------------------------------------------------------------------
# segmentation welfare
# ----------------------------------------------------------------------

@dataclass
class WelfareReport:
    J_c_segmented: float
    J_c_integrated: float
    ratio: float
    asymptotic_J_c: float
    asymptotic_J_c_int: float
    asymptotic_ratio: float


def _hyperbolic_integrals(b: float, T: float) -> tuple[float, float, float]:
    """The integrals over [0, T] of C, C^2 and S^2, exactly.

    C = cosh(b(T-t))/cosh(bT) and S = sinh(b(T-t))/cosh(bT) integrate to
    tanh(bT)/b and (tanh(bT)/b +- T sech^2(bT))/2; ``stable_sech`` keeps a
    large bT from overflowing.
    """
    tanh_term = math.tanh(b * T) / b
    sech_term = T * float(stable_sech(b * T)) ** 2
    return tanh_term, (tanh_term + sech_term) / 2.0, (tanh_term - sech_term) / 2.0


def welfare_brackets(s: LiquidationScenario) -> tuple[float, float]:
    """The xi_c-free brackets of J_c = -xi_c^2/4 * bracket, segmented and integrated.

    With rho = rho_c + rho_d, the client's welfare integrands reduce to
    (4/rho) C - (2 rho_c/rho^2) C^2 at mesh delta_M, and to
    (2/rho) C + (2 rho_d/rho^2) C^2 + lambda delta_{2M} S^2 at delta_{2M}.
    """
    rho = s.rho_c + s.rho_d
    c, c2, _ = _hyperbolic_integrals(scenario_delta(s).sqrt_delta, s.T)
    segmented = 4.0 / rho * c - 2.0 * s.rho_c / rho**2 * c2
    d2 = scenario_delta(s, doubled=True)
    c, c2, s2 = _hyperbolic_integrals(d2.sqrt_delta, s.T)
    integrated = 2.0 / rho * c + 2.0 * s.rho_d / rho**2 * c2 + s.impact_cost * d2.delta * s2
    return segmented, integrated


def asymptotic_welfare_brackets(s: LiquidationScenario) -> tuple[float, float]:
    """``welfare_brackets`` as b T -> inf: C, C^2 and S^2 integrate to 1/b, 1/2b and 1/2b."""
    rho = s.rho_c + s.rho_d
    b = scenario_delta(s).sqrt_delta
    segmented = (4.0 / rho - s.rho_c / rho**2) / b
    d2 = scenario_delta(s, doubled=True)
    integrated = (2.0 / rho + s.rho_d / rho**2 + s.impact_cost * d2.delta / 2.0) / d2.sqrt_delta
    return segmented, integrated


def segmentation_welfare(s: LiquidationScenario) -> WelfareReport:
    """Welfare with and without client access to the open market.

    The exact integrals plus the small-impact-cost asymptotics; the ratio
    J_c / J_c_int, taken from the xi_c-free brackets so that it is defined
    at xi_c = 0, measures how much worse (both are negative) the segmented
    market leaves the clients.
    """
    if s.n_dealers == INF_DEALERS:
        raise ValueError("segmentation welfare needs a finite dealer count")
    loss = s.xi_c**2 / 4.0  # J = 0 - loss * bracket: a zero target writes 0, not -0
    exact, asymptotic = (
        (0.0 - loss * segmented, 0.0 - loss * integrated, segmented / integrated)
        for segmented, integrated in (welfare_brackets(s), asymptotic_welfare_brackets(s))
    )
    return WelfareReport(*exact, *asymptotic)
