"""Forward solver for the linear risk-transfer system.

The aggregate open-market position U and trading rate u solve

    du_t = delta * (U_t - X_t) dt + dM_t,   u_T = 0,
    U_0 = 0,  dU_t = u_t dt,

for a demand driver X.  The unique solution is

    u_t = G(t) - F(t) * U_t,      G(t) = E_t[ integral_t^T k(t, s) X_s ds ],

so U follows the pathwise linear ODE dU = (G - F U) dt, integrated here
with Heun's method.  G is closed form for every supported driver kind
(see ``dealerlab.processes``): affine in each process's state at t, as all
supported kinds are Markov.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import DeltaParam, Horizon, KernelWeight, eval_F
from .paths import realize
from .processes import ZERO, DemandProcess, TermList, is_deterministic


def as_terms(driver) -> TermList:
    """Normalize a driver (single process or weighted terms) to a term list."""
    if isinstance(driver, DemandProcess):
        return ((1.0, driver),)
    return tuple((float(w), p) for w, p in driver)


def driver_is_deterministic(terms: TermList) -> bool:
    return all(is_deterministic(p) for _, p in terms)


@dataclass
class RealizedDriver:
    """Realized paths of every distinct process appearing in a driver."""

    terms: TermList
    paths: dict

    def values(self) -> np.ndarray:
        out = None
        for w, p in self.terms:
            v = w * self.paths[p].values
            out = v if out is None else out + v
        return out


def realize_driver(
    driver, horizon: Horizon, seed: int | None = None, path_index: int = 0
) -> RealizedDriver:
    """Realize each distinct process of a driver on its own substream.

    Streams are assigned by first appearance in the term list, so a
    process shared between terms (a common client target) is realized once.
    A driver whose terms cancelled to none is the zero process on the grid.
    """
    terms = as_terms(driver) or ((1.0, ZERO),)
    paths: dict = {}
    stream = 0
    for _, p in terms:
        if p not in paths:
            paths[p] = realize(p, horizon, seed=seed, path_index=path_index, stream=stream)
            if not is_deterministic(p):
                stream += 1
    return RealizedDriver(terms, paths)


# ----------------------------------------------------------------------
# closed-form conditional kernel integrals
# ----------------------------------------------------------------------

def kernel_expectation_path(
    realized: RealizedDriver, d: DeltaParam, horizon: Horizon
) -> np.ndarray:
    """G(t) = E_t[ integral_t^T k(t, s) X_s ds ] along the grid, per path."""
    weight = KernelWeight(d, horizon.grid, horizon.T)
    out = np.zeros(horizon.grid.size)
    for w, p in realized.terms:
        state = realized.paths[p].state()
        out = out + w * p.g(p.g_coefficients(weight), state, slice(None))
    return out


def conditional_kernel_integral(
    process: DemandProcess,
    d: DeltaParam,
    t: float,
    horizon: Horizon,
    state: float | tuple | None = None,
) -> float:
    """Pointwise G(t, state) for a single process.

    ``state`` is the realized value of a stochastic process at t (and, for
    smooth-rate processes, the pair (level, rate)).  Grid-sampled kinds
    require t to be a grid node.
    """
    T = horizon.T
    if not 0.0 <= t <= T:
        raise ValueError(f"t={t} outside [0, {T}]")
    grid = np.union1d(horizon.grid, [t])  # t joins the grid unless it is a node
    i = int(np.searchsorted(grid, t))
    if is_deterministic(process):
        state = realize(process, Horizon(T, grid)).state(i)
    elif state is None:
        raise ValueError(f"{type(process).__name__} driver needs its realized state")
    elif not isinstance(state, tuple):
        state = (state,)
    coef = process.g_coefficients(KernelWeight(d, grid, T))
    return float(process.g(coef, state, i))


# ----------------------------------------------------------------------
# forward solve and residual
# ----------------------------------------------------------------------

@dataclass
class FbsdePath:
    """Grid paths of the rate u, position U, and realized driver X."""

    horizon: Horizon
    u: np.ndarray
    U: np.ndarray
    X: np.ndarray
    driver: TermList


def solve_forward(
    driver,
    d: DeltaParam,
    horizon: Horizon,
    seed: int | None = None,
    realized: RealizedDriver | None = None,
) -> FbsdePath:
    """Integrate dU = (G(t) - F(t) U) dt with U_0 = 0 by Heun's method.

    Deterministic drivers need no randomness; stochastic drivers are
    realized from path 0 of ``seed`` unless ``realized`` is supplied.
    The returned rate satisfies u = G - F*U exactly at the grid nodes,
    hence u_T = 0 exactly.
    """
    terms = as_terms(driver)
    if realized is None:
        realized = realize_driver(terms, horizon, seed=seed)
    G = kernel_expectation_path(realized, d, horizon)
    U, u = heun_path(G, eval_F(d, horizon.grid, horizon.T), horizon.dt)
    return FbsdePath(horizon=horizon, u=u, U=U, X=realized.values(), driver=terms)


def heun_step(U, u, g_next, F_next: float, dt: float):
    """One Heun step of dU = (G - F U) dt from a node where the rate is u = G - F U.

    Returns the position at the next node and the rate there,
    ``g_next - F_next * U_next``, which is the next step's first slope.
    """
    k2 = g_next - F_next * (U + dt * u)
    U_next = U + 0.5 * dt * (u + k2)
    return U_next, g_next - F_next * U_next


def heun_path(G: np.ndarray, F: np.ndarray, dt: np.ndarray, U0=0.0):
    """Heun's method for dU = (G - F U) dt along the last axis of G from U_0 = U0.

    Returns the positions U and the node rates u = G - F U (u_0 = G_0 - F_0 U0).
    Rows of G step on Python floats: bit for bit the Monte Carlo sweep's array steps.
    """
    F0, F_next, steps = float(F[0]), F[1:].tolist(), dt.tolist()
    starts = np.broadcast_to(U0, G.shape[:-1]).ravel().tolist()
    U = np.empty(G.shape)
    for row, g, U_i in zip(U.reshape(-1, G.shape[-1]), G.reshape(-1, G.shape[-1]).tolist(), starts):
        u_i, positions = g[0] - F0 * U_i, [U_i]
        for g_next, F_i, dt_i in zip(g[1:], F_next, steps):
            U_i, u_i = heun_step(U_i, u_i, g_next, F_i, dt_i)
            positions.append(U_i)
        row[:] = positions
    return U, G - F * U  # heun_step's rates: the same product and difference


@dataclass
class ResidualReport:
    max_drift_residual: float
    terminal_rate: float


def fbsde_residual(path: FbsdePath, d: DeltaParam) -> ResidualReport:
    """Drift residual max_i |(u_{i+1}-u_i)/(dt_i delta) - (U_i - X_i)| and |u_T|.

    Only meaningful for deterministic drivers, where the martingale part
    of du vanishes; both statistics are O(dt) for the Heun scheme.
    """
    if not driver_is_deterministic(path.driver):
        raise ValueError("drift residual is defined for deterministic drivers only")
    dt = path.horizon.dt
    du = np.diff(path.u, axis=-1)
    drift = du / (dt * d.delta)
    resid = drift - (path.U[..., :-1] - path.X[..., :-1])
    return ResidualReport(
        max_drift_residual=float(np.max(np.abs(resid))),
        terminal_rate=float(np.max(np.abs(path.u[..., -1]))),
    )
