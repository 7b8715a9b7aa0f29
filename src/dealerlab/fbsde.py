"""Forward solver for the linear risk-transfer system.

The aggregate open-market position U and trading rate u solve

    du_t = delta * (U_t - X_t) dt + dM_t,   u_T = 0,
    U_0 = 0,  dU_t = u_t dt,

for a demand driver X.  The unique solution is

    u_t = G(t) - F(t) * U_t,      G(t) = E_t[ integral_t^T k(t, s) X_s ds ],

so U follows the pathwise linear ODE dU = (G - F U) dt, integrated here
with Heun's method, its step folded into U' = a U + b u + c g' (see
``heun_coefficients``).  Its step multiplies an error in U by 1 - z + z^2/2,
z = F dt, which passes 1 at z = 2: ``require_stable_step`` refuses a grid
on which the largest F dt is above that bound.  G is closed form for every
supported driver kind (see ``dealerlab.processes``): affine in each
process's state at t, as all supported kinds are Markov.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import DeltaParam, Horizon, KernelWeight, eval_F
from .paths import realize
from .processes import ZERO, TermList

_BLOCK_STEPS = 4096  # Heun steps whose inputs are held as Python floats at once
HEUN_STABLE_STEP = 2.0  # largest F dt at which Heun's step does not amplify an error


def driver_is_deterministic(terms: TermList) -> bool:
    return all(p.deterministic for _, p in terms)


@dataclass
class RealizedDriver:
    """Every distinct process of a driver mapped to its realized state tuple (``realize``)."""

    terms: TermList
    paths: dict

    def values(self) -> np.ndarray:
        out = None
        for w, p in self.terms:
            v = w * self.paths[p][0]
            out = v if out is None else out + v
        return out


def realize_driver(
    terms: TermList, horizon: Horizon, seed: int | None = None, path_index: int = 0
) -> RealizedDriver:
    """Realize each distinct process of a weighted term list on its own substream.

    Streams are assigned by first appearance in the term list, so a
    process shared between terms (a common client target) is realized once.
    A driver whose terms cancelled to none is the zero process on the grid.
    """
    terms = tuple(terms) or ((1.0, ZERO),)
    paths: dict = {}
    stream = 0
    for _, p in terms:
        if p not in paths:
            paths[p] = realize(p, horizon, seed=seed, path_index=path_index, stream=stream)
            if not p.deterministic:
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
        out = out + w * p.g(p.g_coefficients(weight), realized.paths[p], slice(None))
    return out


# ----------------------------------------------------------------------
# forward solve
# ----------------------------------------------------------------------

def require_stable_step(d: DeltaParam, horizon: Horizon, context: str) -> None:
    """Refuse a grid whose largest F dt is above ``HEUN_STABLE_STEP``.

    A step from t_i starts on the slope of F(t_i), F's largest value on the
    step.  On a uniform grid F dt is at most sqrt(delta) T / steps, so
    ceil(sqrt(delta) T / 2) steps always suffice; the error names them,
    after ``context`` (the impact cost, a step cap).  F dt is taken
    ``_BLOCK_STEPS`` steps at a time, so the temporaries stay O(block).
    """
    grid = horizon.grid
    nodes = [grid[lo : lo + _BLOCK_STEPS + 1] for lo in range(0, horizon.n_steps, _BLOCK_STEPS)]
    # np.max, unlike max, carries a NaN through, and the test below refuses it
    z = float(np.max([np.max(eval_F(d, t[:-1], horizon.T) * np.diff(t)) for t in nodes]))
    if not z <= HEUN_STABLE_STEP:
        needed = math.ceil(d.sqrt_delta * horizon.T / HEUN_STABLE_STEP)
        raise ValueError(
            f"{context}: the time step is unstable, max F*dt = {z:.3g} > "
            f"{HEUN_STABLE_STEP:g} on {horizon.n_steps} steps; at least {needed} steps are needed"
        )


def solve_forward(realized: RealizedDriver, d: DeltaParam, horizon: Horizon):
    """Integrate dU = (G(t) - F(t) U) dt with U_0 = 0 by Heun's method: ``heun_path``'s (U, u).

    The driver is the realized one, one path or a batch of them.  The
    returned rate satisfies u = G - F*U exactly at the grid nodes, hence
    u_T = 0 exactly.
    """
    G = kernel_expectation_path(realized, d, horizon)
    return heun_path(G, eval_F(d, horizon.grid, horizon.T), horizon.dt)


def heun_coefficients(F_next: np.ndarray, dt: np.ndarray) -> tuple:
    """Heun's step for dU = (G - F U) dt folded into U' = a U + b u + c g', as Python floats.

    Heun's U' = U + c (u + g' - F' (U + dt u)), with c = dt / 2 and F' and
    g' at the step's end node, regroups to a = 1 - c F' and
    b = c (1 - dt F').  Returns the lists (F', a, b, c), one entry per step:
    the forward solve builds them per block and the Monte Carlo sweep per
    slice, so both step with one arithmetic.
    """
    c = 0.5 * dt
    a = 1.0 - c * F_next
    b = c * (1.0 - dt * F_next)
    return F_next.tolist(), a.tolist(), b.tolist(), c.tolist()


def heun_path(G: np.ndarray, F: np.ndarray, dt: np.ndarray):
    """Heun's method for dU = (G - F U) dt along the last axis of G from U_0 = 0.

    Returns the positions U and the node rates u = G - F U (u_0 = G_0).
    Rows of G step on Python floats, U' = a U + b u + c g' and then
    u' = g' - F' U', bit for bit the Monte Carlo sweep's array steps.  The
    inputs and the step coefficients are converted ``_BLOCK_STEPS`` steps at
    a time: the floats held stay O(block) at any step count, and each block
    carries (U_i, u_i) into the next.
    """
    U = np.zeros(G.shape)
    for row, g in zip(U.reshape(-1, G.shape[-1]), G.reshape(-1, G.shape[-1])):
        U_i, u_i = 0.0, float(g[0])
        for lo in range(0, dt.size, _BLOCK_STEPS):
            nodes = slice(lo + 1, lo + _BLOCK_STEPS + 1)
            coefficients = heun_coefficients(F[nodes], dt[lo : lo + _BLOCK_STEPS])
            values = g[nodes].tolist()  # each G value is replaced by its node's position
            for k, g_next, F_i, a, b, c in zip(range(len(values)), values, *coefficients):
                U_i = a * U_i + b * u_i + c * g_next
                u_i = g_next - F_i * U_i
                values[k] = U_i
            row[nodes] = values
            del coefficients, values  # this block's floats go before the next block's are built
    u = F * U
    return U, np.subtract(G, u, out=u)  # the loop's rates: the same product and difference
