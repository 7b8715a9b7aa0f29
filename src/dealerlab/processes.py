"""Demand processes: trading targets and noise demand, one definition per kind.

The supported family is deliberately small so that every conditional
expectation the equilibrium needs stays closed form:

* ``Constant`` -- a deterministic level; ``ZERO`` is ``Constant(0.0)``,
* ``Deterministic`` -- an arbitrary path sampled on the scenario grid,
* ``OrnsteinUhlenbeck`` -- the one diffusion: mean reversion kappa towards theta,
* ``BrownianMartingale`` -- x0 + sigma * W, its kappa = 0, theta = 0 case,
* ``SmoothRate`` -- the running integral of one of the above (depth 1).

Each kind validates itself when it is built (a ``ValueError`` names the
first bad field), and states once what the rest of the package asks of it:
its ``deterministic`` flag; its ``path`` on a grid,
or for stochastic kinds its ``start`` state and per-step ``stepper`` on unit
normals (a state is ``(x,)``, or ``(x, rate)`` for a smooth rate); the
coefficients of G_t = E_t[integral_t^T k(t, s) X_s ds] = A_t + B_t * x_t,
affine in the state (``g_coefficients`` and ``g``; B = 0 for deterministic
kinds, and a smooth rate adds F_t * x_t to its rate's coefficients under the
sinh weight); its ``conditional_mean``; and the moments behind the cost
scaling laws (``square_integral``, ``scaling_law``).

Weighted sums of targets are kept as term lists instead of being folded
into a single process: each distinct process keeps its own realized path,
and everything downstream of it is linear, so any mix of kinds has a
closed form.  A ``BrownianMartingale`` and an ``OrnsteinUhlenbeck`` with
kappa = theta = 0 are distinct processes (equality compares the class), so
a sum holding both realizes each on its own substream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Tuple

import numpy as np

from .kernel import KernelWeight, cumulative_trapezoid


class DemandProcess:
    """Base class of the supported process family."""

    __slots__ = ()
    deterministic = True

    def g(self, coef, state: tuple, i):
        """G at node(s) ``i`` from the state there and ``g_coefficients``."""
        A, B = coef
        return A[i] + B[i] * state[0]

    def conditional_mean(self, state: tuple, s: np.ndarray, t: float) -> tuple:
        raise ValueError(f"no closed-form conditional mean for {type(self).__name__}")

    def square_integral(self, T: float) -> float:
        raise ValueError(f"no closed-form squared integral for {type(self).__name__}")

    def scaling_law(self, T: float) -> tuple[float, float]:
        """(order, intensity): the cost is ~ lam^order times a multiple of the intensity."""
        raise ValueError(f"no scaling law for demand kind {type(self).__name__}")


@dataclass(frozen=True)
class Constant(DemandProcess):
    level: float

    def __post_init__(self):
        if not math.isfinite(self.level):
            raise ValueError(f"level must be finite, got {self.level}")

    def path(self, grid: np.ndarray) -> tuple:
        return (np.full(grid.size, self.level),)

    def g_coefficients(self, weight: KernelWeight) -> tuple:
        return self.level * weight.constant(), np.zeros(weight.grid.size)

    def square_integral(self, T: float) -> float:
        return self.level**2 * T


@dataclass(frozen=True)
class Deterministic(DemandProcess):
    """A path sampled on the scenario grid (one value per grid node)."""

    values: Tuple[float, ...]

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        bad = [v for v in values if not math.isfinite(v)]
        if bad:
            raise ValueError(f"deterministic samples must be finite, got {bad[0]}")
        object.__setattr__(self, "values", values)

    def path(self, grid: np.ndarray) -> tuple:
        if len(self.values) != grid.size:
            raise ValueError(
                f"deterministic path has {len(self.values)} samples, grid has {grid.size} nodes"
            )
        return (np.asarray(self.values, dtype=float),)

    def g_coefficients(self, weight: KernelWeight) -> tuple:
        return weight.sampled(self.path(weight.grid)[0]), np.zeros(weight.grid.size)

    def square_integral(self, T: float) -> float:
        """Trapezoid rule on the samples' own (uniform) grid."""
        v = np.asarray(self.values)
        dt = T / (v.size - 1)
        return float(np.sum(0.5 * (v[:-1] ** 2 + v[1:] ** 2) * dt))


@dataclass(frozen=True)
class OrnsteinUhlenbeck(DemandProcess):
    """dX = kappa (theta - X) dt + sigma dW from X_0 = x0; Brownian motion at kappa = 0."""

    x0: float
    kappa: float
    theta: float
    sigma: float
    deterministic = False

    def __post_init__(self):
        for name in ("x0", "theta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("kappa", "sigma"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be >= 0 and finite, got {getattr(self, name)}")

    def start(self, shape) -> tuple:
        return (np.full(shape, self.x0),)

    def stepper(self, dt: np.ndarray):
        """Exact-discretization recursion; at kappa = 0 the martingale step x + sd * z."""
        if self.kappa == 0.0:
            sd = self.sigma * np.sqrt(dt)
            return lambda state, i, z: (state[0] + sd[i] * z,)
        theta = self.theta
        decay = np.exp(-self.kappa * dt)
        sd = self.sigma * np.sqrt(-np.expm1(-2.0 * self.kappa * dt) / (2.0 * self.kappa))
        return lambda state, i, z: (theta + (state[0] - theta) * decay[i] + sd[i] * z,)

    def g_coefficients(self, weight: KernelWeight) -> tuple:
        w = weight.exponential(self.kappa)
        return self.theta * (weight.constant() - w), w

    def conditional_mean(self, state: tuple, s: np.ndarray, t: float) -> tuple:
        return (self.theta + (state[0] - self.theta) * np.exp(-self.kappa * (s - t)),)

    def square_integral(self, T: float) -> float:
        k, th, x0, sg = self.kappa, self.theta, self.x0, self.sigma
        if k == 0.0:
            return x0**2 * T + sg**2 * T**2 / 2.0
        e1 = -math.expm1(-k * T)
        e2 = -math.expm1(-2.0 * k * T)
        mean_sq = th**2 * T + 2.0 * th * (x0 - th) * e1 / k + (x0 - th) ** 2 * e2 / (2.0 * k)
        var = sg**2 / (2.0 * k) * (T - e2 / (2.0 * k))
        return mean_sq + var

    def scaling_law(self, T: float) -> tuple[float, float]:
        return 0.5, self.sigma**2 * T


@dataclass(frozen=True)
class BrownianMartingale(OrnsteinUhlenbeck):
    """x0 + sigma * W: the kappa = 0, theta = 0 case."""

    kappa: float = field(default=0.0, init=False, repr=False)
    theta: float = field(default=0.0, init=False, repr=False)


@dataclass(frozen=True)
class SmoothRate(DemandProcess):
    """Running integral of ``rate`` (trapezoid rule on the grid); the process itself starts at 0."""

    rate: DemandProcess

    @property
    def deterministic(self) -> bool:
        return self.rate.deterministic

    def __post_init__(self):
        if isinstance(self.rate, SmoothRate):
            raise ValueError("smooth-rate nesting is limited to depth 1")

    def path(self, grid: np.ndarray) -> tuple:
        (rate,) = self.rate.path(grid)
        return cumulative_trapezoid(rate, grid), rate

    def start(self, shape) -> tuple:
        return (np.zeros(shape),) + self.rate.start(shape)

    def stepper(self, dt: np.ndarray):
        advance_rate = self.rate.stepper(dt)

        def advance(state, i, z):
            x, r = state
            (r_new,) = advance_rate((r,), i, z)
            return x + 0.5 * dt[i] * (r + r_new), r_new

        return advance

    def g_coefficients(self, weight: KernelWeight) -> tuple:
        return (weight.constant(),) + self.rate.g_coefficients(replace(weight, sign=-1.0))

    def g(self, coef, state: tuple, i):
        level, A, B = coef
        return level[i] * state[0] + self.rate.g((A, B), state[1:], i)

    def scaling_law(self, T: float) -> tuple[float, float]:
        return 1.0, self.rate.square_integral(T)


ZERO = Constant(0.0)

#: (weight, process) pairs; the canonical form of a mass-weighted sum
TermList = Tuple[Tuple[float, DemandProcess], ...]


def combine(terms: Iterable[tuple[float, DemandProcess]]) -> TermList:
    """Canonicalize a weighted sum of processes.

    Zero weights and zero processes (any process equal to ``ZERO``) are
    dropped, and equal processes are merged (agents quoting the same target
    share one realized path).  Every other term stays a term of its own, so
    kinds mix freely.
    """
    merged: dict[DemandProcess, float] = {}
    for weight, process in terms:
        if weight == 0.0 or process == ZERO:
            continue
        merged[process] = merged.get(process, 0.0) + float(weight)
    return tuple((w, p) for p, w in merged.items() if w != 0.0)
