"""Hyperbolic decay kernel and feedback function of the open-market risk transfer.

The whole model is governed by a single mesh-rate parameter ``delta``
(units 1/time^2) built from risk tolerances and price elasticities.  The
two basic objects are

* the kernel ``k(t, s) = delta * cosh(sqrt(delta)*(T-s)) / cosh(sqrt(delta)*(T-t))``
* the feedback rate ``F(t) = sqrt(delta) * tanh(sqrt(delta)*(T-t))``

with the identity ``integral_t^T k(t, s) ds = F(t)``.  ``KernelWeight``
integrates the kernel against the conditional means of the demand family
in closed form; each demand kind builds its G coefficients from it.

All cosh/sinh ratios are evaluated in exponentially rescaled form:
``sqrt(delta)*T`` easily exceeds 710 in small-impact-cost sweeps, where a
naive ``cosh`` overflows double precision.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np


def require_count(name: str, value, least: int) -> None:
    """Refuse a count that is a bool, not an integer, or below ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def require_positive(name: str, value) -> None:
    """Refuse a value that is not positive and finite (NaN included)."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True, eq=False)
class Horizon:
    """Trading horizon [0, T] with a strictly increasing time grid."""

    T: float
    grid: np.ndarray = field(repr=False)

    def __post_init__(self):
        self._check_length(self.T)
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must be a 1-d array with at least two points")
        if grid[0] != 0.0 or grid[-1] != self.T:
            raise ValueError("grid must start at 0 and end at T")
        if not np.all(grid[1:] > grid[:-1]):  # one bool a step; a NaN node compares False
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        grid.flags.writeable = False

    @staticmethod
    def _check_length(T: float) -> None:
        if not 0 < T < math.inf:
            raise ValueError(f"horizon length must be positive and finite, got T={T}")

    @classmethod
    def uniform(cls, T: float, steps: int) -> "Horizon":
        cls._check_length(T)  # before linspace, which would warn on an infinite T
        require_count("steps", steps, 1)
        grid = np.linspace(0.0, T, steps + 1)
        grid[-1] = T
        return cls(T=float(T), grid=grid)

    @property
    def n_steps(self) -> int:
        return self.grid.size - 1

    @property
    def dt(self) -> np.ndarray:
        """Step lengths, shape (n_steps,)."""
        return np.diff(self.grid)


@dataclass(frozen=True)
class DeltaParam:
    """Mesh-rate parameter 0 < delta < inf with its cached square root."""

    delta: float
    sqrt_delta: float = field(init=False)

    def __post_init__(self):
        require_positive("delta", self.delta)  # eta*eta_bar overflows below lambda ~ 1e-154
        object.__setattr__(self, "delta", float(self.delta))
        object.__setattr__(self, "sqrt_delta", math.sqrt(self.delta))


def compute_delta(rho_bar: float, eta: float, eta_bar: float) -> DeltaParam:
    """Mesh rate delta = eta*eta_bar / (rho_bar*(eta + eta_bar)).

    ``eta`` (the common-impact elasticity) may be ``math.inf`` when the
    common impact cost vanishes; the formula then degenerates to the
    continuous limit ``eta_bar / rho_bar``.  Symmetrically for
    ``eta_bar = inf``.
    """
    if not rho_bar > 0:
        raise ValueError(f"aggregate risk tolerance must be positive, got {rho_bar}")
    if not eta_bar > 0:
        raise ValueError(f"aggregate elasticity must be positive, got {eta_bar}")
    if not eta > 0:
        raise ValueError(f"common elasticity must be positive, got {eta}")
    if math.isinf(eta):
        harmonic = eta_bar
    elif math.isinf(eta_bar):
        harmonic = eta
    else:
        harmonic = eta * eta_bar / (eta + eta_bar)
    return DeltaParam(harmonic / rho_bar)


# ----------------------------------------------------------------------
# stable hyperbolic ratios (arguments are the already scaled x = sqrt_delta*tau)
# ----------------------------------------------------------------------

def stable_cosh_ratio(x, y):
    """cosh(x)/cosh(y) for x, y >= 0, evaluated without overflow."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.exp(x - y) * (1.0 + np.exp(-2.0 * x)) / (1.0 + np.exp(-2.0 * y))


def stable_sinh_over_cosh(x, y):
    """sinh(x)/cosh(y) for x, y >= 0, evaluated without overflow."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.exp(x - y) * (1.0 - np.exp(-2.0 * x)) / (1.0 + np.exp(-2.0 * y))


def _check_time(t, T, name="t"):
    t = np.asarray(t, dtype=float)
    if np.any(t < 0) or np.any(t > T):
        raise ValueError(f"{name} must lie in [0, T]=[0, {T}]")
    return t


def eval_F(d: DeltaParam, t, T: float):
    """Feedback rate F(t) = sqrt(delta) * tanh(sqrt(delta)*(T - t))."""
    t = _check_time(t, T)
    return d.sqrt_delta * np.tanh(d.sqrt_delta * (T - t))


def trapezoid(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Trapezoidal integral along the last axis."""
    return np.sum(0.5 * (values[..., :-1] + values[..., 1:]) * np.diff(grid), axis=-1)


def cumulative_trapezoid(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Running trapezoidal integral along the last axis, starting at 0."""
    dt = np.diff(grid)
    panel = 0.5 * (values[..., :-1] + values[..., 1:]) * dt
    out = np.zeros(values.shape, dtype=float)
    np.cumsum(panel, axis=-1, out=out[..., 1:])
    return out


# ----------------------------------------------------------------------
# closed-form weight integrals behind the conditional kernel integral G
# ----------------------------------------------------------------------

def _phi(x: np.ndarray) -> np.ndarray:
    """expm1(x)/x with the removable singularity at 0."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    nz = x != 0
    out[nz] = np.expm1(x[nz]) / x[nz]
    return out


def _exp_difference(beta: float, kappa: float, tau: np.ndarray) -> np.ndarray:
    """e^{-beta*tau} * (e^{-kappa*tau} - e^{-beta*tau}) / (beta - kappa), stably.

    Factored as e^{-(beta + min(beta, kappa)) tau} * tau * phi(-|beta - kappa| tau):
    every exponent is <= 0, so nothing overflows, and the resonance kappa = beta
    is the removable singularity phi(0) = 1.
    """
    return np.exp(-(beta + min(beta, kappa)) * tau) * tau * _phi(-abs(beta - kappa) * tau)


def _exp_second_difference(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The divided difference exp[0, p, q] at nodes p, q <= 0, without cancellation.

    Within 1 of 0 it is sum_n h_n / (n + 2)!, h_n = sum_{i<=n} p^i q^(n-i); else, with
    0 >= x1 >= x2 the sorted nodes, (exp[0, x1] - exp[x1, x2]) / -x2 keeps a third of its lead.
    """
    low, high = np.minimum(p, q), np.maximum(p, q)
    out, near = np.empty_like(low), low > -1.0
    x1, x2 = high[near], low[near]
    h, power, total = np.ones_like(x1), np.ones_like(x1), np.full_like(x1, 0.5)
    for n in range(1, 20):
        power = power * x1
        h = x2 * h + power
        total = total + h / math.factorial(n + 2)
    out[near] = total
    x1, x2 = high[~near], low[~near]
    out[~near] = (_phi(x1) - np.exp(x1) * _phi(x2 - x1)) / -x2
    return out


def _ou_weight(d: DeltaParam, kappa: float, tau: np.ndarray, sign: float) -> np.ndarray:
    """``KernelWeight.exponential`` at tau = T - t; its kappa -> 0 limit is ``constant()``.

    The rate weight (sign -1) is b int_0^tau e^{-(b+kappa) s} (1 - e^{-2b(tau-s)}) ds over
    1 + e^{-2b tau}, b = sqrt(delta), and the integral is 2b tau^2 exp[0, -2b tau,
    -(b+kappa) tau]: the tau^2 it vanishes with near T is a factor, not a difference.
    """
    tau = np.asarray(tau, dtype=float)
    b = d.sqrt_delta
    if sign < 0:
        x = _exp_second_difference(-2.0 * b * tau, -(b + kappa) * tau)
        return 2.0 * d.delta * tau**2 * x / (1.0 + np.exp(-2.0 * b * tau))
    head = -np.expm1(-(b + kappa) * tau) / (b + kappa)
    return d.delta * (head + _exp_difference(b, kappa, tau)) / (1.0 + np.exp(-2.0 * b * tau))


def _suffix_product_integral(
    weighted_tail: np.ndarray, beta: float, grid: np.ndarray, sign: float
) -> np.ndarray:
    """R_i = integral_{t_i}^T e^{beta (t_i - s)} (1 + sign * e^{-2 beta (T - s)}) X_s ds.

    Backward recursion R_i = panel_i + e^{-beta dt_i} R_{i+1} with exact
    exponential weights on a linear interpolant; every factor stays in
    [0, 1], so arbitrarily stiff kernels cannot overflow.
    """
    T = grid[-1]
    g = weighted_tail * (1.0 + sign * np.exp(-2.0 * beta * (T - grid)))
    dt = np.diff(grid)
    x = beta * dt
    decay = np.exp(-x)
    c1 = -np.expm1(-x) / beta
    small = x < 1e-3
    c2 = np.empty_like(dt)
    c2[small] = dt[small] ** 2 * (0.5 - x[small] / 3.0 + x[small] ** 2 / 8.0)
    c2[~small] = (1.0 - decay[~small] * (1.0 + x[~small])) / beta**2
    w_left = c1 - c2 / dt
    w_right = c2 / dt
    out = np.zeros_like(g)
    acc = np.zeros(g.shape[:-1], dtype=float)
    for i in range(dt.size - 1, -1, -1):
        acc = acc * decay[i] + w_left[i] * g[..., i] + w_right[i] * g[..., i + 1]
        out[..., i] = acc
    return out


@dataclass(frozen=True, eq=False)
class KernelWeight:
    """Integrals t -> integral_t^T w(t, s) m(s) ds on ``grid`` for the means m of the demand family.

    ``sign=+1`` takes w = k, the kernel, so that m(s) = E_t[X_s] gives G(t).
    ``sign=-1`` takes w(t, v) = sqrt(delta) sinh(sqrt(delta)(T-v)) / cosh(sqrt(delta)(T-t)),
    the weight a rate r picks up when X is its running integral:
    integral_t^T k(t, s) (X_s - X_t) ds = integral_t^T w(t, v) r_v dv.
    """

    d: DeltaParam
    grid: np.ndarray
    T: float
    sign: float = 1.0

    @property
    def tau(self) -> np.ndarray:
        return self.T - self.grid

    def constant(self) -> np.ndarray:
        """integral_t^T w(t, s) ds: F(t), or 1 - sech(sqrt(delta)(T-t)) for the rate weight.

        1 - sech(x) is taken as expm1(-x)^2 / (1 + e^{-2x}): no overflow, and
        no cancellation near T, where the difference loses every digit.
        """
        if self.sign > 0:
            return eval_F(self.d, self.grid, self.T)
        x = self.d.sqrt_delta * self.tau
        return np.expm1(-x) ** 2 / (1.0 + np.exp(-2.0 * x))

    def exponential(self, kappa: float) -> np.ndarray:
        """integral_t^T w(t, s) e^{-kappa (s-t)} ds; at kappa = 0 exactly ``constant()``."""
        return self.constant() if kappa == 0.0 else _ou_weight(self.d, kappa, self.tau, self.sign)

    def sampled(self, values: np.ndarray) -> np.ndarray:
        """integral_t^T w(t, s) x_s ds for a path x sampled on the grid."""
        b = self.d.sqrt_delta
        scale = self.d.delta if self.sign > 0 else b
        R = _suffix_product_integral(values, b, self.grid, self.sign)
        return scale * R / (1.0 + np.exp(-2.0 * b * self.tau))
