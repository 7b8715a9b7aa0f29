"""Engine checks against closed forms and nested-quadrature oracles."""

import math

import numpy as np
import pytest

from dealerlab.fbsde import (
    RealizedDriver,
    heun_coefficients,
    heun_path,
    kernel_expectation_path,
    realize_driver,
    solve_forward,
)
from dealerlab.kernel import (
    DeltaParam,
    Horizon,
    KernelWeight,
    _exp_difference,
    _ou_weight,
    eval_F,
    stable_sech,
)
from dealerlab.paths import realize
from dealerlab.processes import (
    BrownianMartingale,
    Constant,
    Deterministic,
    OrnsteinUhlenbeck,
    SmoothRate,
    ZERO,
    combine,
)

from crosschecks import eval_k, fbsde_residual, heun_step, simpson


def double_integral_position(
    realized: RealizedDriver, d: DeltaParam, horizon: Horizon
) -> np.ndarray:
    """U via the double-integral representation, trapezoid in the outer integral.

    (1/delta) * integral_0^t k(s, t) G(s) ds with the cosh ratio in
    rescaled form; O(n^2)-free because the e^{-beta(t-s)} factor folds
    into a forward recursion.  Kept as an independent cross-check of the
    Heun route (same G, different integrator).
    """
    grid = horizon.grid
    b = d.sqrt_delta
    tau = horizon.T - grid
    G = kernel_expectation_path(realized, d, horizon)
    # k(s,t)/delta = e^{-beta(t-s)} (1 + e^{-2 beta tau_t}) / (1 + e^{-2 beta tau_s})
    h = G / (1.0 + np.exp(-2.0 * b * tau))
    dt = horizon.dt
    decay = np.exp(-b * dt)
    out = np.zeros_like(G)
    acc = np.zeros(G.shape[:-1], dtype=float)
    for i in range(dt.size):
        acc = acc * decay[i] + 0.5 * dt[i] * (h[..., i] * decay[i] + h[..., i + 1])
        out[..., i + 1] = acc
    return out * (1.0 + np.exp(-2.0 * b * tau))


def forward(process, d, horizon, seed=None):
    """The forward solve's (U, u) driven by one process, realized from path 0 of ``seed``."""
    return solve_forward(realize_driver(((1.0, process),), horizon, seed=seed), d, horizon)


def closed_form_position_constant(c, delta, grid):
    # (1 - cosh(sqrt(delta)(T-t))/cosh(sqrt(delta) T)) * c  for a constant driver
    from dealerlab.kernel import stable_cosh_ratio

    b = math.sqrt(delta)
    T = grid[-1]
    return (1.0 - stable_cosh_ratio(b * (T - grid), b * T)) * c


def conditional_kernel_integral(process, d, t, horizon, state=None):
    """Pointwise G(t, state) for a single process through its table entries.

    ``state`` is the realized value of a stochastic process at t (and, for
    smooth-rate processes, the pair (level, rate)).  t joins the grid unless
    it is a node; grid-sampled kinds require t to be a node.
    """
    grid = np.union1d(horizon.grid, [t])
    i = int(np.searchsorted(grid, t))
    if process.deterministic:
        state = tuple(part[i] for part in realize(process, Horizon(horizon.T, grid)))
    elif not isinstance(state, tuple):
        state = (state,)
    coef = process.g_coefficients(KernelWeight(d, grid, horizon.T))
    return float(process.g(coef, state, i))


# ----------------------------------------------------------------------
# conditional kernel integrals
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "process",
    [
        Constant(-0.7),
        Deterministic(tuple(np.sin(np.linspace(0.0, 3.0, 51)))),
        OrnsteinUhlenbeck(x0=0.4, kappa=2.0, theta=-0.3, sigma=0.8),
        BrownianMartingale(0.2, 1.1),
        SmoothRate(Constant(1.5)),
        SmoothRate(OrnsteinUhlenbeck(x0=0.1, kappa=1.0, theta=0.5, sigma=0.6)),
    ],
    ids=["constant", "deterministic", "ou", "brownian", "smooth-constant", "smooth-ou"],
)
def test_realize_returns_the_state_tuple_that_g_reads(process):
    h = Horizon.uniform(1.0, 50)
    state = realize(process, h, seed=7)
    if process.deterministic:
        want = process.path(h.grid)
        assert len(state) == len(want)
        for part, want_part in zip(state, want):
            np.testing.assert_array_equal(part, want_part)
    else:
        assert len(state) == len(process.start(()))
        assert all(part.shape == h.grid.shape for part in state)
    d = DeltaParam(30.0)
    coef = process.g_coefficients(KernelWeight(d, h.grid, h.T))
    G = kernel_expectation_path(realize_driver(((1.0, process),), h, seed=7), d, h)
    np.testing.assert_array_equal(G, process.g(coef, state, slice(None)))


def test_g_zero_driver():
    h = Horizon.uniform(1.0, 16)
    d = DeltaParam(50.0)
    assert conditional_kernel_integral(ZERO, d, 0.3, h) == 0.0


def test_g_constant_direct_value():
    # -0.5 * F(0) for delta=50, T=1
    h = Horizon.uniform(1.0, 16)
    d = DeltaParam(50.0)
    got = conditional_kernel_integral(Constant(-0.5), d, 0.0, h)
    assert got == pytest.approx(-3.5355288051922873, rel=1e-13)


def test_g_constant_equals_quadrature():
    h = Horizon.uniform(1.0, 16)
    d = DeltaParam(7.0)
    for t in (0.0, 0.4, 0.9):
        oracle = simpson(lambda s: eval_k(d, t, s, 1.0) * 2.5, t, 1.0, panels=4096)
        assert conditional_kernel_integral(Constant(2.5), d, t, h) == pytest.approx(
            oracle, rel=1e-9, abs=1e-12
        )


def test_g_martingale_freezes_state():
    h = Horizon.uniform(1.0, 16)
    d = DeltaParam(50.0)
    got = conditional_kernel_integral(BrownianMartingale(0.0, 1.0), d, 0.25, h, state=-2.0)
    assert got == pytest.approx(-2.0 * float(eval_F(d, 0.25, 1.0)), rel=1e-13)


def test_g_ou_matches_dense_quadrature():
    # E_t[X_s] = theta + (X_t - theta) e^{-kappa (s-t)}; 1e5-panel Simpson oracle
    h = Horizon.uniform(1.0, 16)
    d = DeltaParam(50.0)
    proc = OrnsteinUhlenbeck(x0=1.0, kappa=1.0, theta=0.0, sigma=0.3)
    got = conditional_kernel_integral(proc, d, 0.0, h, state=1.0)
    oracle = simpson(
        lambda s: eval_k(d, 0.0, s, 1.0) * np.exp(-s), 0.0, 1.0, panels=100_000
    )
    assert got == pytest.approx(oracle, rel=1e-8)


def test_g_ou_with_theta_quadrature():
    h = Horizon.uniform(2.0, 16)
    d = DeltaParam(9.0)
    proc = OrnsteinUhlenbeck(x0=0.0, kappa=2.5, theta=0.8, sigma=0.1)
    t, x_t = 0.5, -0.4
    got = conditional_kernel_integral(proc, d, t, h, state=x_t)
    oracle = simpson(
        lambda s: eval_k(d, t, s, 2.0) * (0.8 + (x_t - 0.8) * np.exp(-2.5 * (s - t))),
        t,
        2.0,
        panels=50_000,
    )
    assert got == pytest.approx(oracle, rel=1e-9)


def test_ou_weights_degenerate_at_kappa_zero():
    d = DeltaParam(50.0)
    tau = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(
        _ou_weight(d, 0.0, tau, 1.0), d.sqrt_delta * np.tanh(d.sqrt_delta * tau), rtol=1e-12
    )
    np.testing.assert_allclose(
        _ou_weight(d, 0.0, tau, -1.0), 1.0 - stable_sech(d.sqrt_delta * tau), rtol=1e-12, atol=1e-15
    )


def test_ou_weight_continuous_through_resonance():
    # kappa^2 ~ delta is a removable singularity of the closed form
    d = DeltaParam(50.0)
    b = d.sqrt_delta
    tau = np.array([0.7])
    at = float(_ou_weight(d, b, tau, 1.0)[0])
    near = float(_ou_weight(d, b * (1 + 1e-9), tau, 1.0)[0])
    oracle = simpson(
        lambda s: eval_k(d, 0.3, s, 1.0) * np.exp(-b * (s - 0.3)), 0.3, 1.0, panels=100_000
    )
    assert at == pytest.approx(near, rel=1e-7)
    assert at == pytest.approx(oracle, rel=1e-8)


def test_ou_weight_huge_delta_finite():
    d = DeltaParam(1e8)
    tau = np.linspace(0.0, 1.0, 5)
    assert np.all(np.isfinite(_ou_weight(d, 3.0, tau, 1.0)))
    assert np.all(np.isfinite(_ou_weight(d, 3.0, tau, -1.0)))


def test_exp_difference_matches_the_literal_form():
    # e^{-beta tau} (e^{-kappa tau} - e^{-beta tau}) / (beta - kappa); at kappa = beta its limit
    tau = np.linspace(0.0, 1.0, 11)
    for beta in (0.1, 1.0, 7.0, 30.0):
        for kappa in (0.0, 0.1, 1.0, 7.0, 30.0):
            if kappa == beta:
                literal = tau * np.exp(-2.0 * beta * tau)
            else:
                literal = np.exp(-beta * tau) * (np.exp(-kappa * tau) - np.exp(-beta * tau)) / (
                    beta - kappa)
            np.testing.assert_allclose(_exp_difference(beta, kappa, tau), literal, rtol=1e-12)


def test_g_smooth_rate_against_nested_quadrature():
    # original definition: G(t) = int_t^T k(t,s) E_t[X_s] ds with
    # E_t[X_s] = X_t + int_t^s E_t[r_v] dv for the running integral of an OU rate
    h = Horizon.uniform(1.0, 200)
    d = DeltaParam(12.0)
    kappa, theta = 1.5, 0.6
    proc = SmoothRate(OrnsteinUhlenbeck(x0=1.0, kappa=kappa, theta=theta, sigma=0.4))
    t, level, rate_t = h.grid[60], 0.35, 0.9

    def mean_rate(v):
        return theta + (rate_t - theta) * np.exp(-kappa * (v - t))

    def mean_level(s_arr):
        out = []
        for s in np.atleast_1d(s_arr):
            out.append(level + simpson(mean_rate, t, s, panels=512) if s > t else level)
        return np.array(out)

    oracle = simpson(lambda s: eval_k(d, t, s, 1.0) * mean_level(s), t, 1.0, panels=1024)
    got = conditional_kernel_integral(proc, d, float(t), h, state=(level, rate_t))
    assert got == pytest.approx(oracle, rel=1e-6)


def test_g_deterministic_matches_pointwise_quadrature():
    n = 2000
    h = Horizon.uniform(1.0, n)
    d = DeltaParam(30.0)
    x_fn = lambda s: np.sin(3.0 * s) + 0.5 * s  # noqa: E731
    proc = Deterministic(tuple(x_fn(h.grid)))
    realized = realize_driver(((1.0, proc),), h)
    G = kernel_expectation_path(realized, d, h)
    for idx in (0, 700, 1500):
        t = h.grid[idx]
        oracle = simpson(lambda s: eval_k(d, t, s, 1.0) * x_fn(s), t, 1.0, panels=8192)
        assert G[idx] == pytest.approx(oracle, rel=2e-6, abs=1e-9)


# ----------------------------------------------------------------------
# forward solve
# ----------------------------------------------------------------------

def test_zero_driver_gives_zero_paths():
    h = Horizon.uniform(1.0, 100)
    d = DeltaParam(50.0)
    U, u = forward(ZERO, d, h)
    np.testing.assert_array_equal(u, 0.0)
    np.testing.assert_array_equal(U, 0.0)


def test_constant_driver_matches_closed_form():
    # engine position vs the hyperbolic closed form, 1e-6 at 1e4 steps
    h = Horizon.uniform(1.0, 10_000)
    d = DeltaParam(50.0)
    U, u = forward(Constant(-0.5), d, h)
    exact = closed_form_position_constant(-0.5, 50.0, h.grid)
    assert np.max(np.abs(U - exact)) < 1e-6
    assert U[-1] == pytest.approx(-0.499150674907945, abs=2e-7)
    assert u[-1] == 0.0
    assert U[0] == 0.0


def test_position_increment_is_trapezoid_of_rate():
    h = Horizon.uniform(1.0, 500)
    d = DeltaParam(20.0)
    U, u = forward(Constant(1.0), d, h)
    dU = np.diff(U)
    trap = 0.5 * (u[:-1] + u[1:]) * h.dt
    # Heun differs from the trapezoid of the final rate by O(dt^3) per step
    assert np.max(np.abs(dU - trap)) < 5.0 * (1.0 / 500) ** 3 * d.delta


def test_residual_zero_driver_exact():
    h = Horizon.uniform(1.0, 64)
    d = DeltaParam(5.0)
    res = fbsde_residual(realize_driver(((1.0, ZERO),), h), d, h)
    assert res.max_drift_residual == 0.0
    assert res.terminal_rate == 0.0


def test_cancelled_driver_is_zero_on_the_grid():
    # terms that cancel leave an empty term list: X must still be a zero path
    h = Horizon.uniform(1.0, 10)
    d = DeltaParam(5.0)
    driver = combine([(1.0, Constant(1.0)), (-1.0, Constant(1.0))])
    realized = realize_driver(driver, h)
    np.testing.assert_array_equal(realized.values(), np.zeros(h.grid.size))
    res = fbsde_residual(realized, d, h)
    assert res.max_drift_residual == 0.0
    assert res.terminal_rate == 0.0


def test_residual_constant_driver_order_one():
    d = DeltaParam(50.0)
    h1 = Horizon.uniform(1.0, 10_000)
    res1 = fbsde_residual(realize_driver(((1.0, Constant(-0.5)),), h1), d, h1)
    assert res1.max_drift_residual <= 10.0 * (1.0 / 10_000)
    assert res1.terminal_rate == 0.0
    # halving dt halves the residual within 20%
    h2 = Horizon.uniform(1.0, 20_000)
    res2 = fbsde_residual(realize_driver(((1.0, Constant(-0.5)),), h2), d, h2)
    ratio = res1.max_drift_residual / res2.max_drift_residual
    assert 2.0 * 0.8 < ratio < 2.0 * 1.2


def test_residual_rejects_stochastic_driver():
    h = Horizon.uniform(1.0, 64)
    d = DeltaParam(5.0)
    realized = realize_driver(((1.0, BrownianMartingale(0.0, 1.0)),), h, seed=1)
    with pytest.raises(ValueError):
        fbsde_residual(realized, d, h)
    _, u = solve_forward(realized, d, h)
    assert u[..., -1] == 0.0  # terminal condition still exact


def test_linearity_of_solve_forward():
    h = Horizon.uniform(1.0, 400)
    d = DeltaParam(10.0)
    det = Deterministic(tuple(np.cos(2.0 * h.grid)))
    const = Constant(0.7)
    a, b = 2.0, -1.5
    Ua, ua = forward(const, d, h)
    Ub, ub = forward(det, d, h)
    Uab, uab = solve_forward(realize_driver([(a, const), (b, det)], h), d, h)
    np.testing.assert_allclose(Uab, a * Ua + b * Ub, atol=1e-10)
    np.testing.assert_allclose(uab, a * ua + b * ub, atol=1e-10)


def test_double_integral_representation_constant():
    h = Horizon.uniform(1.0, 4000)
    d = DeltaParam(50.0)
    realized = realize_driver(((1.0, Constant(-0.5)),), h)
    u33 = double_integral_position(realized, d, h)
    exact = closed_form_position_constant(-0.5, 50.0, h.grid)
    assert np.max(np.abs(u33 - exact)) < 5e-5


def test_double_integral_matches_forward_solve_on_brownian_path():
    # same realized path through two representations, O(dt) agreement
    h = Horizon.uniform(1.0, 4000)
    d = DeltaParam(50.0)
    realized = realize_driver(((1.0, BrownianMartingale(0.0, 1.0)),), h, seed=42, path_index=3)
    U, _ = solve_forward(realized, d, h)
    u33 = double_integral_position(realized, d, h)
    assert np.max(np.abs(U - u33)) < 30.0 / 4000


def test_eq33_nested_quadrature_oracle():
    # fully quadrature-based evaluation of the double integral for a
    # deterministic driver: G by Simpson of the kernel, outer by Simpson
    n = 400
    h = Horizon.uniform(1.0, n)
    delta = 3.0
    d = DeltaParam(delta)
    x_fn = lambda s: 1.0 + 0.3 * np.sin(4.0 * s)  # noqa: E731
    proc = Deterministic(tuple(x_fn(h.grid)))
    U, _ = forward(proc, d, h)

    def g_quad(s):
        return simpson(lambda r: eval_k(d, s, r, 1.0) * x_fn(r), s, 1.0, panels=512)

    for t in (0.25, 0.6, 1.0):
        oracle = (
            simpson(
                lambda s: np.array([eval_k(d, si, t, 1.0) * g_quad(si) for si in np.atleast_1d(s)]),
                0.0,
                t,
                panels=128,
            )
            / delta
        )
        idx = int(round(t * n))
        assert U[idx] == pytest.approx(oracle, abs=3e-4)


def test_martingale_driver_state_feedback():
    # for a Brownian driver the rate is F(t) (X_t - U_t) pathwise
    h = Horizon.uniform(1.0, 256)
    d = DeltaParam(25.0)
    proc = BrownianMartingale(0.0, 1.0)
    realized = realize_driver(((1.0, proc),), h, seed=5)
    U, u = solve_forward(realized, d, h)
    F = eval_F(d, h.grid, 1.0)
    np.testing.assert_allclose(u, F * (realized.values() - U), atol=1e-12)


def test_solve_forward_multi_path_vectorized():
    h = Horizon.uniform(1.0, 128)
    d = DeltaParam(25.0)
    proc = BrownianMartingale(0.0, 1.0)
    z = np.stack(
        [realize(proc, h, seed=9, path_index=i)[0] for i in range(4)], axis=0
    )
    realized = RealizedDriver(((1.0, proc),), {proc: (z,)})
    block_U, _ = solve_forward(realized, d, h)
    for i in range(4):
        single = RealizedDriver(((1.0, proc),), {proc: (z[i],)})
        np.testing.assert_array_equal(block_U[i], solve_forward(single, d, h)[0])


def test_heun_path_equals_the_array_recursion_bit_for_bit():
    # heun_path's per-path float loop and heun_step on arrays are one arithmetic
    h = Horizon.uniform(1.0, 300)
    d = DeltaParam(40.0)
    proc = BrownianMartingale(0.2, 1.0)
    z = np.stack([realize(proc, h, seed=3, path_index=i)[0] for i in range(5)])
    G = kernel_expectation_path(RealizedDriver(((1.0, proc),), {proc: (z,)}), d, h)
    F = eval_F(d, h.grid, h.T)
    U, u = heun_path(G, F, h.dt)
    rec_U, rec_u = [np.zeros(5)], [G[:, 0]]
    steps = list(zip(*heun_coefficients(F[1:], h.dt)))
    for i in range(h.n_steps):
        U_next, u_next = heun_step(rec_U[-1], rec_u[-1], G[:, i + 1], *steps[i])
        rec_U.append(U_next)
        rec_u.append(u_next)
    np.testing.assert_array_equal(U, np.stack(rec_U, axis=-1))
    np.testing.assert_array_equal(u, np.stack(rec_u, axis=-1))
    U_one, u_one = heun_path(G[2], F, h.dt)
    np.testing.assert_array_equal(U_one, U[2])
    np.testing.assert_array_equal(u_one, u[2])


@pytest.mark.parametrize("block", [1, 7, 300, 4096])
def test_heun_path_in_blocks_is_the_array_recursion(monkeypatch, block):
    # each block carries (U_i, u_i) into the next, so no block edge moves a bit
    from dealerlab import fbsde

    monkeypatch.setattr(fbsde, "_BLOCK_STEPS", block)
    h = Horizon.uniform(1.0, 300)
    F = eval_F(DeltaParam(40.0), h.grid, h.T)
    G = np.random.default_rng(5).standard_normal((3, h.grid.size)).cumsum(axis=-1)
    U, u = heun_path(G, F, h.dt)
    rec_U, rec_u = [np.zeros(3)], [G[:, 0]]
    steps = list(zip(*heun_coefficients(F[1:], h.dt)))
    for i in range(h.n_steps):
        U_next, u_next = heun_step(rec_U[-1], rec_u[-1], G[:, i + 1], *steps[i])
        rec_U.append(U_next)
        rec_u.append(u_next)
    np.testing.assert_array_equal(U, np.stack(rec_U, axis=-1))
    np.testing.assert_array_equal(u, np.stack(rec_u, axis=-1))


def test_the_folded_step_is_heuns_scheme():
    # U' = a U + b u + c g' is Heun's k1/k2 step rearranged, checked where F dt nears 2
    h = Horizon.uniform(1.0, 300)
    F = eval_F(DeltaParam(597.0**2), h.grid, h.T)
    assert 1.9 < np.max(F[:-1] * h.dt) <= 2.0
    G = np.random.default_rng(11).standard_normal(h.grid.size).cumsum()
    U, _ = heun_path(G, F, h.dt)
    textbook = [0.0]
    for i, dt in enumerate(h.dt):
        k1 = G[i] - F[i] * textbook[-1]
        k2 = G[i + 1] - F[i + 1] * (textbook[-1] + dt * k1)
        textbook.append(textbook[-1] + 0.5 * dt * (k1 + k2))
    np.testing.assert_allclose(U, textbook, rtol=0, atol=1e-12 * np.max(np.abs(U)))


def test_stiff_delta_stable_with_resolved_grid():
    # sqrt(delta)*T = 1000; the 50-steps-per-unit rule keeps Heun stable
    delta = 1e6
    d = DeltaParam(delta)
    n = int(50 * math.sqrt(delta) * 1.0)
    h = Horizon.uniform(1.0, n)
    U, _ = forward(Constant(1.0), d, h)
    exact = closed_form_position_constant(1.0, delta, h.grid)
    assert np.all(np.isfinite(U))
    # Heun truncation at 50 steps per 1/sqrt(delta) boundary layer
    assert np.max(np.abs(U - exact)) < 1e-4
