"""Worked-scenario closed forms cross-checked against the generic engine."""

import dataclasses
import math

import numpy as np
import pytest

from dealerlab import scenarios
from dealerlab.equilibrium import goal_functional, solve_equilibrium
from dealerlab.fbsde import solve_forward
from dealerlab.kernel import Horizon, eval_F
from dealerlab.market import aggregate, integrated_market, segmented_market
from dealerlab.paths import path_streams, standard_normal_block
from dealerlab.processes import BrownianMartingale, Constant
from dealerlab.scenarios import (
    INF_DEALERS,
    DiffusiveScenario,
    LiquidationScenario,
    diffusive_simulate,
    liquidation_closed_form,
    price_reversion_regression,
    scenario_delta,
    segmentation_welfare,
    welfare_brackets,
)

from crosschecks import (
    integrated_liquidation_closed_form,
    normal_block,
    welfare_integrated_quadrature,
    welfare_segmented_quadrature,
)
from memory import traced_peak

FIG1 = LiquidationScenario()  # lambda=0.1, rho_c=rho_d=0.1, T=1, xi_c=-1, M=1


def test_scenario_delta_values():
    assert scenario_delta(FIG1).delta == pytest.approx(50.0, rel=1e-14)
    inf_case = LiquidationScenario(n_dealers=INF_DEALERS)
    assert scenario_delta(inf_case).delta == pytest.approx(100.0, rel=1e-14)
    assert scenario_delta(dataclasses.replace(FIG1, n_dealers=2)).delta == pytest.approx(
        2 / (0.2 * 0.1) * (2 / 3), rel=1e-14
    )


@pytest.mark.parametrize("m", [1, 2, 5, INF_DEALERS])
@pytest.mark.parametrize("rho_d", [0.05, 0.3])
@pytest.mark.parametrize("lam", [1e-1, 1e-5])
def test_scenario_delta_is_the_market_delta(m, rho_d, lam):
    # finite M: the segmented and integrated rosters' own aggregates, the integrated one at
    # the scenario's 2M dealers; M = inf: the limit
    s = LiquidationScenario(impact_cost=lam, rho_c=0.1, rho_d=rho_d, n_dealers=m)
    if m == INF_DEALERS:
        for k in (1, 2):
            assert scenario_delta(dataclasses.replace(s, n_dealers=k * m)).delta == pytest.approx(
                2.0 / ((0.1 + rho_d) * lam), rel=1e-14
            )
        return
    for build, k in ((segmented_market, 1), (integrated_market, 2)):
        market = aggregate(build(lam, 0.1, rho_d, m, Constant(-1.0))).delta.delta
        assert scenario_delta(dataclasses.replace(s, n_dealers=k * m)).delta == pytest.approx(
            market, rel=1e-14
        )


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: LiquidationScenario(impact_cost=math.nan), "impact_cost"),
        (lambda: LiquidationScenario(impact_cost=0.0), "impact_cost"),
        (lambda: LiquidationScenario(rho_c=math.inf), "rho_c"),
        (lambda: LiquidationScenario(rho_d=-0.1), "rho_d"),
        (lambda: LiquidationScenario(T=math.nan), "T"),
        (lambda: LiquidationScenario(xi_c=math.nan), "xi_c"),
        (lambda: LiquidationScenario(xi_c=-math.inf), "xi_c"),
        (lambda: LiquidationScenario(n_dealers=1.5), "n_dealers"),
        (lambda: LiquidationScenario(n_dealers=math.nan), "n_dealers"),
        (lambda: LiquidationScenario(n_dealers=True), "n_dealers"),
        (lambda: DiffusiveScenario(impact_cost=math.inf), "impact_cost"),
        (lambda: DiffusiveScenario(rho_d=math.nan), "rho_d"),
        (lambda: DiffusiveScenario(T=0.0), "T"),
        (lambda: DiffusiveScenario(n_dealers=0), "n_dealers"),
        (lambda: DiffusiveScenario(sigma_xi=math.nan), "sigma_xi"),
        (lambda: DiffusiveScenario(sigma_xi=math.inf), "sigma_xi"),
        (lambda: DiffusiveScenario(sigma_xi=-1.0), "sigma_xi"),
        (lambda: DiffusiveScenario(steps=2.5), "steps"),
        (lambda: DiffusiveScenario(steps=0), "steps"),
        (lambda: DiffusiveScenario(seed=-1), "seed"),
        (lambda: DiffusiveScenario(seed=2**64), "seed"),
        (lambda: DiffusiveScenario(seed=1.5), "seed"),
    ],
)
def test_scenarios_validate_every_field(build, field):
    with pytest.raises(ValueError, match=f"^{field} "):
        build()


@pytest.mark.parametrize("cls", [LiquidationScenario, DiffusiveScenario])
def test_scenarios_refuse_a_mesh_rate_that_overflows(cls):
    with pytest.raises(ValueError, match="^delta must be positive and finite, got inf$"):
        cls(impact_cost=1e-300)


def test_diffusive_scenario_is_the_liquidation_scenario_without_target():
    s = DiffusiveScenario(impact_cost=0.2, n_dealers=3, sigma_xi=0.5)
    assert isinstance(s, LiquidationScenario) and s.xi_c == 0.0
    assert scenario_delta(s) == scenario_delta(LiquidationScenario(impact_cost=0.2, n_dealers=3))
    with pytest.raises(TypeError):
        DiffusiveScenario(0.1, 0.1, 0.1, 1.0, 1, 1.0)  # sigma_xi is keyword-only
    with pytest.raises(TypeError):
        DiffusiveScenario(xi_c=-1.0)


def test_bulk_trade_independent_of_dealer_count():
    grid = np.linspace(0, 1, 101)
    for M in (1, 2, 2.0, 5, INF_DEALERS):  # an integral float counts as well
        s = LiquidationScenario(n_dealers=M)
        paths = liquidation_closed_form(s, grid)
        assert paths.K_c[0] == pytest.approx(-0.5, rel=1e-14)  # rho_d/(rho_c+rho_d)*xi_c
    asym = LiquidationScenario(rho_c=0.05, rho_d=0.15, n_dealers=3)
    paths = liquidation_closed_form(asym, grid)
    assert paths.K_c[0] == pytest.approx(asym.xi_c * 0.15 / 0.2, rel=1e-14)


def test_initial_price_deviation_depends_on_dealer_count():
    grid = np.linspace(0, 1, 11)
    p1 = liquidation_closed_form(FIG1, grid)
    pinf = liquidation_closed_form(LiquidationScenario(n_dealers=INF_DEALERS), grid)
    assert p1.price_dev[0] == pytest.approx(-0.7071057610384575, rel=1e-13)
    assert pinf.price_dev[0] == pytest.approx(-0.49999999793884636, rel=1e-13)


def test_zero_target_gives_zero_paths():
    grid = np.linspace(0, 1, 11)
    paths = liquidation_closed_form(LiquidationScenario(xi_c=0.0), grid)
    np.testing.assert_array_equal(paths.U_bar, 0.0)
    np.testing.assert_array_equal(paths.K_c, 0.0)
    np.testing.assert_array_equal(paths.price_dev, 0.0)


def test_terminal_client_position():
    grid = np.linspace(0, 1, 101)
    s = LiquidationScenario(rho_c=0.12, rho_d=0.08, n_dealers=2)
    paths = liquidation_closed_form(s, grid)
    b = scenario_delta(s).sqrt_delta
    expect = s.xi_c * (1 - s.rho_c / ((s.rho_c + s.rho_d) * math.cosh(b * s.T)))
    assert paths.K_c[-1] == pytest.approx(expect, rel=1e-12)


def test_closed_form_agrees_with_equilibrium_engine():
    # two independent code paths, 1e-6 at 1e4 steps
    steps = 10_000
    grid = Horizon.uniform(1.0, steps).grid
    for M, rho_c, rho_d in ((1, 0.1, 0.1), (3, 0.05, 0.2)):
        s = LiquidationScenario(rho_c=rho_c, rho_d=rho_d, n_dealers=M)
        cf = liquidation_closed_form(s, grid)
        params = segmented_market(s.impact_cost, rho_c, rho_d, M, Constant(s.xi_c))
        sol = solve_equilibrium(params, Horizon.uniform(1.0, steps))
        assert np.max(np.abs(sol.U_bar - cf.U_bar)) < 1e-6
        assert np.max(np.abs(sol.at().agents["client0"].K - cf.K_c)) < 1e-6
        assert np.max(np.abs(sol.at().price_dev - cf.price_dev)) < 1e-6


def test_integrated_closed_form_agrees_with_engine():
    steps = 10_000
    h = Horizon.uniform(1.0, steps)
    s = LiquidationScenario(rho_c=0.15, rho_d=0.05, n_dealers=2)
    cf = integrated_liquidation_closed_form(s, h.grid)
    params = integrated_market(s.impact_cost, s.rho_c, s.rho_d, 2, Constant(s.xi_c))
    sol = solve_equilibrium(params, h)
    assert np.max(np.abs(sol.U_bar - cf.U_bar)) < 1e-6
    assert np.max(np.abs(sol.at().agents["client0"].K - cf.K_c)) < 1e-6
    # initial block trade unchanged by integration
    seg = liquidation_closed_form(s, h.grid)
    assert cf.K_c[0] == pytest.approx(seg.K_c[0], rel=1e-13)


# ----------------------------------------------------------------------
# diffusive targets
# ----------------------------------------------------------------------

def test_diffusive_zero_volatility():
    sim = diffusive_simulate(DiffusiveScenario(sigma_xi=0.0, steps=100), 1)
    np.testing.assert_array_equal(sim.xi_c, 0.0)
    np.testing.assert_array_equal(sim.K_c, 0.0)
    np.testing.assert_array_equal(sim.price_dev, 0.0)


def test_diffusive_initial_and_terminal_values():
    sim = diffusive_simulate(DiffusiveScenario(seed=2, steps=500), 1)
    assert sim.K_c[0, 0] == 0.0
    assert sim.price_dev[0, 0] == 0.0
    assert sim.price_dev[0, -1] == 0.0  # F(T) = 0 exactly on the grid


def test_one_diffusive_path_is_a_batch_of_one():
    s = DiffusiveScenario(seed=2, steps=50)
    sim = diffusive_simulate(s, 1)
    for name in ("xi_c", "K_c", "xi_minus_U", "price_dev"):
        assert getattr(sim, name).shape == (1, s.steps + 1), name
    assert sim.d_xi.shape == (1, s.steps)
    with pytest.raises(ValueError, match="at least one path"):
        diffusive_simulate(s, 0)


def test_diffusive_martingale_decomposition_exact():
    # the shock loading of each K_c step is exactly rho_d/(rho_c+rho_d)
    s = DiffusiveScenario(seed=7, steps=400)
    sim = diffusive_simulate(s, 1)
    xi_c, K_c, d_xi = sim.xi_c[0], sim.K_c[0], sim.d_xi[0]
    d = scenario_delta(s)
    F = eval_F(d, sim.grid, s.T)
    dt = np.diff(sim.grid)
    for i in range(0, 400, 37):
        recomputed = (K_c[i] + F[i] * (xi_c[i] - K_c[i]) * dt[i]) + 0.5 * d_xi[i]
        assert K_c[i + 1] == recomputed
    np.testing.assert_allclose(np.diff(xi_c), d_xi, rtol=0, atol=1e-15)


def test_diffusive_tracking_matches_forward_solver():
    # xi_bar - U_bar from the Euler scheme vs the Heun engine on the same shocks
    s = DiffusiveScenario(seed=12, steps=4000)
    sim = diffusive_simulate(s, 1)
    h = Horizon.uniform(s.T, s.steps)
    d = scenario_delta(s)
    from dealerlab.fbsde import RealizedDriver

    proc = BrownianMartingale(0.0, 0.5)  # xi_bar = xi_c/2 has half the volatility
    realized = RealizedDriver(((1.0, proc),), {proc: (0.5 * sim.xi_c,)})
    U, _ = solve_forward(realized, d, h)
    gap = np.max(np.abs((0.5 * sim.xi_c - U) - sim.xi_minus_U))
    assert gap < 20.0 / s.steps


def _diffusive_reference(s: DiffusiveScenario, n_paths: int) -> dict:
    """Path-major Euler steps, one strided column per step: the scheme as first written."""
    horizon = Horizon.uniform(s.T, s.steps)
    d = scenario_delta(s)
    F = eval_F(d, horizon.grid, s.T)
    dt = horizon.dt
    z = normal_block(path_streams(s.seed, 0, n_paths), s.steps)
    dxi = s.sigma_xi * np.sqrt(dt) * z
    xi, K, Z = (np.zeros((n_paths, horizon.grid.size)) for _ in range(3))
    share_d = s.rho_d / (s.rho_c + s.rho_d)
    for i in range(s.steps):
        xi[:, i + 1] = xi[:, i] + dxi[:, i]
        K[:, i + 1] = K[:, i] + F[i] * (xi[:, i] - K[:, i]) * dt[i] + share_d * dxi[:, i]
        Z[:, i + 1] = Z[:, i] - F[i] * Z[:, i] * dt[i] + 0.5 * dxi[:, i]
    rho_bar = (s.rho_c + s.rho_d) / 2.0
    price_dev = F * Z / (d.delta * rho_bar)
    return {"xi_c": xi, "K_c": K, "xi_minus_U": Z, "price_dev": price_dev, "d_xi": dxi}


@pytest.mark.parametrize(
    "n_paths, sigma_xi, seed, n_dealers",
    [(1, 1.0, 0, 1), (3, 1.0, 5, 1), (3, 1.0, 4, INF_DEALERS), (1, 0.0, 2, 1), (3, 0.0, 2, 1)],
)
def test_diffusive_simulate_matches_path_major_reference_bit_for_bit(
    n_paths, sigma_xi, seed, n_dealers
):
    # bit patterns, not values: a -0.0 where the steps give 0.0 must fail
    s = DiffusiveScenario(rho_d=0.16, sigma_xi=sigma_xi, seed=seed, steps=300,
                          n_dealers=n_dealers)
    sim = diffusive_simulate(s, n_paths)
    np.testing.assert_array_equal(sim.grid, Horizon.uniform(s.T, s.steps).grid)
    for name, want in _diffusive_reference(s, n_paths).items():
        got = getattr(sim, name)
        assert got.shape == want.shape, name
        assert np.ascontiguousarray(got).tobytes() == want.tobytes(), name


def test_price_reversion_regression_far_from_maturity():
    s = DiffusiveScenario(T=10.0, steps=2000, seed=3)
    reg = price_reversion_regression(s, 10_000, t_max=5.0)
    assert reg["mean_reversion"] == pytest.approx(reg["mean_reversion_theory"], rel=0.05)
    assert reg["loading"] == pytest.approx(reg["loading_theory"], rel=0.05)
    assert reg["n_paths"] == 10_000


def _batch_regression(s: DiffusiveScenario, n_paths: int, t_max: float) -> tuple:
    """Least squares on the stacked batch of paths: the fit as first written."""
    sim = diffusive_simulate(s, n_paths)
    cut = min(int(np.searchsorted(sim.grid, t_max)), s.steps)
    y = np.diff(sim.price_dev, axis=-1)[:, :cut].ravel()
    x1 = (sim.price_dev[:, :cut] * np.diff(sim.grid)[:cut]).ravel()
    x2 = np.diff(sim.xi_c, axis=-1)[:, :cut].ravel()
    coef, *_ = np.linalg.lstsq(np.column_stack([x1, x2]), y, rcond=None)
    return -float(coef[0]), float(coef[1])


@pytest.mark.parametrize(
    "s, n_paths, t_max",
    [(DiffusiveScenario(T=10.0, steps=2000, seed=3), 40, 5.0),
     (DiffusiveScenario(n_dealers=INF_DEALERS, seed=4, steps=500), 3, 0.5),
     (DiffusiveScenario(seed=2, steps=50), 1, 0.5),
     (DiffusiveScenario(impact_cost=1e-4, seed=6, steps=1000), 20, 0.5),
     (DiffusiveScenario(rho_d=0.16, seed=1, steps=300), 7, 1.0)],
    ids=["T10", "M-inf-3-paths", "1-path-50-steps", "lambda-1e-4", "whole-grid"],
)
def test_streamed_regression_matches_least_squares_on_the_batch(s, n_paths, t_max):
    reg = price_reversion_regression(s, n_paths, t_max)
    mean_reversion, loading = _batch_regression(s, n_paths, t_max)
    assert reg["mean_reversion"] == pytest.approx(mean_reversion, rel=1e-11, abs=0)
    assert reg["loading"] == pytest.approx(loading, rel=1e-11, abs=0)


def test_streamed_regression_without_volatility_is_the_min_norm_zero():
    reg = price_reversion_regression(DiffusiveScenario(sigma_xi=0.0, steps=100), 3, 0.5)
    got = np.array([reg["mean_reversion"], reg["loading"]])
    assert got.tobytes() == np.array([0.0, 0.0]).tobytes()  # both sign bits clear


def test_regression_window_past_maturity_is_the_whole_grid():
    s = DiffusiveScenario(seed=5, steps=60)
    whole = price_reversion_regression(s, 4)
    assert price_reversion_regression(s, 4, t_max=s.T) == whole
    assert price_reversion_regression(s, 4, t_max=3.5 * s.T) == whole
    assert price_reversion_regression(s, 4, t_max=math.inf) == whole


def test_regression_rejects_nan_window_and_windows_of_under_two_steps():
    s = DiffusiveScenario(seed=5, steps=60)
    with pytest.raises(ValueError, match="t_max must be a number, got nan"):
        price_reversion_regression(s, 4, t_max=math.nan)
    # the first step's regressor is 0 (S - D starts at 0): one step identifies nothing
    for steps, t_max in ((1, None), (1, 0.5), (2, 0.5), (60, 1 / 60), (60, 0.0), (60, -1.0)):
        with pytest.raises(ValueError, match="at least two steps"):
            price_reversion_regression(dataclasses.replace(s, steps=steps), 4, t_max=t_max)
    # two steps below t_max = 0.5; 3 steps would give F*dt = 2.36, an unstable Euler step
    reg = price_reversion_regression(dataclasses.replace(s, steps=4), 4, t_max=0.5)
    assert reg["n_paths"] == 4
    with pytest.raises(ValueError, match=r"lambda=0.1: .*max F\*dt = 2.36 > 2 on 3 steps"):
        price_reversion_regression(dataclasses.replace(s, steps=3), 4, t_max=0.5)


def test_streamed_regression_never_holds_the_trajectories():
    # the batch fit held about 7.5 paths x steps float arrays; the shocks alone are 1
    n_paths, steps = 4000, 1000
    _, peak = traced_peak(price_reversion_regression, DiffusiveScenario(steps=steps), n_paths, 0.5)
    assert peak < 3 * n_paths * steps * 8


def test_sliced_regression_holds_less_than_one_normal_block():
    n_paths, steps = 4000, 1000
    _, peak = traced_peak(price_reversion_regression, DiffusiveScenario(steps=steps), n_paths, 0.5)
    assert peak < n_paths * steps * 8


def test_regression_memory_grows_only_with_the_grid():
    # a fixed window of 8 paths on a grid 4x longer: the grid's nodes and the one-off
    # stability check grow with the steps (24 B a step), the per-step terms are built per
    # slice (whole-grid lists grew 120 B a step)
    price_reversion_regression(DiffusiveScenario(steps=10), 8)  # first calls
    peaks = [traced_peak(price_reversion_regression, DiffusiveScenario(steps=steps), 8, 0.01)[1]
             for steps in (50_000, 200_000)]
    assert peaks[1] - peaks[0] < 32 * (200_000 - 50_000)


def test_regression_window_memory_is_a_float_row_a_step():
    # over the whole grid each step keeps its five dot products, 40 B, beside the grid's
    # nodes; a list of numpy-scalar tuples and the window's diff list took 278 B a step
    price_reversion_regression(DiffusiveScenario(steps=10), 8)  # first calls
    peaks = [traced_peak(price_reversion_regression, DiffusiveScenario(steps=steps), 8)[1]
             for steps in (5_000, 20_000)]
    assert peaks[1] - peaks[0] < 96 * (20_000 - 5_000)


@pytest.mark.parametrize("slice_steps", [7, 64, 256, 1000, 4096])
def test_regression_draws_only_the_slices_its_window_reaches(monkeypatch, slice_steps):
    counts = []

    def counted(streams, n_steps, out):
        counts.append(len(streams) * n_steps)
        return standard_normal_block(streams, n_steps, out)

    monkeypatch.setattr(scenarios, "standard_normal_block", counted)
    monkeypatch.setattr(scenarios, "SLICE_STEPS", slice_steps)
    n_paths, s = 5, DiffusiveScenario(seed=9, steps=1000)
    window = 500  # the steps below t_max = T/2
    price_reversion_regression(s, n_paths, 0.5)
    assert sum(counts) <= n_paths * (window + slice_steps)
    assert sum(counts) >= n_paths * window
    counts.clear()
    sim = diffusive_simulate(s, n_paths)
    assert sum(counts) == n_paths * s.steps
    want = _diffusive_reference(s, n_paths)
    assert np.ascontiguousarray(sim.d_xi).tobytes() == want["d_xi"].tobytes()
    assert np.ascontiguousarray(sim.K_c).tobytes() == want["K_c"].tobytes()


@pytest.mark.parametrize("slice_steps", [7, 500])
def test_diffusive_runs_do_not_depend_on_the_fill_threads(monkeypatch, slice_steps):
    # 130 paths fill two 64-path tiles and a 2-path one, on 1 or 3 fill threads
    monkeypatch.setattr(scenarios, "SLICE_STEPS", slice_steps)
    s = DiffusiveScenario(seed=9, steps=1000)
    runs = []
    for cpus in (1, 3):
        monkeypatch.setattr("dealerlab.paths._cpus", lambda k=cpus: k)
        sim = diffusive_simulate(s, 130)
        runs.append(([np.ascontiguousarray(getattr(sim, f.name)).tobytes()
                      for f in dataclasses.fields(sim)],
                     price_reversion_regression(s, 130, 0.5)))
    assert runs[1] == runs[0]


# ----------------------------------------------------------------------
# segmentation welfare
# ----------------------------------------------------------------------

def test_welfare_ratio_small_lambda_symmetric():
    # M=1, rho_c=rho_d, lambda -> 0: ratio -> 7*sqrt(12)/19
    s = LiquidationScenario(impact_cost=1e-6)
    report = segmentation_welfare(s)
    assert report.asymptotic_ratio == pytest.approx(1.2762479634718042, rel=1e-12)
    assert report.ratio == pytest.approx(7 * math.sqrt(12) / 19, rel=0.01)


def test_welfare_quadrature_matches_asymptotics_small_lambda():
    for M in (1, 2, 5):
        s = LiquidationScenario(impact_cost=1e-6, rho_c=0.08, rho_d=0.16, n_dealers=M)
        rep = segmentation_welfare(s)
        assert rep.J_c_segmented == pytest.approx(rep.asymptotic_J_c, rel=0.01)
        assert rep.J_c_integrated == pytest.approx(rep.asymptotic_J_c_int, rel=0.01)


# criterion 6's grid of dealer counts and risk-tolerance ratios
WELFARE_GRID = [(m, ratio) for m in range(1, 21) for ratio in (0.5, 1.0, 2.0)]


@pytest.mark.parametrize("T", [0.1, 1.0, 5.0])
def test_exact_welfare_matches_simpson_quadrature(T):
    # the Simpson route errs by up to 4e-10 at the smallest lambda
    for lam in (10.0**k for k in range(-8, 5)):
        for m, ratio in WELFARE_GRID:
            s = LiquidationScenario(impact_cost=lam, rho_c=0.1 * ratio, rho_d=0.1, T=T,
                                    n_dealers=m)
            rep = segmentation_welfare(s)
            assert rep.J_c_segmented == pytest.approx(welfare_segmented_quadrature(s), rel=1e-9)
            assert rep.J_c_integrated == pytest.approx(
                welfare_integrated_quadrature(s), rel=1e-9
            )


@pytest.mark.parametrize("lam", [1e-6, 1e-8, 1e-10])
def test_exact_welfare_is_the_asymptotic_welfare_at_small_lambda(lam):
    # what the asymptotics drop is exponentially small in sqrt(delta) T ~ 1/sqrt(lambda)
    for m, ratio in WELFARE_GRID:
        s = LiquidationScenario(impact_cost=lam, rho_c=0.1 * ratio, rho_d=0.1, n_dealers=m)
        rep = segmentation_welfare(s)
        assert rep.J_c_segmented == pytest.approx(rep.asymptotic_J_c, rel=1e-13)
        assert rep.J_c_integrated == pytest.approx(rep.asymptotic_J_c_int, rel=1e-13)
        assert rep.ratio == pytest.approx(rep.asymptotic_ratio, rel=1e-13)
    symmetric = segmentation_welfare(LiquidationScenario(impact_cost=lam))
    assert symmetric.ratio == pytest.approx(7 * math.sqrt(12) / 19, rel=1e-15)


def test_welfare_without_a_target_is_zero_and_keeps_its_ratio():
    s = LiquidationScenario(xi_c=0.0, n_dealers=3)
    rep = segmentation_welfare(s)
    for value in (rep.J_c_segmented, rep.J_c_integrated, rep.asymptotic_J_c,
                  rep.asymptotic_J_c_int):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0  # +0, not -0
    assert rep.ratio == segmentation_welfare(dataclasses.replace(s, xi_c=-1.0)).ratio
    segmented, integrated = welfare_brackets(s)
    assert rep.ratio == segmented / integrated


def test_segmentation_always_hurts_clients():
    for M in (1, 3, 10, 20):
        for ratio in (0.5, 1.0, 2.0):
            s = LiquidationScenario(rho_c=0.1 * ratio, rho_d=0.1, n_dealers=M)
            rep = segmentation_welfare(s)
            assert rep.J_c_integrated >= rep.J_c_segmented
            assert rep.ratio >= 1.0


def test_welfare_ratio_vanishes_in_competitive_limit():
    s = LiquidationScenario(n_dealers=1000)
    assert segmentation_welfare(s).asymptotic_ratio == pytest.approx(1.0, rel=0.01)


def test_welfare_quadrature_matches_goal_functional():
    # two independent routes: closed-form integrand vs simulated equilibrium
    steps = 20_000
    h = Horizon.uniform(1.0, steps)
    for M in (1, 2):
        s = LiquidationScenario(n_dealers=M)
        rep = segmentation_welfare(s)
        params_seg = segmented_market(s.impact_cost, s.rho_c, s.rho_d, M, Constant(s.xi_c))
        sol_seg = solve_equilibrium(params_seg, h)
        j_seg_sim = goal_functional(sol_seg, "client0")
        assert j_seg_sim == pytest.approx(rep.J_c_segmented, rel=1e-4)
        params_int = integrated_market(s.impact_cost, s.rho_c, s.rho_d, M, Constant(s.xi_c))
        sol_int = solve_equilibrium(params_int, h)
        j_int_sim = goal_functional(sol_int, "client0")
        assert j_int_sim == pytest.approx(rep.J_c_integrated, rel=1e-4)


def representative_dealer_check(s: LiquidationScenario, steps: int = 2000) -> dict:
    """Competitive limit vs. a single dealer at half the impact cost.

    delta_inf(lambda) = delta_1(lambda/2) exactly, so the liquidation
    paths coincide; the welfare asymptotics do not, because the dealer
    count enters their prefactors.
    """
    many = dataclasses.replace(s, n_dealers=INF_DEALERS)
    single_half = dataclasses.replace(s, impact_cost=s.impact_cost / 2.0, n_dealers=1)
    grid = Horizon.uniform(s.T, steps).grid
    p_many = liquidation_closed_form(many, grid)
    p_single = liquidation_closed_form(single_half, grid)
    gap = max(
        float(np.max(np.abs(p_many.U_bar - p_single.U_bar))),
        float(np.max(np.abs(p_many.K_c - p_single.K_c))),
        float(np.max(np.abs(p_many.price_dev - p_single.price_dev))),
    )
    return {
        "delta_many": scenario_delta(many).delta,
        "delta_single_half_cost": scenario_delta(single_half).delta,
        "max_path_gap": gap,
        "asymptotic_J_c_int_single_half_cost": (
            segmentation_welfare(single_half).asymptotic_J_c_int
        ),
        "asymptotic_J_c_int_m1": segmentation_welfare(
            dataclasses.replace(s, n_dealers=1)
        ).asymptotic_J_c_int,
    }


def test_representative_dealer_equivalence():
    rep = representative_dealer_check(FIG1)
    assert rep["delta_many"] == pytest.approx(100.0, rel=1e-14)
    assert rep["delta_single_half_cost"] == pytest.approx(100.0, rel=1e-14)
    assert rep["max_path_gap"] < 1e-14
    # welfare prefactors depend on the dealer count even at equal delta
    assert rep["asymptotic_J_c_int_single_half_cost"] != pytest.approx(
        rep["asymptotic_J_c_int_m1"], rel=1e-3
    )
