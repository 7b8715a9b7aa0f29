"""Reproducibility and distributional checks for the path generators."""

import re
import threading

import numpy as np
import pytest
from scipy import stats

from dealerlab import paths
from dealerlab.kernel import Horizon, cumulative_trapezoid
from dealerlab.paths import (
    integrate_against,
    path_streams,
    realize,
    standard_normal_block,
    substream,
)
from dealerlab.processes import (
    BrownianMartingale,
    Constant,
    Deterministic,
    OrnsteinUhlenbeck,
    SmoothRate,
    ZERO,
)

from crosschecks import normal_block


def normal_increments(
    horizon: Horizon, seed: int, path_index: int, stream: int = 0
) -> np.ndarray:
    """Brownian increments on the grid: N(0, dt) per step, shape (n_steps,)."""
    z = substream(seed, path_index, stream).standard_normal(horizon.n_steps)
    return z * np.sqrt(horizon.dt)


def quadratic_covariation(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Realized covariation: sum_i (X_{i+1}-X_i)(Y_{i+1}-Y_i) along the last axis."""
    if x.shape[-1] != y.shape[-1]:
        raise ValueError("paths must share one grid")
    return np.sum(np.diff(x, axis=-1) * np.diff(y, axis=-1), axis=-1)


def test_increment_variance_within_three_se():
    # sample variance of N(0, dt) increments over 1e5 draws
    h = Horizon.uniform(1.0, 100_000)
    dw = normal_increments(h, seed=123, path_index=0)
    dt = 1.0 / 100_000
    sample_var = dw.var()
    se = dt * np.sqrt(2.0 / dw.size)
    assert abs(sample_var - dt) < 3 * se


def test_reproducible_regardless_of_order():
    h = Horizon.uniform(1.0, 64)
    a = normal_increments(h, seed=9, path_index=5)
    # generating other paths in between must not disturb path 5
    normal_increments(h, seed=9, path_index=0)
    normal_increments(h, seed=9, path_index=77)
    b = normal_increments(h, seed=9, path_index=5)
    np.testing.assert_array_equal(a, b)


def test_block_rows_match_single_paths():
    h = Horizon.uniform(1.0, 32)
    block = np.empty((5, h.n_steps))
    standard_normal_block(path_streams(seed=4, first_path=10, n_paths=5), h.n_steps, block)
    for i in range(5):
        single = substream(4, 10 + i).standard_normal(32)
        np.testing.assert_array_equal(block[i], single)


def test_consecutive_draws_continue_each_stream():
    # two draws from the same streams give the numbers of one draw of the summed length
    whole = normal_block(path_streams(8, 3, 4), 50)
    streams = path_streams(8, 3, 4)
    split = [normal_block(streams, 13), normal_block(streams, 37)]
    np.testing.assert_array_equal(np.hstack(split), whole)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("n_paths", [130, 3])
@pytest.mark.parametrize("width", [7, 500])
def test_threaded_fill_matches_single_streams(cpus, n_paths, width, monkeypatch):
    # 130 paths fill two 64-path tiles and a 2-path one; 3 paths fill one tile. Two
    # consecutive fills of a transposed step-major buffer, or of a caller's path-major
    # array, continue every stream.
    monkeypatch.setattr(paths, "_cpus", lambda: cpus)
    for step_major in (True, False):
        streams = path_streams(6, 40, n_paths)
        rows = np.empty((width, n_paths) if step_major else (n_paths, width))
        out = rows.T if step_major else rows
        slices = []
        for _ in range(2):
            assert standard_normal_block(streams, width, out=out) is out
            slices.append(out.copy())
        drawn = np.hstack(slices)
        for i in range(n_paths):
            want = substream(6, 40 + i).standard_normal(2 * width)
            np.testing.assert_array_equal(drawn[i], want)


class CountedThread(threading.Thread):
    started = 0

    def start(self):
        CountedThread.started += 1
        super().start()


@pytest.mark.parametrize("cpus, n_paths, helpers", [(3, 3, 0), (3, 64, 0), (3, 65, 1),
                                                      (3, 130, 2), (2, 130, 1), (1, 130, 0),
                                                      (3, 1000, 2)])
def test_a_fill_starts_one_helper_per_cpu_and_tile_past_the_first(cpus, n_paths, helpers,
                                                                   monkeypatch):
    # min(CPUs, tiles) - 1 helpers, and every one of them has joined when the call returns
    monkeypatch.setattr(paths, "_cpus", lambda: cpus)
    monkeypatch.setattr(CountedThread, "started", 0)
    monkeypatch.setattr(paths.threading, "Thread", CountedThread)
    alive = threading.active_count()
    standard_normal_block(path_streams(2, 0, n_paths), 9, out=np.empty((9, n_paths)).T)
    assert CountedThread.started == helpers
    assert threading.active_count() == alive


class BrokenStream:
    def standard_normal(self, out):
        raise RuntimeError("broken stream")


@pytest.mark.parametrize("broken", [100, 10])  # a helper's stream, the calling thread's
def test_a_fill_error_reaches_the_caller_after_every_thread_joined(broken, monkeypatch):
    monkeypatch.setattr(paths, "_cpus", lambda: 2)
    streams = path_streams(2, 0, 130)
    streams[broken] = BrokenStream()
    alive = threading.active_count()
    with pytest.raises(RuntimeError, match="broken stream"):
        standard_normal_block(streams, 9, out=np.empty((9, 130)).T)
    assert threading.active_count() == alive


def test_a_fill_refuses_an_out_of_the_wrong_shape():
    with pytest.raises(ValueError, match=r"out must have shape \(4, 9\)"):
        standard_normal_block(path_streams(2, 0, 4), 9, out=np.empty((4, 8)))


def test_streams_are_distinct():
    h = Horizon.uniform(1.0, 16)
    a = normal_increments(h, seed=1, path_index=0, stream=0)
    b = normal_increments(h, seed=1, path_index=0, stream=1)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_the_philox_key_range_is_a_value_error(seed):
    with pytest.raises(ValueError, match=rf"seed must lie in \[0, 2\*\*64\), got {seed}"):
        substream(seed, 0)
    h = Horizon.uniform(1.0, 4)
    with pytest.raises(ValueError, match="seed"):
        realize(BrownianMartingale(0.0, 1.0), h, seed=seed)
    assert substream(2**64 - 1, 0).standard_normal() == substream(2**64 - 1, 0).standard_normal()


@pytest.mark.parametrize("value", [1.5, 0.9, True, np.float64(1.0), -1, 2**64])
def test_a_seed_or_path_index_that_is_no_key_word_is_a_value_error(value):
    # a float or a bool was truncated to a key word, and -1 or 2**64 overflowed numpy's uint64
    rule = re.escape(f" must lie in [0, 2**64), got {value!r}") + "$"
    with pytest.raises(ValueError, match="^seed" + rule):
        substream(value, 0)
    with pytest.raises(ValueError, match="^path index" + rule):
        substream(1, value)
    with pytest.raises(ValueError, match="^path index" + rule):
        realize(BrownianMartingale(0.0, 1.0), Horizon.uniform(1.0, 4), seed=1, path_index=value)
    assert substream(np.uint64(1), np.int64(2)).standard_normal() == substream(1, 2).standard_normal()


@pytest.mark.parametrize("seed", [1.5, True])
def test_library_runs_refuse_a_seed_that_is_no_integer(seed):
    from dealerlab.asymptotics import DealerSetting, simulate_costs
    from dealerlab.equilibrium import solve_equilibrium
    from dealerlab.market import segmented_market

    bm, h = BrownianMartingale(0.0, 1.0), Horizon.uniform(1.0, 100)
    with pytest.raises(ValueError, match="^seed must lie in"):
        solve_equilibrium(segmented_market(0.1, 0.1, 0.1, 1, bm), h, seed=seed)
    with pytest.raises(ValueError, match="^seed must lie in"):
        simulate_costs(DealerSetting(), bm, [0.1], 4, seed=seed, steps=[50])
    with pytest.raises(ValueError, match="^path index must lie in"):
        solve_equilibrium(segmented_market(0.1, 0.1, 0.1, 1, bm), h, seed=1, path_index=0.9)


def test_zero_sigma_brownian_is_constant():
    h = Horizon.uniform(1.0, 50)
    path = realize(BrownianMartingale(x0=2.5, sigma=0.0), h, seed=3)[0]
    np.testing.assert_allclose(path, 2.5)


def test_ou_kappa_zero_reduces_to_brownian():
    h = Horizon.uniform(2.0, 100)
    z = substream(11, 0).standard_normal(100)
    bm = realize(BrownianMartingale(x0=0.3, sigma=0.7), h, z=z)[0]
    ou = realize(OrnsteinUhlenbeck(x0=0.3, kappa=0.0, theta=9.9, sigma=0.7), h, z=z)[0]
    np.testing.assert_array_equal(bm, ou)


def test_ou_exact_discretization_moments():
    # X_T moments of the exact recursion match the OU transition law
    h = Horizon.uniform(1.0, 8)
    n = 20_000
    z = normal_block(path_streams(seed=21, first_path=0, n_paths=n), h.n_steps)
    x = realize(OrnsteinUhlenbeck(x0=1.0, kappa=2.0, theta=0.5, sigma=0.8), h, z=z)[0]
    xT = x[:, -1]
    mean_exact = 0.5 + (1.0 - 0.5) * np.exp(-2.0)
    var_exact = 0.8**2 * (1 - np.exp(-4.0)) / 4.0
    assert xT.mean() == pytest.approx(mean_exact, abs=4 * np.sqrt(var_exact / n))
    assert xT.var() == pytest.approx(var_exact, rel=0.05)


def test_brownian_terminal_mean():
    # sample mean of X_T over 1e5 paths is 0 within 3/sqrt(1e5)
    h = Horizon.uniform(1.0, 4)
    n = 100_000
    z = normal_block(path_streams(seed=77, first_path=0, n_paths=n), h.n_steps)
    x = realize(BrownianMartingale(x0=0.0, sigma=1.0), h, z=z)[0]
    assert abs(x[:, -1].mean()) < 3.0 / np.sqrt(n)


def test_smooth_rate_is_trapezoid_integral():
    h = Horizon.uniform(1.0, 64)
    z = substream(5, 0).standard_normal(64)
    smooth = realize(SmoothRate(BrownianMartingale(0.0, 1.0)), h, z=z)
    rate = realize(BrownianMartingale(0.0, 1.0), h, z=z)[0]
    np.testing.assert_array_equal(smooth[1], rate)
    np.testing.assert_allclose(smooth[0], cumulative_trapezoid(rate, h.grid))
    assert smooth[0][0] == 0.0


def test_deterministic_and_constant_passthrough():
    h = Horizon.uniform(1.0, 3)
    vals = (0.0, 1.0, 4.0, 9.0)
    np.testing.assert_array_equal(realize(Deterministic(vals), h)[0], vals)
    np.testing.assert_array_equal(realize(Constant(-1.0), h)[0], -1.0)
    np.testing.assert_array_equal(realize(ZERO, h)[0], 0.0)
    with pytest.raises(ValueError):
        realize(Deterministic((1.0, 2.0)), h)


def test_ito_integral_of_w_dw():
    # sum W_i dW_i = (W_T^2 - T)/2 + O(sqrt(dt)); error sd is sqrt(dt/2) at T=1
    n = 100_000
    h = Horizon.uniform(1.0, n)
    w = realize(BrownianMartingale(0.0, 1.0), h, seed=31)[0]
    ito = integrate_against(w, w)
    exact = (w[-1] ** 2 - 1.0) / 2.0
    assert abs(ito - exact) < 5 * np.sqrt(0.5 / n)


def test_quadratic_variation_of_brownian():
    n = 50_000
    h = Horizon.uniform(1.0, n)
    w = realize(BrownianMartingale(0.0, 1.0), h, seed=13)[0]
    qv = quadratic_covariation(w, w)
    assert abs(qv - 1.0) < 3 * np.sqrt(2.0 / n)


def test_riemann_sum_exact_for_step_function_integrator():
    h = Horizon.uniform(1.0, 10)
    hpath = np.arange(11.0)
    linear = 3.0 * h.grid
    # left-endpoint sum against a linear integrator is the exact Riemann sum
    got = integrate_against(hpath, linear)
    assert got == pytest.approx(np.sum(hpath[:-1] * 0.3), rel=1e-14)
    with pytest.raises(ValueError):
        integrate_against(hpath, linear[:-1])


def test_refinement_consistency_ks():
    # Brownian marginals at T from an N-grid and a 2N-grid agree in law
    n_paths = 4000
    h1 = Horizon.uniform(1.0, 32)
    h2 = Horizon.uniform(1.0, 64)
    z1 = normal_block(path_streams(seed=55, first_path=0, n_paths=n_paths), h1.n_steps)
    z2 = normal_block(path_streams(seed=56, first_path=0, n_paths=n_paths), h2.n_steps)
    x1 = realize(BrownianMartingale(0.0, 1.0), h1, z=z1)[0][:, -1]
    x2 = realize(BrownianMartingale(0.0, 1.0), h2, z=z2)[0][:, -1]
    assert stats.ks_2samp(x1, x2).pvalue > 0.01
