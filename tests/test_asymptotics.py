"""Liquidity-cost identities, scaling laws, and the price-convergence proxy."""

import hashlib
import logging
import math
import threading
from dataclasses import replace

import numpy as np
import pytest

from dealerlab import asymptotics
from dealerlab.asymptotics import (
    liquidity_cost_from_paths,
    scaling_study,
    simulate_costs,
    steps_for,
    theoretical_prefactor,
)
from dealerlab.fbsde import RealizedDriver, realize_driver, solve_forward
from dealerlab.kernel import Horizon
from dealerlab.market import AgentSpec, MarketParams, aggregate, dealers_only_market
from dealerlab.paths import path_streams, realize
from dealerlab.processes import (
    BrownianMartingale,
    Constant,
    Deterministic,
    OrnsteinUhlenbeck,
    SmoothRate,
    ZERO,
)

from crosschecks import normal_block
from memory import traced_peak

UNIT_RATE = SmoothRate(Constant(1.0))  # K^N_t = t


def liquidity_cost_direct(
    demand_path: np.ndarray, rate_path: np.ndarray, impact_weight: float
) -> np.ndarray:
    """(1/eta + 1/eta_bar) * sum_i u_{i+1} (K^N_{i+1} - K^N_i): the integral-against-demand route.

    The exact discrete summation-by-parts twin of the cost (K^N_0 = 0 and
    u_T = 0 kill the boundary terms), so the two routes agree to rounding.
    """
    du = np.diff(demand_path, axis=-1)
    return impact_weight * np.sum(rate_path[..., 1:] * du, axis=-1)


# the dealer count and risk tolerance are the market builder's to refuse, T the study's
REFUSED_BY = {"n_dealers": "n_dealers", "rho_d": "agent dealer0: risk tolerance", "T": "T"}


@pytest.mark.parametrize(
    "kwargs, field",
    [({"n_dealers": 0}, "n_dealers"), ({"n_dealers": 2.0}, "n_dealers"),
     ({"n_dealers": True}, "n_dealers"), ({"rho_d": 0.0}, "rho_d"),
     ({"rho_d": math.nan}, "rho_d"), ({"T": -1.0}, "T"), ({"rho_d": math.inf}, "rho_d"),
     ({"T": math.inf}, "T"), ({"T": math.nan}, "T")],
)
def test_dealer_setting_validates_itself(kwargs, field):
    setting = {"n_dealers": 2, "rho_d": 0.1, "T": 1.0, **kwargs}
    with pytest.raises(ValueError, match=f"^{REFUSED_BY[field]} "):
        market = dealers_only_market(1e-2, setting["rho_d"], setting["n_dealers"], UNIT_RATE)
        scaling_study(market, setting["T"], [1e-2], n_paths=0)


def no_grid(*args):
    raise AssertionError("a grid was picked")


@pytest.mark.parametrize(
    "market, T, message",
    [(dealers_only_market(1e-2, 0.1, 1, UNIT_RATE), T,
      rf"^T must be positive and finite, got {T!r}$") for T in (0.0, -1.0, math.nan, math.inf)]
    + [(MarketParams(1e-2, (AgentSpec("dealer0", 1.0, 0.1, target=Constant(-1.0)),), UNIT_RATE),
        1.0, "^a cost study takes a market without trading targets")],
    ids=["T=0", "T=-1", "T=nan", "T=inf", "target"],
)
@pytest.mark.parametrize("study", [lambda market, T: simulate_costs([market], T, 0, 0),
                                   lambda market, T: scaling_study(market, T, [1e-2], 0, 0)],
                         ids=["simulate_costs", "scaling_study"])
def test_study_entry_points_refuse_before_any_grid(study, market, T, message, monkeypatch):
    # a NaN T reached math.ceil in steps_for; the cost identity is for a market driven by
    # its noise demand alone
    monkeypatch.setattr(asymptotics, "steps_for", no_grid)
    with pytest.raises(ValueError, match=message):
        study(market, T)


@pytest.mark.parametrize(
    "markets, n_paths",
    [([], 8), ([], 0),
     ([dealers_only_market(1e-2, 0.1, 2, BrownianMartingale(0.0, 1.0)),
       dealers_only_market(1e-2, 0.1, 2, BrownianMartingale(0.0, 2.0))], 8),
     ([dealers_only_market(1e-2, 0.1, 2, UNIT_RATE),
       dealers_only_market(1e-2, 0.1, 2, SmoothRate(Constant(2.0)))], 0)],
    ids=["none-monte-carlo", "none-exact", "two-brownians", "two-rates"],
)
def test_a_study_takes_one_or_more_markets_of_one_noise_demand(markets, n_paths, monkeypatch):
    # an empty list died in _chunk_sweep's max() on the Monte Carlo branch (a Brownian
    # demand, 8 paths) and came back as ([], []) on the exact one (a unit rate, 0 paths)
    monkeypatch.setattr(asymptotics, "steps_for", no_grid)
    with pytest.raises(ValueError, match="^a cost study takes one or more markets of one noise "
                                         "demand$"):
        simulate_costs(markets, 1.0, n_paths, 1)


def test_a_market_is_swept_at_its_own_impact_cost():
    # a 1e-2 market swept at 1e-3 when a second impact-cost list overrode its own
    market = dealers_only_market(1e-2, 0.1, 2, UNIT_RATE)
    (cost,), _ = simulate_costs([market], 1.0, 0, 0)
    ag = aggregate(market)
    h = Horizon.uniform(1.0, steps_for(ag.delta, 1.0))
    realized = realize_driver(((1.0, UNIT_RATE),), h)
    _, u = solve_forward(realized, ag.delta, h)
    assert cost[0] == liquidity_cost_from_paths(realized.values(), u, ag.impact_weight)
    assert cost[0] / 1e-2 == pytest.approx(1.5, rel=0.05)


@pytest.mark.parametrize("m", [1, 2, 3, 10])
@pytest.mark.parametrize("rho_d", [0.05, 0.4])
@pytest.mark.parametrize("lam", [1e-1, 1e-5])
def test_dealer_setting_reads_the_dealers_only_market(m, rho_d, lam):
    # the mesh rate, the cost multiplier and both prefactors of the paper, from the market's
    # own aggregates
    market = dealers_only_market(lam, rho_d, m, ZERO)
    ag = aggregate(market)
    assert ag.delta.delta == pytest.approx(m / (lam * rho_d * (m + 1)), rel=1e-13)
    assert ag.impact_weight == pytest.approx(lam * (m + 1) / m, rel=1e-13)
    smooth = theoretical_prefactor(dealers_only_market(lam, rho_d, m, UNIT_RATE), 1.0)
    diffusive = theoretical_prefactor(
        dealers_only_market(lam, rho_d, m, BrownianMartingale(0.0, 1.0)), 1.0
    )
    assert smooth == pytest.approx((m + 1) / m, rel=1e-14)
    assert diffusive == pytest.approx(math.sqrt((m + 1) / (m * rho_d)), rel=1e-14)


def test_zero_demand_costs_nothing():
    market = dealers_only_market(0.01, 0.1, 1, ZERO)
    assert simulate_costs([market], 1.0, 0, 0)[0][0][0] == 0.0


def test_cost_routes_are_summation_by_parts_twins():
    # -sum K du vs +sum u dK agree to rounding (K_0 = 0, u_T = 0)
    ag = aggregate(dealers_only_market(1e-3, 0.1, 3, ZERO))
    h = Horizon.uniform(1.0, steps_for(ag.delta, 1.0))
    realized = realize_driver(((1.0, UNIT_RATE),), h)
    _, u = solve_forward(realized, ag.delta, h)
    a = liquidity_cost_from_paths(realized.values(), u, ag.impact_weight)
    b = liquidity_cost_direct(realized.values(), u, ag.impact_weight)
    assert a == pytest.approx(b, rel=1e-10)


def test_unit_smooth_demand_limit():
    # K^N_t = t: cost/lam -> (M+1)/M * T as lam -> 0
    for m in (1, 3):
        c = simulate_costs([dealers_only_market(1e-5, 0.1, m, UNIT_RATE)], 1.0, 0, 0)[0][0][0]
        assert c / 1e-5 == pytest.approx((m + 1) / m, rel=2e-2)
        # finite-lam value sits below the limit by ~1/(sqrt(delta) T)
        assert c / 1e-5 < (m + 1) / m


def test_deterministic_smooth_scaling_study():
    market = dealers_only_market(1e-5, 0.1, 2, UNIT_RATE)
    rep = scaling_study(market, 1.0, [1e-1, 1e-2, 1e-3, 1e-4, 1e-5], n_paths=0)
    assert rep.family == "smooth"
    assert rep.stderrs == [0.0] * 5
    assert 0.95 <= rep.slope <= 1.05
    assert rep.prefactor == pytest.approx(rep.prefactor_theory, rel=0.02)
    assert rep.prefactor_theory == pytest.approx(1.5, rel=1e-12)


def test_smooth_prefactor_independent_of_dealer_inventory_cost():
    # the smooth-demand law has no rho_d in its leading term
    prefs = []
    for rho in (0.05, 0.1, 0.2):
        c = simulate_costs([dealers_only_market(1e-5, rho, 2, UNIT_RATE)], 1.0, 0, 0)[0][0][0]
        prefs.append(c / 1e-5)
    assert max(prefs) / min(prefs) < 1.005


def test_deterministic_varying_rate_demand():
    # rate mu(t) = 1 + sin(2 pi t): prefactor = (M+1)/M * int mu^2 = 1.5 * 1.5
    n = 40_000
    h = Horizon.uniform(1.0, n)
    rate = Deterministic(tuple(1.0 + np.sin(2 * np.pi * h.grid)))
    market = dealers_only_market(1e-5, 0.1, 2, SmoothRate(rate))
    c = simulate_costs([market], 1.0, 0, 0, steps=[n])[0][0][0]
    assert c / 1e-5 == pytest.approx(1.5 * 1.5, rel=0.02)


def test_expected_square_rate_integrals():
    assert Constant(2.0).square_integral(1.0) == pytest.approx(4.0)
    assert BrownianMartingale(1.0, 1.0).square_integral(2.0) == pytest.approx(2.0 + 2.0)
    # OU vs Monte Carlo
    ou = OrnsteinUhlenbeck(x0=1.0, kappa=1.3, theta=0.4, sigma=0.5)
    closed = ou.square_integral(1.0)
    h = Horizon.uniform(1.0, 256)
    z = normal_block(path_streams(3, 0, 20_000), h.n_steps)
    paths = realize(ou, h, z=z)[0]
    mc = np.mean(
        np.sum(0.5 * (paths[:, :-1] ** 2 + paths[:, 1:] ** 2) * np.diff(h.grid), axis=1)
    )
    assert closed == pytest.approx(float(mc), rel=0.01)


def test_diffusive_prefactor_small_lambda():
    market = dealers_only_market(1e-4, 0.1, 2, BrownianMartingale(0.0, 1.0))
    (costs,), _ = simulate_costs([market], 1.0, 3000, seed=11)
    pref = costs.mean() / np.sqrt(1e-4)
    theory = theoretical_prefactor(market, 1.0)
    se = costs.std(ddof=1) / np.sqrt(3000) / np.sqrt(1e-4)
    assert abs(pref - theory) < 0.05 * theory + 2 * se


def test_diffusive_slope_window():
    market = dealers_only_market(1e-3, 0.1, 2, BrownianMartingale(0.0, 1.0))
    rep = scaling_study(market, 1.0, [1e-1, 1e-2, 1e-3], n_paths=1500, seed=4)
    assert rep.family == "diffusive"
    assert 0.45 <= rep.slope <= 0.55


def test_diffusive_prefactor_scales_with_inventory_cost():
    # prefactor ratio across rho_d follows rho_d^{-1/2}
    dem = BrownianMartingale(0.0, 1.0)
    lam = 1e-4
    prefs = {}
    for rho in (0.05, 0.2):
        market = dealers_only_market(lam, rho, 2, dem)
        (costs,), _ = simulate_costs([market], 1.0, 2500, seed=9)
        prefs[rho] = costs.mean() / np.sqrt(lam)
    assert prefs[0.05] / prefs[0.2] == pytest.approx(np.sqrt(0.2 / 0.05), rel=0.05)


def test_ou_demand_family_prefactor():
    # second diffusive family: OU demand with constant diffusion coefficient
    dem = OrnsteinUhlenbeck(x0=0.0, kappa=2.0, theta=0.0, sigma=0.8)
    market = dealers_only_market(1e-4, 0.1, 1, dem)
    (costs,), _ = simulate_costs([market], 1.0, 2500, seed=13)
    theory = theoretical_prefactor(market, 1.0)
    assert theory == pytest.approx(np.sqrt(2 / 0.1) * 0.64, rel=1e-12)
    assert costs.mean() / np.sqrt(1e-4) == pytest.approx(theory, rel=0.05)


def test_monte_carlo_reproducibility_and_worker_invariance():
    market = dealers_only_market(1e-2, 0.1, 1, BrownianMartingale(0.0, 1.0))
    (a,), (ta,) = simulate_costs([market], 1.0, 600, seed=21)
    (b,), (tb,) = simulate_costs([market], 1.0, 600, seed=21)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(ta, tb)
    # one chunk per worker: 600 paths as 120-path and 86-path chunks
    for workers in (5, 7):
        (c,), (tc,) = simulate_costs([market], 1.0, 600, seed=21, workers=workers)
        np.testing.assert_array_equal(a, c)
        np.testing.assert_array_equal(ta, tc)


@pytest.mark.parametrize(
    "demand, cost_sha256, track_sha256",
    [
        (
            BrownianMartingale(0.0, 1.0),
            "33b807fa3efb54845f7099ac05cebfaeb187144771e8e22337720a85acf91cb0",
            "64cd08d92a146cbaec3aea9613afab54523f3419aa4dec8ff58137f55a424cb2",
        ),
        (
            SmoothRate(BrownianMartingale(0.0, 1.0)),
            "b996d409fe4e1300051c84237188b07acf8c52282083a2064ec4f5791971513c",
            "7f415d61855a214fc6ad8d691d79ebba432002ab5e3144b3df863b915e45a212",
        ),
    ],
    ids=["brownian", "smooth-brownian"],
)
def test_brownian_sweep_bytes_are_pinned(demand, cost_sha256, track_sha256):
    # recorded when the sweep took Heun's step as U' = a U + b u + c g' and weighted each
    # node of the tracking trapezoid once; smooth-brownian's since the rate weight's
    # 1 - sech(x) is taken without cancellation
    market = dealers_only_market(1e-2, 0.1, 2, demand)
    (costs,), (tracks,) = simulate_costs([market], 1.0, 64, 7)
    assert hashlib.sha256(costs.tobytes()).hexdigest() == cost_sha256
    assert hashlib.sha256(tracks.tobytes()).hexdigest() == track_sha256


@pytest.mark.parametrize(
    "demand",
    [
        BrownianMartingale(0.3, 1.0),
        OrnsteinUhlenbeck(x0=0.2, kappa=2.0, theta=-0.4, sigma=0.8),
        SmoothRate(OrnsteinUhlenbeck(x0=1.0, kappa=1.0, theta=1.0, sigma=0.3)),
        SmoothRate(BrownianMartingale(0.5, 1.0)),
    ],
    ids=["brownian", "ou", "smooth-ou", "smooth-brownian"],
)
def test_sweep_matches_forward_solve_path_by_path(demand):
    # the fused sweep and realize + solve_forward on the same normals
    lam, n_paths, seed = 1e-3, 64, 7
    market = dealers_only_market(lam, 0.1, 2, demand)
    (costs,), (tracks,) = simulate_costs([market], 1.0, n_paths, seed)
    ag = aggregate(market)
    h = Horizon.uniform(1.0, steps_for(ag.delta, 1.0))
    z = normal_block(path_streams(seed, 0, n_paths), h.n_steps)
    path = realize(demand, h, z=z)
    realized = RealizedDriver(((1.0, demand),), {demand: path})
    U, u = solve_forward(realized, ag.delta, h)
    cost = liquidity_cost_from_paths(realized.values(), u, ag.impact_weight)
    gap_sq = (realized.values() - U) ** 2
    track = np.sum(0.5 * (gap_sq[:, :-1] + gap_sq[:, 1:]) * h.dt, axis=-1)
    np.testing.assert_allclose(costs, cost, rtol=0, atol=1e-10 * np.max(np.abs(cost)))
    np.testing.assert_allclose(tracks, track, rtol=0, atol=1e-10 * np.max(track))


@pytest.mark.parametrize(
    "demand",
    [
        BrownianMartingale(0.3, 1.0),
        OrnsteinUhlenbeck(x0=0.2, kappa=2.0, theta=-0.4, sigma=0.8),
        SmoothRate(OrnsteinUhlenbeck(x0=1.0, kappa=1.0, theta=1.0, sigma=0.3)),
    ],
    ids=["brownian", "ou", "smooth-ou"],
)
def test_time_slices_change_no_path(demand, monkeypatch):
    # slice widths that do not divide the steps, or cover them all, across worker splits
    lam, n_paths, steps = 1e-2, 20, 50
    market = dealers_only_market(lam, 0.1, 2, demand)
    runs = []
    for width, workers in ((steps, 1), (7, 4), (7, 1), (500, 3)):
        monkeypatch.setattr(asymptotics, "SLICE_STEPS", width)
        runs.append(simulate_costs([market], 1.0, n_paths, 5, [steps], workers))
    for costs, tracks in runs[1:]:
        np.testing.assert_array_equal(costs, runs[0][0])
        np.testing.assert_array_equal(tracks, runs[0][1])


SHARED_DRAW_DEMANDS = [
    BrownianMartingale(0.3, 1.0),
    OrnsteinUhlenbeck(x0=0.2, kappa=2.0, theta=-0.4, sigma=0.8),
    SmoothRate(OrnsteinUhlenbeck(x0=1.0, kappa=1.0, theta=1.0, sigma=0.3)),
]


@pytest.mark.parametrize("demand", SHARED_DRAW_DEMANDS, ids=["brownian", "ou", "smooth-ou"])
@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("width", [7, 10, 20])
def test_one_call_over_impact_costs_is_one_call_per_impact_cost(demand, workers, width,
                                                                 monkeypatch):
    # 30-, 40- and 60-step grids share the 60-step draw: at width 7 every grid ends inside
    # a slice, at 10 every grid ends on a slice edge, at 20 the 30-step grid ends mid-slice;
    # the markets differ in their impact cost, in rho_d or in M
    monkeypatch.setattr(asymptotics, "SLICE_STEPS", width)
    steps = [30, 40, 60]
    for markets in ([dealers_only_market(lam, 0.1, 2, demand) for lam in (1e-1, 1e-2, 1e-3)],
                    [dealers_only_market(1e-2, rho, 2, demand) for rho in (0.4, 0.1, 0.025)],
                    [dealers_only_market(1e-2, 0.1, m, demand) for m in (1, 2, 10)]):
        costs, tracks = simulate_costs(markets, 1.0, 20, 5, steps, workers)
        for market, n, cost, track in zip(markets, steps, costs, tracks, strict=True):
            (one_cost,), (one_track,) = simulate_costs([market], 1.0, 20, 5, [n], workers)
            np.testing.assert_array_equal(cost, one_cost)
            np.testing.assert_array_equal(track, one_track)


def test_a_chunk_draws_its_normals_once_for_its_longest_grid(monkeypatch):
    # 200 paths on 3 workers: chunks of 67, 67 and 66 paths, each drawing 60 steps per path
    # from one stream per path, whatever the shorter grids take
    chunks = []
    sweep, draw = asymptotics._chunk_sweep, asymptotics.standard_normal_block

    def recording_sweep(*args):
        chunks.append({"paths": args[-1], "normals": 0, "streams": set()})
        return sweep(*args)

    def counted_draw(streams, n_steps, out=None):
        chunks[-1]["normals"] += len(streams) * n_steps
        chunks[-1]["streams"].update(map(id, streams))
        return draw(streams, n_steps, out=out)

    monkeypatch.setattr(asymptotics, "_chunk_sweep", recording_sweep)
    monkeypatch.setattr(asymptotics, "standard_normal_block", counted_draw)
    monkeypatch.setattr(asymptotics, "SLICE_STEPS", 16)
    markets = [dealers_only_market(lam, 0.1, 2, BrownianMartingale(0.0, 1.0))
               for lam in (1e-1, 1e-2, 1e-3)]
    simulate_costs(markets, 1.0, 200, 5, [30, 40, 60], 3)
    assert [c["paths"] for c in chunks] == [67, 67, 66]
    for c in chunks:
        assert c["normals"] == c["paths"] * 60
        assert len(c["streams"]) == c["paths"]


def test_sweep_memory_is_bounded_by_the_slice():
    # the (paths x steps) normal block is never built: peak well under a quarter of it
    n_paths, steps = 256, 20_000
    market = dealers_only_market(1e-5, 0.1, 2, BrownianMartingale(0.0, 1.0))
    _, peak = traced_peak(simulate_costs, [market], 1.0, n_paths, 3, [steps])
    assert peak < n_paths * steps * 8 / 4


@pytest.mark.parametrize("width", [7, 500])
def test_one_chunk_across_partial_tiles_matches_small_chunks(width, monkeypatch):
    # 130 paths fill two 64-path tiles and a 2-path one; 7 workers' 19-path chunks fill none
    monkeypatch.setattr(asymptotics, "SLICE_STEPS", width)
    market, steps = dealers_only_market(1e-2, 0.1, 2, BrownianMartingale(0.3, 1.0)), 50
    whole = simulate_costs([market], 1.0, 130, 9, [steps], 1)
    split = simulate_costs([market], 1.0, 130, 9, [steps], 7)
    for a, b in zip(whole, split):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("n_paths, n_steps, width", [(130, 50, 7), (130, 50, 500), (3, 9, 4)])
def test_normal_rows_are_the_transposed_block(n_paths, n_steps, width, monkeypatch):
    # the slices, filled on 1 or 3 threads, against one path-major fill on 1 thread
    monkeypatch.setattr(asymptotics, "SLICE_STEPS", width)
    monkeypatch.setattr("dealerlab.paths._cpus", lambda: 1)
    block = normal_block(path_streams(4, 10, n_paths), n_steps)
    for cpus in (1, 3):
        monkeypatch.setattr("dealerlab.paths._cpus", lambda k=cpus: k)
        slices = [(lo, rows.copy()) for lo, rows in
                  asymptotics._normal_slices(path_streams(4, 10, n_paths), n_steps)]
        assert [lo for lo, _ in slices] == list(range(0, n_steps, width))
        np.testing.assert_array_equal(np.concatenate([rows for _, rows in slices]), block.T)


@pytest.mark.parametrize("width", [7, 500])
def test_costs_do_not_depend_on_the_fill_threads(width, monkeypatch):
    # 130 paths in one chunk (three tiles) or in 7 chunks of 19 (one tile each), on 1 or 3
    # fill threads
    monkeypatch.setattr(asymptotics, "SLICE_STEPS", width)
    market = dealers_only_market(1e-1, 0.1, 2, OrnsteinUhlenbeck(0.2, 2.0, -0.4, 0.8))
    markets = [market, replace(market, impact_cost=1e-2)]
    runs = []
    for cpus, workers in ((1, 1), (3, 1), (1, 7), (3, 7)):
        monkeypatch.setattr("dealerlab.paths._cpus", lambda k=cpus: k)
        runs.append(simulate_costs(markets, 1.0, 130, 9, [30, 50], workers))
    for costs, tracks in runs[1:]:
        for got, want in zip(costs + tracks, runs[0][0] + runs[0][1]):
            np.testing.assert_array_equal(got, want)


def test_sweep_memory_at_the_default_chunk_is_one_slice_buffer():
    # the step-major buffer, chunk x SLICE_STEPS floats, plus one tile and O(chunk) state
    n_paths, steps = 2048, 3000
    market = dealers_only_market(1e-3, 0.1, 2, BrownianMartingale(0.0, 1.0))
    _, peak = traced_peak(simulate_costs, [market], 1.0, n_paths, 3, [steps])
    assert peak < 1.25 * n_paths * asymptotics.SLICE_STEPS * 8



@pytest.mark.parametrize(
    "demand",
    [BrownianMartingale(0.0, 1.0), SmoothRate(OrnsteinUhlenbeck(x0=1.0, kappa=1.0, theta=1.0,
                                                                sigma=0.3))],
    ids=["brownian", "smooth-ou"],
)
def test_sweep_memory_does_not_grow_with_the_step_count(demand):
    # each slice builds its own F, Heun coefficients, tracking weights, G coefficients and
    # stepper: 8 paths on one market peak alike on 10,000 and 40,000 steps, the grids' nodes
    # built before tracing starts (whole-grid arrays grew 48 and 143 B a step)
    ag = aggregate(dealers_only_market(1e-5, 0.1, 2, demand))
    asymptotics._chunk_sweep(demand, [(ag, Horizon.uniform(1.0, 10))], 3, 0, 8)  # first calls
    peaks = []
    for steps in (10_000, 40_000):
        grids = [(ag, Horizon.uniform(1.0, steps))]
        peaks.append(traced_peak(asymptotics._chunk_sweep, demand, grids, 3, 0, 8)[1])
    assert peaks[1] - peaks[0] < 1 * (40_000 - 10_000)

def test_chunks_follow_the_worker_count(monkeypatch):
    # one chunk per worker, capped at 2048 paths: no worker idles while another sweeps
    counts = []
    sweep = asymptotics._chunk_sweep

    def recording_sweep(*args):
        counts.append(args[-1])
        return sweep(*args)

    monkeypatch.setattr(asymptotics, "_chunk_sweep", recording_sweep)
    demand = BrownianMartingale(0.0, 1.0)
    for n_paths, workers, want in ((600, 3, [200] * 3), (601, 3, [201, 201, 199]),
                                   (5000, 1, [2048, 2048, 904]), (5000, 2, [2048, 2048, 904]),
                                   (8, 1000, [1] * 8)):
        counts.clear()
        simulate_costs([dealers_only_market(1e-2, 0.1, 2, demand)], 1.0, n_paths, 1, [16], workers)
        assert sorted(counts, reverse=True) == want, (n_paths, workers)


def test_chunks_run_on_the_calling_thread(monkeypatch):
    # 8 workers chunk 16 paths by 2, and every chunk is swept on this thread, in order
    threads, starts = [], []
    sweep = asymptotics._chunk_sweep

    def recording_sweep(*args):
        threads.append(threading.get_ident())
        starts.append(args[-2])
        return sweep(*args)

    monkeypatch.setattr(asymptotics, "_chunk_sweep", recording_sweep)
    market = dealers_only_market(1e-2, 0.1, 2, BrownianMartingale(0.0, 1.0))
    serial = simulate_costs([market], 1.0, 16, seed=3, steps=[40])
    threads.clear()
    starts.clear()
    chunked = simulate_costs([market], 1.0, 16, seed=3, steps=[40], workers=8)
    assert threads == [threading.get_ident()] * 8
    assert starts == list(range(0, 16, 2))
    for a, b in zip(serial, chunked):
        np.testing.assert_array_equal(a, b)


def test_an_unstable_step_is_refused_before_the_sweep(monkeypatch):
    # 4 steps at lambda=1e-2 give F*dt = 6.45: Heun's step would amplify every error
    def no_sweep(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(asymptotics, "_chunk_sweep", no_sweep)
    with pytest.raises(ValueError, match=r"lambda=0.01: .*max F\*dt = 6.45 > 2 on 4 steps"):
        simulate_costs([dealers_only_market(1e-2, 0.1, 2, BrownianMartingale(0.0, 1.0))], 1.0,
                       8, 1, [4])


@pytest.mark.parametrize("workers", [0, -4])
def test_workers_below_one_are_rejected(workers):
    with pytest.raises(ValueError, match="workers"):
        simulate_costs([dealers_only_market(1e-2, 0.1, 2, BrownianMartingale(0.0, 1.0))], 1.0,
                       8, 1, workers=workers)


@pytest.mark.parametrize(
    "demand, n_paths, seed, workers, named",
    [
        (BrownianMartingale(0.0, 1.0), 2.5, 1, 1, "n_paths"),
        (UNIT_RATE, True, 0, 1, "n_paths"),
        (BrownianMartingale(0.0, 1.0), 8, 1, 1.5, "workers"),
        (BrownianMartingale(0.0, 1.0), 8, 1, True, "workers"),
        (UNIT_RATE, 0, 1.5, 1, "seed"),
        (UNIT_RATE, 0, -1, 1, "seed"),
    ],
    ids=["paths-float", "paths-bool", "workers-float", "workers-bool",
         "seed-float-deterministic", "seed-negative-deterministic"],
)
def test_count_inputs_are_integers(demand, n_paths, seed, workers, named):
    # a float path count died in range(); the others ran, a deterministic demand's seed unread
    with pytest.raises(ValueError, match=rf"^{named} must "):
        simulate_costs([dealers_only_market(1e-2, 0.1, 2, demand)], 1.0, n_paths, seed, [16],
                       workers)


def test_scaling_study_rejects_repeated_impact_costs():
    with pytest.raises(ValueError, match="distinct"):
        scaling_study(dealers_only_market(1e-2, 0.1, 2, BrownianMartingale(0.0, 1.0)), 1.0,
                      [1e-2, 1e-2], 8)


def test_scaling_study_rejects_an_empty_impact_cost_list():
    with pytest.raises(ValueError, match="one or more"):
        scaling_study(dealers_only_market(1e-2, 0.1, 2, UNIT_RATE), 1.0, [], 0)


def test_scaling_study_refuses_a_zero_impact_cost():
    # a dealer with a costly own route makes lambda = 0 a market, but not a point of the law
    market = MarketParams(0.0, (AgentSpec("dealer0", 1.0, 0.1, open_cost=1e-3),),
                          BrownianMartingale(0.0, 1.0))
    with pytest.raises(ValueError, match="positive"):
        scaling_study(market, 1.0, [0.0, 1e-2], 8)


@pytest.mark.parametrize(
    "demand", [(-1.0, 0.8, False), (1.0, -0.8, False), (-1.0, 0.8, True), (1.0, -0.8, True)]
)
def test_study_entry_points_reject_invalid_demand(demand):
    # an invalid demand (kappa, sigma, as a smooth rate or not) cannot be built,
    # so no study entry point is ever handed one
    kappa, sigma, smooth = demand
    with pytest.raises(ValueError, match="(kappa|sigma) must be >= 0"):
        ou = OrnsteinUhlenbeck(0.3, kappa, 0.5, sigma)
        SmoothRate(ou) if smooth else ou


def test_smooth_stochastic_matches_theory():
    # OU-rate smooth demand: E cost / lam -> (M+1)/M E int mu^2 dt
    dem = SmoothRate(OrnsteinUhlenbeck(x0=1.0, kappa=1.0, theta=1.0, sigma=0.3))
    market = dealers_only_market(1e-4, 0.1, 2, dem)
    (costs,), _ = simulate_costs([market], 1.0, 2000, seed=6)
    theory = theoretical_prefactor(market, 1.0)
    se = costs.std(ddof=1) / np.sqrt(2000) / 1e-4
    assert costs.mean() / 1e-4 == pytest.approx(theory, abs=0.03 * theory + 2 * se)


def test_convergence_proxy_decreases():
    market = dealers_only_market(1e-4, 0.1, 1, BrownianMartingale(0.0, 1.0))
    rep = scaling_study(market, 1.0, [1e-1, 1e-2, 1e-3, 1e-4], n_paths=2000, seed=2)
    assert rep.track_monotone_within_2se
    assert rep.track_reduction_factor >= 10.0


def test_convergence_proxy_zero_demand():
    # no demand, nothing to track: the reduction factor and the slope are null, never NaN
    market = dealers_only_market(1e-3, 0.1, 1, SmoothRate(Constant(0.0)))
    rep = scaling_study(market, 1.0, [1e-1, 1e-3], n_paths=0)
    assert rep.track_means == [0.0, 0.0]
    assert rep.track_reduction_factor is None
    assert rep.slope is None


def test_tracking_improves_with_harsher_inventory_penalty():
    # smaller risk tolerance means a larger mesh rate and tighter tracking
    dem = BrownianMartingale(0.0, 1.0)
    tracks = {}
    for rho in (0.05, 0.4):
        _, (t,) = simulate_costs([dealers_only_market(1e-2, rho, 1, dem)], 1.0, 1500, seed=5)
        tracks[rho] = t.mean()
    assert tracks[0.05] < tracks[0.4]


def test_step_cap_is_reported(monkeypatch, caplog):
    market = dealers_only_market(1e-3, 0.1, 2, UNIT_RATE)
    wanted = steps_for(aggregate(market).delta, 1.0)
    with monkeypatch.context() as patch, caplog.at_level(
        logging.WARNING, logger="dealerlab.asymptotics"
    ):
        patch.setattr(asymptotics, "STEP_CAP", 1000)
        rep = scaling_study(market, 1.0, [1e-3], n_paths=0)
    assert rep.steps == [1000]
    assert len(rep.warnings) == 1
    for part in ("lambda=0.001", f"{wanted} steps wanted", "1000 used"):
        assert part in rep.warnings[0]
    assert rep.warnings[0] in caplog.text
    assert scaling_study(market, 1.0, [1e-3], n_paths=0).warnings == []


def test_stderr_warning_on_thin_sampling():
    # two paths at this seed leave the smallest-lambda stderr above 10%
    market = dealers_only_market(1e-2, 0.1, 1, BrownianMartingale(0.0, 1.0))
    rep = scaling_study(market, 1.0, [1e-1, 1e-2], n_paths=2, seed=1)
    assert rep.warnings


def test_deterministic_demand_is_one_exact_row_on_every_route():
    lam = 1e-3
    market = dealers_only_market(lam, 0.1, 2, UNIT_RATE)
    (costs,), (tracks,) = simulate_costs([market], 1.0, 0, 0)
    assert costs.shape == tracks.shape == (1,)
    assert simulate_costs([market], 1.0, 500, 3)[0][0][0] == costs[0]
    rep = scaling_study(market, 1.0, [lam], n_paths=0)
    assert (rep.means, rep.stderrs, rep.path_counts) == ([costs[0]], [0.0], [1])
    assert (rep.track_means, rep.track_stderrs) == ([tracks[0]], [0.0])


@pytest.mark.parametrize("n_paths", [0, 1])
def test_monte_carlo_needs_two_paths(n_paths):
    market = dealers_only_market(1e-2, 0.1, 2, BrownianMartingale(0.0, 1.0))
    for study in (
        lambda: simulate_costs([market], 1.0, n_paths, seed=1),
        lambda: scaling_study(market, 1.0, [1e-1, 1e-2], n_paths=n_paths, seed=1),
    ):
        with pytest.raises(ValueError, match="at least 2 paths"):
            study()


def test_step_cap_is_logged_by_every_entry_point(monkeypatch, caplog):
    smooth = dealers_only_market(1e-3, 0.1, 2, UNIT_RATE)
    diffusive = dealers_only_market(1e-3, 0.1, 2, BrownianMartingale(0.0, 1.0))
    note = f"{steps_for(aggregate(smooth).delta, 1.0)} steps wanted, 1000 used"
    monkeypatch.setattr(asymptotics, "STEP_CAP", 1000)
    for study in (
        lambda: simulate_costs([smooth], 1.0, 0, 0),
        lambda: simulate_costs([diffusive], 1.0, 8, 1),
        lambda: scaling_study(diffusive, 1.0, [1e-3], 8, 1),
        lambda: scaling_study(smooth, 1.0, [1e-3], n_paths=0),
    ):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="dealerlab.asymptotics"):
            study()
        assert caplog.text.count(note) == 1
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="dealerlab.asymptotics"):
        simulate_costs([replace(smooth, impact_cost=1e-1)], 1.0, 0, 0)
    assert "step cap" not in caplog.text
