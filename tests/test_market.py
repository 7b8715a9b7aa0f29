"""Aggregates and validation against the stylized-market formulas."""

import math

import numpy as np
import pytest

from dealerlab.market import (
    AgentSpec,
    MarketParams,
    NO_ACCESS,
    aggregate,
    dealers_only_market,
    elasticity,
    integrated_market,
    segmented_market,
)
from dealerlab.processes import BrownianMartingale, Constant, OrnsteinUhlenbeck


def delta_segmented(m_dealers, lam, rho_c, rho_d):
    return 2 * m_dealers / ((rho_c + rho_d) * lam * (m_dealers + 1))


def test_segmented_market_aggregates():
    # M dealers mass 1/(2M) with free access, M clients locked out:
    # rho_bar=(rho_c+rho_d)/2, eta_bar=M/lambda, xi_bar=xi_c/2
    lam, rho_c, rho_d, M = 0.1, 0.1, 0.1, 3
    xi = Constant(-1.0)
    params = segmented_market(lam, rho_c, rho_d, M, xi)
    ag = aggregate(params)
    assert ag.rho_bar == pytest.approx((rho_c + rho_d) / 2, rel=1e-14)
    assert ag.eta_bar == pytest.approx(M / lam, rel=1e-14)
    assert ag.eta == pytest.approx(1 / lam, rel=1e-14)
    assert ag.delta.delta == pytest.approx(delta_segmented(M, lam, rho_c, rho_d), rel=1e-13)
    assert ag.xi_bar == ((0.5, xi),)


def test_single_agent_aggregates():
    params = MarketParams(0.1, (AgentSpec("solo", 1.0, 0.2, open_cost=0.0),))
    ag = aggregate(params)
    assert ag.eta_bar == pytest.approx(10.0, rel=1e-14)
    assert ag.eta == pytest.approx(10.0, rel=1e-14)
    # delta = 1/(2*rho_bar*lambda)
    assert ag.delta.delta == pytest.approx(1 / (2 * 0.2 * 0.1), rel=1e-14)


def test_integrated_market_delta_is_delta_2m():
    lam, rho_c, rho_d, M = 0.1, 0.1, 0.1, 4
    params = integrated_market(lam, rho_c, rho_d, M, Constant(-1.0))
    ag = aggregate(params)
    assert ag.eta_bar == pytest.approx(2 * M / lam, rel=1e-14)
    assert ag.delta.delta == pytest.approx(delta_segmented(2 * M, lam, rho_c, rho_d), rel=1e-13)


def test_delta_m_monotone_and_limits():
    lam, rho_c, rho_d = 0.1, 0.15, 0.05
    deltas = [delta_segmented(M, lam, rho_c, rho_d) for M in range(1, 40)]
    seg = [
        aggregate(segmented_market(lam, rho_c, rho_d, M, Constant(1.0))).delta.delta
        for M in range(1, 40)
    ]
    np.testing.assert_allclose(seg, deltas, rtol=1e-13)
    assert np.all(np.diff(seg) > 0)
    limit = 2 / ((rho_c + rho_d) * lam)
    assert seg[-1] < limit
    # integrated market beats segmented at every M
    for M in (1, 2, 5):
        d_int = aggregate(
            integrated_market(lam, rho_c, rho_d, M, Constant(1.0))
        ).delta.delta
        assert d_int > seg[M - 1]


def test_no_access_elasticity_is_exact_zero():
    a = AgentSpec("client", 0.5, 0.1, open_cost=NO_ACCESS)
    assert elasticity(a, 0.1) == 0.0
    assert not a.has_open_access


def test_per_agent_elasticity_bound():
    # mass * eta_a <= eta whenever open costs are nonnegative and lambda > 0
    rng = np.random.default_rng(0)
    for _ in range(50):
        lam = rng.uniform(0.01, 1.0)
        mass = rng.uniform(0.05, 2.0)
        cost = rng.choice([0.0, rng.uniform(0.0, 1.0), NO_ACCESS])
        a = AgentSpec("a", mass, 0.1, open_cost=cost)
        assert mass * elasticity(a, lam) <= 1 / lam + 1e-15


def test_aggregate_deterministic():
    params = segmented_market(0.1, 0.1, 0.2, 2, Constant(-1.0))
    a1 = aggregate(params)
    a2 = aggregate(params)
    assert a1 == a2


def test_validate_flags_frictionless_access():
    with pytest.raises(ValueError, match="agent d: frictionless open-market trading"):
        MarketParams(0.0, (AgentSpec("d", 1.0, 0.1, open_cost=0.0),))


def test_validate_ok_market():
    params = MarketParams(0.1, (AgentSpec("d", 1.0, 0.1, open_cost=0.0),))
    assert aggregate(params).eta_bar == pytest.approx(10.0)


def test_validate_empty_agent_list():
    with pytest.raises(ValueError, match="empty"):
        MarketParams(0.1, ())


def test_validate_reports_every_violation():
    # each violation on its own, every check NaN-safe; the error names it
    dealer = AgentSpec("d", 1.0, 0.1)
    mass = "agent a: mass must be positive and finite"
    tolerance = "agent b: risk tolerance must be positive and finite"
    cases = [
        (lambda: AgentSpec("a", -1.0, 0.1), f"{mass}, got -1.0"),
        (lambda: AgentSpec("a", math.nan, 0.1), f"{mass}, got nan"),
        (lambda: AgentSpec("a", math.inf, 0.1), f"{mass}, got inf"),
        (lambda: AgentSpec("b", 1.0, -0.5), f"{tolerance}, got -0.5"),
        (lambda: AgentSpec("b", 1.0, math.nan), f"{tolerance}, got nan"),
        (lambda: AgentSpec("b", 1.0, math.inf), f"{tolerance}, got inf"),
        (lambda: AgentSpec("", 1.0, 0.1), "agent name must not be empty or blank, got ''"),
        (lambda: AgentSpec(" \t", 1.0, 0.1), "agent name must not be empty or blank"),
        (lambda: AgentSpec("c", 1.0, 0.1, open_cost=-1.0), "agent c: open-market cost"),
        (lambda: AgentSpec("c", 1.0, 0.1, open_cost=math.nan), "agent c: open-market cost"),
        (lambda: AgentSpec("t", 1.0, 0.1, target=BrownianMartingale(0.0, -1.0)), "sigma"),
        (lambda: MarketParams(0.1, (dealer, dealer)), "agent names must be unique"),
        (lambda: MarketParams(-0.1, (dealer,)), "common impact cost must be >= 0"),
        (lambda: MarketParams(math.nan, (dealer,)), "common impact cost must be >= 0"),
        (lambda: MarketParams(0.0, (dealer,)), "frictionless"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError, match=message):
            build()


def test_aggregate_rejects_no_open_access():
    params = MarketParams(0.1, (AgentSpec("c", 1.0, 0.1, open_cost=NO_ACCESS),))
    with pytest.raises(ValueError, match="open market"):
        aggregate(params)


def test_aggregate_keeps_mixed_stochastic_targets_as_two_terms():
    bm, ou = BrownianMartingale(0.0, 1.0), OrnsteinUhlenbeck(0.0, 1.0, 0.0, 1.0)
    params = MarketParams(
        0.1,
        (
            AgentSpec("a", 0.5, 0.1, 0.0, target=bm),
            AgentSpec("b", 0.5, 0.1, 0.0, target=ou),
        ),
    )
    assert aggregate(params).xi_bar == ((0.5, bm), (0.5, ou))


def test_lambda_zero_uses_continuum_limit():
    # impact_cost 0 with positive idiosyncratic costs: delta = eta_bar/rho_bar
    params = MarketParams(0.0, (AgentSpec("d", 1.0, 0.1, open_cost=0.5),))
    ag = aggregate(params)
    assert math.isinf(ag.eta)
    assert ag.delta.delta == pytest.approx(2.0 / 0.1, rel=1e-14)


def test_dealers_only_market():
    params = dealers_only_market(0.1, 0.1, 4, BrownianMartingale(0.0, 1.0))
    ag = aggregate(params)
    # mass 1/M each: rho_bar = rho_d, eta_bar = M/lambda, delta = M/(lam rho_d (M+1))
    assert ag.rho_bar == pytest.approx(0.1, rel=1e-14)
    assert ag.eta_bar == pytest.approx(40.0, rel=1e-13)
    assert ag.delta.delta == pytest.approx(4 / (0.1 * 0.1 * 5), rel=1e-13)
    assert ag.xi_bar == ()
