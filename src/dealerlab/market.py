"""Agents, market primitives, and the aggregate quantities driving the equilibrium.

Every agent trades at the competitive dealer-market price and may in
addition trade in the open market at a quadratic cost on rates: a common
component ``impact_cost`` charged on the aggregate flow plus an
idiosyncratic component per agent.  An infinite idiosyncratic cost
(``NO_ACCESS``) marks agents locked out of the open market; their
elasticity is exactly zero, never the result of inf arithmetic.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Tuple

from .kernel import DeltaParam, compute_delta
from .processes import DemandProcess, TermList, ZERO, combine

#: idiosyncratic open-market cost of an agent with no open-market access
NO_ACCESS = math.inf


@dataclass(frozen=True)
class AgentSpec:
    """One agent class: mass, risk tolerance, open-market friction, and target."""

    name: str
    mass: float
    risk_tolerance: float
    open_cost: float = 0.0
    target: DemandProcess = ZERO

    def __post_init__(self):
        if not self.name.strip():
            raise ValueError(f"agent name must not be empty or blank, got {self.name!r}")
        if not 0 < self.mass < math.inf:
            raise ValueError(
                f"agent {self.name}: mass must be positive and finite, got {self.mass}"
            )
        if not 0 < self.risk_tolerance < math.inf:
            raise ValueError(
                f"agent {self.name}: risk tolerance must be positive and finite, "
                f"got {self.risk_tolerance}"
            )
        if not self.open_cost >= 0:
            raise ValueError(f"agent {self.name}: open-market cost must be >= 0 or inf")

    @property
    def has_open_access(self) -> bool:
        return not math.isinf(self.open_cost)


@dataclass(frozen=True)
class MarketParams:
    """A market: common impact cost, agents, noise demand; each solve takes its own grid."""

    impact_cost: float
    agents: Tuple[AgentSpec, ...]
    noise_demand: DemandProcess = ZERO

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        if not self.agents:
            raise ValueError("agent list is empty")
        if len({a.name for a in self.agents}) != len(self.agents):
            raise ValueError("agent names must be unique")
        if not self.impact_cost >= 0:
            raise ValueError(f"common impact cost must be >= 0, got {self.impact_cost}")
        for a in self.agents:
            if not self.impact_cost + a.open_cost > 0:
                raise ValueError(
                    f"agent {a.name}: frictionless open-market trading "
                    "(impact_cost + open_cost must be positive)"
                )


@dataclass(frozen=True)
class Aggregates:
    """Elasticities, aggregate risk tolerance and target, the mesh rate and the impact weight."""

    eta_a: Tuple[float, ...]
    eta_bar: float
    eta: float  # 1/impact_cost, or inf for a costless open market
    rho_bar: float
    xi_bar: TermList
    delta: DeltaParam
    impact_weight: float  # 1/eta + 1/eta_bar: price deviation per unit aggregate rate


def elasticity(agent: AgentSpec, impact_cost: float) -> float:
    """Agent elasticity 1/(mass*impact_cost + open_cost); exactly 0 without access."""
    if not agent.has_open_access:
        return 0.0
    return 1.0 / (agent.mass * impact_cost + agent.open_cost)


def aggregate(params: MarketParams) -> Aggregates:
    """Elasticities, aggregates, the mesh rate and the impact weight of a market.

    Rejects markets where nobody can reach the open market (the mesh rate
    is undefined there).  ``xi_bar`` is the mass-weighted term list of the
    targets (``combine``): any mix of demand kinds, each distinct target
    one term.
    """
    lam = params.impact_cost
    eta_a = tuple(elasticity(a, lam) for a in params.agents)
    eta_bar = sum(a.mass * e for a, e in zip(params.agents, eta_a))
    if eta_bar <= 0:
        raise ValueError("no agent can access the open market (aggregate elasticity is 0)")
    eta = math.inf if lam == 0 else 1.0 / lam
    rho_bar = sum(a.mass * a.risk_tolerance for a in params.agents)
    xi_bar = combine((a.mass, a.target) for a in params.agents)
    delta = compute_delta(rho_bar, eta, eta_bar)
    return Aggregates(
        eta_a=eta_a,
        eta_bar=eta_bar,
        eta=eta,
        rho_bar=rho_bar,
        xi_bar=xi_bar,
        delta=delta,
        impact_weight=lam + 1.0 / eta_bar,
    )


# ----------------------------------------------------------------------
# stylized market builders used by the worked scenarios
# ----------------------------------------------------------------------

def require_dealer_count(n_dealers) -> None:
    """Refuse a dealer count that is a bool, not an integer, or below 1."""
    if isinstance(n_dealers, bool) or not isinstance(n_dealers, numbers.Integral) or n_dealers < 1:
        raise ValueError(f"n_dealers must be an integer of at least 1, got {n_dealers!r}")


def segmented_market(
    impact_cost: float,
    rho_c: float,
    rho_d: float,
    n_dealers: int,
    client_target: DemandProcess,
    noise_demand: DemandProcess = ZERO,
) -> MarketParams:
    """M dealers and M clients of mass 1/(2M); clients without open-market access."""
    require_dealer_count(n_dealers)
    m = 1.0 / (2 * n_dealers)
    agents = []
    for i in range(n_dealers):
        agents.append(AgentSpec(f"dealer{i}", m, rho_d, open_cost=0.0))
        agents.append(AgentSpec(f"client{i}", m, rho_c, open_cost=NO_ACCESS, target=client_target))
    return MarketParams(impact_cost, tuple(agents), noise_demand)


def integrated_market(
    impact_cost: float,
    rho_c: float,
    rho_d: float,
    n_dealers: int,
    client_target: DemandProcess,
    noise_demand: DemandProcess = ZERO,
) -> MarketParams:
    """Same roster as segmented_market but clients trade the open market freely."""
    require_dealer_count(n_dealers)
    m = 1.0 / (2 * n_dealers)
    agents = []
    for i in range(n_dealers):
        agents.append(AgentSpec(f"dealer{i}", m, rho_d, open_cost=0.0))
        agents.append(AgentSpec(f"client{i}", m, rho_c, open_cost=0.0, target=client_target))
    return MarketParams(impact_cost, tuple(agents), noise_demand)


def dealers_only_market(
    impact_cost: float,
    rho_d: float,
    n_dealers: int,
    noise_demand: DemandProcess,
) -> MarketParams:
    """M dealers of mass 1/M absorbing exogenous noise demand (no targets)."""
    require_dealer_count(n_dealers)
    m = 1.0 / n_dealers
    agents = tuple(
        AgentSpec(f"dealer{i}", m, rho_d, open_cost=0.0) for i in range(n_dealers)
    )
    return MarketParams(impact_cost, agents, noise_demand)
