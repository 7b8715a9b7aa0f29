"""dealerlab: equilibrium liquidity in competitive dealer markets.

Closed-form equilibrium of a continuous-time dealer market backed by a
costly open market, a discrete-time brute-force Nash oracle, Monte Carlo
liquidity-cost scaling studies, and the segmentation-welfare comparison.
"""

from .asymptotics import (
    DealerSetting,
    LiquidityCostReport,
    scaling_study,
    simulate_costs,
)
from .equilibrium import (
    EquilibriumSolution,
    check_price_representations,
    goal_functional,
    solve_equilibrium,
)
from .fbsde import fbsde_residual, realize_driver, solve_forward
from .kernel import DeltaParam, Horizon, compute_delta, eval_F, eval_k
from .market import (
    AgentSpec,
    Aggregates,
    MarketParams,
    NO_ACCESS,
    aggregate,
    dealers_only_market,
    integrated_market,
    segmented_market,
)
from .oracle import DiscreteEquilibrium, assemble_and_solve, oracle_gap
from .processes import (
    BrownianMartingale,
    Constant,
    DemandProcess,
    Deterministic,
    OrnsteinUhlenbeck,
    SmoothRate,
    ZERO,
)
from .scenarios import (
    DiffusiveScenario,
    INF_DEALERS,
    LiquidationScenario,
    WelfareReport,
    diffusive_simulate,
    liquidation_closed_form,
    segmentation_welfare,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
