"""Deterministic storage-market toolkit: deadline-distribution algebra,
a finite-horizon storage MDP, two-stage dispatch search, externality
payments with empirical-frequency settlements, and a multi-day market
simulator with strategic agents.

The names imported below are the package's exports.
"""

from .costs import CostModelError, MarketModel, asym_lin_quad, linear, table
from .deadlines import (
    DeadlineDistribution, DistributionError, alpha, coupled_sample, dominates, make_rng,
)
from .dispatch import (
    BatchTooLarge, InfeasibleModel, SolveResult, SolverConfig, beta_bar, brute_force_oracle,
    conditional_beta, estimate_lipschitz_K, solve_outer,
)
from .mdp import (
    CountSpace, EVSpec, MarkovPolicy, MdpModel, NoFeasibleContinuation, StateSpace,
    UnreachableStateError, ValueTable, expected_outcome, rollout, solve_dp,
)
from .mechanism import (
    DayAhead, EmpiricalRecord, PenaltySchedule, SettlementResult, WindowSchedule, day_ahead,
    day_ahead_payment, penalty_event, settlement, total_payment,
)
from .config import ConfigError, RunSetup, load_setup, validate_config
from .presets import preset_config
from .simulate import (
    BiddingStrategy, EarlyExit, Fixed, HistogramMatch, SimResult, Truthful,
    default_adversary_suite, ev_cost, realtime_report, resolve_j_m, run_horizon,
    verify_theorem1,
)

__version__ = "0.1.0"
