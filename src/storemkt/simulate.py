"""Multi-day market simulation with strategic EV agents.

Chronology per day: true departure deadlines are drawn, each EV turns its
deadline into a report via its real-time rule, the stored-energy policy is
rolled out against the reports, and payments settle.  The day-ahead phase
(bids, dispatch, VCG payments, expected departure charges) runs once since
bids are stationary across days.

Real-time rules never consume randomness, so two runs with the same seed
see identical deadline draws regardless of strategy; paired comparisons
between runs are therefore free of sampling noise from the draws.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .costs import MarketModel
from .deadlines import DeadlineDistribution, make_rng
from .dispatch import SolveResult, SolverConfig, estimate_lipschitz_K
from .mdp import EVSpec, rollout, system_cost
from .mechanism import (
    EmpiricalRecord,
    PenaltySchedule,
    WindowSchedule,
    day_ahead,
    settlement,
    total_payment,
)
from .scenarios import random_floored_pmf

J_M_PROBE_SEED = 141_727
J_M_PROBE_TRIALS = 6


def resolve_j_m(
    j_m: float | str,
    bids: Sequence[DeadlineDistribution],
    solver_config: SolverConfig,
    market: MarketModel,
    specs: Sequence["EVSpec"],
) -> float:
    """Turn the "auto" sentinel into a concrete miss fine.

    The fine must deter misses under ANY bid, so the probe set is the
    submitted bids plus fixed-seed random profiles; probing only the bids
    would let a degenerate bid (for which the policy never pays the EV)
    buy itself a toothless fine.
    """
    if j_m != "auto":
        return float(j_m)
    if not specs:
        return 0.0
    rng = make_rng(J_M_PROBE_SEED)
    profiles = [tuple(bids)]
    for _ in range(J_M_PROBE_TRIALS):
        profiles.append(
            tuple(
                DeadlineDistribution(
                    random_floored_pmf(rng, market.horizon, 0.02), floor=0.02
                )
                for _ in specs
            )
        )
    k_hat = estimate_lipschitz_K(profiles, len(profiles), solver_config, market, specs)
    return 10.0 * k_hat


@dataclass(frozen=True)
class Truthful:
    pass


@dataclass(frozen=True)
class EarlyExit:
    pass


@dataclass(frozen=True)
class Fixed:
    slot: int


@dataclass(frozen=True)
class HistogramMatch:
    """Steer reports so their running frequencies track ``target``
    (the day-ahead bid unless overridden)."""

    target: DeadlineDistribution | None = None


RealtimeRule = Union[Truthful, EarlyExit, Fixed, HistogramMatch]


@dataclass(frozen=True)
class BiddingStrategy:
    day_ahead_bid: DeadlineDistribution
    rule: RealtimeRule = Truthful()

    def match_target(self) -> DeadlineDistribution:
        if isinstance(self.rule, HistogramMatch) and self.rule.target is not None:
            return self.rule.target
        return self.day_ahead_bid


def ev_cost(
    true_deadline: int,
    reported_deadline: int,
    storage_seq: Sequence[float],
    j_m: float,
    ev_energy_value: float = 1.0,
) -> float:
    """The EV's own cost for one day: energy received (negative cost) when
    it departs by its true deadline, the miss fine otherwise."""
    if reported_deadline > true_deadline:
        return float(j_m)
    return -ev_energy_value * float(storage_seq[reported_deadline - 1])


def _post_update_max_dev(
    record: EmpiricalRecord, bid: DeadlineDistribution, report: int
) -> float:
    l = record.days + 1
    counts = record.counts.astype(float).copy()
    counts[report - 1] += 1
    return float(np.max(np.abs(counts / l - np.array(bid.pmf))))


def realtime_report(
    strategy: BiddingStrategy,
    true_deadline: int,
    record: EmpiricalRecord,
    l: int,
    planned: Sequence[float] | None = None,
    window_schedule: WindowSchedule | None = None,
) -> int:
    """Turn today's true deadline into a reported departure slot.

    ``planned`` is the EV's nominal stored-energy path under the committed
    policy (used for charge-seeking tie-breaks); ``record`` holds reports
    through day l-1.
    """
    rule = strategy.rule
    if isinstance(rule, Truthful):
        return true_deadline
    if isinstance(rule, Fixed):
        return rule.slot
    horizon = record.horizon
    path = np.zeros(horizon) if planned is None else np.asarray(planned, dtype=float)
    if isinstance(rule, EarlyExit):
        cands = range(1, true_deadline + 1)
        best = max(path[t - 1] for t in cands)
        for t in cands:
            if path[t - 1] == best:
                return t
        return true_deadline
    # histogram matching
    if window_schedule is None:
        raise ValueError("histogram matching needs the window schedule")
    target = np.array(strategy.match_target().pmf)
    den = max(record.days, 1)
    deficit = record.counts / den - target
    bid = strategy.day_ahead_bid

    def safe(t: int) -> bool:
        return _post_update_max_dev(record, bid, t) < window_schedule.window(l)

    def prefer(t: int) -> tuple:
        return (deficit[t - 1], -path[t - 1], t)

    within = [t for t in range(1, true_deadline + 1)]
    safe_within = [t for t in within if safe(t)]
    negative = [t for t in safe_within if deficit[t - 1] < 0.0]
    if negative:
        return min(negative, key=prefer)
    if safe_within:
        return min(
            safe_within,
            key=lambda t: (_post_update_max_dev(record, bid, t), -path[t - 1], t),
        )
    safe_beyond = [t for t in range(true_deadline + 1, horizon + 1) if safe(t)]
    if safe_beyond:
        # every in-deadline report would trip the window; miss the deadline
        # rather than eat the (much larger) escalating penalty
        return min(safe_beyond, key=prefer)
    return min(
        within,
        key=lambda t: (_post_update_max_dev(record, bid, t), -path[t - 1], t),
    )


@dataclass
class AgentAccount:
    utility: float = 0.0
    ev_cost: float = 0.0
    penalties: int = 0
    missed: int = 0
    days: int = 0

    def average_utility(self) -> float:
        return self.utility / self.days if self.days else 0.0


@dataclass
class SimResult:
    """Trace plus aggregates for one simulated horizon."""

    days: int
    seed: int
    solve: SolveResult
    p_da: list[float]
    j_m: float
    trace_rows: list[dict]
    accounts: list[AgentAccount]
    utility_days: np.ndarray  # (n_evs, L) per-day utility
    beta_days: np.ndarray  # (L,)
    charge_gap_days: np.ndarray  # (n_evs, L)
    diagnostics: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        header = (
            "day,row,ev,true_delta,reported,storage,mismatch,reserve_cost,"
            "beta,p_da,charge_gap,penalty,event,total_payment,ev_cost,utility"
        )
        lines = [header]
        for r in self.trace_rows:
            lines.append(
                ",".join(
                    "" if r.get(k) is None else _fmt(r.get(k))
                    for k in (
                        "day",
                        "row",
                        "ev",
                        "true_delta",
                        "reported",
                        "storage",
                        "mismatch",
                        "reserve_cost",
                        "beta",
                        "p_da",
                        "charge_gap",
                        "penalty",
                        "event",
                        "total_payment",
                        "ev_cost",
                        "utility",
                    )
                )
            )
        return "\n".join(lines) + "\n"


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, float):
        return f"{x + 0.0:.12g}"  # +0.0 folds negative zero
    return str(x)


def _nominal_reports(params: Sequence[DeadlineDistribution]) -> tuple[int, ...]:
    """Latest believable departure per EV: the all-stay reference path."""
    out = []
    for dist in params:
        latest = max(t for t in range(1, dist.horizon + 1) if dist.pmf[t - 1] > 0.0)
        out.append(latest)
    return tuple(out)


def run_horizon(
    market: MarketModel,
    specs: Sequence[EVSpec],
    true_params: Sequence[DeadlineDistribution],
    strategies: Sequence[BiddingStrategy],
    days: int,
    seed: int,
    window_schedule: WindowSchedule | None = None,
    penalty_schedule: PenaltySchedule | None = None,
    solver_config: SolverConfig | None = None,
    j_m: float | str = "auto",
) -> SimResult:
    """Simulate ``days`` market days under fixed bids and rules."""
    if days < 1:
        raise ValueError("need at least one day")
    if not (len(specs) == len(true_params) == len(strategies)):
        raise ValueError("specs, true_params and strategies must align")
    window_schedule = window_schedule or WindowSchedule()
    penalty_schedule = penalty_schedule or PenaltySchedule()
    solver_config = solver_config or SolverConfig()
    n_evs = len(specs)
    bids = tuple(s.day_ahead_bid for s in strategies)

    da = day_ahead(bids, solver_config, market, specs)
    solve, expected, gen_cost, p_da = da.solve, da.expected, da.generator_cost, list(da.p_da)
    model, space = solve.model, solve.space
    j_m_value = resolve_j_m(j_m, bids, solver_config, market, specs)
    planned = (
        rollout(model, solve.policy, _nominal_reports(bids), space).storage
        if n_evs
        else np.zeros((0, market.horizon))
    )

    records = [EmpiricalRecord(market.horizon) for _ in range(n_evs)]
    accounts = [AgentAccount() for _ in range(n_evs)]
    rng = make_rng(seed)
    trace: list[dict] = []
    utility_days = np.zeros((n_evs, days))
    charge_gap_days = np.zeros((n_evs, days))
    beta_days = np.zeros(days)

    for day in range(1, days + 1):
        true_d = [int(dist.sample(rng)) for dist in true_params]
        reports = [
            realtime_report(
                strategies[i], true_d[i], records[i], day,
                planned[i] if n_evs else None, window_schedule,
            )
            for i in range(n_evs)
        ]
        day_roll = rollout(model, solve.policy, reports, space)
        beta_day = system_cost(market, gen_cost, day_roll.reserve_cost, day_roll.terminal)
        beta_days[day - 1] = beta_day
        trace.append(
            {
                "day": day,
                "row": "system",
                "mismatch": ";".join(_fmt(float(m)) for m in day_roll.mismatch),
                "reserve_cost": float(day_roll.reserve_cost),
                "beta": beta_day,
            }
        )
        for i in range(n_evs):
            records[i].update(reports[i])
            result = settlement(
                day,
                records[i],
                bids[i],
                float(expected.terminal_charge[i]),
                float(day_roll.terminal[i]),
                window_schedule,
                penalty_schedule,
                market.ev_energy_value,
            )
            cost = ev_cost(
                true_d[i], reports[i], day_roll.storage[i], j_m_value,
                market.ev_energy_value,
            )
            pay = total_payment(p_da[i], result)
            util = pay - cost
            acct = accounts[i]
            acct.utility += util
            acct.ev_cost += cost
            acct.penalties += int(result.event_triggered)
            acct.missed += int(reports[i] > true_d[i])
            acct.days += 1
            utility_days[i, day - 1] = util
            charge_gap_days[i, day - 1] = result.charge_gap
            trace.append(
                {
                    "day": day,
                    "row": "ev",
                    "ev": i + 1,
                    "true_delta": true_d[i],
                    "reported": reports[i],
                    "storage": ";".join(_fmt(float(h)) for h in day_roll.storage[i]),
                    "p_da": p_da[i],
                    "charge_gap": result.charge_gap,
                    "penalty": result.penalty,
                    "event": result.event_triggered,
                    "total_payment": pay,
                    "ev_cost": cost,
                    "utility": util,
                }
            )

    result = SimResult(
        days=days,
        seed=seed,
        solve=solve,
        p_da=p_da,
        j_m=j_m_value,
        trace_rows=trace,
        accounts=accounts,
        utility_days=utility_days,
        beta_days=beta_days,
        charge_gap_days=charge_gap_days,
    )
    result.diagnostics = _diagnostics(result)
    return result


def _std(x: np.ndarray) -> float:
    return float(np.std(x, ddof=1)) if x.size > 1 else 0.0


def _diagnostics(res: SimResult) -> dict:
    last_q = res.days - res.days // 4
    per_ev = []
    for i, acct in enumerate(res.accounts):
        u = res.utility_days[i]
        per_ev.append(
            {
                "avg_utility": float(u.mean()),
                "utility_std": _std(u),
                "last_quartile_avg_utility": float(u[last_q:].mean())
                if last_q < res.days
                else float(u.mean()),
                "avg_ev_cost": acct.ev_cost / acct.days,
                "avg_charge_gap": float(res.charge_gap_days[i].mean()),
                "penalty_count": acct.penalties,
                "missed_count": acct.missed,
                "miss_rate": acct.missed / acct.days,
            }
        )
    return {
        "days": res.days,
        "seed": res.seed,
        "q_star": res.solve.q_star,
        "j_m": res.j_m,
        "avg_beta": float(res.beta_days.mean()),
        "beta_std": _std(res.beta_days),
        "per_ev": per_ev,
    }


def default_adversary_suite(theta: DeadlineDistribution) -> list[tuple[str, BiddingStrategy]]:
    """One adversary per misreport class: bid-shift under/over with
    histogram matching, and two blunt real-time deviations under a
    truthful bid."""
    pmf = list(theta.pmf)
    horizon = len(pmf)
    earlier = [0.0] * horizon
    for t in range(horizon):
        earlier[max(t - 1, 0)] += pmf[t]
    later = [0.0] * horizon
    for t in range(horizon):
        later[min(t + 1, horizon - 1)] += pmf[t]
    bid_earlier = DeadlineDistribution(tuple(earlier), floor=0.0)
    bid_later = DeadlineDistribution(tuple(later), floor=0.0)
    return [
        ("underbid_shift_histmatch", BiddingStrategy(bid_earlier, HistogramMatch())),
        ("truthful_bid_early_exit", BiddingStrategy(theta, EarlyExit())),
        ("truthful_bid_fixed_1", BiddingStrategy(theta, Fixed(1))),
        ("overbid_shift_histmatch", BiddingStrategy(bid_later, HistogramMatch())),
    ]


def verify_theorem1(
    market: MarketModel,
    specs: Sequence[EVSpec],
    true_params: Sequence[DeadlineDistribution],
    adversary_suite: Sequence[tuple[str, BiddingStrategy]],
    days: int,
    seeds: Sequence[int],
    focal: int = 0,
    window_schedule: WindowSchedule | None = None,
    penalty_schedule: PenaltySchedule | None = None,
    solver_config: SolverConfig | None = None,
    j_m: float | str = "auto",
) -> dict:
    """Finite-horizon incentive check: does any listed deviation beat
    truth-telling for the focal EV beyond statistical noise?

    Per seed, the truthful baseline and each adversary run on identical
    deadline draws; the comparison band is three standard errors of the
    paired per-day utility difference.  Also checks that truthful play is
    individually rational and that the realized average system cost
    matches the solved optimum.
    """
    truthful = [BiddingStrategy(p, Truthful()) for p in true_params]
    solver_config = solver_config or SolverConfig()
    # the miss fine is announced once by the operator; every compared run
    # must face the same number or the pairing is meaningless
    j_m = resolve_j_m(
        j_m, tuple(s.day_ahead_bid for s in truthful), solver_config, market, specs
    )
    report: dict = {
        "days": days,
        "seeds": list(seeds),
        "focal": focal,
        "j_m": j_m,
        "truthful": {},
        "adversaries": {name: {} for name, _ in adversary_suite},
    }
    all_ok = True
    for seed in seeds:
        base = run_horizon(
            market, specs, true_params, truthful, days, seed,
            window_schedule, penalty_schedule, solver_config, j_m,
        )
        base_u = base.utility_days[focal]
        band_ir = 3.0 * _std(base_u) / math.sqrt(days)
        band_eff = 3.0 * _std(base.beta_days) / math.sqrt(days)
        eff_gap = abs(float(base.beta_days.mean()) - base.solve.q_star)
        ir_ok = float(base_u.mean()) >= -band_ir
        eff_ok = eff_gap <= band_eff
        report["truthful"][seed] = {
            "avg_utility": float(base_u.mean()),
            "utility_std": _std(base_u),
            "ir_ok": ir_ok,
            "avg_beta": float(base.beta_days.mean()),
            "efficiency_gap": eff_gap,
            "efficiency_ok": eff_ok,
        }
        all_ok = all_ok and ir_ok and eff_ok
        for name, adversary in adversary_suite:
            strategies = list(truthful)
            strategies[focal] = adversary
            run = run_horizon(
                market, specs, true_params, strategies, days, seed,
                window_schedule, penalty_schedule, solver_config, j_m,
            )
            adv_u = run.utility_days[focal]
            gap = float(adv_u.mean() - base_u.mean())
            band = 3.0 * _std(adv_u - base_u) / math.sqrt(days)
            dsic_ok = gap <= band
            report["adversaries"][name][seed] = {
                "avg_utility": float(adv_u.mean()),
                "gap_over_truthful": gap,
                "band": band,
                "dsic_ok": dsic_ok,
                "penalty_count": run.accounts[focal].penalties,
                "missed_count": run.accounts[focal].missed,
            }
            all_ok = all_ok and dsic_ok
    report["all_ok"] = all_ok
    return report
