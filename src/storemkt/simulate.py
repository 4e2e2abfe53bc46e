"""Multi-day market simulation with strategic EV agents.

Chronology per day: true departure deadlines are drawn, each EV turns its
deadline into a report via its real-time rule, the committed policy
realizes the day for that report profile, and payments settle.  The
day-ahead phase (bids, dispatch, VCG payments, expected departure charges)
runs once since bids are stationary across days.

A day's realized schedule, system cost and energy true-up depend on its
report profile alone, and there are at most Tⁿ profiles.  So
``run_horizon`` works a whole horizon at once: it draws every deadline in
one block, reads the stateless rules (truthful, fixed, early exit) from a
per-slot table, rolls out each distinct report profile once, and runs the
settlement's window test on every day from running report counts.  Only
histogram matching, whose report depends on the record so far, steps
through the days.  Every float is computed by the same operations as a
day-by-day loop would use, so traces replay byte for byte.

Real-time rules never consume randomness, so two runs with the same seed
see identical deadline draws regardless of strategy; paired comparisons
between runs are therefore free of sampling noise from the draws.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cache, cached_property, reduce
from typing import Sequence, Union

import numpy as np

from .costs import MarketModel
from .deadlines import DeadlineDistribution, make_rng
from .dispatch import SolveResult, SolverConfig, estimate_lipschitz_K
from .mdp import EVSpec, ProfileOutcome, ProfileOutcomes
from .mechanism import (
    EmpiricalRecord,
    PenaltySchedule,
    WindowSchedule,
    day_ahead,
    max_frequency_gap,
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
    solved: SolveResult | None = None,
) -> float:
    """Turn the "auto" sentinel into a concrete miss fine.

    The fine must deter misses under ANY bid, so the probe set is the
    submitted bids plus fixed-seed random profiles; probing only the bids
    would let a degenerate bid (for which the policy never pays the EV)
    buy itself a toothless fine.  ``solved`` is the day-ahead solve of
    ``bids``, when the caller has one: the probe then reuses it instead of
    solving the bids again.
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
    k_hat = estimate_lipschitz_K(profiles, len(profiles), solver_config, market, specs, solved)
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


@cache
def _unit_rows(horizon: int) -> np.ndarray:
    """One report of each slot, row by row; shared, so read-only."""
    rows = np.eye(horizon)
    rows.flags.writeable = False
    return rows


def _post_update_gaps(record: EmpiricalRecord, bid: DeadlineDistribution) -> np.ndarray:
    """Worst frequency gap to the bid after one more report, for each
    candidate report slot 1..T (row t-1 counts one more report of slot t)."""
    counts = record.counts + _unit_rows(record.horizon)
    return max_frequency_gap(counts, record.days + 1, np.array(bid.pmf))


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
    deficit = (record.counts / den - target).tolist()
    gaps = _post_update_gaps(record, strategy.day_ahead_bid).tolist()
    window = window_schedule.window(l)

    def prefer(t: int) -> tuple:
        return (deficit[t - 1], -path[t - 1], t)

    def closest(t: int) -> tuple:
        return (gaps[t - 1], -path[t - 1], t)

    within = range(1, true_deadline + 1)
    safe_within = [t for t in within if gaps[t - 1] < window]
    negative = [t for t in safe_within if deficit[t - 1] < 0.0]
    if negative:
        return min(negative, key=prefer)
    if safe_within:
        return min(safe_within, key=closest)
    safe_beyond = [t for t in range(true_deadline + 1, horizon + 1) if gaps[t - 1] < window]
    if safe_beyond:
        # every in-deadline report would trip the window; miss the deadline
        # rather than eat the (much larger) escalating penalty
        return min(safe_beyond, key=prefer)
    return min(within, key=closest)


@dataclass
class AgentAccount:
    utility: float = 0.0
    ev_cost: float = 0.0
    penalties: int = 0
    missed: int = 0
    days: int = 0

    def average_utility(self) -> float:
        return self.utility / self.days if self.days else 0.0


@dataclass(frozen=True)
class DayOutcome:
    """What a day's settlement and trace take from its report profile alone;
    the trace strings are formatted once per profile."""

    reported: tuple[int, ...]
    reserve_cost: float
    beta: float
    charge_gap: tuple[float, ...]  # per EV: valued expected minus realized charge
    kept_cost: tuple[float, ...]  # per EV: its ev_cost on a day it leaves in time
    mismatch: str
    storage: tuple[str, ...]  # per EV


TRACE_COLUMNS = (
    "day", "row", "ev", "true_delta", "reported", "storage", "mismatch",
    "reserve_cost", "beta", "p_da", "charge_gap", "penalty", "event",
    "total_payment", "ev_cost", "utility",
)


@dataclass
class SimResult:
    """Per-day columns plus aggregates for one simulated horizon.

    Day ``d`` realized the report profile ``outcomes[profile_days[d]]``;
    the other per-day columns hold what varies within a profile.
    """

    days: int
    seed: int
    solve: SolveResult
    p_da: list[float]
    j_m: float
    accounts: list[AgentAccount]
    outcomes: list[DayOutcome]  # one per distinct report profile
    profile_days: np.ndarray  # (L,) index into outcomes
    true_days: np.ndarray  # (n_evs, L) true deadline slots
    utility_days: np.ndarray  # (n_evs, L) per-day utility
    beta_days: np.ndarray  # (L,)
    charge_gap_days: np.ndarray  # (n_evs, L)
    penalty_days: np.ndarray  # (n_evs, L) window fine, 0 without an event
    event_days: np.ndarray  # (n_evs, L) bool
    payment_days: np.ndarray  # (n_evs, L) day-ahead transfer plus settlement
    ev_cost_days: np.ndarray  # (n_evs, L)
    diagnostics: dict = field(default_factory=dict)

    def _system_row(self, d: int) -> dict:
        return {"day": d + 1, **_system_fields(self.outcomes[self.profile_days[d]])}

    def _ev_row(self, i: int, d: int) -> dict:
        o = self.outcomes[self.profile_days[d]]
        return {
            "day": d + 1,
            "row": "ev",
            "ev": i + 1,
            "true_delta": int(self.true_days[i, d]),
            "reported": o.reported[i],
            "storage": o.storage[i],
            "p_da": self.p_da[i],
            "charge_gap": o.charge_gap[i],
            "penalty": float(self.penalty_days[i, d]),
            "event": bool(self.event_days[i, d]),
            "total_payment": float(self.payment_days[i, d]),
            "ev_cost": float(self.ev_cost_days[i, d]),
            "utility": float(self.utility_days[i, d]),
        }

    @cached_property
    def trace_rows(self) -> list[dict]:
        """The trace as dicts: per day one system row, then one row per EV."""
        rows = []
        for d in range(self.days):
            rows.append(self._system_row(d))
            rows.extend(self._ev_row(i, d) for i in range(len(self.accounts)))
        return rows

    def _ev_fields(self, i: int) -> list[str]:
        """EV ``i``'s CSV fields after the day, per day.  Without a window
        event a row is fixed by (profile, true deadline), so each such pair
        is formatted once."""
        out, seen = [], {}
        keys = zip(self.profile_days.tolist(), self.true_days[i].tolist())
        for d, (key, event) in enumerate(zip(keys, self.event_days[i].tolist())):
            if event:
                out.append(_csv_fields(self._ev_row(i, d)))
                continue
            if key not in seen:
                seen[key] = _csv_fields(self._ev_row(i, d))
            out.append(seen[key])
        return out

    def to_csv(self) -> str:
        """The trace as CSV, one line per ``trace_rows`` entry, written
        from the columns and the per-profile strings."""
        system = [_csv_fields(_system_fields(o)) for o in self.outcomes]
        per_ev = [self._ev_fields(i) for i in range(len(self.accounts))]
        lines = [",".join(TRACE_COLUMNS)]
        for d, k in enumerate(self.profile_days.tolist()):
            day = str(d + 1)
            lines.append(f"{day},{system[k]}")
            lines.extend(f"{day},{fields[d]}" for fields in per_ev)
        return "\n".join(lines) + "\n"


def _system_fields(o: DayOutcome) -> dict:
    return {"row": "system", "mismatch": o.mismatch, "reserve_cost": o.reserve_cost, "beta": o.beta}


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, float):
        return f"{x + 0.0:.12g}"  # +0.0 folds negative zero
    return str(x)


def _csv_fields(row: dict) -> str:
    """A trace row's CSV fields after the day column."""
    return ",".join("" if row.get(k) is None else _fmt(row[k]) for k in TRACE_COLUMNS[1:])


def _nominal_reports(params: Sequence[DeadlineDistribution]) -> tuple[int, ...]:
    """Latest believable departure per EV: the all-stay reference path."""
    out = []
    for dist in params:
        latest = max(t for t in range(1, dist.horizon + 1) if dist.pmf[t - 1] > 0.0)
        out.append(latest)
    return tuple(out)


def draw_deadlines(
    laws: Sequence[DeadlineDistribution], rng: np.random.Generator, days: int
) -> np.ndarray:
    """True deadline slots, shape (n_evs, days).  The one uniform block is
    the same doubles in the same order as one ``sample`` per EV per day,
    EVs inner, so a seed replays the same days either way."""
    u = rng.random((days, len(laws)))
    out = np.empty((len(laws), days), dtype=np.int64)
    for i, law in enumerate(laws):
        out[i] = law.quantile(u[:, i])
    return out


def _report_days(
    strategy: BiddingStrategy,
    true_days: np.ndarray,
    planned: np.ndarray,
    window_schedule: WindowSchedule,
) -> np.ndarray:
    """One EV's reported slot on every day, given its true deadlines."""
    horizon = len(planned)
    if not isinstance(strategy.rule, HistogramMatch):
        # every other rule is a function of the true deadline alone
        blank = EmpiricalRecord(horizon)
        table = np.array(
            [realtime_report(strategy, t, blank, 1, planned) for t in range(1, horizon + 1)]
        )
        return table[true_days - 1]
    record = EmpiricalRecord(horizon)
    out = np.empty_like(true_days)
    for day, t in enumerate(true_days.tolist(), start=1):
        report = realtime_report(strategy, t, record, day, planned, window_schedule)
        record.update(report)
        out[day - 1] = report
    return out


def _day_outcome(
    reported: tuple[int, ...],
    realized: ProfileOutcome,
    expected_charge: np.ndarray,
    j_m: float,
    ev_energy_value: float,
) -> DayOutcome:
    """One report profile's settlement and trace inputs, with the floats
    that ``settlement`` and ``ev_cost`` would compute for it."""
    r = realized.rollout
    return DayOutcome(
        reported=reported,
        reserve_cost=float(r.reserve_cost),
        beta=realized.system_cost,
        charge_gap=tuple(
            float(ev_energy_value * (float(e) - float(h)))
            for e, h in zip(expected_charge, r.terminal)
        ),
        kept_cost=tuple(
            ev_cost(t, t, r.storage[i], j_m, ev_energy_value) for i, t in enumerate(reported)
        ),
        mismatch=";".join(_fmt(float(m)) for m in r.mismatch),
        storage=tuple(";".join(_fmt(float(h)) for h in row) for row in r.storage),
    )


def _window_events(reports: np.ndarray, bid: DeadlineDistribution, windows: np.ndarray) -> np.ndarray:
    """Settlement's window test on every day at once, from running counts:
    row l-1 of ``counts`` is the record after day l's report."""
    days = len(reports)
    counts = np.zeros((days, bid.horizon), dtype=np.int64)
    counts[np.arange(days), reports - 1] = 1
    np.cumsum(counts, axis=0, out=counts)
    l = np.arange(1, days + 1)[:, None]
    return max_frequency_gap(counts, l, np.array(bid.pmf)) >= windows


def _left_sum(x: np.ndarray) -> float:
    """Python float sum, left to right, as a running account adds it."""
    return reduce(operator.add, x.tolist(), 0.0)


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
    horizon = market.horizon
    for i, (law, strategy) in enumerate(zip(true_params, strategies)):
        if law.horizon != horizon:
            raise ValueError(
                f"EV {i + 1}: true deadline law has {law.horizon} slots, "
                f"the market has {horizon}"
            )
        rule = strategy.rule
        if isinstance(rule, Fixed) and not 1 <= rule.slot <= horizon:
            raise ValueError(f"EV {i + 1}: fixed report slot {rule.slot} outside 1..{horizon}")
    window_schedule = window_schedule or WindowSchedule()
    penalty_schedule = penalty_schedule or PenaltySchedule()
    solver_config = solver_config or SolverConfig()
    n_evs = len(specs)
    bids = tuple(s.day_ahead_bid for s in strategies)

    da = day_ahead(bids, solver_config, market, specs)
    solve, p_da = da.solve, list(da.p_da)
    j_m_value = resolve_j_m(j_m, bids, solver_config, market, specs, solve)
    realized = ProfileOutcomes(solve.model, solve.policy, solve.space)
    planned = realized[_nominal_reports(bids)].rollout.storage

    true_days = draw_deadlines(true_params, make_rng(seed), days)
    reports = np.empty_like(true_days)
    for i, strategy in enumerate(strategies):
        reports[i] = _report_days(strategy, true_days[i], planned[i], window_schedule)

    # one rollout per distinct report profile; profile_days maps days to them
    profiles, profile_days = np.unique(reports.T, axis=0, return_inverse=True)
    profile_days = profile_days.reshape(days)
    outcomes = [
        _day_outcome(tuple(row), realized[row], da.expected.terminal_charge, j_m_value,
                     market.ev_energy_value)
        for row in profiles.tolist()
    ]

    # settlement, every day at once
    windows = np.array([window_schedule.window(l) for l in range(1, days + 1)])
    shape = (n_evs, days)
    charge_gap_days, kept_days = np.zeros(shape), np.zeros(shape)
    for i in range(n_evs):
        charge_gap_days[i] = np.array([o.charge_gap[i] for o in outcomes])[profile_days]
        kept_days[i] = np.array([o.kept_cost[i] for o in outcomes])[profile_days]
    missed = reports > true_days
    event_days = np.array(
        [_window_events(reports[i], bids[i], windows) for i in range(n_evs)], dtype=bool
    ).reshape(shape)
    penalty_days = np.zeros(shape)
    for i, l in zip(*np.nonzero(event_days)):
        penalty_days[i, l] = penalty_schedule.penalty(int(l) + 1)
    ev_cost_days = np.where(missed, j_m_value, kept_days)
    payment_days = np.array(p_da).reshape(n_evs, 1) + (charge_gap_days - penalty_days)
    utility_days = payment_days - ev_cost_days
    accounts = [
        AgentAccount(
            utility=_left_sum(utility_days[i]),
            ev_cost=_left_sum(ev_cost_days[i]),
            penalties=int(event_days[i].sum()),
            missed=int(missed[i].sum()),
            days=days,
        )
        for i in range(n_evs)
    ]

    result = SimResult(
        days=days,
        seed=seed,
        solve=solve,
        p_da=p_da,
        j_m=j_m_value,
        accounts=accounts,
        outcomes=outcomes,
        profile_days=profile_days,
        true_days=true_days,
        utility_days=utility_days,
        beta_days=np.array([o.beta for o in outcomes])[profile_days],
        charge_gap_days=charge_gap_days,
        penalty_days=penalty_days,
        event_days=event_days,
        payment_days=payment_days,
        ev_cost_days=ev_cost_days,
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
