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
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .costs import MarketModel
from .deadlines import DeadlineDistribution, make_rng
from .dispatch import SolveResult, SolverConfig, estimate_lipschitz_K, solve_outer
from .mdp import BATCH_BYTE_BUDGET, EVSpec, RolloutResult, _left_sum, rollout, system_cost
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
J_M_PROBE_FLOOR = 0.02


class HorizonTooLong(ValueError):
    """A horizon whose ledger and trace would not fit BATCH_BYTE_BUDGET."""


def _day_bytes(n_evs: int, horizon: int) -> int:
    """Peak bytes one simulated day holds in its ledger columns and its
    trace lines: 256 plus 16 per slot for the system row, and per EV 640
    plus 64 per slot.  Fitted with tracemalloc under CPython 3.11 on 1 to
    4 EVs and 2 to 48 slots, with 13-character floats in the storage and
    mismatch fields and a window event every day: the run and its trace
    peaked at 600 to 10,100 B/day, 6 to 43% below this count.  The
    ``_window_events`` counts, 24 B per slot, are freed before the trace
    is formatted."""
    return 256 + 16 * horizon + n_evs * (640 + 64 * horizon)


def resolve_j_m(
    j_m: float | str,
    bids: Sequence[DeadlineDistribution],
    solver_config: SolverConfig,
    market: MarketModel,
    specs: Sequence["EVSpec"],
    solved: SolveResult | None = None,
) -> float:
    """Turn the "auto" sentinel into a concrete miss fine: 10 times
    ``estimate_lipschitz_K`` over the solves of the bids and of
    J_M_PROBE_TRIALS fixed-seed random profiles.

    The fine must deter misses under ANY bid: probing only the bids would
    let a degenerate bid (for which the policy never pays the EV) buy
    itself a toothless fine.  ``solved``, the day-ahead solve of ``bids``
    when the caller has one, is reused instead of solving them again.
    The random profiles have probability floor J_M_PROBE_FLOOR while
    J_M_PROBE_FLOOR * T <= 1, else 1/(2T): no law on T slots admits a
    floor above 1/T.
    """
    if j_m != "auto":
        return float(j_m)
    if not specs:
        return 0.0
    bids, specs = tuple(bids), tuple(specs)
    if solved is None:
        solved = solve_outer(bids, solver_config, market, specs)
    elif solved.model.params != bids or solved.model.specs != specs:
        raise ValueError("solved is not the solve of these bids on these EVs")
    horizon = market.horizon
    floor = J_M_PROBE_FLOOR if J_M_PROBE_FLOOR * horizon <= 1.0 else 0.5 / horizon
    rng = make_rng(J_M_PROBE_SEED)
    solves = [solved]
    for _ in range(J_M_PROBE_TRIALS):
        pmfs = [random_floored_pmf(rng, horizon, floor) for _ in specs]
        probe = tuple(DeadlineDistribution(pmf, floor=floor) for pmf in pmfs)
        solves.append(solve_outer(probe, solver_config, market, specs))
    return 10.0 * estimate_lipschitz_K(solves)


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
        # the earliest in-deadline slot with the most planned charge
        return int(np.argmax(path[:true_deadline])) + 1
    if window_schedule is None:
        raise ValueError("histogram matching needs the window schedule")
    target, bid_pmf = _match_pmfs(strategy)
    return _match_report(
        true_deadline, record.counts.tolist(), record.days, path.tolist(), target, bid_pmf,
        window_schedule.window(l),
    )


def _match_pmfs(strategy: BiddingStrategy) -> tuple[list[float], list[float]]:
    """Histogram matching's target pmf and day-ahead bid pmf."""
    return list(strategy.match_target().pmf), list(strategy.day_ahead_bid.pmf)


def _match_gaps(counts: list[int], days: int, bid_pmf: list[float]) -> list[float]:
    """Per slot, the worst per-slot distance of the report frequencies to
    the bid after one more report of that slot, from the counts over the
    first ``days`` days.  The IEEE operations of ``max_frequency_gap`` on
    ``counts`` plus each unit row, on Python ints and floats, so every gap
    is bit-identical to the array form's."""
    after = days + 1
    kept = [abs(c / after - p) for c, p in zip(counts, bid_pmf)]
    # one more report moves only its own slot: the others keep their
    # distance, the worst of which is ``worst`` unless the slot holds it
    *_, second, worst = [0.0, *sorted(kept)]
    return [
        max(abs((c + 1) / after - p), worst if k < worst else second)
        for c, p, k in zip(counts, bid_pmf, kept)
    ]


def _match_report(
    true_deadline: int,
    counts: list[int],
    days: int,
    path: list[float],
    target: list[float],
    bid_pmf: list[float],
    window: float,
) -> int:
    """Histogram matching's report: steer the running report frequencies
    toward ``target`` without tripping today's ``window`` on the bid.

    ``counts`` holds each slot's reports over the first ``days`` days.  A
    slot's deficit is ``counts / max(days, 1) - target`` (the array form's
    operations, so bit-identical to it) and its gap is ``_match_gaps``'s.
    The report is the safe in-deadline slot with the most negative
    deficit; else the safe in-deadline slot with the smallest gap; else
    the safe slot past the deadline with the most negative deficit; else
    the in-deadline slot with the smallest gap.  Ties go to the larger
    planned charge, then the earlier slot.
    """
    den = max(days, 1)
    negative, safe_within, safe_beyond, within = [], [], [], []
    gaps = _match_gaps(counts, days, bid_pmf)
    for s, (c, q, gap, h) in enumerate(zip(counts, target, gaps, path)):
        deficit = c / den - q
        if s < true_deadline:
            within.append((gap, -h, s))
            if gap < window:
                safe_within.append((gap, -h, s))
                if deficit < 0.0:
                    negative.append((deficit, -h, s))
        elif gap < window:
            # every in-deadline report may trip the window; then miss the
            # deadline rather than eat the (much larger) escalating penalty
            safe_beyond.append((deficit, -h, s))
    return min(negative or safe_within or safe_beyond or within)[2] + 1


TRACE_COLUMNS = (
    "day", "row", "ev", "true_delta", "reported", "storage", "mismatch",
    "reserve_cost", "beta", "p_da", "charge_gap", "penalty", "event",
    "total_payment", "ev_cost", "utility",
)


@dataclass
class SimResult:
    """One simulated horizon's ledger: its per-day columns.

    Day ``d`` realized the report profile ``profiles[profile_days[d]]``,
    row ``profile_days[d]`` of ``rolled``, the one ``rollout`` of the
    distinct profiles; the other per-day columns hold what varies within a
    profile.  Every total is read off the columns, and ``to_csv`` is the
    only code that formats the trace."""

    days: int
    seed: int
    solve: SolveResult
    p_da: list[float]
    j_m: float
    profiles: np.ndarray  # (P, n_evs) distinct report profiles
    rolled: RolloutResult  # row k: profile k's realized day
    profile_days: np.ndarray  # (L,) index into profiles
    true_days: np.ndarray  # (n_evs, L) true deadline slots
    utility_days: np.ndarray  # (n_evs, L) per-day utility
    beta_days: np.ndarray  # (L,)
    charge_gap_days: np.ndarray  # (n_evs, L)
    penalty_days: np.ndarray  # (n_evs, L) window fine, 0 without an event
    event_days: np.ndarray  # (n_evs, L) bool
    missed_days: np.ndarray  # (n_evs, L) bool: reported past the true deadline
    payment_days: np.ndarray  # (n_evs, L) day-ahead transfer plus settlement
    ev_cost_days: np.ndarray  # (n_evs, L)
    diagnostics: dict = field(default_factory=dict)

    def _ev_fields(self, i: int) -> list[str]:
        """EV ``i``'s CSV fields after the day, per day.

        A row's head, ``ev`` through ``charge_gap``, and its ``ev_cost``
        are fixed by its (profile, true deadline) pair, so they are
        formatted once per pair, from the pair's first day.  Without a
        window event so is the whole row; on an event day the day's
        penalty, payment and utility are formatted around them."""
        p_da, out, fixed, plain = _fmt(self.p_da[i]), [], {}, {}
        keys = zip(self.profile_days.tolist(), self.true_days[i].tolist())
        events = self.event_days[i].tolist()
        gap, cost = self.charge_gap_days[i], self.ev_cost_days[i]
        penalty, payment, utility = (
            a[i].tolist() for a in (self.penalty_days, self.payment_days, self.utility_days)
        )
        for d, key in enumerate(keys):
            event = events[d]
            if not event and key in plain:
                out.append(plain[key])
                continue
            if key not in fixed:
                k = key[0]
                storage = ";".join(map(_fmt, self.rolled.storage[k, i].tolist()))
                head = (
                    f"ev,{i + 1},{key[1]},{self.profiles[k, i]},{storage},,,,{p_da},"
                    f"{_fmt(gap[d])}"
                )
                fixed[key] = head, _fmt(cost[d])
            head, cost_field = fixed[key]
            line = (
                f"{head},{_fmt(penalty[d])},{'1' if event else '0'},{_fmt(payment[d])},"
                f"{cost_field},{_fmt(utility[d])}"
            )
            if not event:
                plain[key] = line
            out.append(line)
        return out

    def to_csv(self) -> str:
        """The trace as CSV: per day one system row, then one row per EV.
        A profile's system row is formatted once, from its first day."""
        _, first = np.unique(self.profile_days, return_index=True)
        rolled = self.rolled
        system = [
            f"system,,,,,{';'.join(map(_fmt, mismatch))},{_fmt(reserve)},{_fmt(beta)},,,,,,,"
            for mismatch, reserve, beta in zip(
                rolled.mismatch.tolist(), rolled.reserve_cost.tolist(),
                self.beta_days[first].tolist(),
            )
        ]
        columns = [[system[k] for k in self.profile_days.tolist()]]
        columns += [self._ev_fields(i) for i in range(len(self.true_days))]
        # each day's system row, then its EV rows: column j fills every
        # len(columns)-th line from line j
        lines = [""] * (self.days * len(columns))
        for j, fields in enumerate(columns):
            lines[j :: len(columns)] = [f"{d},{f}" for d, f in enumerate(fields, 1)]
        return ",".join(TRACE_COLUMNS) + "\n" + "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    """A trace float: 12 significant digits, negative zero folded by +0.0."""
    return f"{x + 0.0:.12g}"


def _nominal_reports(params: Sequence[DeadlineDistribution]) -> tuple[int, ...]:
    """Latest believable departure per EV: the all-stay reference path."""
    out = []
    for dist in params:
        latest = max(t for t in range(1, dist.horizon + 1) if dist.pmf[t - 1] > 0.0)
        out.append(latest)
    return tuple(out)


def _profile_index(reports: np.ndarray, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(reports.T, axis=0, return_inverse=True)`` for reports
    in 1..``horizon``: the distinct report profiles of the days, in
    lexicographic order, and each day's index among them.  EV by EV, each
    day's report is appended to the index of its profile so far as one
    mixed-radix code, which a 1-D ``np.unique`` ranks; so no code exceeds
    days · (horizon + 1)."""
    index = np.zeros(reports.shape[1], dtype=np.intp)
    for row in reports:
        _, index = np.unique(index * (horizon + 1) + row, return_inverse=True)
    some_day = np.empty(index.max() + 1, dtype=np.intp)
    some_day[index] = np.arange(len(index))
    return reports.T[some_day], index


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
    windows: np.ndarray,
) -> np.ndarray:
    """One EV's reported slot on every day, given its true deadlines and
    each day's compliance window.

    Histogram matching steps through the days on a list of running report
    counts, updated in place; the day index is the day count before the
    report.  What ``realtime_report`` would rebuild every day (the pmfs,
    the planned path) is built once."""
    horizon = len(planned)
    if not isinstance(strategy.rule, HistogramMatch):
        # every other rule is a function of the true deadline alone
        blank = EmpiricalRecord(horizon)
        table = np.array(
            [realtime_report(strategy, t, blank, 1, planned) for t in range(1, horizon + 1)]
        )
        return table[true_days - 1]
    target, bid_pmf = _match_pmfs(strategy)
    path = np.asarray(planned, dtype=float).tolist()
    counts = [0] * horizon
    out = []
    for day, (t, window) in enumerate(zip(true_days.tolist(), windows.tolist())):
        report = _match_report(t, counts, day, path, target, bid_pmf, window)
        counts[report - 1] += 1
        out.append(report)
    return np.array(out, dtype=true_days.dtype)


def _window_events(reports: np.ndarray, bid: DeadlineDistribution, windows: np.ndarray) -> np.ndarray:
    """Settlement's window test on every day at once, from running counts:
    row l-1 of ``counts`` is the record after day l's report."""
    days = len(reports)
    counts = np.zeros((days, bid.horizon), dtype=np.int64)
    counts[np.arange(days), reports - 1] = 1
    np.cumsum(counts, axis=0, out=counts)
    l = np.arange(1, days + 1)[:, None]
    return max_frequency_gap(counts, l, np.array(bid.pmf)) >= windows


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
        rule = strategy.rule
        target = strategy.match_target() if isinstance(rule, HistogramMatch) else law
        for name, dist in (("true deadline law", law), ("histogram target", target)):
            if dist.horizon != horizon:
                raise ValueError(
                    f"EV {i + 1}: {name} has {dist.horizon} slots, the market has {horizon}"
                )
        if isinstance(rule, Fixed) and not 1 <= rule.slot <= horizon:
            raise ValueError(f"EV {i + 1}: fixed report slot {rule.slot} outside 1..{horizon}")
    window_schedule = window_schedule or WindowSchedule()
    penalty_schedule = penalty_schedule or PenaltySchedule()
    n_evs = len(specs)
    need = days * _day_bytes(n_evs, horizon)
    if need > BATCH_BYTE_BUDGET:
        raise HorizonTooLong(
            f"{days} days of {n_evs} EVs on {horizon} slots would hold about {need} "
            f"bytes of ledger and trace (limit {BATCH_BYTE_BUDGET})"
        )
    penalty_schedule.penalty(days)  # fines grow with the day: the last must fit a float
    solver_config = solver_config or SolverConfig()
    bids = tuple(s.day_ahead_bid for s in strategies)

    da = day_ahead(bids, solver_config, market, specs)
    solve, p_da = da.solve, list(da.p_da)
    j_m_value = resolve_j_m(j_m, bids, solver_config, market, specs, solve)
    # the nominal profile's path steers the reports
    nominal = np.array([_nominal_reports(bids)], dtype=np.intp)
    planned = rollout(solve.model, solve.policy, nominal).storage[0]

    true_days = draw_deadlines(true_params, make_rng(seed), days)
    windows = window_schedule.windows(days)
    reports = np.empty_like(true_days)
    for i, strategy in enumerate(strategies):
        reports[i] = _report_days(strategy, true_days[i], planned[i], windows)

    # one rollout of the distinct report profiles; profile_days maps days to them
    profiles, profile_days = _profile_index(reports, horizon)
    rolled = rollout(solve.model, solve.policy, profiles)
    # per profile, the floats settlement and ev_cost compute for its day
    value = market.ev_energy_value
    beta = system_cost(market, da.generator_cost, rolled.reserve_cost, rolled.terminal)
    charge_gap = value * (da.expected.terminal_charge - rolled.terminal)
    kept = np.array(
        [
            [ev_cost(t, t, path, j_m_value, value) for t, path in zip(row, paths)]
            for row, paths in zip(profiles.tolist(), rolled.storage)
        ]
    )

    # settlement, every day at once
    shape = (n_evs, days)
    missed_days = reports > true_days
    event_days = np.array(
        [_window_events(reports[i], bids[i], windows) for i in range(n_evs)], dtype=bool
    ).reshape(shape)
    # one fine per day with a window event, for every EV it hits
    hit = np.flatnonzero(event_days.any(axis=0))
    penalty_days = np.zeros(shape)
    fines = penalty_schedule.penalties(hit + 1)
    penalty_days[:, hit] = np.where(event_days[:, hit], fines, 0.0)
    # (n_evs, L) C-contiguous: each EV's days are one row
    charge_gap_days = np.take(charge_gap.T, profile_days, axis=1)
    ev_cost_days = np.where(missed_days, j_m_value, np.take(kept.T, profile_days, axis=1))
    payment_days = np.array(p_da).reshape(n_evs, 1) + (charge_gap_days - penalty_days)

    result = SimResult(
        days=days,
        seed=seed,
        solve=solve,
        p_da=p_da,
        j_m=j_m_value,
        profiles=profiles,
        rolled=rolled,
        profile_days=profile_days,
        true_days=true_days,
        utility_days=payment_days - ev_cost_days,
        beta_days=beta[profile_days],
        charge_gap_days=charge_gap_days,
        penalty_days=penalty_days,
        event_days=event_days,
        missed_days=missed_days,
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
    for i, u in enumerate(res.utility_days):
        missed = int(res.missed_days[i].sum())
        per_ev.append(
            {
                "avg_utility": float(u.mean()),
                "utility_std": _std(u),
                "last_quartile_avg_utility": float(u[last_q:].mean())
                if last_q < res.days
                else float(u.mean()),
                "avg_ev_cost": _left_sum(res.ev_cost_days[i]) / res.days,
                "avg_charge_gap": float(res.charge_gap_days[i].mean()),
                "penalty_count": int(res.event_days[i].sum()),
                "missed_count": missed,
                "miss_rate": missed / res.days,
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
    earlier, later = [0.0] * horizon, [0.0] * horizon
    for t, p in enumerate(pmf):
        earlier[max(t - 1, 0)] += p
        later[min(t + 1, horizon - 1)] += p
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
                "penalty_count": int(run.event_days[focal].sum()),
                "missed_count": int(run.missed_days[focal].sum()),
            }
            all_ok = all_ok and dsic_ok
    report["all_ok"] = all_ok
    return report
