"""Payments: day-ahead VCG transfer plus end-of-day settlement.

``day_ahead`` is the whole day-ahead phase, run once before the day
starts: solve, take the forward expectation of the committed policy, and
pay each EV its externality: the system cost with the EV absent minus
everyone else's share of the expected cost with it present.  The
settlement trues up the energy account (expected minus
realized departure charge, valued at the energy price) and levies an
escalating penalty when an EV's report frequencies drift out of a
shrinking tolerance window around its bid.

Window and penalty schedules are deliberately simple closed forms: the
window must shrink slower than sampling noise so honest EVs are safe,
and the penalty must grow faster than linearly in the day count so no
bounded per-day gain survives it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .costs import MarketModel
from .deadlines import DeadlineDistribution
from .dispatch import SolveResult, SolverConfig, solve_outer
from .mdp import EVSpec, ExpectedOutcome, expected_outcome

IDENTITY_TOL = 1e-9


@dataclass(frozen=True)
class WindowSchedule:
    """Report-frequency tolerance r(l) = scale * sqrt(gamma * ln(l+1) / l)."""

    gamma: float = 1.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.gamma <= 0.5:
            raise ValueError(f"gamma must exceed 0.5, got {self.gamma}")
        if self.scale < 1.0:
            raise ValueError(
                f"scale must be >= 1 (got {self.scale}); smaller scales shrink "
                "the window below the honest-noise floor"
            )

    def window(self, l: int) -> float:
        if l < 1:
            raise ValueError("day index starts at 1")
        return self.scale * math.sqrt(self.gamma * math.log(l + 1) / l)

    def windows(self, days: int) -> np.ndarray:
        """``window(l)`` for l = 1..days, the same floats: ``math.log`` per
        day (``np.log`` may differ from it in the last bit), then the
        same IEEE operations elementwise."""
        logs = np.fromiter(map(math.log, range(2, days + 2)), float, days)
        return self.scale * np.sqrt(self.gamma * logs / np.arange(1, days + 1))


def window_closing_day(
    window_schedule: WindowSchedule, truth: Sequence[float], bid: Sequence[float]
) -> int:
    """First day l on which the compliance window plus three standard
    errors of the honest report frequencies falls below the largest
    per-slot gap between the true pmf and the bid.

    From that day on a reporter drawing from ``truth`` sits outside the
    window around ``bid`` beyond sampling noise, so the penalty fires.
    Both terms shrink with l, so the condition holds on every later day.
    Days are tested in doubling blocks through ``WindowSchedule.windows``,
    with the floats of ``window(l) + 3.0 * max(sqrt(t * (1 - t) / l))``.
    """
    drift = max(abs(t - b) for t, b in zip(truth, bid))
    if drift == 0.0:
        raise ValueError("the bid equals the truth: no window closes over it")
    spread = [t * (1.0 - t) for t in truth]
    days = 1024
    while True:
        l = np.arange(1, days + 1)
        noise = np.max([np.sqrt(v / l) for v in spread], axis=0)
        closed = np.flatnonzero(window_schedule.windows(days) + 3.0 * noise < drift)
        if len(closed):
            return int(closed[0]) + 1
        days *= 2


class FineOverflow(ValueError):
    """A penalty fine too large for a float."""


@dataclass(frozen=True)
class PenaltySchedule:
    """Event fine J_p(l) = coefficient * l**exponent; superlinear growth."""

    coefficient: float = 1.0
    exponent: float = 2.0

    def __post_init__(self) -> None:
        if self.coefficient <= 0:
            raise ValueError("penalty coefficient must be positive")
        if self.exponent <= 1.0:
            raise ValueError(
                f"penalty exponent must exceed 1 (got {self.exponent}); "
                "otherwise the average penalty stays bounded"
            )

    def penalty(self, l: int) -> float:
        """The fine on day ``l``; ``FineOverflow`` where it exceeds a float."""
        if l < 1:
            raise ValueError("day index starts at 1")
        try:
            fine = self.coefficient * float(l) ** self.exponent
        except OverflowError:
            fine = math.inf
        if math.isinf(fine):
            raise FineOverflow(
                f"penalty fine with coefficient {self.coefficient}, exponent "
                f"{self.exponent} overflows a float on day {l}"
            )
        return fine

    def penalties(self, days: np.ndarray) -> np.ndarray:
        """``penalty(l)`` for every day index l in ``days``, the same floats
        (Python's power per day, as ``np.power`` may round differently)."""
        return self.coefficient * np.array([float(l) ** self.exponent for l in days.tolist()])


@dataclass
class EmpiricalRecord:
    """Running per-slot report counts for one EV.  Single writer: the
    simulation loop updates it exactly once per day."""

    horizon: int
    counts: np.ndarray = field(default=None)  # type: ignore[assignment]
    days: int = 0

    def __post_init__(self) -> None:
        if self.counts is None:
            self.counts = np.zeros(self.horizon, dtype=np.int64)
        else:
            self.counts = np.asarray(self.counts, dtype=np.int64)
            if self.counts.shape != (self.horizon,):
                raise ValueError("counts shape does not match horizon")
        if int(self.counts.sum()) != self.days:
            raise ValueError("counts must sum to the day count")

    def update(self, report: int) -> None:
        if not 1 <= report <= self.horizon:
            raise ValueError(f"report slot {report} outside 1..{self.horizon}")
        self.counts[report - 1] += 1
        self.days += 1

    def frequencies(self) -> np.ndarray:
        if self.days == 0:
            raise ValueError("no reports recorded yet")
        return self.counts / self.days

    def copy(self) -> "EmpiricalRecord":
        return EmpiricalRecord(self.horizon, self.counts.copy(), self.days)


def max_frequency_gap(counts: np.ndarray, days, pmf: np.ndarray) -> np.ndarray:
    """Worst per-slot gap between report frequencies ``counts / days`` and
    ``pmf``, taken over the last (slot) axis.  ``counts`` may stack many
    records' counts, with ``days`` broadcasting against its leading axes."""
    return np.abs(counts / days - pmf).max(axis=-1)


def penalty_event(
    record: EmpiricalRecord, phi: DeadlineDistribution, schedule: WindowSchedule
) -> bool:
    """True when the worst per-slot frequency gap reaches the day's window."""
    if record.horizon != phi.horizon:
        raise ValueError("record and bid horizons differ")
    if record.days == 0:
        raise ValueError("no reports recorded yet")
    gap = max_frequency_gap(record.counts, record.days, np.array(phi.pmf))
    return bool(gap >= schedule.window(record.days))


@dataclass(frozen=True)
class SettlementResult:
    charge_gap: float
    penalty: float
    event_triggered: bool

    @property
    def payment(self) -> float:
        return self.charge_gap - self.penalty


def day_ahead_payment(
    i: int,
    solve: SolveResult,
    solve_minus_i: SolveResult,
    expected: ExpectedOutcome,
    generator_cost: float,
    ev_energy_value: float,
) -> tuple[float, float]:
    """VCG transfer for EV ``i`` and its identity residual.

    ``expected`` must be the exact expectation of the full solve's policy
    under the bids.  The transfer is computed two ways that only agree
    when the backward values and the forward expectations are consistent:
    the externality form and the value-function form.  Returns the
    value-function form and the residual (externality minus value-function
    form); a residual beyond IDENTITY_TOL raises rather than returning
    either number.
    """
    n_evs = len(expected.terminal_charge)
    if not 0 <= i < n_evs:
        raise IndexError(f"EV index {i} out of range")
    others = ev_energy_value * float(
        expected.terminal_charge.sum() - expected.terminal_charge[i]
    )
    direct = solve_minus_i.q_star - (generator_cost + expected.reserve_cost - others)
    own = ev_energy_value * float(expected.terminal_charge[i])
    via_q = solve_minus_i.q_star - solve.q_star - own
    if abs(direct - via_q) > IDENTITY_TOL:
        raise RuntimeError(
            f"payment identity violated: {direct} vs {via_q} for EV {i + 1}"
        )
    return via_q, direct - via_q


@dataclass(frozen=True)
class DayAhead:
    """The day-ahead phase of one market: the committed solve, the exact
    forward expectation of its policy, the dispatch cost, and per EV the
    system cost without it, its transfer and its identity residual."""

    solve: SolveResult
    expected: ExpectedOutcome
    generator_cost: float
    q_star_minus: tuple[float, ...]
    p_da: tuple[float, ...]
    identity_residual: tuple[float, ...]


def day_ahead(
    bids: Sequence[DeadlineDistribution],
    solver: SolverConfig,
    market: MarketModel,
    specs: Sequence[EVSpec],
) -> DayAhead:
    """Solve the day-ahead problem and pay each EV its externality.

    EV ``i``'s counterfactual is a full re-solve of the fleet without it.
    Re-solves are keyed on the remaining (bids, specs), order preserved,
    so identical EVs share one; the solver is deterministic, so a shared
    result is bit-identical to a fresh one.  The miss fine is not part of
    this phase (see ``simulate.resolve_j_m``).
    """
    bids, specs = tuple(bids), tuple(specs)
    solve = solve_outer(bids, solver, market, specs)
    expected = expected_outcome(solve.model, solve.policy)
    gen = market.generator_cost(solve.g_star)
    without: dict[tuple, SolveResult] = {}
    q_minus, p_da, residual = [], [], []
    for i in range(len(specs)):
        rest = (bids[:i] + bids[i + 1 :], specs[:i] + specs[i + 1 :])
        if rest not in without:
            without[rest] = solve_outer(rest[0], solver, market, rest[1])
        minus = without[rest]
        pay, res = day_ahead_payment(i, solve, minus, expected, gen, market.ev_energy_value)
        q_minus.append(minus.q_star)
        p_da.append(pay)
        residual.append(res)
    return DayAhead(solve, expected, gen, tuple(q_minus), tuple(p_da), tuple(residual))


def settlement(
    l: int,
    record: EmpiricalRecord,
    phi: DeadlineDistribution,
    expected_charge: float,
    realized_charge: float,
    window_schedule: WindowSchedule,
    penalty_schedule: PenaltySchedule,
    ev_energy_value: float = 1.0,
) -> SettlementResult:
    """End-of-day transfer.  ``record`` must already include day ``l``'s
    report; the event test therefore sees today's frequencies."""
    if record.days != l:
        raise ValueError(
            f"record covers {record.days} days but settling day {l}; "
            "update the record before settlement"
        )
    gap = ev_energy_value * (expected_charge - realized_charge)
    event = penalty_event(record, phi, window_schedule)
    pen = penalty_schedule.penalty(l) if event else 0.0
    return SettlementResult(float(gap), float(pen), event)


def total_payment(day_ahead: float, result: SettlementResult) -> float:
    return day_ahead + result.payment

