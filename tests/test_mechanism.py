import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from storemkt.config import load_setup
from storemkt.deadlines import DeadlineDistribution
from storemkt.dispatch import solve_outer
from storemkt.mdp import ExpectedOutcome, MdpModel, expected_outcome, solve_dp
from storemkt import mechanism
from storemkt.mechanism import (
    EmpiricalRecord,
    PenaltySchedule,
    WindowSchedule,
    day_ahead,
    day_ahead_payment,
    penalty_event,
    settlement,
    total_payment,
    window_closing_day,
)
from storemkt.presets import preset_config

THETA_A = DeadlineDistribution((0.2,) * 5)

# scale-1, gamma-1 window at a few pinned day counts
WINDOW_1 = 0.8325546111576977
WINDOW_2 = 0.7411519036837556
WINDOW_50 = 0.2804220259795698
WINDOW_1E6 = 0.0037169223233696684


def test_window_frozen_values():
    w = WindowSchedule()
    assert w.window(1) == pytest.approx(WINDOW_1, abs=1e-15)
    assert w.window(2) == pytest.approx(WINDOW_2, abs=1e-15)
    assert w.window(50) == pytest.approx(WINDOW_50, abs=1e-15)
    assert w.window(10**6) == pytest.approx(WINDOW_1E6, abs=1e-15)
    with pytest.raises(ValueError):
        w.window(0)


def test_window_schedule_validation():
    WindowSchedule(gamma=0.51)
    with pytest.raises(ValueError):
        WindowSchedule(gamma=0.5)
    with pytest.raises(ValueError):
        WindowSchedule(scale=0.99)


def test_penalty_schedule():
    p = PenaltySchedule()
    assert p.penalty(10) == 100.0
    # per-day average at the horizon end has to dwarf any bounded daily gain
    assert p.penalty(1000) / 1000 >= 1000.0
    with pytest.raises(ValueError):
        PenaltySchedule(coefficient=0.0)
    with pytest.raises(ValueError):
        PenaltySchedule(exponent=1.0)
    with pytest.raises(ValueError):
        p.penalty(0)


@pytest.mark.parametrize("gamma,scale", [(1.0, 1.0), (0.51, 1.0), (2.3, 1.7)])
def test_window_column_is_the_per_day_window(gamma, scale):
    w = WindowSchedule(gamma=gamma, scale=scale)
    days = 200_000
    got = w.windows(days)
    assert got.shape == (days,)
    assert got.tolist() == [w.window(l) for l in range(1, days + 1)]  # every bit


@pytest.mark.parametrize("coefficient,exponent", [(1.0, 2.0), (0.3, 1.5), (2.0, 2.7)])
def test_penalty_column_is_the_per_day_penalty(coefficient, exponent):
    p = PenaltySchedule(coefficient=coefficient, exponent=exponent)
    days = np.array([1, 2, 3, 10, 999, 5000, 50_943, 123_457])
    assert p.penalties(days).tolist() == [p.penalty(int(l)) for l in days]  # every bit
    assert p.penalties(days[:0]).shape == (0,)


def _closing_day_by_walk(schedule, truth, bid):
    """The closing day by the definition, one day at a time."""
    drift = max(abs(t - b) for t, b in zip(truth, bid))
    return next(
        l
        for l in itertools.count(1)
        if schedule.window(l) + 3.0 * max(math.sqrt(t * (1.0 - t) / l) for t in truth) < drift
    )


@pytest.mark.parametrize(
    "schedule, truth, bid, day",
    [
        # theorem1's two-point underbid: several doubling blocks
        (WindowSchedule(), (0.21, 0.79), (0.19, 0.81), 50_943),
        # a certain reporter far off its bid: the window closes on day 1
        (WindowSchedule(), (1.0, 0.0), (0.0, 1.0), 1),
        (WindowSchedule(), (0.21, 0.79), (1.0, 0.0), 13),
        (WindowSchedule(gamma=2.0, scale=1.5), (0.2, 0.3, 0.5), (0.25, 0.3, 0.45), 27_433),
        (WindowSchedule(gamma=0.75), (0.2,) * 5, (0.1, 0.2, 0.3, 0.2, 0.2), 1_233),
        (WindowSchedule(scale=3.0), (0.5, 0.5), (0.47, 0.53), 156_708),
        (WindowSchedule(gamma=1.2, scale=1.1), (0.05, 0.9, 0.05), (0.0, 0.9, 0.1), 8_160),
    ],
)
def test_window_closing_day_matches_the_daily_walk(schedule, truth, bid, day):
    assert window_closing_day(schedule, truth, bid) == day
    assert _closing_day_by_walk(schedule, truth, bid) == day


def test_window_closing_day_needs_a_drift():
    with pytest.raises(ValueError, match="no window closes"):
        window_closing_day(WindowSchedule(), (0.21, 0.79), (0.21, 0.79))


def test_empirical_record_lifecycle():
    rec = EmpiricalRecord(5)
    with pytest.raises(ValueError):
        rec.frequencies()
    rec.update(2)
    rec.update(2)
    rec.update(5)
    assert rec.days == 3
    assert rec.frequencies().tolist() == [0.0, 2 / 3, 0.0, 0.0, 1 / 3]
    dup = rec.copy()
    dup.update(1)
    assert rec.days == 3  # copies do not alias
    with pytest.raises(ValueError):
        rec.update(6)
    with pytest.raises(ValueError):
        EmpiricalRecord(5, np.array([1, 0, 0, 0, 0]), days=3)


def test_empirical_deviation_day_one():
    # the deviation of the report frequencies from the bid
    rec = EmpiricalRecord(5)
    rec.update(2)
    dev = rec.frequencies() - np.array(THETA_A.pmf)
    assert dev == pytest.approx([-0.2, 0.8, -0.2, -0.2, -0.2])
    assert abs(dev.sum()) < 1e-12


def test_penalty_event_crosses_shrinking_window():
    # one day of lying sits inside r(1)=0.833; a second identical day
    # crosses r(2)=0.741
    w = WindowSchedule()
    rec = EmpiricalRecord(5)
    rec.update(2)
    assert penalty_event(rec, THETA_A, w) is False
    rec.update(2)
    assert penalty_event(rec, THETA_A, w) is True


def test_settlement_requires_updated_record():
    rec = EmpiricalRecord(5)
    rec.update(2)
    with pytest.raises(ValueError, match="update the record"):
        settlement(2, rec, THETA_A, 1.0, 1.0, WindowSchedule(), PenaltySchedule())


def test_settlement_gap_and_penalty():
    w, p = WindowSchedule(), PenaltySchedule()
    rec = EmpiricalRecord(5)
    rec.update(2)
    quiet = settlement(1, rec, THETA_A, 0.19, 1.0, w, p)
    assert quiet.charge_gap == pytest.approx(-0.81)
    assert quiet.penalty == 0.0 and not quiet.event_triggered
    assert quiet.payment == pytest.approx(-0.81)
    rec.update(2)
    loud = settlement(2, rec, THETA_A, 0.19, 0.0, w, p, ev_energy_value=2.0)
    assert loud.charge_gap == pytest.approx(0.38)
    assert loud.event_triggered and loud.penalty == 4.0
    assert loud.payment == pytest.approx(0.38 - 4.0)
    assert total_payment(-0.1, loud) == pytest.approx(-0.1 + 0.38 - 4.0)


def test_day_ahead_payment_identity_enforced():
    s = load_setup(preset_config("example1:p=0.19"))
    res = solve_outer(s.params, s.solver, s.market, s.specs)
    minus = solve_outer((), s.solver, s.market, ())
    model = MdpModel(s.market, s.specs, s.params, res.g_star)
    expected = expected_outcome(model, res.policy)
    gen = s.market.generator_cost(res.g_star)
    pay, residual = day_ahead_payment(0, res, minus, expected, gen, s.market.ev_energy_value)
    # externality: q*_{-i} - q* - credited energy
    assert pay == pytest.approx(2.0 - 1.9 - expected.terminal_charge[0], abs=1e-9)
    assert abs(residual) <= 1e-9
    with pytest.raises(IndexError):
        day_ahead_payment(1, res, minus, expected, gen, 1.0)
    # a distorted expectation breaks the two-route agreement
    warped = ExpectedOutcome(
        expected.reserve_cost + 0.5, expected.terminal_charge, expected.beta
    )
    with pytest.raises(RuntimeError, match="identity"):
        day_ahead_payment(0, res, minus, warped, gen, s.market.ev_energy_value)


def test_day_ahead_shares_leave_one_out_solves(monkeypatch):
    # two identical EVs plus one with an extra level: EVs 1 and 2 leave
    # the same fleet behind, so they share one re-solve
    cfg = preset_config("table1:n=3")
    cfg["evs"][-1]["levels"] = [0.0, 5.0, 10.0]
    s = load_setup(cfg)
    calls = []

    def counted(*args):
        calls.append(args)
        return solve_outer(*args)

    monkeypatch.setattr(mechanism, "solve_outer", counted)
    da = day_ahead(s.params, s.solver, s.market, s.specs)
    assert len(calls) == 3  # the full fleet and two distinct remainders
    assert len(da.q_star_minus) == len(da.p_da) == len(da.identity_residual) == 3
    for i in range(3):
        rest = [k for k in range(3) if k != i]
        direct = solve_outer(
            tuple(s.params[k] for k in rest), s.solver, s.market, tuple(s.specs[k] for k in rest)
        )
        assert da.q_star_minus[i] == direct.q_star
        assert abs(da.identity_residual[i]) <= 1e-9
    assert da.q_star_minus[0] == da.q_star_minus[1]
    assert da.generator_cost == s.market.generator_cost(da.solve.g_star)


@given(st.integers(min_value=1, max_value=10**6))
def test_penalty_monotone_and_superlinear(l):
    p = PenaltySchedule()
    assert p.penalty(l + 1) > p.penalty(l)
    assert p.penalty(l) / l >= p.coefficient * l  # quadratic default


@given(st.integers(min_value=2, max_value=10**6))
def test_window_shrinks_but_slower_than_one_over_l(l):
    w = WindowSchedule()
    assert w.window(l) < w.window(l - 1)
    # l * r(l) grows: the tolerance budget in report-counts keeps widening
    assert l * w.window(l) > (l - 1) * w.window(l - 1)


@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=60)
)
def test_deviation_always_sums_to_zero(reports):
    rec = EmpiricalRecord(5)
    for r in reports:
        rec.update(r)
    dev = rec.frequencies() - np.array(THETA_A.pmf)
    assert abs(float(dev.sum())) < 1e-9
