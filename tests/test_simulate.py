import math

import numpy as np
import pytest

from storemkt.config import load_setup
from storemkt.deadlines import DeadlineDistribution
from storemkt.dispatch import SolverConfig
from storemkt.experiments import payments_table
from storemkt.mechanism import EmpiricalRecord, WindowSchedule
from storemkt.presets import preset_config
from storemkt.simulate import (
    BiddingStrategy,
    EarlyExit,
    Fixed,
    HistogramMatch,
    Truthful,
    default_adversary_suite,
    ev_cost,
    realtime_report,
    resolve_j_m,
    run_horizon,
    verify_theorem1,
)

THETA_A = DeadlineDistribution((0.2,) * 5)
EXAMPLE1_J_M = 282.84271247461903  # 10x the sampled sensitivity bound


def example1_setup(p=0.19):
    return load_setup(preset_config(f"example1:p={p}"))


def test_ev_cost():
    assert ev_cost(2, 1, [1.0, 0.0], 282.0) == -1.0
    assert ev_cost(1, 2, [1.0, 1.0], 282.0) == 282.0  # missed deadline
    assert ev_cost(2, 2, [0.5, 0.8], 5.0, ev_energy_value=2.0) == -1.6


def test_truthful_and_fixed_reports():
    rec = EmpiricalRecord(5)
    truthful = BiddingStrategy(THETA_A, Truthful())
    for d in (1, 3, 5):
        assert realtime_report(truthful, d, rec, 1) == d
    pinned = BiddingStrategy(THETA_A, Fixed(3))
    assert realtime_report(pinned, 5, rec, 1) == 3


def test_early_exit_takes_charge_peak():
    rec = EmpiricalRecord(2)
    s = BiddingStrategy(DeadlineDistribution((0.19, 0.81)), EarlyExit())
    assert realtime_report(s, 2, rec, 1, planned=[1.0, 0.0]) == 1
    assert realtime_report(s, 2, rec, 1, planned=[0.5, 1.0]) == 2
    assert realtime_report(s, 1, rec, 1, planned=[0.5, 1.0]) == 1


def test_histogram_match_needs_window():
    s = BiddingStrategy(THETA_A, HistogramMatch())
    with pytest.raises(ValueError):
        realtime_report(s, 3, EmpiricalRecord(5), 1, planned=[0.0] * 5)


def test_histogram_match_fills_most_underrepresented_slot():
    w = WindowSchedule()
    s = BiddingStrategy(THETA_A, HistogramMatch())
    # empty record: every slot is underrepresented the same amount
    assert realtime_report(s, 3, EmpiricalRecord(5), 1, [0.0] * 5, w) == 1
    # slot 2 never reported in six days, so it has the largest deficit
    rec = EmpiricalRecord(5, np.array([3, 0, 1, 1, 1]), days=6)
    assert realtime_report(s, 5, rec, 7, [0.0] * 5, w) == 2


def test_histogram_match_prefers_miss_over_window_event():
    # any report inside the deadline would push slot-1 frequency across
    # the day-1000 window, so the rule overshoots the true deadline
    w = WindowSchedule()
    bid = DeadlineDistribution((0.01, 0.99), floor=0.001)
    s = BiddingStrategy(bid, HistogramMatch())
    rec = EmpiricalRecord(2, np.array([93, 906]), days=999)
    assert realtime_report(s, 1, rec, 1000, [0.0, 0.0], w) == 2
    # with no safe report anywhere the rule stays inside the deadline
    stuck = EmpiricalRecord(2, np.array([95, 904]), days=999)
    assert realtime_report(s, 1, stuck, 1000, [0.0, 0.0], w) == 1


def test_histogram_match_target_override():
    other = DeadlineDistribution((0.5, 0.5))
    bid = DeadlineDistribution((0.19, 0.81))
    assert BiddingStrategy(bid, HistogramMatch(other)).match_target() is other
    assert BiddingStrategy(bid, HistogramMatch()).match_target() is bid


def test_resolve_j_m():
    s = example1_setup()
    assert resolve_j_m(5.0, s.params, s.solver, s.market, s.specs) == 5.0
    assert resolve_j_m("auto", (), s.solver, s.market, ()) == 0.0
    auto = resolve_j_m("auto", s.params, s.solver, s.market, s.specs)
    assert auto == pytest.approx(EXAMPLE1_J_M, abs=1e-9)


def test_run_horizon_single_day_trace():
    s = example1_setup()
    res = run_horizon(
        s.market, s.specs, s.params, s.strategies, 1, 0,
        s.window_schedule, s.penalty_schedule, s.solver, s.j_m,
    )
    assert res.solve.q_star == pytest.approx(1.9, abs=1e-9)
    assert res.p_da[0] == pytest.approx(-0.09, abs=1e-9)
    assert res.j_m == pytest.approx(EXAMPLE1_J_M, abs=1e-9)
    assert res.utility_days.shape == (1, 1)
    assert res.beta_days.shape == (1,)
    system = [r for r in res.trace_rows if r["row"] == "system"]
    evs = [r for r in res.trace_rows if r["row"] == "ev"]
    assert len(system) == 1 and len(evs) == 1
    row = evs[0]
    # per-row ledger conservation
    assert row["total_payment"] == pytest.approx(
        row["p_da"] + row["charge_gap"] - row["penalty"], abs=1e-12
    )
    assert row["reported"] == row["true_delta"]  # truthful rule
    assert row["storage"] in ("1;1", "1;0")
    csv = res.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0].startswith("day,row,ev,true_delta,reported,storage")
    assert len(lines) == 3
    for key in ("days", "seed", "q_star", "j_m", "avg_beta", "per_ev"):
        assert key in res.diagnostics


def test_run_horizon_without_evs():
    s = example1_setup()
    cfg = SolverConfig(step=1.0, candidates=((0.0, 1.0),))
    res = run_horizon(s.market, (), (), (), 2, 0, solver_config=cfg)
    assert res.j_m == 0.0
    assert res.beta_days.tolist() == [2.0, 2.0]
    assert len(res.to_csv().strip().split("\n")) == 3  # header + 2 system rows


def test_replay_is_byte_identical():
    s = example1_setup()
    runs = [
        run_horizon(
            s.market, s.specs, s.params, s.strategies, 40, 7,
            s.window_schedule, s.penalty_schedule, s.solver, s.j_m,
        )
        for _ in range(2)
    ]
    assert runs[0].to_csv() == runs[1].to_csv()
    assert runs[0].diagnostics == runs[1].diagnostics
    other = run_horizon(
        s.market, s.specs, s.params, s.strategies, 40, 8,
        s.window_schedule, s.penalty_schedule, s.solver, s.j_m,
    )
    assert other.to_csv() != runs[0].to_csv()


def test_run_horizon_validation():
    s = example1_setup()
    with pytest.raises(ValueError):
        run_horizon(s.market, s.specs, s.params, s.strategies, 0, 0)
    with pytest.raises(ValueError):
        run_horizon(s.market, s.specs, s.params, (), 5, 0)


def test_truthful_long_run_is_clean():
    s = example1_setup()
    days = 2000
    res = run_horizon(
        s.market, s.specs, s.params, s.strategies, days, 3,
        s.window_schedule, s.penalty_schedule, s.solver, s.j_m,
    )
    acct = res.accounts[0]
    assert acct.penalties == 0
    assert acct.missed == 0
    gaps = res.charge_gap_days[0]
    band = 3.0 * float(np.std(gaps, ddof=1)) / math.sqrt(days)
    assert abs(float(gaps.mean())) <= band
    beta_band = 3.0 * float(np.std(res.beta_days, ddof=1)) / math.sqrt(days)
    assert abs(float(res.beta_days.mean()) - 1.9) <= beta_band
    assert acct.average_utility() >= -1e-9


def test_fixed_rule_trips_the_window_daily():
    # reporting slot 1 every day pins the frequency gap at 0.81, inside
    # r(1) but outside r(2) and everything after
    s = example1_setup()
    strategies = (BiddingStrategy(s.params[0], Fixed(1)),)
    res = run_horizon(
        s.market, s.specs, s.params, strategies, 6, 0,
        s.window_schedule, s.penalty_schedule, s.solver, s.j_m,
    )
    assert res.accounts[0].penalties == 5
    assert res.accounts[0].missed == 0
    assert [r["event"] for r in res.trace_rows if r["row"] == "ev"] == [
        False, True, True, True, True, True,
    ]


def test_default_adversary_suite_shape():
    suite = default_adversary_suite(THETA_A)
    names = [n for n, _ in suite]
    assert names == [
        "underbid_shift_histmatch",
        "truthful_bid_early_exit",
        "truthful_bid_fixed_1",
        "overbid_shift_histmatch",
    ]
    under = dict(suite)["underbid_shift_histmatch"]
    over = dict(suite)["overbid_shift_histmatch"]
    assert under.day_ahead_bid.pmf == pytest.approx((0.4, 0.2, 0.2, 0.2, 0.0))
    assert over.day_ahead_bid.pmf == pytest.approx((0.0, 0.2, 0.2, 0.2, 0.4))
    assert isinstance(dict(suite)["truthful_bid_fixed_1"].rule, Fixed)


def test_verify_theorem1_self_adversary_has_zero_gap():
    s = example1_setup()
    suite = [("self", BiddingStrategy(s.params[0], Truthful()))]
    report = verify_theorem1(
        s.market, s.specs, s.params, suite, 200, [0],
        window_schedule=s.window_schedule,
        penalty_schedule=s.penalty_schedule,
        solver_config=s.solver,
        j_m=s.j_m,
    )
    cell = report["adversaries"]["self"][0]
    assert cell["gap_over_truthful"] == 0.0
    assert cell["band"] == 0.0
    assert cell["dsic_ok"] is True
    base = report["truthful"][0]
    assert base["ir_ok"] and base["efficiency_ok"]
    assert report["all_ok"] is True
    assert report["j_m"] == pytest.approx(EXAMPLE1_J_M, abs=1e-9)


def test_simulate_and_payments_price_the_same_day_ahead():
    s = load_setup(preset_config("table1:n=2"))
    solve, rows = payments_table(s)
    res = run_horizon(
        s.market, s.specs, s.params, s.strategies, 3, 0,
        s.window_schedule, s.penalty_schedule, s.solver, 0.0,
    )
    assert res.solve.q_star == solve.q_star and res.solve.g_star == solve.g_star
    assert res.p_da == [r["p_da"] for r in rows]
