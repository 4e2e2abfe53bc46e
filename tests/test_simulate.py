import hashlib
import math

import numpy as np
import pytest

from storemkt import dispatch, mdp, simulate
from storemkt.config import load_setup
from storemkt.deadlines import DeadlineDistribution, make_rng
from storemkt.dispatch import SolverConfig, solve_outer
from storemkt.experiments import payments_table, to_json
from storemkt.mdp import expected_outcome, rollout
from storemkt.mechanism import EmpiricalRecord, WindowSchedule, settlement, total_payment
from storemkt.presets import preset_config
from storemkt.simulate import (
    BiddingStrategy,
    EarlyExit,
    Fixed,
    HistogramMatch,
    Truthful,
    default_adversary_suite,
    draw_deadlines,
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


def test_probe_reuses_the_day_ahead_solve(monkeypatch):
    # probe profile 0 is the bids themselves: given their solve, the probe
    # solves only its 6 random profiles, and the fine is bit-identical
    s = load_setup(preset_config("table1:n=2"))
    solved = solve_outer(s.params, s.solver, s.market, s.specs)
    calls = []
    real = dispatch.solve_outer

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(dispatch, "solve_outer", counted)
    fresh = resolve_j_m("auto", s.params, s.solver, s.market, s.specs)
    assert len(calls) == 1 + simulate.J_M_PROBE_TRIALS == 7
    calls.clear()
    reused = resolve_j_m("auto", s.params, s.solver, s.market, s.specs, solved)
    assert len(calls) == simulate.J_M_PROBE_TRIALS == 6
    assert reused == fresh
    other = load_setup(preset_config("table1:n=2,profile=C"))
    with pytest.raises(ValueError, match="profiles\\[0\\]"):
        resolve_j_m("auto", other.params, s.solver, s.market, s.specs, solved)


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


FROZEN_RULES = {
    "truthful": Truthful(),
    "early_exit": EarlyExit(),
    "fixed": Fixed(2),
    "histogram_match": HistogramMatch(),
}
# sha256 of to_csv() and of to_json(diagnostics), recorded from the
# per-day loop that rolled out and settled every day on its own
FROZEN_SHA256 = {
    ("example1", "truthful"): (
        "5c4c2ea977cdc6e9499ccdb15e767df4358ef6966c1c496a7b6175e3abcf8599",
        "c3cb113979e782699a9380daf204d91e64de61e2fcfbccc27a89587189f40ea6",
    ),
    ("example1", "early_exit"): (
        "e7dd93bd5478cb4fea41d44fcc02b3a1700a126dd0e6572b5d49e34ec5283a46",
        "80eff22c040fc45c68e19eb0b300f122bef56b0053cb3d1dbdaa6bec1146a59f",
    ),
    ("example1", "fixed"): (
        "6a43f36028d235ba086ca6223fd3d65ee93129ef37d419e0cba67484a216b5e2",
        "25ec9df1e348318f212064c9397a401cec1980bc10513917a16e0569049cd390",
    ),
    ("example1", "histogram_match"): (
        "3c048f4b774ae510a1f2b99ebedeb2b2a6cbf02b8bf6367c2ef30d4b797ad033",
        "4a85f83c6d9f9e54e357c03470624f1c804d80e73a1e310933613a8d57ff5113",
    ),
    ("table1:n=2", "truthful"): (
        "1ad73c35cae567d72063093fcad9933ef69b5acb3a738c9288b633ecd8879e78",
        "d19cd902605d63acefe9cc7e760d13402d329b62672267161e0e4c9622f37e11",
    ),
    ("table1:n=2", "early_exit"): (
        "28325e0f0c7e614dceab42bca94b22e9881808dc33851bc2facd17b4c59fd4eb",
        "4bcaa86f6e763d61328b94fcec8856a3944f156f7174e5cdfd6d0e2cc0dbd7ec",
    ),
    ("table1:n=2", "fixed"): (
        "c91904f5e0de4149302e54f251712b6bb84c887aee18bea39f2a7faa42799754",
        "fd9254601c5a46754a60574d7a8152ec03c206ee619669526d3be37d208f7ebc",
    ),
    ("table1:n=2", "histogram_match"): (
        "4764f193f2c03efc552f498c30c46e19abebf93f05442ac981f1896d94f3f6f9",
        "d19cd902605d63acefe9cc7e760d13402d329b62672267161e0e4c9622f37e11",
    ),
}


@pytest.mark.parametrize("preset,kind", sorted(FROZEN_SHA256))
def test_trace_and_diagnostics_bytes_are_frozen(preset, kind):
    # EV 1 plays the rule under a truthful bid; on two-EV fleets EV 2
    # histogram-matches an overbid, so it misses deadlines too
    s = load_setup(preset_config(preset))
    strategies = [BiddingStrategy(s.params[0], FROZEN_RULES[kind])]
    if len(s.specs) > 1:
        strategies.append(dict(default_adversary_suite(s.params[1]))["overbid_shift_histmatch"])
    res = run_horizon(
        s.market, s.specs, s.params, strategies, 300, 5,
        s.window_schedule, s.penalty_schedule, s.solver, s.j_m,
    )
    got = (
        hashlib.sha256(res.to_csv().encode()).hexdigest(),
        hashlib.sha256(to_json(res.diagnostics).encode()).hexdigest(),
    )
    assert got == FROZEN_SHA256[(preset, kind)]


def test_settlement_columns_match_the_per_day_settlement():
    # always reporting slot 2 misses on true-slot-1 days and trips the
    # window on some days but not others
    s = example1_setup()
    strategies = (BiddingStrategy(s.params[0], Fixed(2)),)
    res = run_horizon(
        s.market, s.specs, s.params, strategies, 300, 5,
        s.window_schedule, s.penalty_schedule, s.solver, s.j_m,
    )
    assert 0 < res.accounts[0].penalties < 300 and res.accounts[0].missed > 0
    solve = res.solve
    expected = expected_outcome(solve.model, solve.policy, solve.space).terminal_charge[0]
    record = EmpiricalRecord(2)
    for row in res.trace_rows[1::2]:
        record.update(row["reported"])
        realized = rollout(solve.model, solve.policy, (row["reported"],), solve.space)
        want = settlement(
            row["day"], record, s.params[0], float(expected), float(realized.terminal[0]),
            s.window_schedule, s.penalty_schedule, s.market.ev_energy_value,
        )
        assert (row["charge_gap"], row["penalty"], row["event"]) == (
            want.charge_gap, want.penalty, want.event_triggered,
        )
        assert row["total_payment"] == total_payment(res.p_da[0], want)


def test_block_draw_replays_per_day_samples():
    laws = (
        THETA_A,
        DeadlineDistribution((0.5, 0.0, 0.0, 0.0, 0.5), floor=0.0),
        DeadlineDistribution((0.1, 0.2, 0.3, 0.2, 0.2)),
    )
    block_rng, loop_rng = make_rng(9), make_rng(9)
    block = draw_deadlines(laws, block_rng, 500)
    loop = [[law.sample(loop_rng) for law in laws] for _ in range(500)]
    assert block.shape == (3, 500)
    assert block.T.tolist() == loop
    assert block_rng.random() == loop_rng.random()  # same doubles consumed


def test_day_loop_rolls_out_each_report_profile_once(monkeypatch):
    rolled = []
    real = mdp.rollout

    def counted(model, policy, reported, space=None):
        rolled.append(tuple(reported))
        return real(model, policy, reported, space)

    monkeypatch.setattr(mdp, "rollout", counted)
    monkeypatch.setattr(simulate, "rollout", counted, raising=False)
    s = load_setup(preset_config("table1:n=2"))
    strategies = (
        BiddingStrategy(s.params[0], EarlyExit()),
        dict(default_adversary_suite(s.params[1]))["overbid_shift_histmatch"],
    )
    # a numeric miss fine keeps the j_m probe's rollouts out of the count
    res = run_horizon(
        s.market, s.specs, s.params, strategies, 2000, 0,
        s.window_schedule, s.penalty_schedule, s.solver, 100.0,
    )
    by_day: dict[int, list[int]] = {}
    for r in res.trace_rows:
        if r["row"] == "ev":
            by_day.setdefault(r["day"], []).append(r["reported"])
    distinct = {tuple(v) for v in by_day.values()}
    assert len(distinct) > 1
    assert len(rolled) <= len(distinct) + 1  # + the nominal path's profile
    assert len(set(rolled)) == len(rolled)


def test_run_horizon_rejects_true_laws_of_another_horizon(monkeypatch):
    def no_solve(*args):
        raise AssertionError("validation must come before the day-ahead solve")

    monkeypatch.setattr(simulate, "day_ahead", no_solve)
    s = example1_setup()
    for law in (DeadlineDistribution((1.0,)), DeadlineDistribution((0.2, 0.3, 0.5))):
        with pytest.raises(ValueError, match=f"EV 1: true deadline law has {law.horizon} slots"):
            run_horizon(s.market, s.specs, (law,), s.strategies, 50, 0)
    t = load_setup(preset_config("table1:n=2"))
    laws = (t.params[0], DeadlineDistribution((0.5, 0.5)))
    with pytest.raises(ValueError, match="EV 2: true deadline law has 2 slots"):
        run_horizon(t.market, t.specs, laws, t.strategies, 50, 0)


def test_run_horizon_rejects_fixed_slots_outside_the_day():
    s = example1_setup()
    for slot in (0, 3):
        strategies = (BiddingStrategy(s.params[0], Fixed(slot)),)
        with pytest.raises(ValueError, match=f"EV 1: fixed report slot {slot} outside 1..2"):
            run_horizon(
                s.market, s.specs, s.params, strategies, 5, 0,
                s.window_schedule, s.penalty_schedule, s.solver, s.j_m,
            )
