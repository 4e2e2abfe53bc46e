import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storemkt import mdp, simulate
from storemkt.cli import main
from storemkt.config import emit, load_setup
from storemkt.deadlines import DeadlineDistribution, make_rng
from storemkt.dispatch import SolverConfig, solve_outer
from storemkt.experiments import payments_table, to_json
from storemkt.mdp import expected_outcome
from storemkt.mechanism import (
    EmpiricalRecord,
    FineOverflow,
    PenaltySchedule,
    WindowSchedule,
    max_frequency_gap,
    settlement,
    total_payment,
)
from storemkt.presets import preset_config, table1_config
from storemkt.scenarios import random_floored_pmf
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

import reference

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


def _array_match_report(true_deadline, counts, days, path, target, bid_pmf, window):
    """Histogram matching's report in its array form: the deficits and the
    post-update gaps come from numpy operations on length-T arrays."""
    horizon = len(counts)
    counts = np.array(counts, dtype=np.int64)
    deficit = (counts / max(days, 1) - np.array(target)).tolist()
    gaps = max_frequency_gap(counts + np.eye(horizon), days + 1, np.array(bid_pmf)).tolist()

    def prefer(t):
        return (deficit[t - 1], -path[t - 1], t)

    def closest(t):
        return (gaps[t - 1], -path[t - 1], t)

    within = range(1, true_deadline + 1)
    safe_within = [t for t in within if gaps[t - 1] < window]
    negative = [t for t in safe_within if deficit[t - 1] < 0.0]
    beyond = [t for t in range(true_deadline + 1, horizon + 1) if gaps[t - 1] < window]
    if negative:
        return min(negative, key=prefer), gaps
    if safe_within:
        return min(safe_within, key=closest), gaps
    if beyond:
        return min(beyond, key=prefer), gaps
    return min(within, key=closest), gaps


def _pmfs(horizon):
    # integer weights with zeros allowed; an all-zero draw puts its mass on
    # the last slot
    def normalize(w):
        total = sum(w)
        return [x / total for x in w] if total else [0.0] * (horizon - 1) + [1.0]

    return st.lists(st.integers(0, 9), min_size=horizon, max_size=horizon).map(normalize)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_scalar_match_report_equals_the_array_form(data):
    horizon = data.draw(st.integers(2, 6))
    counts = data.draw(
        st.lists(
            st.one_of(st.integers(0, 12), st.integers(0, 10**6)),
            min_size=horizon, max_size=horizon,
        )
    )
    days = sum(counts)
    target, bid_pmf = data.draw(_pmfs(horizon)), data.draw(_pmfs(horizon))
    # few distinct planned charges, so charge ties are common
    path = data.draw(
        st.lists(st.sampled_from([0.0, 5.0, 10.0]), min_size=horizon, max_size=horizon)
    )
    true_deadline = data.draw(st.integers(1, horizon))
    _, want_gaps = _array_match_report(true_deadline, counts, days, path, target, bid_pmf, 1.0)
    # a window equal to a gap puts that slot on the strict-< boundary
    window = data.draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from(want_gaps)))
    want, _ = _array_match_report(true_deadline, counts, days, path, target, bid_pmf, window)
    assert simulate._match_gaps(counts, days, bid_pmf) == want_gaps
    got = simulate._match_report(true_deadline, counts, days, path, target, bid_pmf, window)
    assert got == want


def test_resolve_j_m():
    s = example1_setup()
    assert resolve_j_m(5.0, s.params, s.solver, s.market, s.specs) == 5.0
    assert resolve_j_m("auto", (), s.solver, s.market, ()) == 0.0
    auto = resolve_j_m("auto", s.params, s.solver, s.market, s.specs)
    assert auto == pytest.approx(EXAMPLE1_J_M, abs=1e-9)


#: float.hex of resolve_j_m("auto", ...) on the bids of each config, frozen
#: from the scalar probe (one mdp.rollout per report profile)
J_M_AUTO_HEX = {
    "table1:n=1,profile=A": "0x1.3c3694307d653p+8",
    "table1:n=1,profile=B": "0x1.3c3694307d653p+8",
    "table1:n=1,profile=C": "0x1.3c3694307d653p+8",
    "table1:n=1,profile=D": "0x1.3c3694307d653p+8",
    "table1:n=1,profile=E": "0x1.3c3694307d653p+8",
    "table1:n=2,profile=A": "0x1.45f2c70b4da24p+10",
    "table1:n=2,profile=B": "0x1.45f2c70b4da24p+10",
    "table1:n=2,profile=C": "0x1.45f2c70b4da24p+10",
    "table1:n=2,profile=D": "0x1.45f2c70b4da24p+10",
    "table1:n=2,profile=E": "0x1.45f2c70b4da24p+10",
    "table1:n=3,profile=A": "0x1.1e6bf4853df5dp+11",
    "table1:n=3,profile=B": "0x1.1e6bf4853df5ap+11",
    "table1:n=3,profile=C": "0x1.1e6bf4853df5bp+11",
    "table1:n=3,profile=D": "0x1.1e6bf4853df5ap+11",
    "table1:n=3,profile=E": "0x1.1e6bf4853df5ap+11",
    "table1:n=4,profile=A": "0x1.99de8584d51a5p+11",
    "table1:n=4,profile=B": "0x1.99de8584d51a5p+11",
    "table1:n=4,profile=C": "0x1.99de8584d51a5p+11",
    "table1:n=4,profile=D": "0x1.99de8584d51a5p+11",
    "table1:n=4,profile=E": "0x1.99de8584d51a5p+11",
    "example1:p=0.19": "0x1.1ad7bc01366b8p+8",
    "theorem1": "0x1.1ad7bc01366b8p+8",
    "mixed3:0": "0x1.1e6bf4853df5bp+11",
    "mixed3:1": "0x1.1e6bf4853df5ap+11",
    "mixed3:2": "0x1.1e6bf4853df5bp+11",
}


def _mixed3_config(j):
    """The table1 market with 3 unlike EVs, as the benchmark's
    payments-mixed3 workload draws its j-th fleet at seed 0: bids from
    ``random_floored_pmf`` (floor 0.02), the last EV on levels (0, 5, 10)."""
    rng = np.random.default_rng([0, 2, j])
    cfg = table1_config(n=3)
    for ev in cfg["evs"]:
        pmf = random_floored_pmf(rng, cfg["horizon"], 0.02)
        ev["theta"] = {"pmf": list(pmf), "floor": 0.02}
    cfg["evs"][-1]["levels"] = [0.0, 5.0, 10.0]
    return cfg


@pytest.mark.parametrize("name", sorted(J_M_AUTO_HEX))
def test_auto_miss_fine_bits_are_frozen(name):
    cfg = _mixed3_config(int(name[-1])) if name.startswith("mixed3") else preset_config(name)
    s = load_setup(cfg)
    bids = tuple(st.day_ahead_bid for st in s.strategies)
    fine = resolve_j_m("auto", bids, s.solver, s.market, s.specs)
    assert fine.hex() == J_M_AUTO_HEX[name]


def test_probe_reuses_the_day_ahead_solve(monkeypatch):
    # probe profile 0 is the bids themselves: given their solve, the probe
    # solves only its 6 random profiles, and the fine is bit-identical
    s = load_setup(preset_config("table1:n=2"))
    solved = solve_outer(s.params, s.solver, s.market, s.specs)
    calls = []
    real = simulate.solve_outer

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(simulate, "solve_outer", counted)
    fresh = resolve_j_m("auto", s.params, s.solver, s.market, s.specs)
    assert len(calls) == 1 + simulate.J_M_PROBE_TRIALS == 7
    assert calls[0][0] == s.params
    calls.clear()
    reused = resolve_j_m("auto", s.params, s.solver, s.market, s.specs, solved)
    assert len(calls) == simulate.J_M_PROBE_TRIALS == 6
    assert reused == fresh
    other = load_setup(preset_config("table1:n=2,profile=C"))
    with pytest.raises(ValueError, match="not the solve of these bids"):
        resolve_j_m("auto", other.params, s.solver, s.market, s.specs, solved)
    assert len(calls) == 6


def _long_day_config(horizon):
    """One table1-like EV on levels (0, 10) over ``horizon`` slots, with no
    dispatch (caps all 0), a uniform deadline law at floor 0.001 and
    reserves that absorb any mismatch."""
    return {
        "horizon": horizon,
        "demand": [0.0] * horizon,
        "generator": {"form": "linear", "rates": 20.0},
        "reserves": {"form": "asym_lin_quad", "rates": 30.0},
        "evs": [
            {
                "capacity": 10.0,
                "levels": [0.0, 10.0],
                "theta": {"pmf": [1.0 / horizon] * horizon, "floor": 0.001},
            }
        ],
        "solver": {"caps": [0.0] * horizon},
    }


def test_probe_floor_fits_long_days(tmp_path, capsys, monkeypatch):
    # the probe draws its profiles at floor 0.02 while 0.02 * T <= 1 (T =
    # 50 here) and at 1/(2T) beyond: on 60 slots 0.02 exceeds 1/T, which
    # every deadline law refuses
    path = tmp_path / "long-day.json"
    path.write_text(emit(_long_day_config(60)))
    assert main(["payments", str(path)]) == 0
    assert "recommended miss fine" in capsys.readouterr().err
    drawn = []
    real = simulate.random_floored_pmf
    monkeypatch.setattr(simulate, "random_floored_pmf", lambda *a: drawn.append(a[2]) or real(*a))
    for horizon, floor in ((50, 0.02), (60, 1.0 / 120)):
        s = load_setup(_long_day_config(horizon))
        drawn.clear()
        fine = resolve_j_m("auto", s.params, s.solver, s.market, s.specs)
        assert drawn == [floor] * simulate.J_M_PROBE_TRIALS
        assert math.isfinite(fine) and fine > 0.0


def test_overflowing_fine_fails_before_the_first_day(monkeypatch):
    # 6.0**400 overflows a float: the fine schedule is refused by name
    # before any deadline is drawn, and finite fines keep their floats
    s = load_setup(preset_config("theorem1"))
    fixed = (BiddingStrategy(s.params[0], Fixed(1)),)
    schedule = PenaltySchedule(1.0, 400.0)
    assert schedule.penalty(5) == 5.0**400
    drawn = []
    monkeypatch.setattr(simulate, "draw_deadlines", lambda *a: drawn.append(a))
    with pytest.raises(FineOverflow, match="coefficient 1.0, exponent 400.0 .* day 50"):
        run_horizon(s.market, s.specs, s.params, fixed, 50, 0, None, schedule, s.solver, 1.0)
    assert drawn == []
    with pytest.raises(FineOverflow, match="day 6"):
        schedule.penalty(6)


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_horizon_too_long_for_memory_fails_before_the_day_ahead(monkeypatch, capsys):
    # 10^10 theorem1 days would need about 75 GiB for their deadlines
    # alone: the horizon is refused by name before any solve or draw
    def no_solve(*args):
        raise AssertionError("the horizon must be refused before the day-ahead solve")

    monkeypatch.setattr(simulate, "day_ahead", no_solve)
    s = load_setup(preset_config("theorem1"))
    days = 10**10

    def run():
        with pytest.raises(simulate.HorizonTooLong, match=f"{days} days of 1 EVs on 2 slots"):
            run_horizon(s.market, s.specs, s.params, s.strategies, days, 0)

    assert _traced_peak(run) < 64 * 1024
    assert main(["simulate", "theorem1", "--days", str(days)]) == 2
    assert "bytes of ledger and trace" in capsys.readouterr().err
    # the longest horizon within the budget passes the check and reaches the solve
    fits = simulate.BATCH_BYTE_BUDGET // simulate._day_bytes(1, 2)
    with pytest.raises(AssertionError, match="refused before the day-ahead"):
        run_horizon(s.market, s.specs, s.params, s.strategies, fits, 0)


@pytest.mark.parametrize("preset", ["theorem1", "table1:n=2", "table1:n=4"])
def test_a_day_of_ledger_and_trace_fits_its_byte_count(preset):
    # a window event every day makes every EV row its own string: the
    # traced peak of the run and its trace grows by at most _day_bytes a day
    s = load_setup(preset_config(preset))
    strategies = [BiddingStrategy(p, Fixed(1)) for p in s.params]

    def peak(days):
        def run():
            run_horizon(
                s.market, s.specs, s.params, strategies, days, 0,
                s.window_schedule, s.penalty_schedule, s.solver, 100.0,
            ).to_csv()

        return _traced_peak(run)

    per_day = (peak(6000) - peak(2000)) / 4000
    assert 0 < per_day <= simulate._day_bytes(len(s.specs), s.market.horizon)


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
    # per-row ledger conservation
    assert res.payment_days[0, 0] == pytest.approx(
        res.p_da[0] + res.charge_gap_days[0, 0] - res.penalty_days[0, 0], abs=1e-12
    )
    k = res.profile_days[0]
    assert res.profiles[k, 0] == res.true_days[0, 0]  # truthful rule
    csv = res.to_csv()
    lines = csv.strip().split("\n")
    assert lines[2].split(",")[5] in ("1;1", "1;0")  # the EV row's storage
    assert lines[0].startswith("day,row,ev,true_delta,reported,storage")
    assert len(lines) == 3
    assert [line.split(",")[:2] for line in lines[1:]] == [["1", "system"], ["1", "ev"]]
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
    assert int(res.event_days[0].sum()) == 0
    assert int(res.missed_days[0].sum()) == 0
    gaps = res.charge_gap_days[0]
    band = 3.0 * float(np.std(gaps, ddof=1)) / math.sqrt(days)
    assert abs(float(gaps.mean())) <= band
    beta_band = 3.0 * float(np.std(res.beta_days, ddof=1)) / math.sqrt(days)
    assert abs(float(res.beta_days.mean()) - 1.9) <= beta_band
    assert sum(res.utility_days[0].tolist()) / days >= -1e-9


def test_fixed_rule_trips_the_window_daily():
    # reporting slot 1 every day pins the frequency gap at 0.81, inside
    # r(1) but outside r(2) and everything after
    s = example1_setup()
    strategies = (BiddingStrategy(s.params[0], Fixed(1)),)
    res = run_horizon(
        s.market, s.specs, s.params, strategies, 6, 0,
        s.window_schedule, s.penalty_schedule, s.solver, s.j_m,
    )
    assert int(res.event_days[0].sum()) == 5
    assert int(res.missed_days[0].sum()) == 0
    assert res.event_days[0].tolist() == [False, True, True, True, True, True]


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


# sha256 of to_csv() and of to_json(diagnostics) for theorem1 over its
# 5,000 days at its seed 0, recorded before the histogram-matching report
# kept its counts as Python ints and before window-event rows were
# written from cached per-pattern fields.  Fixed(1) trips the window on
# 4,999 days; the two histogram matchers steer every report (two slots
# leave them no day without a safe report, so no window event)
FROZEN_5K_SHA256 = {
    "fixed_1": (
        {"rule": {"kind": "fixed", "slot": 1}},
        "d65e644a8dcb4a403f9b08f8c680ff7a78e91ff5ae05dffed1b7f56e8de67300",
        "578537eb3d67b6f1cea7ec041c3783923835a05801609d203260a9ee9d7a4657",
    ),
    "histogram_match_bid_1_0": (
        {"bid_pmf": [1.0, 0.0], "rule": {"kind": "histogram_match"}},
        "88b584c98ccd820e20aaa02cecf214012554c160c3363e3004e72a04231035ff",
        "edcd64d154d7688009578efc2fc731df351beaccfe99f5c43fb18e14a769bc5a",
    ),
    "histogram_match_bid_019_081": (
        {"bid_pmf": [0.19, 0.81], "rule": {"kind": "histogram_match"}},
        "69bcd6d4b8b938aa1244f119d491b63f9ad236a81d5822ea702c65bdf5c34a31",
        "3893aa49334e4e26a5aa5af61812838bdd1beddf13099b82f78cef79c24d0c4c",
    ),
}


@pytest.mark.parametrize("name", sorted(FROZEN_5K_SHA256))
def test_theorem1_5000_day_bytes_are_frozen(name):
    strategy, csv_sha, diag_sha = FROZEN_5K_SHA256[name]
    cfg = preset_config("theorem1")
    cfg["simulation"]["strategies"] = [strategy]
    s = load_setup(cfg)
    res = run_horizon(
        s.market, s.specs, s.params, s.strategies, s.days, s.seeds[0],
        s.window_schedule, s.penalty_schedule, s.solver, s.j_m,
    )
    assert s.days == 5000
    if name == "fixed_1":
        assert int(res.event_days[0].sum()) == 4999
    got = (
        hashlib.sha256(res.to_csv().encode()).hexdigest(),
        hashlib.sha256(to_json(res.diagnostics).encode()).hexdigest(),
    )
    assert got == (csv_sha, diag_sha)


# A fleet whose storage paths follow the reports: table1 n=3 with seed-7
# floored bids, the last EV on three levels, and stored energy valued at
# 0.03 $/kWh, so EVs do not all fill at once.  Over 300 days at seed 5 the
# truthful reports reach 80 distinct profiles with 16 distinct storage
# paths.  sha256 of to_csv() and of to_json(diagnostics), and float.hex of
# the miss fine, the day-ahead payments and the forward expectation
# (reserve cost, terminal charges, beta), recorded from the per-profile
# scalar rollouts
BID_SENSITIVE_PIN = {
    "csv": "8c2d99c50ce27904f16f9e3dab7b6c0427cb4deef63fe1b2b15284275f9b4c46",
    "diagnostics": "184b4d71508ac6d724471289bc138449d8a8cd431a44a921c455804714418846",
    "j_m": "0x1.318d8dbe29dffp+9",
    "p_da": ["-0x1.76bb910297eb8p-6", "-0x1.3f21b615c0d9cp-4", "0x1.0bb379e4aae1ep-3"],
    "expected": (
        "0x1.4738f32b7552ap+1",
        ["0x1.abeddc035ee68p+2", "0x1.0f9057ae31c95p+3", "0x1.1d4c40a00dddcp+2"],
        "0x1.86119dcaffc60p+2",
    ),
}


def test_bid_sensitive_fleet_bytes_are_frozen():
    rng = np.random.default_rng(7)
    cfg = table1_config(n=3)
    for ev in cfg["evs"]:
        ev["theta"] = {"pmf": list(random_floored_pmf(rng, 5, 0.02)), "floor": 0.02}
    cfg["evs"][-1]["levels"] = [0.0, 5.0, 10.0]
    cfg["units"]["ev_energy_value"] = 0.03
    s = load_setup(cfg)
    res = run_horizon(
        s.market, s.specs, s.params, s.strategies, 300, 5,
        s.window_schedule, s.penalty_schedule, s.solver, s.j_m,
    )
    assert len(res.profiles) == 80 and len(np.unique(res.rolled.storage, axis=0)) == 16
    fwd = expected_outcome(res.solve.model, res.solve.policy)
    got = {
        "csv": hashlib.sha256(res.to_csv().encode()).hexdigest(),
        "diagnostics": hashlib.sha256(to_json(res.diagnostics).encode()).hexdigest(),
        "j_m": res.j_m.hex(),
        "p_da": [p.hex() for p in res.p_da],
        "expected": (
            fwd.reserve_cost.hex(),
            [float(h).hex() for h in fwd.terminal_charge],
            fwd.beta.hex(),
        ),
    }
    assert got == BID_SENSITIVE_PIN


def test_settlement_columns_match_the_per_day_settlement():
    # always reporting slot 2 misses on true-slot-1 days and trips the
    # window on some days but not others
    s = example1_setup()
    strategies = (BiddingStrategy(s.params[0], Fixed(2)),)
    res = run_horizon(
        s.market, s.specs, s.params, strategies, 300, 5,
        s.window_schedule, s.penalty_schedule, s.solver, s.j_m,
    )
    assert 0 < int(res.event_days[0].sum()) < 300 and int(res.missed_days[0].sum()) > 0
    solve = res.solve
    expected = expected_outcome(solve.model, solve.policy).terminal_charge[0]
    record = EmpiricalRecord(2)
    for d, k in enumerate(res.profile_days.tolist()):
        reported = int(res.profiles[k, 0])
        record.update(reported)
        realized = reference.rollout(solve.model, solve.policy, [(reported,)])
        want = settlement(
            d + 1, record, s.params[0], float(expected), float(realized.terminal[0, 0]),
            s.window_schedule, s.penalty_schedule, s.market.ev_energy_value,
        )
        got = (res.charge_gap_days[0, d], res.penalty_days[0, d], bool(res.event_days[0, d]))
        assert got == (want.charge_gap, want.penalty, want.event_triggered)
        assert res.payment_days[0, d] == total_payment(res.p_da[0], want)


def test_only_the_trace_formats_strings(monkeypatch):
    calls = []
    real = simulate._fmt
    monkeypatch.setattr(simulate, "_fmt", lambda x: calls.append(x) or real(x))
    s = load_setup(preset_config("table1:n=2"))
    res = run_horizon(
        s.market, s.specs, s.params, s.strategies, 50, 0,
        s.window_schedule, s.penalty_schedule, s.solver, 100.0,
    )
    assert calls == []
    res.to_csv()
    assert calls


def test_missed_days_are_reports_past_the_true_deadline():
    s = example1_setup()
    strategies = (BiddingStrategy(s.params[0], Fixed(2)),)
    res = run_horizon(
        s.market, s.specs, s.params, strategies, 300, 5,
        s.window_schedule, s.penalty_schedule, s.solver, s.j_m,
    )
    assert res.missed_days.dtype == bool and res.missed_days.any()
    assert (res.missed_days == (res.profiles[res.profile_days].T > res.true_days)).all()


def test_diagnostics_counts_are_the_column_sums():
    # EV 1 always reports slot 1, which trips the window; EV 2
    # histogram-matches an overbid, which misses deadlines
    s = load_setup(preset_config("table1:n=2"))
    strategies = (
        BiddingStrategy(s.params[0], Fixed(1)),
        dict(default_adversary_suite(s.params[1]))["overbid_shift_histmatch"],
    )
    res = run_horizon(
        s.market, s.specs, s.params, strategies, 400, 3,
        s.window_schedule, s.penalty_schedule, s.solver, 100.0,
    )
    for i, ev in enumerate(res.diagnostics["per_ev"]):
        assert ev["penalty_count"] == int(res.event_days[i].sum())
        assert ev["missed_count"] == int(res.missed_days[i].sum())
        assert ev["miss_rate"] == ev["missed_count"] / res.days
    assert res.diagnostics["per_ev"][1]["missed_count"] > 0
    assert res.diagnostics["per_ev"][0]["penalty_count"] > 0


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

    def counted(model, policy, profiles):
        rolled.append(list(map(tuple, profiles.tolist())))
        return real(model, policy, profiles)

    monkeypatch.setattr(mdp, "rollout", counted)
    monkeypatch.setattr(simulate, "rollout", counted)
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
    distinct = {tuple(res.profiles[k].tolist()) for k in res.profile_days.tolist()}
    assert len(distinct) > 1
    # one pass for the nominal path's profile, one for the days' profiles
    nominal = simulate._nominal_reports(tuple(b.day_ahead_bid for b in strategies))
    assert rolled[0] == [nominal]
    assert len(rolled) == 2 and sorted(rolled[1]) == sorted(distinct)


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


def test_run_horizon_rejects_histogram_targets_of_another_horizon(monkeypatch):
    # a 2-slot target on a 5-slot day would be zipped against the first 2
    # slots only; it fails by name before the day-ahead solve
    def no_solve(*args):
        raise AssertionError("validation must come before the day-ahead solve")

    monkeypatch.setattr(simulate, "day_ahead", no_solve)
    t = load_setup(table1_config(n=1))
    rule = HistogramMatch(DeadlineDistribution((0.5, 0.5)))
    strategies = (BiddingStrategy(t.params[0], rule),)
    with pytest.raises(ValueError, match="EV 1: histogram target has 2 slots, the market has 5"):
        run_horizon(t.market, t.specs, t.params, strategies, 50, 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.integers(1, 6), st.integers(1, 60), st.integers(0, 2**32 - 1))
def test_profile_index_is_the_row_unique(n_evs, horizon, days, seed):
    # run_horizon's per-day profile codes give np.unique's sorted rows and
    # inverse, with no EV as well
    reports = np.random.default_rng(seed).integers(1, horizon + 1, (n_evs, days))
    profiles, inverse = np.unique(reports.T, axis=0, return_inverse=True)
    got, got_inverse = simulate._profile_index(reports, horizon)
    assert got.dtype == profiles.dtype and np.array_equal(got, profiles)
    assert np.array_equal(got_inverse, inverse.reshape(days))
