import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storemkt import dispatch, mdp
from storemkt.config import load_setup
from storemkt.costs import MarketModel, asym_lin_quad, linear
from storemkt.deadlines import DeadlineDistribution, make_rng
from storemkt.dispatch import (
    CROSS_CHECK_TOL,
    INF_THRESHOLD,
    GridTooLarge,
    InfeasibleModel,
    SolverConfig,
    _batched_inner_values,
    _greedy_tail,
    _grid_stages,
    _prefix_stages,
    beta_bar,
    brute_force_oracle,
    conditional_beta,
    default_caps,
    estimate_lipschitz_K,
    grid_levels,
    quantize_up,
    solve_outer,
)
from storemkt.mdp import (
    EVSpec,
    MdpModel,
    NoFeasibleContinuation,
    StateSpace,
    enumerated_outcome,
    expected_outcome,
    solve_dp,
)
from storemkt.mechanism import day_ahead
from storemkt.presets import preset_config
from storemkt.scenarios import random_floored_pmf, random_small_instance, random_tiny_instance

# gen rates dotted with demand, in dollars (rates are $/MWh, energies kWh)
TABLE1_BASELINE_DISPATCH_COST = 6.48500773624
TABLE1_NO_EV_Q = 6.71367001309
TABLE1_ONE_EV_Q = -3.1621319869100004
EXAMPLE1_K_HAT = 28.284271247461902


def setup_for(preset: str):
    return load_setup(preset_config(preset))


def test_quantize_up():
    assert quantize_up(0.1, 10.0) == 10.0
    assert quantize_up(10.0, 10.0) == 10.0
    assert quantize_up(73.9188, 10.0) == 80.0
    assert quantize_up(-5.0, 10.0) == 0.0
    assert quantize_up(0.0, 10.0) == 0.0
    # rounding guard: a hair over a multiple stays on it
    assert quantize_up(20.0 + 1e-12, 10.0) == 20.0


def test_default_caps_and_grid_levels():
    s = setup_for("table1:n=1")
    caps = default_caps(s.market, s.specs, 10.0)
    assert caps == (50.0, 50.0, 70.0, 90.0, 70.0)
    levels = grid_levels(s.market, s.specs, SolverConfig(step=10.0))
    assert [len(l) for l in levels] == [6, 6, 8, 10, 8]
    assert levels[0][:3] == [0.0, 10.0, 20.0]


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(step=0.0)
    with pytest.raises(ValueError):
        SolverConfig(mode="annealing")
    with pytest.raises(ValueError):
        SolverConfig(beam_width=0)


def test_beta_bar_frozen_values():
    s = setup_for("example1:p=0.19")
    assert beta_bar(s.params, (1.0, 0.0), s.market, s.specs) == pytest.approx(
        1.9, abs=1e-12
    )
    assert beta_bar(s.params, (0.0, 1.0), s.market, s.specs) == pytest.approx(
        2.0, abs=1e-12
    )
    t = setup_for("table1:n=0")
    assert beta_bar((), t.market.demand, t.market, ()) == pytest.approx(
        TABLE1_BASELINE_DISPATCH_COST, abs=1e-9
    )


def test_threshold_sweep_and_flip():
    for p in (0.05, 0.12, 0.19, 0.2, 0.25, 0.31):
        s = setup_for(f"example1:p={p}")
        res = solve_outer(s.params, s.solver, s.market, s.specs)
        assert res.q_star == pytest.approx(min(2.0, 10.0 * p), abs=1e-9)
        assert res.candidates_evaluated == 2
        # ties go to the lexicographically smaller plan, so the flip
        # lands exactly on p = 0.2
        expected = (1.0, 0.0) if p < 0.2 else (0.0, 1.0)
        assert res.g_star == expected


def test_table1_frozen_solutions():
    t0 = setup_for("table1:n=0")
    r0 = solve_outer(t0.params, t0.solver, t0.market, t0.specs)
    assert r0.q_star == pytest.approx(TABLE1_NO_EV_Q, abs=1e-9)
    assert r0.g_star == (30.0, 30.0, 50.0, 0.0, 50.0)
    t1 = setup_for("table1:n=1")
    r1 = solve_outer(t1.params, t1.solver, t1.market, t1.specs)
    assert r1.q_star == pytest.approx(TABLE1_ONE_EV_Q, abs=1e-9)
    assert r1.g_star == (40.0, 30.0, 50.0, 0.0, 50.0)


def test_q_star_minus():
    s = setup_for("example1:p=0.19")
    da = day_ahead(s.params, s.solver, s.market, s.specs)
    assert da.q_star_minus[0] == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(IndexError):
        da.q_star_minus[1]


def test_grid_too_large_suggests_beam():
    t = setup_for("table1:n=0")
    tight = SolverConfig(step=10.0, max_candidates=100)
    with pytest.raises(GridTooLarge, match="beam"):
        solve_outer(t.params, tight, t.market, t.specs)


def test_beam_matches_exhaustive_when_wide():
    rng = make_rng(47)
    for _ in range(3):
        market, specs, bids, config, _ = random_small_instance(rng)
        exact = solve_outer(bids, config, market, specs)
        wide = SolverConfig(step=10.0, mode="beam", beam_width=1000)
        res = solve_outer(bids, wide, market, specs)
        assert res.q_star == pytest.approx(exact.q_star, abs=1e-9)
        narrow = SolverConfig(step=10.0, mode="beam", beam_width=1)
        res1 = solve_outer(bids, narrow, market, specs)
        assert res1.q_star >= exact.q_star - 1e-9


def test_six_ev_beam_solve_is_cross_checked():
    # a table1-like fleet of 6 identical EVs (4,096 joint states): the beam
    # winner's reference re-solve must finish and agree with the core
    cfg = preset_config("table1")
    cfg["evs"] = [dict(cfg["evs"][0]) for _ in range(6)]
    cfg["solver"]["mode"] = "beam"
    s = load_setup(cfg)
    res = solve_outer(s.params, s.solver, s.market, s.specs)
    assert res.space.n_states == 4**6
    [(batched, _)] = dispatch._price_plans(s.market, res.space, [res.g_star])
    assert abs(batched - res.q_star) <= CROSS_CHECK_TOL
    assert len(res.policy.action(1, res.space.initial)) == 6


def _every_plan_instances():
    rng = make_rng(83)
    cases = [random_small_instance(rng)[:4] for _ in range(8)]
    # an EV that surely leaves by slot 2 makes connected slot-3 states
    # unreachable (zero survival)
    market, specs, bids, config = cases[5]
    early = DeadlineDistribution((0.6, 0.4, 0.0), floor=0.0)
    cases.append((market, specs, (early,) + bids[1:], config))
    # table reserves price most mismatches +inf, so most plans are infeasible
    s = setup_for("example1:p=0.19")
    cases.append((s.market, s.specs, s.params, SolverConfig(step=1.0)))
    return cases


def test_batched_values_match_reference_on_every_plan():
    # the solver's cross-check sees only the winner; here every grid plan,
    # every beam prefix completed by its greedy tail, and an explicit
    # candidate list are priced by the batched kernel and by the scalar
    # reference recursion
    infeasible = 0
    for market, specs, bids, config in _every_plan_instances():
        space = StateSpace(specs, bids)
        levels = grid_levels(market, specs, config)

        def reference(plan):
            try:
                values, _ = solve_dp(MdpModel(market, specs, bids, plan), space)
            except NoFeasibleContinuation:
                return math.inf
            return values.v0()

        def agrees(got, want):
            if want == math.inf:
                return got >= INF_THRESHOLD
            return abs(got - want) <= 1e-9

        plans = list(itertools.product(*levels))
        grid = _batched_inner_values(market, space, _grid_stages(levels))
        assert grid.shape == (len(plans),)
        for plan, got in zip(plans, grid):
            want = reference(plan)
            infeasible += want == math.inf
            assert agrees(got, want), plan
        for depth in range(1, market.horizon + 1):
            prefixes = sorted({plan[:depth] for plan in plans})
            tail = _greedy_tail(market, levels, depth + 1)
            stages, cols = _prefix_stages(prefixes, tail)
            inner = _batched_inner_values(market, space, stages)
            for prefix, col in zip(prefixes, cols):
                assert agrees(inner[col], reference(prefix + tuple(tail))), prefix
        # full-length plans with an empty tail, as solve_outer prices a
        # candidate list: a duplicate shares its column, and an off-grid
        # plan is priced like any other
        off_grid = tuple(g + 0.25 * config.step for g in plans[len(plans) // 2])
        explicit = plans[::7] + [plans[0], off_grid]
        stages, cols = _prefix_stages(explicit, ())
        inner = _batched_inner_values(market, space, stages)
        assert cols[len(explicit) - 2] == cols[0]
        for plan, col in zip(explicit, cols):
            assert agrees(inner[col], reference(plan)), plan
    assert infeasible > 0


@pytest.mark.parametrize(
    "candidates, error, message",
    [
        ((), InfeasibleModel, "every candidate dispatch is infeasible"),
        (((1.0, 0.0), (1.0,)), ValueError, "dispatch length does not match horizon"),
        (((0.0, 1.0), (2.0, -1.0)), ValueError, "dispatch must be nonnegative"),
    ],
)
def test_bad_candidate_lists_raise_named_errors(candidates, error, message):
    s = setup_for("example1:p=0.19")
    config = SolverConfig(step=1.0, candidates=candidates)
    with pytest.raises(error, match=message):
        solve_outer(s.params, config, s.market, s.specs)


NON_DYADIC_MARKET = MarketModel(
    demand=(0.3, 0.8, 0.5),
    generator=linear((20.0, 35.0, 25.0)),
    reserves=asym_lin_quad((30.0, 40.0, 30.0)),
    ev_energy_value=0.03,
)


@st.composite
def non_dyadic_fleets(draw):
    """1-2 EVs of capacity 1 kWh with 3-4 levels on the 0.01 kWh grid,
    none of them a dyadic fraction, plus floored deadline bids."""
    specs, bids = [], []
    for _ in range(draw(st.integers(1, 2))):
        cents = draw(
            st.lists(
                st.integers(1, 99).filter(lambda c: c not in (25, 50, 75)),
                min_size=2,
                max_size=3,
                unique=True,
            )
        )
        specs.append(EVSpec(1.0, (0.0,) + tuple(c / 100 for c in sorted(cents))))
        weights = draw(st.lists(st.integers(1, 10), min_size=3, max_size=3))
        bids.append(DeadlineDistribution(tuple(w / sum(weights) for w in weights)))
    return tuple(specs), tuple(bids)


@settings(max_examples=25, deadline=None)
@given(non_dyadic_fleets(), st.sampled_from(["exhaustive", "beam"]))
def test_non_dyadic_levels_solve(fleet, mode):
    # charges built from float deltas miss such levels by an ulp; they
    # must still resolve to their level index everywhere
    specs, bids = fleet
    market = NON_DYADIC_MARKET
    config = SolverConfig(step=0.5, mode=mode)
    res = solve_outer(bids, config, market, specs)
    space = StateSpace(specs, bids)
    levels = grid_levels(market, specs, config)
    inner = _batched_inner_values(market, space, _grid_stages(levels))
    idx = 0
    for lt, g in zip(levels, res.g_star):
        idx = idx * len(lt) + lt.index(g)
    batched_q = market.generator_cost(res.g_star) + inner[idx]
    assert abs(batched_q - res.q_star) <= CROSS_CHECK_TOL
    model = MdpModel(market, specs, bids, res.g_star)
    fwd = expected_outcome(model, res.policy, space)
    enum = enumerated_outcome(model, res.policy, space)
    assert abs(fwd.beta - enum.beta) <= 1e-9
    assert abs(fwd.beta - res.q_star) <= 1e-9


def test_conditional_beta_toy_values():
    s = setup_for("example1:p=0.19")
    model = MdpModel(s.market, s.specs, s.params, (1.0, 0.0))
    _, policy = solve_dp(model)
    assert conditional_beta(model, policy, 0, 1) == pytest.approx(10.0, abs=1e-12)
    assert conditional_beta(model, policy, 0, 2) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(IndexError):
        conditional_beta(model, policy, 1, 1)
    with pytest.raises(ValueError):
        conditional_beta(model, policy, 0, 3)


def test_conditional_beta_total_expectation():
    # averaging the conditional costs over the bid recovers the
    # unconditional optimum
    rng = make_rng(31)
    for _ in range(4):
        market, specs, bids, config, _ = random_small_instance(rng)
        res = solve_outer(bids, config, market, specs)
        model = MdpModel(market, specs, bids, res.g_star)
        space = StateSpace(specs, bids)
        for i in range(len(specs)):
            total = sum(
                bids[i].pmf[t - 1] * conditional_beta(model, res.policy, i, t, space)
                for t in range(1, market.horizon + 1)
                if bids[i].pmf[t - 1] > 0.0
            )
            assert total == pytest.approx(res.q_star, abs=1e-9)


def test_lipschitz_estimate_frozen_and_monotone():
    s = setup_for("example1:p=0.19")
    k1 = estimate_lipschitz_K([s.params], 1, s.solver, s.market, s.specs)
    assert k1 == pytest.approx(EXAMPLE1_K_HAT, abs=1e-12)

    rng = make_rng(7)
    profiles = [
        tuple(DeadlineDistribution(random_floored_pmf(rng, 2, 0.02), floor=0.02) for _ in s.specs)
        for _ in range(4)
    ]
    a = estimate_lipschitz_K(profiles, 1, s.solver, s.market, s.specs)
    b = estimate_lipschitz_K(profiles, 4, s.solver, s.market, s.specs)
    assert b >= a  # running max over the same profiles
    with pytest.raises(ValueError):
        estimate_lipschitz_K([s.params], 0, s.solver, s.market, s.specs)


def test_probe_rolls_each_profile_once_per_solve(monkeypatch):
    rolled = []
    real = mdp.rollout

    def counted(model, policy, reported, space=None):
        rolled.append(tuple(reported))
        return real(model, policy, reported, space)

    s = setup_for("table1:n=3")
    res = solve_outer(s.params, s.solver, s.market, s.specs)
    # one fresh memo per call is the reference the shared memo must match
    alone = [
        conditional_beta(res.model, res.policy, i, t, res.space)
        for i in range(3)
        for t in range(1, s.market.horizon + 1)
        if s.params[i].pmf[t - 1] > 0.0
    ]
    monkeypatch.setattr(mdp, "rollout", counted)
    k_hat = estimate_lipschitz_K([s.params], 1, s.solver, s.market, s.specs)
    support = math.prod(sum(p > 0.0 for p in law.pmf) for law in s.params)
    assert len(rolled) == len(set(rolled)) == support
    outcomes = mdp.ProfileOutcomes(res.model, res.policy, res.space)
    shared = [
        conditional_beta(res.model, res.policy, i, t, outcomes=outcomes)
        for i in range(3)
        for t in range(1, s.market.horizon + 1)
        if s.params[i].pmf[t - 1] > 0.0
    ]
    assert shared == alone  # bit-identical, not approximately
    assert k_hat > 0.0


def test_explicit_winner_is_cross_checked(monkeypatch):
    # a candidate list's winner faces the same reference re-solve as grid
    # and beam winners
    s = setup_for("example1:p=0.19")
    batched = dispatch._batched_inner_values
    monkeypatch.setattr(dispatch, "_batched_inner_values", lambda *a: batched(*a) + 1e-3)
    with pytest.raises(RuntimeError, match="disagree"):
        solve_outer(s.params, s.solver, s.market, s.specs)


def test_infeasible_when_every_candidate_fails():
    s = setup_for("example1:p=0.19")
    # without the EV, generating early strands a unit the reserve table
    # cannot absorb
    only_bad = SolverConfig(step=1.0, candidates=((1.0, 0.0),))
    with pytest.raises(InfeasibleModel):
        solve_outer((), only_bad, s.market, ())


def test_oracle_threshold_sweep():
    grid = ((1.0, 0.0), (0.0, 1.0))
    for p in (0.05, 0.19, 0.2, 0.31):
        s = setup_for(f"example1:p={p}")
        got = brute_force_oracle(s.params, s.market, s.specs, grid)
        assert got == pytest.approx(min(2.0, 10.0 * p), abs=1e-9)


def test_oracle_agrees_with_solver_on_random_instances():
    rng = make_rng(17)
    for _ in range(5):
        bids, market, specs, grid = random_tiny_instance(rng)
        res = solve_outer(bids, SolverConfig(step=10.0, candidates=grid), market, specs)
        got = brute_force_oracle(bids, market, specs, grid)
        assert abs(res.q_star - got) <= 1e-9


def test_oracle_rejects_oversized_instances():
    s = setup_for("table1:n=1")
    with pytest.raises(ValueError, match="too large"):
        brute_force_oracle(s.params, s.market, s.specs, ((0.0,) * 5,))


def test_extra_storage_never_hurts():
    # an idle EV is always available, so enlarging the fleet cannot raise
    # the optimum
    rng = make_rng(61)
    checked = 0
    while checked < 4:
        market, specs, bids, config, _ = random_small_instance(rng)
        full = solve_outer(bids, config, market, specs).q_star
        fewer = solve_outer(bids[:-1], config, market, specs[:-1]).q_star
        assert full <= fewer + 1e-9
        checked += 1


def test_two_stage_consistency():
    rng = make_rng(73)
    for _ in range(3):
        market, specs, bids, config, _ = random_small_instance(rng)
        res = solve_outer(bids, config, market, specs)
        again = beta_bar(bids, res.g_star, market, specs)
        assert again == pytest.approx(res.q_star, abs=1e-9)
        assert math.isfinite(res.q_star)


def test_solve_result_export_shape():
    s = setup_for("example1:p=0.19")
    res = solve_outer(s.params, s.solver, s.market, s.specs)
    payload = res.to_jsonable()
    assert payload["g_star"] == [1.0, 0.0]
    assert payload["q_star"] == pytest.approx(1.9)
    assert payload["candidates_evaluated"] == 2
    assert "values" in payload and "policy" in payload


def _arrays(obj):
    """Every ndarray reachable from ``obj`` through lists, tuples and dicts."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            yield from _arrays(x)
    elif isinstance(obj, dict):
        for x in obj.values():
            yield from _arrays(x)


def test_solve_result_carries_its_model_and_space():
    s = setup_for("table1:n=2")
    res = solve_outer(s.params, s.solver, s.market, s.specs)
    assert res.model.dispatch == res.g_star
    assert res.model.specs == tuple(s.specs) and res.model.params == tuple(s.params)
    assert res.space.specs == tuple(s.specs) and res.space.params == tuple(s.params)
    rebuilt = expected_outcome(
        MdpModel(s.market, s.specs, s.params, res.g_star), res.policy, StateSpace(s.specs, s.params)
    )
    kept = expected_outcome(res.model, res.policy, res.space)
    assert kept.reserve_cost == rebuilt.reserve_cost
    assert np.array_equal(kept.terminal_charge, rebuilt.terminal_charge)
    # the batched pass ran on this space (n_states x plans values), but the
    # space keeps only per-state tables: nothing scales with the plan count
    assert res.candidates_evaluated > 1000
    bound = res.space.n_states * len(s.specs)
    assert max(a.size for a in _arrays(vars(res.space))) <= bound
