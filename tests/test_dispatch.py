import dataclasses
import functools
import hashlib
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storemkt import cli, costs, dispatch, experiments, mdp
from storemkt.config import load_setup
from storemkt.costs import MarketModel, asym_lin_quad, linear
from storemkt.deadlines import DeadlineDistribution, make_rng
from storemkt.dispatch import (
    CROSS_CHECK_TOL,
    INF_PROXY,
    INF_THRESHOLD,
    LUMP_TIE_TOL,
    BatchTooLarge,
    GridTooLarge,
    InfeasibleModel,
    SolverConfig,
    _CostTables,
    _batched_inner_values,
    _greedy_tail,
    _prefix_stages,
    _price_grid,
    _price_plans,
    _solve_beam,
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
    CountSpace,
    EVSpec,
    MarkovPolicy,
    MdpModel,
    NoFeasibleContinuation,
    StateSpace,
    expected_outcome,
    solve_dp,
)
from storemkt.mechanism import day_ahead
from storemkt.presets import preset_config, table1_config
from storemkt.scenarios import random_floored_pmf, random_small_instance, random_tiny_instance
from storemkt.simulate import J_M_PROBE_SEED, J_M_PROBE_TRIALS

import reference
from reference import enumerated_outcome

# gen rates dotted with demand, in dollars (rates are $/MWh, energies kWh)
TABLE1_BASELINE_DISPATCH_COST = 6.48500773624
TABLE1_NO_EV_Q = 6.71367001309
TABLE1_ONE_EV_Q = -3.1621319869100004
EXAMPLE1_K_HAT = 28.284271247461902


def setup_for(preset: str):
    return load_setup(preset_config(preset))


def _grid_stages(levels):
    """The unpruned exhaustive grid: every level of every slot ahead of
    every tail, in lexicographic product order."""
    stages, width = [], 1
    for lt in reversed(levels):
        stages.insert(0, (np.repeat(np.arange(len(lt)), width), np.tile(np.arange(width), len(lt))))
        width *= len(lt)
    return stages


def _grid_values(market, space, levels):
    """The inner value of every grid plan, lexicographic order, from the
    unpruned batched pass."""
    tables = _CostTables(market, space, levels)
    return _batched_inner_values(market, space, tables, _grid_stages(levels))


def _plan(levels, row):
    """The dispatch plan a row of level indices stands for."""
    return tuple(lt[k] for lt, k in zip(levels, row))


def _flat(levels, rows):
    """Each row's index in the grid's lexicographic order."""
    return np.ravel_multi_index(rows.T, [len(lt) for lt in levels])


def _unflat(levels, k):
    """The plan at index ``k`` of the grid's lexicographic order."""
    return _plan(levels, np.unravel_index(k, [len(lt) for lt in levels]))


def _grid_gen_costs(market, levels):
    """Dispatch cost of every grid plan, lexicographic order, summed from
    slot 1 on as the exhaustive pass sums it."""
    acc = np.zeros(1)
    for slot, lt in enumerate(levels, 1):
        per = np.array([min(market.generator.cost(slot, g), INF_PROXY) for g in lt])
        acc = (acc[:, None] + per[None, :]).reshape(-1)
    return acc


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
    assert res.policy.space.n_states == 4**6
    # beam prices with every EV its own class, on the reference's joint ids
    assert res.pricing.n_states == 4**6
    batched, _ = dispatch._price_candidates(s.market, res.pricing, [res.g_star])
    assert abs(batched - res.q_star) <= CROSS_CHECK_TOL
    assert len(reference.action(res.policy, 1, res.policy.space.initial)) == 6


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
                model = MdpModel(market, specs, bids, plan)
                values, _ = solve_dp(model, StateSpace(specs, bids))
            except NoFeasibleContinuation:
                return math.inf
            return values.v0()

        def agrees(got, want):
            if want == math.inf:
                return got >= INF_THRESHOLD
            return abs(got - want) <= 1e-9

        plans = list(itertools.product(*levels))
        tables = _CostTables(market, space, levels)
        grid = _batched_inner_values(market, space, tables, _grid_stages(levels))
        assert grid.shape == (len(plans),)
        for plan, got in zip(plans, grid):
            want = reference(plan)
            infeasible += want == math.inf
            assert agrees(got, want), plan
        rows = np.array(list(itertools.product(*(range(len(lt)) for lt in levels))))
        for depth in range(1, market.horizon + 1):
            prefixes = np.unique(rows[:, :depth], axis=0)
            tail = _greedy_tail(tables, depth + 1)
            stages, cols = _prefix_stages(prefixes, tail)
            inner = _batched_inner_values(market, space, tables, stages)
            for prefix, col in zip(prefixes, cols):
                plan = _plan(levels, prefix.tolist() + tail)
                assert agrees(inner[col], reference(plan)), plan
        # full-length plans with an empty tail, as solve_outer prices a
        # candidate list, on tables over their own levels: a duplicate
        # shares its column, and an off-grid plan is priced like any other
        off_grid = tuple(g + 0.25 * config.step for g in plans[len(plans) // 2])
        explicit = plans[::7] + [plans[0], off_grid]
        own = [sorted(set(column)) for column in zip(*explicit)]
        rows = np.column_stack([np.searchsorted(lt, c) for lt, c in zip(own, zip(*explicit))])
        stages, cols = _prefix_stages(rows, ())
        inner = _batched_inner_values(market, space, _CostTables(market, space, own), stages)
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
    inner = _grid_values(market, space, levels)
    idx = 0
    for lt, g in zip(levels, res.g_star):
        idx = idx * len(lt) + lt.index(g)
    batched_q = market.generator_cost(res.g_star) + inner[idx]
    assert abs(batched_q - res.q_star) <= CROSS_CHECK_TOL
    model = MdpModel(market, specs, bids, res.g_star)
    fwd = expected_outcome(model, res.policy)
    enum = enumerated_outcome(model, res.policy)
    assert abs(fwd.beta - enum.beta) <= 1e-9
    assert abs(fwd.beta - res.q_star) <= 1e-9


def test_conditional_beta_toy_values():
    s = setup_for("example1:p=0.19")
    model = MdpModel(s.market, s.specs, s.params, (1.0, 0.0))
    _, policy = solve_dp(model, StateSpace(model.specs, model.params))
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
        for i in range(len(specs)):
            total = sum(
                bids[i].pmf[t - 1] * conditional_beta(model, res.policy, i, t)
                for t in range(1, market.horizon + 1)
                if bids[i].pmf[t - 1] > 0.0
            )
            assert total == pytest.approx(res.q_star, abs=1e-9)


def test_profile_enumeration_guard_fires_before_any_rollout(monkeypatch, capsys):
    # conditional_beta enumerates the other EVs' supports (5 profiles here),
    # estimate_lipschitz_K every EV's (25); both go through
    # _conditional_costs, whose count guard fires before any rollout
    s = setup_for("table1:n=2")
    res = solve_outer(s.params, s.solver, s.market, s.specs)
    rolled = []
    real = mdp.rollout
    monkeypatch.setattr(dispatch, "rollout", lambda *a: rolled.append(len(a[2])) or real(*a))
    monkeypatch.setattr(dispatch, "ENUMERATION_GUARD", 4)
    with pytest.raises(mdp.RolloutBatchTooLarge, match="25 report profiles"):
        estimate_lipschitz_K([res])
    with pytest.raises(mdp.RolloutBatchTooLarge, match="5 report profiles"):
        conditional_beta(res.model, res.policy, 0, 1)
    assert rolled == []
    # at the guard itself the conditional enumeration runs
    monkeypatch.setattr(dispatch, "ENUMERATION_GUARD", 5)
    conditional_beta(res.model, res.policy, 0, 1)
    assert rolled == [5]
    with pytest.raises(mdp.RolloutBatchTooLarge, match="25 report profiles"):
        estimate_lipschitz_K([res])
    assert rolled == [5]
    # the payments command's j_m probe fails by name, exit 2
    monkeypatch.setattr(dispatch, "ENUMERATION_GUARD", 24)
    assert cli.main(["payments", "table1:n=2"]) == 2
    assert "25 report profiles (limit 24)" in capsys.readouterr().err
    assert rolled == [5]


def test_lipschitz_estimate_frozen_and_monotone(monkeypatch):
    s = setup_for("example1:p=0.19")

    def solve(bids):
        return solve_outer(bids, s.solver, s.market, s.specs)

    k1 = estimate_lipschitz_K([solve(s.params)])
    assert k1 == pytest.approx(EXAMPLE1_K_HAT, abs=1e-12)

    rng = make_rng(7)
    profiles = [
        tuple(DeadlineDistribution(random_floored_pmf(rng, 2, 0.02), floor=0.02) for _ in s.specs)
        for _ in range(4)
    ]
    solves = [solve(p) for p in profiles]
    # it prices the solves it is given and solves nothing itself
    monkeypatch.setattr(dispatch, "solve_outer", None)
    # the max over the solves, so it grows as solves are added
    each = [estimate_lipschitz_K([res]) for res in solves]
    assert estimate_lipschitz_K(solves) == max(each)
    with pytest.raises(ValueError, match="at least one solve"):
        estimate_lipschitz_K([])


def _scalar_conditional_costs(res):
    """The reference ``conditional_beta`` per EV and support slot: one
    scalar ``reference.rollout`` per report profile."""
    params = res.model.params
    return [
        [reference.conditional_beta(res.model, res.policy, i, t)
         for t in range(1, res.model.horizon + 1) if params[i].pmf[t - 1] > 0.0]
        for i in range(len(params))
    ]


def test_probe_rolls_each_profile_once_per_solve(monkeypatch):
    s = setup_for("table1:n=3")
    rng = make_rng(J_M_PROBE_SEED)
    profiles = [tuple(s.params)] + [
        tuple(DeadlineDistribution(random_floored_pmf(rng, 5, 0.02), floor=0.02) for _ in s.specs)
        for _ in range(2)
    ]
    solves = [solve_outer(bids, s.solver, s.market, s.specs) for bids in profiles]
    # the reference: a fresh scalar conditional_beta per cost
    want = [_scalar_conditional_costs(res) for res in solves]
    passes, got = [], []
    batched, conditional = mdp.rollout, dispatch._conditional_costs

    def counted_pass(model, policy, reported):
        passes.append((model.params, len(reported)))
        return batched(model, policy, reported)

    def kept_costs(model, policy, supports=None):
        got.append(conditional(model, policy, supports))
        return got[-1]

    monkeypatch.setattr(dispatch, "rollout", counted_pass)
    monkeypatch.setattr(dispatch, "_conditional_costs", kept_costs)
    k_hat = estimate_lipschitz_K(solves)
    # one batched pass per solve, over every profile of the support
    assert passes == [(tuple(bids), 5**3) for bids in profiles]
    assert got == want  # bit-identical, not approximately
    norm = 2.0 * math.sqrt(s.market.horizon)
    assert k_hat == max(norm * float(np.linalg.norm(np.array(v))) for w in want for v in w)


def _assert_batched_costs_are_scalar(res):
    # every profile of the support, the one batched pass against the scalar
    # loop, then the conditional costs read from it against the reference's
    horizon = res.model.horizon
    supports = [
        tuple(t for t in range(1, horizon + 1) if law.pmf[t - 1] > 0.0) for law in res.model.params
    ]
    profiles = list(itertools.product(*supports))
    got = mdp.rollout(res.model, res.policy, np.array(profiles))
    want = reference.rollout(res.model, res.policy, profiles)
    for name in ("storage", "mismatch", "reserve_cost", "terminal"):
        assert getattr(got, name).tolist() == getattr(want, name).tolist()  # every entry ==
    assert dispatch._conditional_costs(res.model, res.policy) == _scalar_conditional_costs(res)
    i = len(supports) - 1
    assert [conditional_beta(res.model, res.policy, i, t) for t in supports[i]] == [
        reference.conditional_beta(res.model, res.policy, i, t) for t in supports[i]
    ]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.integers(1, 99), st.integers(1, 99)), max_size=3),
)
def test_batched_costs_equal_the_scalar_rollouts(seed, tenths):
    # levels on a 0.1 kWh grid make charge sums round, so the order of
    # every addition shows; without tenths the instance keeps its EVs
    rng = make_rng(seed)
    market, specs, bids, config, _ = random_small_instance(rng)
    if tenths:
        specs = tuple(EVSpec(10.0, tuple(sorted({0.0, a / 10, b / 10}))) for a, b in tenths)
        bids = tuple(
            DeadlineDistribution(random_floored_pmf(rng, market.horizon, 0.02), floor=0.02)
            for _ in specs
        )
    res = solve_outer(bids, config, market, specs)
    _assert_batched_costs_are_scalar(res)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_batched_costs_on_table1_profile_e(n):
    # profile E's bids put zero mass on slots 1..4, which the support skips
    s = setup_for(f"table1:n={n},profile=E")
    assert any(p == 0.0 for law in s.params for p in law.pmf)
    _assert_batched_costs_are_scalar(solve_outer(s.params, s.solver, s.market, s.specs))


def test_batched_rollout_skips_zero_probability_slots():
    # EV 1 bids no mass past slot 2, so its connected states have zero
    # survival from slot 3 on and the policy has no action there: a
    # profile in which it reports slot 3 reaches such a state
    s = setup_for("table1:n=2")
    bids = (DeadlineDistribution((0.5, 0.5, 0.0, 0.0, 0.0), floor=0.0), s.params[1])
    res = solve_outer(bids, s.solver, s.market, s.specs)
    assert (res.policy.posts[2:] < 0).any()
    with pytest.raises(mdp.UnreachableStateError, match="no action"):
        reference.rollout(res.model, res.policy, [(3, 1)])
    with pytest.raises(mdp.UnreachableStateError, match="no action for slot 3"):
        mdp.rollout(res.model, res.policy, np.array([(1, 1), (3, 1)]))
    # the conditional costs roll out the support only
    _assert_batched_costs_are_scalar(res)
    # under beliefs that do put mass there, they fail by name as well
    model = MdpModel(s.market, s.specs, s.params, res.g_star)
    with pytest.raises(mdp.UnreachableStateError, match="no action for slot 3"):
        dispatch._conditional_costs(model, res.policy)


def _traced_peak(run):
    """``run()``'s result and the peak bytes tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        out = run()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _rollout_bytes(n_evs, horizon):
    # per profile: the pass's working arrays, then the storage and
    # mismatch it returns
    return (
        mdp.ROLLOUT_EV_BYTES * n_evs + 8 * (horizon + 1) + mdp.ROLLOUT_BYTES
        + 8 * n_evs * horizon + 8 * horizon
    )


def _probe_bytes(n_evs, horizon):
    # per profile of a conditional-costs pass: its rollout, then the
    # pass's own profile, id, weight, term and mask arrays
    return _rollout_bytes(n_evs, horizon) + dispatch.PROBE_EV_BYTES * n_evs + dispatch.PROBE_BYTES


def test_oversized_batched_rollout_fails_before_it_allocates(monkeypatch):
    s = setup_for("table1:n=4")
    res = solve_outer(s.params, s.solver, s.market, s.specs)
    count, n, horizon = 5**4, 4, s.market.horizon
    need = count * _rollout_bytes(n, horizon)
    one_pass = dispatch._conditional_costs(res.model, res.policy)
    sizes = []
    real = mdp.rollout
    monkeypatch.setattr(dispatch, "rollout", lambda *a: sizes.append(len(a[2])) or real(*a))
    monkeypatch.setattr(mdp, "BATCH_BYTE_BUDGET", need - 1)
    # a caller's profile array is refused before the pass allocates: less
    # was allocated than the profiles' (count, n_evs) charge array alone
    profiles = np.array(list(itertools.product(range(1, horizon + 1), repeat=n)))
    tracemalloc.start()
    try:
        with pytest.raises(mdp.RolloutBatchTooLarge, match=f"{count} report profiles .* {need} bytes"):
            real(res.model, res.policy, profiles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * count * n
    # the probe's support profiles need not fit one pass: they run in two,
    # to the one-pass bits
    probe_need = count * _probe_bytes(n, horizon)
    monkeypatch.setattr(mdp, "BATCH_BYTE_BUDGET", probe_need - 1)
    assert dispatch._conditional_costs(res.model, res.policy) == one_pass
    assert sizes == [count - 1, 1]
    # at the budget the pass runs, within its estimate, and so does the
    # probe's one pass with the support profiles it builds
    for budget, run in (
        (need, lambda: real(res.model, res.policy, profiles)),
        (probe_need, lambda: dispatch._conditional_costs(res.model, res.policy)),
    ):
        monkeypatch.setattr(mdp, "BATCH_BYTE_BUDGET", budget)
        peak = _traced_peak(run)[1]
        assert 8 * count * n < peak <= budget
    assert sizes == [count - 1, 1, count]


def test_probe_rolls_out_in_passes_that_fit(monkeypatch):
    # budgets below the 5**n support profiles of n table1 EVs split the
    # probe into passes; the terms still add in product order, so every
    # float is the one-pass float, and the peak follows the pass, not the
    # product.  Four EVs are table1 n=4; five identical EVs are CI's probe
    # run, which table1_config does not reach
    five = table1_config(n=1)
    five["evs"] = five["evs"] * 5
    real = mdp.rollout
    for s in (setup_for("table1:n=4"), load_setup(five)):
        monkeypatch.undo()
        res = solve_outer(s.params, s.solver, s.market, s.specs)
        n = len(s.specs)
        count, per_profile = 5**n, _probe_bytes(n, s.market.horizon)
        one_pass, one_peak = _traced_peak(
            lambda: dispatch._conditional_costs(res.model, res.policy)
        )
        k_hat = estimate_lipschitz_K([res])
        sizes = []
        monkeypatch.setattr(dispatch, "rollout", lambda *a: sizes.append(len(a[2])) or real(*a))
        peaks = {}
        for per_pass in (7, count // 4, count // 2):
            budget = per_pass * per_profile
            monkeypatch.setattr(mdp, "BATCH_BYTE_BUDGET", budget)
            sizes.clear()
            got, peaks[per_pass] = _traced_peak(
                lambda: dispatch._conditional_costs(res.model, res.policy)
            )
            assert got == one_pass  # bit-identical, not approximately
            assert sizes == [per_pass] * (count // per_pass) + [count % per_pass]
            assert estimate_lipschitz_K([res]) == k_hat
        # at 7 profiles a pass's fixed allocations (array headers, the
        # policy step's lists) outweigh its profiles, so the budget itself
        # is checked at a quarter and half the product, where the
        # per-profile bytes dominate
        assert peaks[7] < one_peak / 8
        for per_pass in (count // 4, count // 2):
            assert peaks[per_pass] <= per_pass * per_profile


def test_conditional_beta_rolls_out_in_passes_that_fit(monkeypatch):
    # a byte budget below all of EV 1's conditional profiles splits them
    # into passes that fit; the terms still add in enumeration order, so
    # every float is the one-pass float
    s = setup_for("table1:n=3")
    res = solve_outer(s.params, s.solver, s.market, s.specs)
    want = [conditional_beta(res.model, res.policy, 0, t) for t in (1, 3, 5)]
    sizes = []
    real = mdp.rollout
    monkeypatch.setattr(dispatch, "rollout", lambda *a: sizes.append(len(a[2])) or real(*a))
    monkeypatch.setattr(mdp, "BATCH_BYTE_BUDGET", 7 * _probe_bytes(3, 5))
    got = [conditional_beta(res.model, res.policy, 0, t) for t in (1, 3, 5)]
    assert got == want  # bit-identical, not approximately
    assert sizes == [7, 7, 7, 4] * 3
    assert got[0] == reference.conditional_beta(res.model, res.policy, 0, 1)


def test_dominated_pair_check_reuses_the_shifted_solve(monkeypatch):
    # the Lipschitz estimate prices the check's own two solves, shifted
    # then base: two solves per check, and the same k_hat as fresh solves
    # of the two profiles
    calls, priced = [], []
    real, estimate = dispatch.solve_outer, dispatch.estimate_lipschitz_K

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(dispatch, "solve_outer", counted)
    monkeypatch.setattr(experiments, "solve_outer", counted)
    monkeypatch.setattr(experiments, "estimate_lipschitz_K", lambda r: priced.append(r) or estimate(r))
    rng = make_rng(experiments.PAIR_SEED)
    checks = 0
    while checks < 3:
        calls.clear()
        priced.clear()
        check = experiments.dominated_pair_check(rng)
        if check is None:
            continue
        checks += 1
        assert len(calls) == 2
        [(shifted, base)] = priced
        assert (shifted.q_star, base.q_star) == (check["q_shifted"], check["q_base"])
        fresh = [real(*args) for args in reversed(calls)]
        assert estimate(fresh) == check["k_hat"]  # bit-identical


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
    space = res.policy.space
    assert space.specs == tuple(s.specs) and space.params == tuple(s.params)
    rebuilt = expected_outcome(
        MdpModel(s.market, s.specs, s.params, res.g_star),
        MarkovPolicy(StateSpace(s.specs, s.params), res.policy.posts),
    )
    kept = expected_outcome(res.model, res.policy)
    assert kept.reserve_cost == rebuilt.reserve_cost
    assert np.array_equal(kept.terminal_charge, rebuilt.terminal_charge)
    # the batched pass ran on this space (n_states x plans values), but the
    # space keeps only per-state tables: nothing scales with the plan count
    assert res.candidates_evaluated > 1000
    bound = space.n_states * len(s.specs)
    assert max(a.size for a in _arrays(vars(space))) <= bound


# ---------------------------------------------------------------------------
# occupancy-count lumping of identical EVs


def _table1_fleet(n: int, profile: str = "A", extra: list[dict] = ()):
    """table1 with n identical EVs (n may pass the preset's cap) plus ``extra``."""
    cfg = preset_config(f"table1:n=1,profile={profile}")
    cfg["evs"] = [dict(cfg["evs"][0]) for _ in range(n)] + list(extra)
    return load_setup(cfg)


def _lumpable_setups():
    for n in (2, 3, 4):
        for profile in "ABCDE":  # E has zero-survival states
            yield _table1_fleet(n, profile)
    yield _table1_fleet(5, "C")
    # one repeated class plus an EV on three levels
    odd = dict(capacity=10.0, levels=[0.0, 5.0, 10.0], theta={"pmf": [0.1, 0.2, 0.3, 0.2, 0.2]})
    yield _table1_fleet(2, "B", [odd])


def test_lumped_prices_match_product_prices_on_every_plan():
    seen = 0
    for s in _lumpable_setups():
        levels = grid_levels(s.market, s.specs, s.solver)
        counts = CountSpace(s.specs, s.params)
        product = StateSpace(s.specs, s.params)
        assert counts.n_states < product.n_states
        lumped = _grid_values(s.market, counts, levels)
        exact = _grid_values(s.market, product, levels)
        infeasible = exact >= INF_THRESHOLD
        assert np.array_equal(lumped >= INF_THRESHOLD, infeasible)
        assert np.abs(lumped - exact)[~infeasible].max() <= 1e-9
        seen += 1
    assert seen == 17


#: sha256 of what the batched pricing returns on ``_pricing_instances``,
#: recorded when unlumped fleets still priced on the product space's own
#: kernel: every exhaustive grid's (flat, q) bytes, every width-8 beam
#: search's (winner, float.hex score, count), and the costs of about 50
#: explicit plans per instance
PRICING_SHA256 = {
    "grid": "e5642fce9fec2b9ce9805cde4842373f723a6d0466bcbe74df832eecc716ac93",
    "beam": "ed0e36c6839f0ee543c5a0f642409286a45f8bd9a7e1bcbadcc579d148584d24",
    "plans": "44132277822a17c931cc3edc356eb6786eeb3b5bd814042f1ba500116faf9692",
}


def _pricing_instances():
    for n in range(5):
        for profile in "ABCDE":
            yield _table1_fleet(n, profile)
    for n in (2, 3, 4, 5):
        yield _mixed_setup(n, 7)
    odd = dict(capacity=10.0, levels=[0.0, 5.0, 10.0], theta={"pmf": [0.1, 0.2, 0.3, 0.2, 0.2]})
    yield _table1_fleet(2, "B", [odd])
    yield setup_for("example1:p=0.19")
    yield setup_for("theorem1")


def test_pricing_bits_are_frozen():
    # the exhaustive grid lumps only fleets with repeats; beam and explicit
    # plans put every EV in its own class
    digests = {key: hashlib.sha256() for key in PRICING_SHA256}
    for s in _pricing_instances():
        specs, bids = tuple(s.specs), tuple(s.params)
        levels = grid_levels(s.market, specs, SolverConfig())
        lumped = len(set(zip(specs, bids))) < len(specs)
        singles = StateSpace(specs, bids)
        pricing = CountSpace(specs, bids) if lumped else singles
        rows, q = _price_grid(s.market, pricing, specs, levels)
        flat = _flat(levels, rows)
        digests["grid"].update(flat.astype(np.int64).tobytes() + q.tobytes())
        row, score, evaluated = _solve_beam(levels, s.market, singles, 8)
        digests["beam"].update(repr((_plan(levels, row), score.hex(), evaluated)).encode())
        size = math.prod(len(lt) for lt in levels)
        picks = np.random.default_rng(0).integers(0, size, 48).tolist() + flat[:8].tolist()
        rows = np.column_stack(np.unravel_index(sorted(set(picks)), [len(lt) for lt in levels]))
        tables = _CostTables(s.market, singles, levels)
        q, order = _price_plans(s.market, singles, tables, rows)
        scored = [(float(q[k]).hex(), _plan(levels, rows[k])) for k in order]
        digests["plans"].update(repr(scored).encode())
    assert {key: h.hexdigest() for key, h in digests.items()} == PRICING_SHA256


def test_count_space_sizes():
    # C(n + 3, 3) states for n identical EVs on two levels
    for n, states in ((2, 10), (3, 20), (4, 35), (5, 56)):
        s = _table1_fleet(n)
        assert CountSpace(s.specs, s.params).n_states == states


def test_singleton_classes_price_like_the_product_space():
    # with no repeated EV every class holds one EV, whose count states are
    # the product space's per-EV ids: lumping changes nothing, and the
    # space has the joint ids and total charges of the reference's space
    rng = make_rng(5)
    for _ in range(4):
        market, specs, bids, config, _ = random_small_instance(rng)
        assert len(set(zip(specs, bids))) == len(specs)
        levels = grid_levels(market, specs, config)
        counts = CountSpace(specs, bids)
        singles = StateSpace(specs, bids)
        assert counts.action_groups is singles.action_groups
        assert np.array_equal(counts.total_charge, singles.total_charge)
        state, post, _ = singles.action_pairs()
        pairs = {(int(s), int(p)) for s, p in zip(state, post)}
        grouped = {(row, q) for _, row, posts in reference.runs(counts.action_groups) for q in posts}
        assert grouped == pairs
        lumped = _grid_values(market, counts, levels)
        unlumped = _grid_values(market, singles, levels)
        assert np.array_equal(lumped, unlumped)


def _product_argmin(s) -> tuple[float, ...]:
    levels = grid_levels(s.market, s.specs, s.solver)
    singles = StateSpace(s.specs, s.params)
    q_flat = _grid_gen_costs(s.market, levels) + _grid_values(s.market, singles, levels)
    return _unflat(levels, int(np.argmin(q_flat)))


def _jittered(amplitude: float):
    """``_price_grid`` with every lumped price moved by +-``amplitude``,
    each plan's sign fixed by its flat index."""
    price = dispatch._price_grid

    def jittered(market, space, specs, levels):
        rows, q = price(market, space, specs, levels)
        if space.n_states < math.prod(2 * len(s.levels) for s in specs):  # lumped
            size = math.prod(len(lt) for lt in levels)
            signs = np.random.default_rng(3).choice([-amplitude, amplitude], size=size)
            q = q + signs[_flat(levels, rows)]
        return rows, q

    return jittered


def test_near_ties_are_settled_on_product_prices(monkeypatch):
    setups = [_table1_fleet(n, p) for n in (2, 3) for p in "ABCDE"]
    want = [_product_argmin(s) for s in setups]
    plain = [solve_outer(s.params, s.solver, s.market, s.specs) for s in setups]
    assert [r.g_star for r in plain] == want

    # lumped prices off by +-1e-12 still pick the product argmin
    monkeypatch.setattr(dispatch, "_price_grid", _jittered(1e-12))
    for s, g in zip(setups, want):
        assert solve_outer(s.params, s.solver, s.market, s.specs).g_star == g

    # lumped prices off by more than the runner-up gap pick the wrong plan
    # somewhere; a tolerance wider than twice the error re-prices every
    # plan that could win on the product space, and the product argmin wins
    jittered = _jittered(5e-3)
    monkeypatch.setattr(dispatch, "_price_grid", jittered)
    monkeypatch.setattr(dispatch, "LUMP_TIE_TOL", 2e-2)
    flipped = 0
    for s, g, base in zip(setups, want, plain):
        levels = grid_levels(s.market, s.specs, s.solver)
        rows, q = jittered(s.market, CountSpace(s.specs, s.params), s.specs, levels)
        flipped += _plan(levels, rows[np.argmin(q)]) != g
        res = solve_outer(s.params, s.solver, s.market, s.specs)
        assert res.g_star == g and res.q_star == base.q_star
    assert flipped > 0


def test_count_space_only_prices_exhaustive_grids_with_repeats(monkeypatch):
    # every solve builds one joint space, the StateSpace its policy keeps,
    # and beam, candidate lists and grids without repeats price on it; only
    # the exhaustive grid of a fleet with repeats also builds a lumped
    # CountSpace, and its near-tie re-pricing builds no further space
    built = []
    init = CountSpace.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(CountSpace, "__init__", spy)
    rng = make_rng(47)
    fleets = []
    while len(fleets) < 3:
        market, specs, bids, config, _ = random_small_instance(rng)
        if len(specs) == len(set(zip(specs, bids))):
            fleets.append((market, specs, bids))
    s = _table1_fleet(3)
    fleets.append((s.market, s.specs, s.params))
    runs = 0
    for market, specs, bids in fleets:
        repeats = len(set(zip(specs, bids))) < len(specs)
        for config in (
            SolverConfig(step=10.0),
            SolverConfig(step=10.0, mode="beam"),
            SolverConfig(step=10.0, candidates=((0.0,) * market.horizon,)),
        ):
            built.clear()
            try:
                res = solve_outer(bids, config, market, specs)
            except InfeasibleModel:
                res = None
            grid = config.mode == "exhaustive" and config.candidates is None
            assert [type(x) for x in built] == [StateSpace] + [CountSpace] * (repeats and grid)
            assert [max(c.m for c, _ in x._classes) for x in built[1:]] == [3] * len(built[1:])
            if res is not None:
                assert res.policy.space is built[0] and res.pricing is built[-1]
            runs += 1
    assert runs == 12
    # lumped prices jittered past a widened tie tolerance: the near-tie
    # plans are re-priced on the policy's space
    monkeypatch.setattr(dispatch, "_price_grid", _jittered(5e-3))
    monkeypatch.setattr(dispatch, "LUMP_TIE_TOL", 2e-2)
    built.clear()
    res = solve_outer(s.params, s.solver, s.market, s.specs)
    assert [type(x) for x in built] == [StateSpace, CountSpace]
    assert res.pricing is res.policy.space is built[0]


def _table1_like_evs(shared: bool, n: int = 7):
    """An n-EV table1-like fleet: one bid for all, or n different ones."""
    cfg = preset_config("table1:n=1")
    ev = cfg["evs"][0]
    pmf = np.array([0.1, 0.2, 0.3, 0.2, 0.2])
    cfg["evs"] = []
    for k in range(n):
        w = 0.0 if shared else k / 10
        theta = {"pmf": list((1 - w) * pmf + w / len(pmf)), "floor": 0.001}
        cfg["evs"].append(dict(ev, theta=theta))
    return load_setup(cfg)


def test_oversized_exhaustive_pass_fails_by_name(monkeypatch):
    # each slot's bytes are bounded from the tails kept so far before the
    # slot allocates; a budget below the largest slot stops the pass there
    s = _table1_like_evs(shared=False, n=4)
    formed, bounds = [], []
    expect, bound = CountSpace.expect, dispatch._layer_bytes

    def spy_expect(space, slot, values):
        formed.append(slot)  # each slot's layer starts from its expectation
        return expect(space, slot, values)

    def spy_bound(*args):
        bounds.append(bound(*args))
        return bounds[-1]

    monkeypatch.setattr(CountSpace, "expect", spy_expect)
    monkeypatch.setattr(dispatch, "_layer_bytes", spy_bound)
    solve_outer(s.params, s.solver, s.market, s.specs)
    assert formed == [5, 4, 3, 2, 1] and len(bounds) == 5
    worst = int(np.argmax(bounds))
    assert dispatch._space_bytes(s.specs) < bounds[worst] - 1
    monkeypatch.setattr(dispatch, "BATCH_BYTE_BUDGET", bounds[worst] - 1)
    formed.clear()
    with pytest.raises(BatchTooLarge, match=f"at slot {5 - worst}.*use beam search"):
        solve_outer(s.params, s.solver, s.market, s.specs)
    assert formed == [5, 4, 3, 2, 1][:worst]  # the slot past the budget never ran
    assert issubclass(BatchTooLarge, GridTooLarge)  # the CLI exit code stays 2


def test_oversized_joint_space_fails_by_name_in_every_mode(monkeypatch):
    def never(*args):
        raise AssertionError("the joint-state tables must not be allocated")

    s = _table1_like_evs(shared=False, n=11)
    assert len(set(s.params)) == 11
    # 4**11 joint states (1.1 GiB of tables by the bound's count),
    # 6**11 (state, action) pairs (27 GiB while they are built) and 8**11
    # listed successors
    assert dispatch._space_bytes(s.specs) == (
        8 * 35 * 4**11 + dispatch.PAIR_BYTES * 6**11 + dispatch.SUCCESSOR_BYTES * 8**11
    )
    monkeypatch.setattr(StateSpace, "__init__", never)
    monkeypatch.setattr(CountSpace, "__init__", never)
    plan = (0.0,) * s.market.horizon
    for config in (
        SolverConfig(step=10.0, mode="beam"),
        SolverConfig(step=10.0),
        SolverConfig(candidates=(plan,)),
    ):
        with pytest.raises(BatchTooLarge, match="11 EVs"):
            solve_outer(s.params, config, s.market, s.specs)


def test_solve_outer_needs_one_bid_per_ev(monkeypatch):
    # checked first, in every mode: no space is built for a missing bid
    def never(*args):
        raise AssertionError("no space may be built")

    s = setup_for("table1:n=2")
    monkeypatch.setattr(CountSpace, "__init__", never)
    plan = (0.0,) * s.market.horizon
    for config in (
        SolverConfig(step=10.0, mode="beam"),
        SolverConfig(step=10.0),
        SolverConfig(candidates=(plan,)),
    ):
        for bids in (s.params[:1], s.params + s.params[:1]):
            with pytest.raises(ValueError, match=f"{len(bids)} bids for 2 EVs"):
                solve_outer(bids, config, s.market, s.specs)


def test_space_byte_bound_holds_on_the_reference_resolve():
    # the estimate checked before any table is built covers what the
    # winner's reference re-solve then holds, its successor tables included
    for s in (_table1_like_evs(shared=False, n=4), _mixed_setup(5, 7), _mixed_setup(6, 7)):
        model = MdpModel(s.market, s.specs, s.params, tuple(s.market.demand))
        tracemalloc.start()
        try:
            solve_dp(model, StateSpace(s.specs, s.params))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < peak <= dispatch._space_bytes(s.specs)


def test_shared_bid_fleet_of_seven_is_admitted(monkeypatch):
    class Admitted(Exception):
        pass

    def reached(market, space, specs, levels):
        assert space.n_states == 120
        raise Admitted

    s = _table1_like_evs(shared=True)
    monkeypatch.setattr(dispatch, "_price_grid", reached)
    with pytest.raises(Admitted):
        solve_outer(s.params, s.solver, s.market, s.specs)


# ---------------------------------------------------------------------------
# dominated dispatch tails dropped by the exhaustive pass


def _mixed_setup(n: int, seed, rates: float | None = None):
    """table1 with n EVs whose bids are seed-drawn floored pmfs, the last
    on levels (0, 5, 10); ``rates`` replaces every generator and reserve
    rate."""
    cfg = preset_config("table1:n=1")
    rng = np.random.default_rng(seed)
    cfg["evs"] = [
        dict(cfg["evs"][0], theta={"pmf": list(random_floored_pmf(rng, 5, 0.02)), "floor": 0.02})
        for _ in range(n)
    ]
    cfg["evs"][-1]["levels"] = [0.0, 5.0, 10.0]
    if rates is not None:
        cfg["generator"]["rates"] = [rates] * cfg["horizon"]
        cfg["reserves"]["rates"] = [rates] * cfg["horizon"]
    return load_setup(cfg)


def _windowed(market, specs, bids, levels, window: float):
    """``market`` with reserves priced only for mismatches within
    +-``window`` kWh: every other mismatch costs +inf, so many rows of the
    pass sit at INF_PROXY."""
    sums = CountSpace(specs, bids).action_groups.sums.tolist()
    slots = []
    for slot, lt in enumerate(levels, 1):
        mismatches = {market.demand[slot - 1] + x - g for x in sums for g in lt}
        slots.append({m: market.reserve_cost_at(slot, m) for m in mismatches if abs(m) <= window})
    return dataclasses.replace(market, reserves=costs.table(slots))


def _pruning_instances():
    """(name, market, specs, bids, levels) on which the pruned pass must
    match the full grid."""
    for n in (2, 3, 4, 5):
        for profile in "ABCDE":
            s = _table1_fleet(n, profile)
            yield f"table1 n={n} {profile}", s.market, s.specs, s.params, grid_levels(
                s.market, s.specs, s.solver
            )
    # the miss-fine probe's random profiles on table1 n=4
    s = setup_for("table1:n=4")
    levels = grid_levels(s.market, s.specs, s.solver)
    rng = make_rng(J_M_PROBE_SEED)
    for k in range(J_M_PROBE_TRIALS):
        bids = tuple(
            DeadlineDistribution(random_floored_pmf(rng, s.market.horizon, 0.02), floor=0.02)
            for _ in s.specs
        )
        yield f"probe profile {k}", s.market, s.specs, bids, levels
    # random small instances, zero-survival states, table reserves
    for k, (market, specs, bids, config) in enumerate(_every_plan_instances()):
        yield f"small {k}", market, specs, bids, grid_levels(market, specs, config)
    # five unlike EVs (1,024 joint states) on a 20 kWh grid, which keeps
    # the full grid's slot-2 layer near 10 MB
    s = _mixed_setup(5, 7)
    yield "mixed n=5", s.market, s.specs, s.params, grid_levels(s.market, s.specs, SolverConfig(20.0))
    # reserves feasible only near demand: rows at INF_PROXY
    s = _mixed_setup(3, 11)
    levels = grid_levels(s.market, s.specs, s.solver)
    yield "windowed", _windowed(s.market, s.specs, s.params, levels, 10.0), s.specs, s.params, levels
    # near ties: identical EVs with rates near 1e-8 jittered by up to half,
    # and the first payments-mixed3 fleet with every rate 1e-9, where no
    # tail dominates
    cfg = preset_config("table1:n=3")
    jitter = np.random.default_rng(5).uniform(1.0, 1.5, size=(2, cfg["horizon"]))
    cfg["generator"]["rates"] = list(1e-8 * jitter[0])
    cfg["reserves"]["rates"] = list(1e-8 * jitter[1])
    s = load_setup(cfg)
    yield "jittered", s.market, s.specs, s.params, grid_levels(s.market, s.specs, s.solver)
    s = _mixed_setup(3, [0, 2, 0], rates=1e-9)
    yield "all ties", s.market, s.specs, s.params, grid_levels(s.market, s.specs, s.solver)


def test_pruned_pass_matches_the_full_grid():
    # the full grid, priced by the unpruned batched pass, is the reference:
    # every kept plan has the same bits, the argmin is the same plan, and
    # so is the set of plans within LUMP_TIE_TOL of it
    kept = {}
    for name, market, specs, bids, levels in _pruning_instances():
        space = CountSpace(specs, bids)
        full = _grid_gen_costs(market, levels) + _grid_values(market, space, levels)
        rows, q = _price_grid(market, space, specs, levels)
        flat = _flat(levels, rows)
        assert np.all(np.diff(flat) > 0), name
        assert np.array_equal(q, full[flat]), name
        best = int(np.argmin(full))
        assert flat[np.argmin(q)] == best, name
        near = np.flatnonzero(full <= full[best] + LUMP_TIE_TOL)
        assert np.array_equal(flat[q <= q.min() + LUMP_TIE_TOL], near), name
        kept[name] = (len(flat), len(full))
    # 45 to 81 of 127,413 plans reach slot 1 on table1 n=4
    assert all(kept[f"table1 n=4 {p}"][0] <= 81 for p in "ABCDE")
    assert kept["windowed"][0] < kept["windowed"][1] // 100
    assert kept["all ties"][0] == kept["all ties"][1]


def test_layer_byte_bound_holds_on_the_pass(monkeypatch):
    # the bound checked before each slot covers what the pass then holds
    bounds = []
    bound = dispatch._layer_bytes
    monkeypatch.setattr(dispatch, "_layer_bytes", lambda *a: bounds.append(bound(*a)) or bounds[-1])
    s = _mixed_setup(3, 11)
    levels = grid_levels(s.market, s.specs, s.solver)
    windowed = _windowed(s.market, s.specs, s.params, levels, 10.0)
    ties = _mixed_setup(3, [0, 2, 0], rates=1e-9)
    table1 = _table1_fleet(4)
    for market, space, specs in (
        (windowed, CountSpace(s.specs, s.params), s.specs),
        (ties.market, CountSpace(ties.specs, ties.params), ties.specs),
        (table1.market, CountSpace(table1.specs, table1.params), table1.specs),
    ):
        space.action_groups, space.initial_groups  # the space's own tables
        bounds.clear()
        tracemalloc.start()
        try:
            _price_grid(market, space, specs, grid_levels(market, specs, SolverConfig()))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < peak <= max(bounds)


@functools.cache
def _kernel_case(i: int):
    """(market, specs, space) for the kernel test: unlike EVs, a lumped
    fleet, reserves that price most mismatches +inf, and no EV at all."""
    if i == 0:
        s = _mixed_setup(2, 7)
        return s.market, s.specs, StateSpace(s.specs, s.params)
    if i == 1:
        s = _table1_fleet(3, "B")
        return s.market, s.specs, CountSpace(s.specs, s.params)
    if i == 2:
        s = _mixed_setup(3, 11)
        levels = grid_levels(s.market, s.specs, s.solver)
        windowed = _windowed(s.market, s.specs, s.params, levels, 10.0)
        return windowed, s.specs, StateSpace(s.specs, s.params)
    s = _table1_fleet(0)
    return s.market, s.specs, CountSpace(s.specs, s.params)


@settings(max_examples=120, deadline=None)
@given(
    case=st.integers(0, 3),
    slot=st.integers(1, 5),
    width=st.integers(1, 9),
    grid=st.booleans(),
    chunk=st.sampled_from([1, 2, 7, 40, 300, dispatch.CHUNK_ELEMS]),
    seed=st.integers(0, 2**32 - 1),
)
def test_min_over_actions_equals_the_reference_loop(case, slot, width, grid, chunk, seed):
    # the broadcast kernel against the reference's add-and-min per (sum,
    # level), on == for every element: small chunks split the columns and
    # the output chunks with ragged edges; beam stages repeat and reorder
    # their sources and interleave their levels
    market, specs, space = _kernel_case(case)
    rng = np.random.default_rng(seed)
    groups = space.action_groups if slot > 1 else space.initial_groups
    n_rows = space.n_states if slot > 1 else 1
    post = rng.integers(-30, 30, (space.n_states, width)).astype(float)  # ties abound
    post[rng.random(space.n_states) < 0.25] = INF_PROXY
    levels = grid_levels(market, specs, SolverConfig())[slot - 1]
    gs = rng.permutation(levels)[: rng.integers(1, len(levels) + 1)].tolist()
    if grid:
        stage = (np.repeat(np.arange(len(gs)), width), np.tile(np.arange(width), len(gs)))
    else:
        n_out = rng.integers(1, 2 * width * len(gs) + 1)
        stage = (rng.integers(0, len(gs), n_out), rng.integers(0, width, n_out))
    with mock.patch.object(dispatch, "CHUNK_ELEMS", chunk):
        costs = dispatch._reserve_table(market, slot, groups.sums, gs)
        got = dispatch._min_over_actions(costs, post.copy(), groups, stage, n_rows)
        want = reference.min_over_actions(market, slot, post.copy(), groups, stage, n_rows, gs)
    assert got.shape == want.shape and (got == want).all()


@functools.cache
def _order_case(i: int):
    """(market, space, levels) for the plan-encoding test: example1 at its
    exact tie, reserves that price most mismatches +inf, and no EV."""
    if i == 0:
        s = setup_for("example1:p=0.2")
        return s.market, StateSpace(s.specs, s.params), grid_levels(s.market, s.specs, s.solver)
    market, specs, space = _kernel_case(i + 1)
    return market, space, grid_levels(market, specs, SolverConfig())


@st.composite
def index_plans(draw):
    """A case of ``_order_case``, rows of level indices of its slots
    1..d drawn from a small pool (so rows repeat), and a tail of level
    indices of slots d+1..T."""
    case = draw(st.integers(0, 2))
    levels = _order_case(case)[2]
    depth = draw(st.integers(1, len(levels)))
    row = st.tuples(*(st.integers(0, len(lt) - 1) for lt in levels[:depth]))
    pool = draw(st.lists(row, min_size=1, max_size=6))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    tail = [draw(st.integers(0, len(lt) - 1)) for lt in levels[depth:]]
    return case, np.array(rows, dtype=np.intp), tail


@settings(max_examples=40, deadline=None)
@given(index_plans())
def test_index_rows_lay_out_and_order_like_their_plans(drawn):
    case, rows, tail = drawn
    stages, cols = _prefix_stages(rows, tail)
    full = [tuple(r) + tuple(tail) for r in rows.tolist()]
    # walking a row's column back through the stages spells the row, then
    # the tail, and ends on the terminal layer's one column
    for plan, col in zip(full, cols.tolist()):
        walked = []
        for level, src in stages:
            walked.append(int(level[col]))
            col = int(src[col])
        assert tuple(walked) == plan and col == 0
    # each stage lists each distinct suffix once, as a distinct pair
    for t, (level, src) in enumerate(stages):
        pairs = set(zip(level.tolist(), src.tolist()))
        assert len(pairs) == len(level) == len({plan[t:] for plan in full})
    # plans sort by cost, then by their rows, as float tuples do
    market, space, levels = _order_case(case)
    q, order = _price_plans(market, space, _CostTables(market, space, levels), rows, tail)
    got = [(q[k], tuple(rows[k].tolist())) for k in order.tolist()]
    assert got == sorted(zip(q.tolist(), map(tuple, rows.tolist())))


def test_explicit_ties_go_to_the_smallest_plan_in_any_order():
    # example1 at p = 0.2 prices (1, 0) and (0, 1) alike, bit for bit;
    # listed out of order, with a repeat and an infeasible plan, the
    # smaller plan still wins
    s = setup_for("example1:p=0.2")
    space = StateSpace(s.specs, s.params)
    assert dispatch._price_candidates(s.market, space, [(1.0, 0.0)])[0] == 2.0
    assert dispatch._price_candidates(s.market, space, [(0.0, 1.0)])[0] == 2.0
    assert dispatch._price_candidates(s.market, space, [(0.0, 2.0)])[0] == math.inf
    tied, infeasible = (0.0, 1.0), (0.0, 2.0)
    for plans in (((1.0, 0.0), infeasible, (1.0, 0.0), tied), (infeasible, (1.0, 0.0), tied)):
        res = solve_outer(s.params, SolverConfig(step=1.0, candidates=plans), s.market, s.specs)
        assert res.g_star == tied and res.q_star == 2.0
        assert res.candidates_evaluated == len(plans)


def _gappy_generator(market, levels):
    """``market`` with its generator as a table that lacks every third
    level of each slot: plans dispatching one cost +inf."""
    gappy = costs.table(
        [
            {g: market.generator.cost(t, g) for k, g in enumerate(lt) if k % 3 != 1}
            for t, lt in enumerate(levels, 1)
        ]
    )
    return dataclasses.replace(market, generator=gappy)


def test_plan_scores_are_dispatch_cost_plus_inner_bit_for_bit(monkeypatch):
    # every _price_plans call, on beam depths, explicit candidates and the
    # near-tie re-pricing of a lumped grid, scores each plan as
    # market.generator_cost(plan + tail) + its inner value, bit for bit,
    # under a linear generator and a table one that lacks some levels; the
    # inner value is priced here by one full pass from the terminal layer,
    # where a beam depth starts from the tail layers its solve formed
    calls = []
    price = dispatch._price_plans

    def spy(market, space, tables, plans, tail=(), *shared):
        scored = price(market, space, tables, plans, tail, *shared)
        calls.append((market, space, tables, plans, list(tail), scored))
        return scored

    monkeypatch.setattr(dispatch, "_price_plans", spy)
    mixed, lumped = _mixed_setup(2, 7), _table1_fleet(3, "C")
    for s in (mixed, lumped):
        levels = grid_levels(s.market, s.specs, s.solver)
        picks = np.random.default_rng(1).choice(math.prod(map(len, levels)), 12, replace=False)
        explicit = SolverConfig(candidates=[_unflat(levels, int(k)) for k in picks])
        for market in (s.market, _gappy_generator(s.market, levels)):
            for config in (SolverConfig(mode="beam"), explicit):
                solve_outer(s.params, config, market, s.specs)
    # lumped prices jittered past a widened tie tolerance: the near-tie
    # plans are re-priced with every EV its own class
    monkeypatch.setattr(dispatch, "_price_grid", _jittered(5e-3))
    monkeypatch.setattr(dispatch, "LUMP_TIE_TOL", 2e-2)
    levels = grid_levels(lumped.market, lumped.specs, lumped.solver)
    for market in (lumped.market, _gappy_generator(lumped.market, levels)):
        n_calls = len(calls)
        solve_outer(lumped.params, lumped.solver, market, lumped.specs)
        assert len(calls) == n_calls + 1 and len(calls[-1][3]) > 1

    infinite = 0
    for market, space, tables, plans, tail, (q, order) in calls:
        stages, cols = _prefix_stages(plans, tail)
        inner = _batched_inner_values(market, space, tables, stages)
        want = []
        for row, col in zip(plans, cols):
            p = _plan(tables.levels, row)
            gen = market.generator_cost(_plan(tables.levels, row.tolist() + tail))
            infinite += gen == math.inf
            want.append((gen + float(inner[col]) if inner[col] < INF_THRESHOLD else math.inf, p))
        want.sort()
        scored = [(float(q[k]).hex(), _plan(tables.levels, plans[k])) for k in order]
        assert scored == [(q.hex(), p) for q, p in want]
    assert infinite > 0


def test_beam_depth_holds_its_values_plus_chunked_temporaries(monkeypatch):
    # each slot of a beam depth's pass holds its value layers and the
    # kernel's chunks, never a broadcast over every column at once
    s = _mixed_setup(5, 7)
    space = StateSpace(s.specs, s.params)
    groups = space.action_groups
    space.initial_groups  # the space's own tables
    n = space.n_states
    # per charge sum a chunk's minima and one output chunk's broadcast sum;
    # the chunk's gathered action values and their per-row minima
    chunked = 8 * (
        (2 * len(groups.sums) + 1) * max(dispatch.CHUNK_ELEMS, n)
        + 2 * max(dispatch.CHUNK_ELEMS, len(groups.posts))
    )
    measured = []
    batched = dispatch._batched_inner_values

    def traced(market, space, tables, stages, *shared):
        widths = [1]  # layer T, then layer t-1 as slot t forms it
        for level, _ in stages[::-1]:
            widths.append(len(level))
        # slot t: layer t with the expectation's temporaries, layer t-1
        # and its column indices
        values = max(
            8 * (2 * n * w_in + (n if t > 1 else 1) * w_out + 8 * w_out)
            for t, w_in, w_out in zip(range(len(stages), 0, -1), widths, widths[1:])
        )
        tracemalloc.start()
        try:
            inner = batched(market, space, tables, stages, *shared)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        measured.append((peak, values + chunked))
        return inner

    monkeypatch.setattr(dispatch, "_batched_inner_values", traced)
    _solve_beam(grid_levels(s.market, s.specs, s.solver), s.market, space, 8)
    assert len(measured) == s.market.horizon
    assert all(0 < peak <= bound for peak, bound in measured), measured


def test_beam_forms_each_tail_layer_once(monkeypatch):
    # a beam solve forms the greedy tail's T-1 layers once, then depth d
    # runs slots d..1 only: (T - 1) + T(T + 1)/2 slot passes, 19 at T = 5
    passes = []
    expect = CountSpace.expect

    def counted(space, slot, values):
        passes.append(slot)
        return expect(space, slot, values)

    monkeypatch.setattr(CountSpace, "expect", counted)
    for s in (_mixed_setup(2, 7), _mixed_setup(3, 11), _table1_fleet(3, "C")):
        passes.clear()
        solve_outer(s.params, SolverConfig(mode="beam"), s.market, s.specs)
        horizon = s.market.horizon
        assert len(passes) == (horizon - 1) + horizon * (horizon + 1) // 2 == 19
        tail = list(range(horizon, 1, -1))
        depths = [slot for d in range(1, horizon + 1) for slot in range(d, 0, -1)]
        assert passes == tail + depths
