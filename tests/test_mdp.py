import gc
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storemkt import mdp
from storemkt.costs import MarketModel, asym_lin_quad, linear, table
from storemkt.deadlines import DeadlineDistribution, make_rng
from storemkt.mdp import (
    CountSpace,
    EVSpec,
    MarkovPolicy,
    MdpModel,
    NoFeasibleContinuation,
    StateSpace,
    UnreachableStateError,
    expected_outcome,
    rollout,
    solve_dp,
    system_cost,
)
from storemkt.dispatch import SolverConfig, solve_outer
from storemkt.scenarios import random_floored_pmf, random_small_instance

import reference
from reference import action, enumerated_outcome, stage_cost, transition_prob

UNIFORM5 = DeadlineDistribution((0.2,) * 5)


def state_id(space, state):
    return next(s for s in range(space.n_states) if space.decode(s) == tuple(state))


def solve(model):
    return solve_dp(model, StateSpace(model.specs, model.params))


def two_slot_market():
    return MarketModel(
        demand=(0.0, 1.0),
        generator=table([{0.0: 0.0, 1.0: 0.0}, {0.0: 0.0, 1.0: 2.0}]),
        reserves=table([{0.0: 0.0}, {0.0: 0.0, 1.0: 11.0}]),
        ev_energy_value=1.0,
    )


def two_slot_model(p: float, dispatch):
    return MdpModel(
        two_slot_market(),
        (EVSpec(1.0, (0.0, 1.0)),),
        (DeadlineDistribution((p, 1.0 - p)),),
        dispatch,
    )


def test_ev_spec_validation():
    EVSpec(10.0, (0.0, 10.0))
    with pytest.raises(ValueError):
        EVSpec(10.0, (10.0, 0.0))
    with pytest.raises(ValueError):
        EVSpec(10.0, (0.0, 20.0))
    with pytest.raises(ValueError):
        EVSpec(10.0, (0.0, 5.0, 5.0))


def test_feasible_actions_order():
    # joint actions as solve_dp enumerates them: state-major, per-EV moves
    # in target index order, so ties keep the smallest target index
    specs = (EVSpec(1.0, (0.0, 1.0)), EVSpec(1.0, (0.0, 1.0)))
    space = StateSpace(specs, (UNIFORM5, UNIFORM5))
    state, post, sigma = space.action_pairs()
    assert np.all(np.diff(state) >= 0)

    def actions(joint_state):
        out = []
        for k in np.flatnonzero(state == state_id(space, joint_state)):
            moved = space.decode(int(post[k]))
            # the post-decision state keeps every connectivity flag
            assert [c for c, _ in moved] == [c for c, _ in joint_state]
            delta = tuple(h2 - h for (_, h), (_, h2) in zip(joint_state, moved))
            assert sigma[k] == sum(delta)
            out.append(delta)
        return out

    assert actions(((True, 0.0), (False, 1.0))) == [(0.0, 0.0), (1.0, 0.0)]
    assert actions(((True, 1.0), (False, 1.0))) == [(-1.0, 0.0), (0.0, 0.0)]
    assert actions(((True, 1.0), (True, 0.0))) == [
        (-1.0, 0.0), (-1.0, 1.0), (0.0, 0.0), (0.0, 1.0)
    ]
    # fully disconnected fleet freezes
    assert actions(((False, 0.0), (False, 1.0))) == [(0.0, 0.0)]


def test_stage_and_terminal_cost():
    m = two_slot_market()
    assert stage_cost(m, 2, 0.0, (0.0,)) == 11.0
    assert stage_cost(m, 2, 1.0, (0.0,)) == 0.0
    assert stage_cost(m, 1, 0.0, (1.0,)) == math.inf
    # the terminal layer credits stored energy at ev_energy_value
    half = EVSpec(1.0, (0.0, 0.5, 1.0))
    bid = DeadlineDistribution((0.5, 0.5))
    model = MdpModel(m, (half, half), (bid, bid), (0.0, 1.0))
    space = StateSpace(model.specs, model.params)
    values, _ = solve_dp(model, space)
    assert values.values[2, state_id(space, ((False, 1.0), (True, 0.5)))] == -1.5


def test_hazard_values_uniform_profile():
    params = (UNIFORM5,)
    connected = ((True, 0.0),)
    stay = ((True, 0.0),)
    leave = ((False, 0.0),)
    # slot 1: hazard 0.2 / 1.0
    assert transition_prob(params, 1, connected, (0.0,), leave) == pytest.approx(0.2)
    assert transition_prob(params, 1, connected, (0.0,), stay) == pytest.approx(0.8)
    # slot 3: hazard 0.2 / 0.6
    assert transition_prob(params, 3, connected, (0.0,), leave) == pytest.approx(1 / 3)
    # slot 5: certain departure
    assert transition_prob(params, 5, connected, (0.0,), leave) == pytest.approx(1.0)
    assert transition_prob(params, 5, connected, (0.0,), stay) == pytest.approx(0.0)
    # charge bookkeeping gates the move
    charged = ((True, 1.0),)
    assert transition_prob(params, 1, connected, (1.0,), charged) == pytest.approx(0.8)
    assert transition_prob(params, 1, connected, (1.0,), stay) == 0.0


def test_zero_survival_query_raises():
    first_only = (DeadlineDistribution((1.0, 0.0), floor=0.0),)
    with pytest.raises(UnreachableStateError):
        transition_prob(first_only, 2, ((True, 0.0),), (0.0,), ((True, 0.0),))


def test_disconnected_transitions_freeze():
    params = (UNIFORM5,)
    s = ((False, 1.0),)
    assert transition_prob(params, 2, s, (0.0,), ((False, 1.0),)) == 1.0
    assert transition_prob(params, 2, s, (0.0,), ((False, 0.0),)) == 0.0


def test_kernel_rows_are_stochastic():
    # the batched pricing's per-slot expectation operator is a stochastic
    # kernel: a constant value vector maps to that constant on every
    # reachable row, and any vector maps to its scalar-kernel expectation
    # under the zero action, on the joint ids the space decodes
    rng = make_rng(11)
    for _ in range(5):
        market, specs, bids, _, _ = random_small_instance(rng)
        space = StateSpace(specs, bids)
        n = space.n_states
        for slot in range(1, len(market.demand) + 1):
            valid = space.valid_mask(slot - 1)
            const = np.full((n, 3), 7.25)
            assert space.expect(slot, const) is const
            assert np.all(np.abs(const[valid] - 7.25) < 1e-9)
            values = rng.normal(size=(n, 2))
            want = np.zeros((n, 2))
            for s in np.flatnonzero(valid):
                state = space.decode(int(s))
                for s2 in range(n):
                    p = transition_prob(bids, slot, state, (0.0,) * len(specs), space.decode(s2))
                    want[s] += p * values[s2]
            every = space.expect(slot, values.copy())
            assert np.allclose(every[valid], want[valid], atol=1e-12)
        # the first EV twice: a lumped class of two, whose binomial rows
        # are stochastic too (a zero-survival slot takes the stub hazard 1)
        lumped = CountSpace((specs[0],) + specs, (bids[0],) + bids)
        for slot in range(1, len(market.demand) + 1):
            const = np.full((lumped.n_states, 2), 7.25)
            lumped.expect(slot, const)
            assert np.all(np.abs(const - 7.25) < 1e-9)


def test_two_slot_value_is_ten_p():
    for p in (0.05, 0.19, 0.33):
        values, policy = solve(two_slot_model(p, (1.0, 0.0)))
        assert values.v0() == pytest.approx(10.0 * p, abs=1e-12)
        # committed plan charges immediately
        assert action(policy, 1, 0) == (1.0,)


def test_two_slot_alternative_plan_value():
    values, _ = solve(two_slot_model(0.19, (0.0, 1.0)))
    assert values.v0() == pytest.approx(0.0, abs=1e-12)


def test_tied_actions_resolve_to_the_smallest_target_index():
    # free energy and flat slot-2 reserves make every continuation worth
    # exactly 0, so actions tie whenever their stage costs do
    market = MarketModel(
        demand=(0.0, 0.0),
        generator=table([{0.0: 0.0}, {0.0: 0.0}]),
        reserves=table(
            [{0.0: 5.0, 1.0: 0.0, 2.0: 0.0}, {float(m): 0.0 for m in range(-2, 3)}]
        ),
        ev_energy_value=0.0,
    )
    half = DeadlineDistribution((0.5, 0.5))
    # one EV: targets 1 and 2 tie at cost 0, target 1 wins
    one = MdpModel(market, (EVSpec(2.0, (0.0, 1.0, 2.0)),), (half,), (0.0, 0.0))
    values, policy = solve(one)
    assert values.v0() == 0.0
    assert action(policy, 1, 0) == (1.0,)
    # two EVs: (0, 1) and (1, 0) tie on the same charge sum, target (0, 1)
    # wins; in slot 2 every action ties, so every EV moves to level 0
    unit = EVSpec(1.0, (0.0, 1.0))
    two = MdpModel(market, (unit, unit), (half, half), (0.0, 0.0))
    space = StateSpace(two.specs, two.params)
    values, policy = solve_dp(two, space)
    assert values.v0() == 0.0
    assert action(policy, 1, space.initial) == (0.0, 1.0)
    assert action(policy, 2, state_id(space, ((True, 1.0), (True, 0.0)))) == (-1.0, 0.0)
    assert action(policy, 2, state_id(space, ((False, 1.0), (True, 1.0)))) == (0.0, -1.0)


def test_infeasible_initial_state_raises():
    # no EV to absorb the slot-1 surplus and the reserve table has no entry
    model = MdpModel(two_slot_market(), (), (), (1.0, 0.0))
    with pytest.raises(NoFeasibleContinuation):
        solve(model)


def test_rollout_paths_and_departure_freeze():
    model = two_slot_model(0.19, (1.0, 0.0))
    _, policy = solve(model)
    r = rollout(model, policy, np.array([[1], [2]]))
    # profile 0 leaves early, profile 1 late
    assert r.storage.tolist() == [[[1.0, 1.0]], [[1.0, 0.0]]]
    assert r.terminal.tolist() == [[1.0], [0.0]]
    assert r.mismatch.tolist() == [[0.0, 1.0], [0.0, 0.0]]
    assert r.reserve_cost.tolist() == [11.0, 0.0]
    gen = model.market.generator_cost(model.dispatch)
    assert system_cost(model.market, gen, r.reserve_cost, r.terminal).tolist() == [10.0, 0.0]
    assert system_cost(model.market, gen, r.reserve_cost[0], r.terminal[0]) == 10.0


def test_rollout_rejects_profiles_by_name():
    # one (count, n_evs) array of slots in 1..T: a lone profile, a 3-D
    # array or the wrong EV count is refused, and so is a slot outside the
    # day, where a scalar loop would read 0 as slot 1 and T + 1 as never
    model = two_slot_model(0.19, (1.0, 0.0))
    _, policy = solve(model)
    for bad in ((1,), [1, 2], [[[1]]], [[1, 2]], np.zeros((1, 0), dtype=int)):
        with pytest.raises(ValueError, match=r"\(count, 1\) array of report slots"):
            rollout(model, policy, bad)
    for bad in ([[0]], [[-3]], [[3]], [[1], [1.5]]):
        with pytest.raises(ValueError, match=r"integers in 1\.\.2"):
            rollout(model, policy, bad)
    assert rollout(model, policy, [[2.0]]).terminal.tolist() == [[0.0]]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_batched_rollout_equals_the_scalar_loop(seed, data):
    # every field ==, on rows that may repeat and come in any order; levels
    # on a 0.1 kWh grid make charge sums round, so the order of every
    # addition shows.  A bid cut short leaves the policy no action for its
    # EV connected past the cut, which a late report reaches
    market, specs, bids, config, _ = random_small_instance(make_rng(seed))
    horizon, n = market.horizon, len(specs)
    level = st.integers(1, 99)
    tenths = data.draw(st.lists(st.tuples(level, level), min_size=n, max_size=n))
    specs = tuple(EVSpec(10.0, tuple(sorted({0.0, a / 10, b / 10}))) for a, b in tenths)
    cut = data.draw(st.integers(1, horizon))
    if cut < horizon:
        head = random_floored_pmf(make_rng(seed), cut, 0.02)
        bids = (DeadlineDistribution(tuple(head) + (0.0,) * (horizon - cut), floor=0.0),) + bids[1:]
    res = solve_outer(bids, config, market, specs)
    row = st.lists(st.integers(1, horizon), min_size=n, max_size=n)
    rows = data.draw(st.lists(row, min_size=1, max_size=8))
    if data.draw(st.booleans()):
        rows = rows + rows[::-1]
    try:
        want = reference.rollout(res.model, res.policy, rows)
    except UnreachableStateError:
        with pytest.raises(UnreachableStateError, match="no action"):
            rollout(res.model, res.policy, np.array(rows))
        return
    got = rollout(res.model, res.policy, np.array(rows))
    for name in ("storage", "mismatch", "reserve_cost", "terminal"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tolist() == b.tolist(), name


def test_rollout_steps_ids_and_sums_deltas():
    # 0 -> 3 -> 0.7 adds 3.0 and 0.7 - 3.0, which ends an ulp above the
    # level 0.7: stored charge keeps the running sum's bits, while the
    # joint id follows the policy's table and each departure
    market = MarketModel(
        demand=(0.0, 0.0, 0.0),
        generator=linear(1.0, 3),
        reserves=asym_lin_quad(1.0, 3),
        ev_energy_value=1.0,
    )
    spec = EVSpec(3.0, (0.0, 0.7, 3.0))
    model = MdpModel(market, (spec,), (DeadlineDistribution((0.2, 0.3, 0.5)),), (0.0,) * 3)
    space = StateSpace(model.specs, model.params)
    # per-EV ids: connected at 0, 0.7, 3, then disconnected at 0, 0.7, 3
    posts = np.tile(np.array([-1, -1, -1, 3, 4, 5]), (3, 1))
    posts[0, 0], posts[1, 2], posts[2, 1] = 2, 1, 0
    policy = MarkovPolicy(space, posts)
    drift = 3.0 + (0.7 - 3.0)
    assert drift != 0.7
    r = rollout(model, policy, np.array([[3], [2], [1]]))
    assert r.storage.tolist() == [
        [[3.0, drift, drift - 0.7]], [[3.0, drift, drift]], [[3.0, 3.0, 3.0]]
    ]


def test_expected_outcome_matches_enumeration_and_dp():
    # forward propagation, explicit profile enumeration, and the DP value
    # are three independent routes to the same expectation
    rng = make_rng(23)
    for _ in range(6):
        market, specs, bids, _, _ = random_small_instance(rng)
        dispatch = tuple(float(round(d, 0)) for d in market.demand)
        model = MdpModel(market, specs, bids, dispatch)
        values, policy = solve(model)
        fwd = expected_outcome(model, policy)
        enum = enumerated_outcome(model, policy)
        assert fwd.beta == pytest.approx(enum.beta, abs=1e-9)
        assert fwd.reserve_cost == pytest.approx(enum.reserve_cost, abs=1e-9)
        assert np.allclose(fwd.terminal_charge, enum.terminal_charge, atol=1e-9)
        assert fwd.beta == pytest.approx(
            market.generator_cost(dispatch) + values.v0(), abs=1e-9
        )


def test_policy_artifact_round_trip():
    # a solve's artifact is plain JSON: it dumps and loads back unchanged
    model = two_slot_model(0.19, (1.0, 0.0))
    config = SolverConfig(step=1.0, candidates=(model.dispatch,))
    res = solve_outer(model.params, config, model.market, model.specs)
    payload = res.to_jsonable()
    assert json.loads(json.dumps(payload)) == payload
    assert payload["values"] == res.values.to_jsonable()
    assert payload["policy"] == res.policy.to_jsonable()
    assert (payload["g_star"], payload["q_star"]) == ([1.0, 0.0], res.q_star)
    assert payload["candidates_evaluated"] == 1
    key = next(iter(payload["policy"]))
    assert "," in key  # "slot,state" keys


def test_policy_rejects_unknown_state():
    model = two_slot_model(0.19, (1.0, 0.0))
    _, policy = solve(model)
    n_states = policy.space.n_states
    # out of range either way: never an IndexError, never a wrapped-around row
    for slot, joint in ((1, 10**6), (0, 0), (3, 0), (1, -1), (1, n_states)):
        with pytest.raises(UnreachableStateError):
            action(policy, slot, joint)
    # an EV certain to leave after slot 1 has no slot-2 action while connected
    gone = MdpModel(
        two_slot_market(),
        (EVSpec(1.0, (0.0, 1.0)),),
        (DeadlineDistribution((1.0, 0.0), floor=0.0),),
        (1.0, 0.0),
    )
    _, policy = solve(gone)
    dead = np.flatnonzero(policy.posts[1] < 0).tolist()
    assert dead and all(policy.space.decode(s)[0][0] for s in dead)
    for s in dead:
        with pytest.raises(UnreachableStateError):
            action(policy, 2, s)
    # the batched step refuses them too, naming the first
    with pytest.raises(UnreachableStateError, match=f"slot 2, state {dead[0]}$"):
        policy.step(2, np.array(dead))


def test_state_space_decode_is_injective():
    specs = (EVSpec(1.0, (0.0, 1.0)), EVSpec(2.0, (0.0, 1.0, 2.0)))
    bids = (UNIFORM5, UNIFORM5)
    space = StateSpace(specs, bids)
    assert len({space.decode(s) for s in range(space.n_states)}) == space.n_states
    assert space.decode(space.initial) == ((True, 0.0), (True, 0.0))


def test_model_validation():
    with pytest.raises(ValueError):
        MdpModel(two_slot_market(), (EVSpec(1.0, (0.0, 1.0)),), (), (0.0, 1.0))
    with pytest.raises(ValueError):
        two_slot_model(0.19, (0.0,))
    with pytest.raises(ValueError):
        two_slot_model(0.19, (-1.0, 0.0))


def test_spec_tables_are_shared_read_only_and_freed():
    # levels no other test uses, so no other live space holds these tables
    specs = (EVSpec(7.0, (0.0, 3.5, 7.0)), EVSpec(2.0, (0.0, 1.25, 2.0)))
    skewed = DeadlineDistribution((0.1, 0.2, 0.3, 0.2, 0.2))
    one = CountSpace(specs, (UNIFORM5, UNIFORM5))
    other = CountSpace(specs, (skewed, UNIFORM5))
    assert one.action_groups is other.action_groups
    assert one.initial_groups is other.initial_groups
    # two lumped spaces on one class layout, with different bids
    pair = CountSpace(specs[:1] * 2, (UNIFORM5, UNIFORM5))
    other_pair = CountSpace(specs[:1] * 2, (skewed, skewed))
    assert pair.n_states == 21  # C(2 + 5, 5) counts over six cells
    assert pair.action_groups is other_pair.action_groups
    assert pair.initial_groups is other_pair.initial_groups
    (cells, hazards), (other_cells, other_hazards) = pair._classes[0], other_pair._classes[0]
    assert cells is other_cells and hazards != other_hazards
    assert pair.action_groups is not one.action_groups
    # the shared groups hold the pairs a reference grouping gives; with one
    # EV per class, of the reference space's own pairs
    state, post, sigma = StateSpace(specs, (UNIFORM5, UNIFORM5)).action_pairs()
    fresh = reference.group_by_sum(state, post, sigma)
    assert [g[0] for g in fresh] == one.action_groups.sums.tolist()
    assert reference.group_triples(fresh) == reference.run_triples(one.action_groups)
    groups = one.action_groups
    for table in (groups.sums, groups.posts, groups.starts, groups.cells):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        one.initial_groups.posts[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        cells.cells[0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        cells.departures[0][0][2][0, 0] = 1
    # the cache holds the groups only while a space does
    held = [weakref.ref(x) for x in (one.action_groups, one.initial_groups, pair.action_groups)]
    del one, other, pair, other_pair, groups, table
    gc.collect()
    assert [ref() for ref in held] == [None] * 3


@st.composite
def class_layouts(draw):
    """(specs, bids, lump) of a space: unlike EVs, a lumped fleet with a
    class of two or more EVs and a 3-level EV, or no EV at all."""
    kind = draw(st.sampled_from(["unlike", "lumped", "empty"]))
    if kind == "empty":
        return (), (), draw(st.booleans())
    pool = [EVSpec(10.0, (0.0, 10.0)), EVSpec(10.0, (0.0, 5.0, 10.0)), EVSpec(4.0, (0.0, 1.5))]
    skewed = DeadlineDistribution((0.1, 0.2, 0.3, 0.2, 0.2))
    if kind == "unlike":
        picks = draw(st.lists(st.sampled_from(range(len(pool))), min_size=1, max_size=3))
        return tuple(pool[k] for k in picks), (UNIFORM5, skewed, UNIFORM5)[: len(picks)], False
    many = draw(st.integers(2, 3))
    specs = [pool[draw(st.sampled_from([0, 2]))]] * many + [pool[1]] * draw(st.integers(1, 2))
    order = draw(st.permutations(range(len(specs))))
    return tuple(specs[k] for k in order), (UNIFORM5,) * len(specs), True


@settings(max_examples=40, deadline=None)
@given(class_layouts())
def test_flat_groups_hold_the_reference_grouping(layout):
    # every run holds one (sum, state) cell's actions, and the runs hold
    # exactly the triples of the reference grouping of the space's pairs;
    # the initial groups are the runs from state 0, in sum order
    specs, bids, lump = layout
    space = CountSpace(specs, bids) if lump else StateSpace(specs, bids)
    groups = space.action_groups
    tables = [c.move_table for c, _ in space._classes]
    pairs = mdp._product_pairs(space.n_states, space._digits, tables)
    fresh = reference.group_by_sum(*pairs)
    assert groups.sums.tolist() == [g[0] for g in fresh]
    assert groups.n_rows == space.n_states
    assert reference.run_triples(groups) == reference.group_triples(fresh)
    runs = reference.runs(groups)
    assert len({(k, row) for k, row, _ in runs}) == len(runs)
    assert all(len(set(posts)) == len(posts) > 0 for _, _, posts in runs)
    initial = space.initial_groups
    assert initial.n_rows == 1 and initial.cells.tolist() == list(range(len(initial.sums)))
    from_state0 = [(groups.sums[k], posts) for k, row, posts in runs if row == 0]
    assert [(initial.sums[k], posts) for k, _, posts in reference.runs(initial)] == from_state0


def test_row_sums_are_the_one_dimensional_sums():
    # system_cost sums each profile's terminal charges as one row of
    # rollout's C-contiguous (profiles, n_evs) array, where the scalar
    # reference sums an (n_evs,) array; numpy sums pairwise from 8 terms
    # on, so the orders must agree
    rng = np.random.default_rng(3)
    for n in range(24):
        a = rng.standard_normal((50, n)) * 10.0 ** rng.integers(-6, 7, (50, n))
        assert a.sum(axis=1).tolist() == [float(a[p].copy().sum()) for p in range(50)]
