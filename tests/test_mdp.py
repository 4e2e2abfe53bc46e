import itertools
import json
import math

import numpy as np
import pytest

from storemkt.costs import MarketModel, asym_lin_quad, linear, table
from storemkt.deadlines import DeadlineDistribution, make_rng
from storemkt.mdp import (
    EVSpec,
    MdpModel,
    NoFeasibleContinuation,
    StateSpace,
    UnreachableStateError,
    beta,
    enumerated_outcome,
    expected_outcome,
    monte_carlo_outcome,
    policy_artifact,
    rollout,
    solve_dp,
    stage_cost,
    transition_prob,
)
from storemkt.scenarios import random_small_instance

UNIFORM5 = DeadlineDistribution((0.2,) * 5)


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
        for k in np.flatnonzero(state == space.encode(joint_state)):
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
    assert values.values[2, space.encode(((False, 1.0), (True, 0.5)))] == -1.5


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
    # the per-slot expectation operator is a stochastic kernel: a constant
    # value vector maps to that constant on every reachable row, and any
    # vector maps to its scalar-kernel expectation under the zero action
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
            # the all-connected rows alone, in mixed-radix level order
            connected = space.expect(slot, values.copy(), connected_only=True)
            rows = [
                space.encode(tuple((True, lvl) for lvl in combo))
                for combo in itertools.product(*(s.levels for s in specs))
            ]
            assert np.array_equal(connected, every[rows])


def test_two_slot_value_is_ten_p():
    for p in (0.05, 0.19, 0.33):
        values, policy = solve_dp(two_slot_model(p, (1.0, 0.0)))
        assert values.v0() == pytest.approx(10.0 * p, abs=1e-12)
        # committed plan charges immediately
        assert policy.action(1, 0) == (1.0,)


def test_two_slot_alternative_plan_value():
    values, _ = solve_dp(two_slot_model(0.19, (0.0, 1.0)))
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
    values, policy = solve_dp(one)
    assert values.v0() == 0.0
    assert policy.action(1, 0) == (1.0,)
    # two EVs: (0, 1) and (1, 0) tie on the same charge sum, target (0, 1)
    # wins; in slot 2 every action ties, so every EV moves to level 0
    unit = EVSpec(1.0, (0.0, 1.0))
    two = MdpModel(market, (unit, unit), (half, half), (0.0, 0.0))
    space = StateSpace(two.specs, two.params)
    values, policy = solve_dp(two, space)
    assert values.v0() == 0.0
    assert policy.action(1, space.initial) == (0.0, 1.0)
    assert policy.action(2, space.encode(((True, 1.0), (True, 0.0)))) == (-1.0, 0.0)
    assert policy.action(2, space.encode(((False, 1.0), (True, 1.0)))) == (0.0, -1.0)


def test_infeasible_initial_state_raises():
    # no EV to absorb the slot-1 surplus and the reserve table has no entry
    model = MdpModel(two_slot_market(), (), (), (1.0, 0.0))
    with pytest.raises(NoFeasibleContinuation):
        solve_dp(model)


def test_rollout_paths_and_departure_freeze():
    model = two_slot_model(0.19, (1.0, 0.0))
    _, policy = solve_dp(model)
    early = rollout(model, policy, (1,))
    assert early.storage.tolist() == [[1.0, 1.0]]
    assert early.terminal.tolist() == [1.0]
    assert early.mismatch.tolist() == [0.0, 1.0]
    assert early.reserve_cost == pytest.approx(11.0)
    late = rollout(model, policy, (2,))
    assert late.storage.tolist() == [[1.0, 0.0]]
    assert late.terminal.tolist() == [0.0]
    assert late.reserve_cost == pytest.approx(0.0)
    assert beta(model, policy, (1,)) == pytest.approx(10.0)
    assert beta(model, policy, (2,)) == pytest.approx(0.0)


def test_expected_outcome_matches_enumeration_and_dp():
    # forward propagation, explicit profile enumeration, and the DP value
    # are three independent routes to the same expectation
    rng = make_rng(23)
    for _ in range(6):
        market, specs, bids, _, _ = random_small_instance(rng)
        dispatch = tuple(float(round(d, 0)) for d in market.demand)
        model = MdpModel(market, specs, bids, dispatch)
        values, policy = solve_dp(model)
        space = StateSpace(specs, bids)
        fwd = expected_outcome(model, policy, space)
        enum = enumerated_outcome(model, policy, space)
        assert fwd.beta == pytest.approx(enum.beta, abs=1e-9)
        assert fwd.reserve_cost == pytest.approx(enum.reserve_cost, abs=1e-9)
        assert np.allclose(fwd.terminal_charge, enum.terminal_charge, atol=1e-9)
        assert fwd.beta == pytest.approx(
            market.generator_cost(dispatch) + values.v0(), abs=1e-9
        )


def test_monte_carlo_outcome_converges():
    model = two_slot_model(0.19, (1.0, 0.0))
    _, policy = solve_dp(model)
    est = monte_carlo_outcome(model, policy, 4000, make_rng(5))
    # E[beta] = 10 p = 1.9, sigma = 10 sqrt(p(1-p)) / sqrt(n)
    assert est.beta == pytest.approx(1.9, abs=5 * 10 * 0.392 / math.sqrt(4000))


def test_policy_artifact_round_trip():
    model = two_slot_model(0.19, (1.0, 0.0))
    values, policy = solve_dp(model)
    payload = json.loads(policy_artifact(values, policy))
    assert "values" in payload and "policy" in payload
    key = next(iter(payload["policy"]))
    assert "," in key  # "slot,state" keys


def test_policy_rejects_unknown_state():
    model = two_slot_model(0.19, (1.0, 0.0))
    _, policy = solve_dp(model)
    with pytest.raises(UnreachableStateError):
        policy.action(1, 10**6)


def test_state_space_encode_decode_round_trip():
    specs = (EVSpec(1.0, (0.0, 1.0)), EVSpec(2.0, (0.0, 1.0, 2.0)))
    bids = (UNIFORM5, UNIFORM5)
    space = StateSpace(specs, bids)
    assert space.initial == space.encode(((True, 0.0), (True, 0.0)))
    for s in range(space.n_states):
        assert space.encode(space.decode(s)) == s


def test_model_validation():
    with pytest.raises(ValueError):
        MdpModel(two_slot_market(), (EVSpec(1.0, (0.0, 1.0)),), (), (0.0, 1.0))
    with pytest.raises(ValueError):
        two_slot_model(0.19, (0.0,))
    with pytest.raises(ValueError):
        two_slot_model(0.19, (-1.0, 0.0))
