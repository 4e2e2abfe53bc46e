"""Reference implementations the tests hold the package to.

Each is a plain, loop-by-loop form of something the package computes in
another way: the product-form transition kernel, the forward pass over
report profiles one profile and one slot at a time, expectations and
conditional costs by enumerating every deadline profile, the grouping of
(state, action) pairs by charge sum, the batched kernel's min over
actions as one add-and-min per (charge sum, dispatch level), and
histogram matching's report as one day's candidate lists and tuple ``min``.
"""
from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from storemkt import dispatch
from storemkt.costs import MarketModel
from storemkt.deadlines import DeadlineDistribution
from storemkt.dispatch import INF_PROXY, Stage
from storemkt.mdp import (
    _Groups,
    ExpectedOutcome,
    MarkovPolicy,
    MdpModel,
    RolloutResult,
    UnreachableStateError,
    system_cost,
)


def transition_prob(
    params: Sequence[DeadlineDistribution],
    slot: int,
    state: Sequence[tuple[bool, float]],
    action: Sequence[float],
    next_state: Sequence[tuple[bool, float]],
) -> float:
    """Product-form kernel for the joint state transition during ``slot``."""
    prob = 1.0
    for dist, (connected, h), a, (connected2, h2) in zip(params, state, action, next_state):
        if not connected:
            if a != 0.0:
                return 0.0
            prob *= 1.0 if (not connected2 and h2 == h) else 0.0
            continue
        surv = dist.survival()[slot - 1]
        if surv <= 0.0:
            raise UnreachableStateError(
                f"unreachable state queried: connected EV has zero survival entering slot {slot}"
            )
        hazard = min(max(dist.pmf[slot - 1] / surv, 0.0), 1.0)
        if not math.isclose(h + a, h2, abs_tol=1e-9):
            return 0.0
        prob *= hazard if not connected2 else 1.0 - hazard
        if prob == 0.0:
            return 0.0
    return prob


def stage_cost(
    market: MarketModel, slot: int, g_slot: float, actions: Sequence[float]
) -> float:
    """Reserve cost of one slot given the dispatch and joint charge deltas."""
    mismatch = market.demand[slot - 1] + float(sum(actions)) - g_slot
    return market.reserve_cost_at(slot, mismatch)


def action(policy: MarkovPolicy, slot: int, joint: int) -> tuple[float, ...]:
    """One state's per-EV charge deltas at ``slot``: its post-decision
    state's charges minus its own.  A slot outside 1..T, a state id out of
    range or a state with no action raises ``UnreachableStateError``."""
    horizon, n_states = policy.posts.shape
    # bounds first: a negative index would wrap around
    inside = 1 <= slot <= horizon and 0 <= joint < n_states
    post = policy.posts[slot - 1, joint] if inside else -1
    if post < 0:
        raise UnreachableStateError(f"policy has no action for slot {slot}, state {joint}")
    charge = policy.space.charge_by_ev
    return tuple((charge[:, post] - charge[:, joint]).tolist())


def rollout(
    model: MdpModel, policy: MarkovPolicy, profiles: Sequence[Sequence[int]]
) -> RolloutResult:
    """``mdp.rollout`` one profile at a time and one slot at a time.

    Per profile, EV j disconnects at the end of slot ``reported[j]``: each
    slot applies ``action`` to the joint id, adds its deltas to each
    EV's charge, moves the id to its post-decision id plus the
    ``leave_step`` of each EV leaving, and adds the slot's ``stage_cost``
    to a running reserve total from 0.0.
    """
    leave_step = policy.space.leave_step
    horizon, n_evs = model.horizon, len(model.specs)
    rows = []
    for reported in profiles:
        connected = [True] * n_evs
        charge = [0.0] * n_evs
        storage = np.zeros((n_evs, horizon))
        mismatch = np.zeros(horizon)
        reserve_total = 0.0
        joint = policy.space.initial
        for slot in range(1, horizon + 1):
            deltas = action(policy, slot, joint)
            joint = int(policy.posts[slot - 1, joint])
            for i in range(n_evs):
                charge[i] += deltas[i]
            g = model.dispatch[slot - 1]
            mismatch[slot - 1] = model.market.demand[slot - 1] + float(sum(deltas)) - g
            reserve_total += stage_cost(model.market, slot, g, deltas)
            for i in range(n_evs):
                if connected[i] and slot >= reported[i]:
                    connected[i] = False
                    joint += leave_step[i]
            storage[:, slot - 1] = charge
        rows.append((storage, mismatch, reserve_total))
    return RolloutResult(
        np.array([r[0] for r in rows]).reshape(len(rows), n_evs, horizon),
        np.array([r[1] for r in rows]).reshape(len(rows), horizon),
        np.array([r[2] for r in rows]),
        np.array([r[0][:, -1] for r in rows]).reshape(len(rows), n_evs),
    )


def iter_profiles(
    params: Sequence[DeadlineDistribution], horizon: int
) -> Iterable[tuple[tuple[int, ...], float]]:
    """Every report profile of EVs with beliefs ``params``, in
    ``itertools.product`` order, with its probability multiplied up in EV
    order."""
    for profile in itertools.product(range(1, horizon + 1), repeat=len(params)):
        p = 1.0
        for dist, t in zip(params, profile):
            p *= dist.pmf[t - 1]
        yield profile, p


def enumerated_outcome(model: MdpModel, policy: MarkovPolicy) -> ExpectedOutcome:
    """Expectations by exhaustive deadline-profile enumeration, each
    profile rolled out by the scalar ``rollout`` above.

    Independent of the forward-propagation path of ``mdp.expected_outcome``;
    tests hold the two to agree within 1e-9.
    """
    weighted = [(profile, p) for profile, p in iter_profiles(model.params, model.horizon) if p]
    r = rollout(model, policy, [profile for profile, _ in weighted])
    exp_reserve = 0.0
    terminal = np.zeros(len(model.specs))
    for k, (_, p) in enumerate(weighted):
        exp_reserve += p * r.reserve_cost[k]
        terminal += p * r.terminal[k]
    market = model.market
    total = system_cost(market, market.generator_cost(model.dispatch), exp_reserve, terminal)
    return ExpectedOutcome(float(exp_reserve), terminal, float(total))


def conditional_beta(model: MdpModel, policy: MarkovPolicy, i: int, t: int) -> float:
    """``dispatch.conditional_beta`` by enumeration, one scalar ``rollout``
    per profile: the terms p times a profile's system cost, in
    ``iter_profiles`` order over the other EVs, p == 0 skipped."""
    generator_cost = model.market.generator_cost(model.dispatch)
    others = model.params[:i] + model.params[i + 1 :]
    total = 0.0
    for combo, p in iter_profiles(others, model.horizon):
        if p == 0.0:
            continue
        r = rollout(model, policy, [combo[:i] + (t,) + combo[i:]])
        cost = system_cost(model.market, generator_cost, r.reserve_cost[0], r.terminal[0])
        total += p * float(cost)
    return total


def group_by_sum(
    state: np.ndarray, post: np.ndarray, sigma: np.ndarray
) -> list[tuple[float, np.ndarray, list[np.ndarray]]]:
    """Group (state, post-decision id) pairs by sum: per distinct sum,
    ascending, (sigma, rows, ranks).  ``rows`` lists the states having such
    an action, those with the most first; ``ranks[r]`` holds the r-th such
    action's post-decision id for ``rows[: len(ranks[r])]``."""
    keys, inv = np.unique(sigma, return_inverse=True)
    out = []
    for j, key in enumerate(keys):
        order = np.flatnonzero(inv == j)
        order = order[np.argsort(state[order], kind="stable")]
        rows, first, counts = np.unique(state[order], return_index=True, return_counts=True)
        most = np.argsort(-counts, kind="stable")
        rows, first, counts = rows[most], first[most], counts[most]
        ranks = [post[order[first[counts > r] + r]] for r in range(int(counts[0]))]
        out.append((float(key), rows, ranks))
    return out


def group_triples(groups: list[tuple[float, np.ndarray, list[np.ndarray]]]) -> list[tuple]:
    """The (sum, state, post-decision id) triples of ``group_by_sum``'s
    groups, sorted."""
    return sorted(
        (sigma, int(row), int(q[r]))
        for sigma, rows, ranks in groups
        for q in ranks
        for r, row in enumerate(rows[: len(q)])
    )


def runs(groups: _Groups) -> list[tuple[int, int, list[int]]]:
    """The runs of flat groups, in order: (sum index, state, post-decision
    ids)."""
    ends = groups.starts.tolist()[1:] + [len(groups.posts)]
    return [
        (cell // groups.n_rows, cell % groups.n_rows, groups.posts[a:z].tolist())
        for cell, a, z in zip(groups.cells.tolist(), groups.starts.tolist(), ends)
    ]


def run_triples(groups: _Groups) -> list[tuple]:
    """The (sum, state, post-decision id) triples of flat groups, sorted."""
    sums = groups.sums.tolist()
    return sorted((sums[k], row, q) for k, row, posts in runs(groups) for q in posts)


def min_over_actions(
    market: MarketModel,
    slot: int,
    post: np.ndarray,
    groups: _Groups,
    stage: Stage,
    n_rows: int,
    dispatch_levels: Sequence[float],
) -> np.ndarray:
    """One layer of the batched recursion, one add-and-min per (charge sum,
    level): ``dispatch._min_over_actions`` with its reserve costs from
    ``market``, column j's at ``dispatch_levels[level[j]]`` for the
    stage's (level, src).

    Works through the output columns in chunks of about
    ``dispatch.CHUNK_ELEMS`` values, read per call; the per-sum minima take
    the min over a run's actions one at a time.
    """
    level, src = stage
    post = post[:, src]
    width = post.shape[1]
    demand = market.demand[slot - 1]
    costs = [
        [market.reserve_cost_at(slot, demand + sigma - g) for g in dispatch_levels]
        for sigma in groups.sums.tolist()
    ]
    by_sum: list[list[tuple[int, list[int]]]] = [[] for _ in costs]
    for k, row, posts in runs(groups):
        by_sum[k].append((row, posts))
    live = [k for k, row in enumerate(costs) if any(c != math.inf for c in row)]
    out = np.full((n_rows, width), INF_PROXY)
    step = max(dispatch.CHUNK_ELEMS // n_rows, 1)
    best = np.full((len(live), n_rows, min(step, width)), INF_PROXY)
    for c0 in range(0, width, step):
        c1 = min(c0 + step, width)
        chunk = post[:, c0:c1]
        for j, k in enumerate(live):
            for row, posts in by_sum[k]:
                least = chunk[posts[0]].copy()
                for q in posts[1:]:
                    np.minimum(least, chunk[q], out=least)
                best[j, row, : c1 - c0] = least
        for b in sorted(set(level[c0:c1].tolist())):
            cols = np.flatnonzero(level[c0:c1] == b)
            dst = out[:, c0 + cols]
            for j, k in enumerate(live):
                if costs[k][b] != math.inf:
                    np.minimum(dst, best[j][:, cols] + costs[k][b], out=dst)
            out[:, c0 + cols] = dst
    return out


def match_gaps(counts: list[int], days: int, bid_pmf: list[float]) -> list[float]:
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


def match_report(
    true_deadline: int,
    counts: list[int],
    days: int,
    path: list[float],
    target: list[float],
    bid_pmf: list[float],
    window: float,
) -> int:
    """One day of ``simulate._match_days``, with its rule spelled out as
    four candidate lists and a ``min`` over (key, -planned charge, slot).

    ``counts`` holds each slot's reports over the first ``days`` days.  A
    slot's deficit is ``counts / max(days, 1) - target`` and its gap is
    ``match_gaps``'s.  The report is the safe in-deadline slot with the
    most negative deficit; else the safe in-deadline slot with the
    smallest gap; else the safe slot past the deadline with the most
    negative deficit; else the in-deadline slot with the smallest gap.
    """
    den = max(days, 1)
    negative, safe_within, safe_beyond, within = [], [], [], []
    gaps = match_gaps(counts, days, bid_pmf)
    for s, (c, q, gap, h) in enumerate(zip(counts, target, gaps, path)):
        deficit = c / den - q
        if s < true_deadline:
            within.append((gap, -h, s))
            if gap < window:
                safe_within.append((gap, -h, s))
                if deficit < 0.0:
                    negative.append((deficit, -h, s))
        elif gap < window:
            safe_beyond.append((deficit, -h, s))
    return min(negative or safe_within or safe_beyond or within)[2] + 1
