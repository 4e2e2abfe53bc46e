"""Reference implementations the tests hold the package to.

Each is a plain, loop-by-loop form of something the package computes in
another way: the product-form transition kernel, expectations by
enumerating every deadline profile, and the batched kernel's min over
actions as one add-and-min per (charge sum, dispatch block).
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from storemkt import dispatch
from storemkt.costs import MarketModel
from storemkt.deadlines import DeadlineDistribution
from storemkt.dispatch import INF_PROXY, Stage
from storemkt.mdp import (
    ExpectedOutcome,
    MarkovPolicy,
    MdpModel,
    UnreachableStateError,
    iter_profiles,
    rollout,
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


def enumerated_outcome(model: MdpModel, policy: MarkovPolicy) -> ExpectedOutcome:
    """Expectations by exhaustive deadline-profile enumeration.

    Independent of the forward-propagation path of ``mdp.expected_outcome``;
    tests hold the two to agree within 1e-9.
    """
    exp_reserve = 0.0
    terminal = np.zeros(len(model.specs))
    for profile, p in iter_profiles(model.params, model.horizon):
        if p == 0.0:
            continue
        r = rollout(model, policy, profile)
        exp_reserve += p * r.reserve_cost
        terminal += p * r.terminal
    market = model.market
    total = system_cost(market, market.generator_cost(model.dispatch), exp_reserve, terminal)
    return ExpectedOutcome(float(exp_reserve), terminal, float(total))


def min_over_actions(
    market: MarketModel,
    slot: int,
    post: np.ndarray,
    groups: list[tuple[float, np.ndarray, list[np.ndarray]]],
    blocks: Stage,
    n_rows: int,
) -> np.ndarray:
    """One layer of the batched recursion, one add-and-min per (charge sum,
    block): ``dispatch._min_over_actions`` with its reserve costs from
    ``market``.  Blocks are either all ``(g, None)`` or all carry parents.

    Works through the columns in chunks of about ``dispatch.CHUNK_ELEMS``
    values, read per call; the per-sum minima take the min over each rank
    of actions in turn.
    """
    spans = [(g, 0, post.shape[1]) for g, _ in blocks]
    if any(parents is not None for _, parents in blocks):
        post = post[:, np.concatenate([p for _, p in blocks])]
        edges = np.cumsum([0] + [len(p) for _, p in blocks])
        spans = [(g, lo, hi) for (g, _), lo, hi in zip(blocks, edges[:-1], edges[1:])]
    width = post.shape[1]
    demand = market.demand[slot - 1]
    costs = [
        [market.reserve_cost_at(slot, demand + sigma - g) for g, _, _ in spans]
        for sigma, _, _ in groups
    ]
    live = [k for k, row in enumerate(costs) if any(c != math.inf for c in row)]
    out = np.empty((n_rows, sum(hi - lo for _, lo, hi in spans)))
    step = max(dispatch.CHUNK_ELEMS // n_rows, 1)
    best = np.full((len(live), n_rows, min(step, width)), INF_PROXY)
    tmp = np.empty(best.shape[1:])
    for c0 in range(0, width, step):
        c1 = min(c0 + step, width)
        chunk = post[:, c0:c1]
        for j, k in enumerate(live):
            _, rows, ranks = groups[k]
            least = chunk[ranks[0]]
            for posts in ranks[1:]:
                part = least[: len(posts)]
                np.minimum(part, chunk[posts], out=part)
            best[j, rows, : c1 - c0] = least
        off = 0
        for b, (_, lo, hi) in enumerate(spans):
            a, z = max(lo, c0), min(hi, c1)
            if a < z:
                dst = out[:, off + a - lo : off + z - lo]
                dst.fill(INF_PROXY)
                cand = tmp[:, : z - a]
                for j, k in enumerate(live):
                    if costs[k][b] != math.inf:
                        np.add(best[j, :, a - c0 : z - c0], costs[k][b], out=cand)
                        np.minimum(dst, cand, out=dst)
            off += hi - lo
    return out
