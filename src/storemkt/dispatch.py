"""Two-stage dispatch search: outer grid over generator plans, inner MDP.

The outer stage enumerates quantized dispatch vectors; the inner stage
prices each one by solving the storage MDP.  ``beta_bar(g)`` is that
price for one plan by the reference recursion: dispatch cost plus the
optimal expected recourse value from the initial state.

Grid and beam plans are priced by one batched backward pass whose columns
are dispatch tails; the value at layer t depends only on the tail, so
tails shared by many plans are priced once.  Each slot is a post-decision
step.  The zero-action expectation runs once over the value array, in
place, one EV axis at a time (the product-form kernel never becomes a
dense matrix).  An action's continuation is then the row of its
post-decision state.  The stage cost depends only on the action's charge
sum, so the kernel takes the min over actions of equal sum first and
adds each sum's reserve cost once per dispatch level.  Slot 1 forms only
the initial state's row.

The exhaustive search prices the whole grid in one such pass.  Beam
search prices every extended prefix of a depth in one pass: the columns
are the prefixes, completed by the greedy tail they all share.  An
explicit candidate list is priced the same way, as full-length prefixes
with an empty tail.

Every search mode ends alike: the winning plan is re-solved by the
reference recursion (``mdp.solve_dp``), which also yields its policy, and
the two values must agree; disagreement is a bug, not a tolerance
question.  The reference is table-driven too, but it encodes the kernel
differently: it lists every (state, action) pair and each post-decision
state's successors explicitly and minimises per (state, action), where
the pricing here applies ``StateSpace.expect`` axis by axis and takes its
min over equal-sum actions.  So the cross-check compares two encodings.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .costs import MarketModel
from .deadlines import DeadlineDistribution
from .mdp import (
    ENUMERATION_GUARD,
    EVSpec,
    MarkovPolicy,
    MdpModel,
    ProfileOutcomes,
    StateSpace,
    ValueTable,
    check_dispatch,
    policy_artifact,
    solve_dp,
)

DEFAULT_STEP = 10.0
DEFAULT_MAX_CANDIDATES = 2_000_000
#: finite stand-in for +inf inside matrix products (0 * inf is nan; 0 * proxy is 0)
INF_PROXY = 1e30
INF_THRESHOLD = 1e20
CROSS_CHECK_TOL = 1e-6
ORACLE_POLICY_GUARD = 500_000
#: values per column chunk of the batched kernel's min over actions
CHUNK_ELEMS = 16_384


class GridTooLarge(ValueError):
    """Exhaustive grid exceeds the configured candidate budget."""


class InfeasibleModel(RuntimeError):
    """No dispatch candidate admits a finite-cost storage policy."""


@dataclass(frozen=True)
class SolverConfig:
    """Outer-search settings.

    ``candidates`` pins an explicit list of dispatch plans and bypasses the
    grid entirely (used by fixed scenarios whose published options are a
    strict subset of the quantized grid); the list is priced by the same
    batched pass and cross-check as grid and beam plans.  ``caps``
    overrides the default per-slot bound demand-rounded-up + total fleet
    capacity.
    """

    step: float = DEFAULT_STEP
    mode: str = "exhaustive"  # "exhaustive" | "beam"
    beam_width: int = 8
    caps: tuple[float, ...] | None = None
    candidates: tuple[tuple[float, ...], ...] | None = None
    max_candidates: int = DEFAULT_MAX_CANDIDATES

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.mode not in ("exhaustive", "beam"):
            raise ValueError(f"unknown search mode {self.mode!r}")
        if self.beam_width < 1:
            raise ValueError("beam width must be >= 1")
        if self.candidates is not None:
            object.__setattr__(
                self,
                "candidates",
                tuple(tuple(float(g) for g in c) for c in self.candidates),
            )
        if self.caps is not None:
            object.__setattr__(self, "caps", tuple(float(c) for c in self.caps))


@dataclass(frozen=True)
class SolveResult:
    """The winning plan with its policy, plus the model and state space it
    was solved on, so callers never rebuild them.  The space holds index
    tables and hazards only; no batched value array outlives the search."""

    g_star: tuple[float, ...]
    q_star: float
    values: ValueTable
    policy: MarkovPolicy
    candidates_evaluated: int
    model: MdpModel = field(repr=False, compare=False)
    space: StateSpace = field(repr=False, compare=False)

    def to_jsonable(self) -> dict:
        import json

        payload = json.loads(policy_artifact(self.values, self.policy))
        payload.update(
            g_star=list(self.g_star),
            q_star=self.q_star,
            candidates_evaluated=self.candidates_evaluated,
        )
        return payload


def quantize_up(x: float, step: float) -> float:
    """Smallest nonnegative multiple of ``step`` that is >= x."""
    if x <= 0:
        return 0.0
    return math.ceil(round(x / step, 9)) * step


def default_caps(market: MarketModel, specs: Sequence[EVSpec], step: float) -> tuple[float, ...]:
    """Per-slot dispatch bound: demand rounded up plus total fleet capacity.
    Producing beyond that is weakly dominated under nonnegative costs."""
    fleet = sum(s.capacity for s in specs)
    return tuple(quantize_up(d, step) + fleet for d in market.demand)


def grid_levels(
    market: MarketModel, specs: Sequence[EVSpec], config: SolverConfig
) -> list[list[float]]:
    caps = config.caps or default_caps(market, specs, config.step)
    if len(caps) != market.horizon:
        raise ValueError("caps length does not match horizon")
    out = []
    for cap in caps:
        n = int(round(cap / config.step, 9) // 1)
        out.append([k * config.step for k in range(n + 1)])
    return out


def beta_bar(
    bids: Sequence[DeadlineDistribution],
    g: Sequence[float],
    market: MarketModel,
    specs: Sequence[EVSpec],
) -> float:
    """Expected total cost of dispatch ``g`` under the optimal storage
    policy: generator cost plus the DP value at the initial state."""
    model = MdpModel(market, tuple(specs), tuple(bids), tuple(g))
    values, _ = solve_dp(model)
    return market.generator_cost(g) + values.v0()


def _greedy_tail(market: MarketModel, levels: list[list[float]], start_slot: int) -> list[float]:
    """Storage-blind completion: per slot, the level with the cheapest
    dispatch-plus-mismatch cost, ties to the smaller level."""
    tail = []
    for slot in range(start_slot, market.horizon + 1):
        best = None
        best_cost = math.inf
        for g in levels[slot - 1]:
            c = market.generator.cost(slot, g) + market.reserve_cost_at(
                slot, market.demand[slot - 1] - g
            )
            if c < best_cost:
                best_cost = c
                best = g
        tail.append(best if best is not None else levels[slot - 1][0])
    return tail


#: slot t's column blocks: (dispatch g, parent layer-t columns or None for all)
Stage = list[tuple[float, np.ndarray | None]]


def _grid_stages(levels: list[list[float]]) -> list[Stage]:
    """Every level of every slot ahead of every tail: the exhaustive grid."""
    return [[(g, None) for g in lt] for lt in levels]


def _prefix_stages(
    prefixes: Sequence[tuple[float, ...]], tail: Sequence[float]
) -> tuple[list[Stage], list[int]]:
    """Stages pricing each prefix completed by the shared ``tail``, plus the
    layer-0 column of each prefix.  Suffixes shared by several prefixes
    are priced once."""
    stages: list[Stage] = [[(g, None)] for g in tail]
    cols: dict[tuple[float, ...], int] = {(): 0}
    head: list[Stage] = []
    for t in range(len(prefixes[0]), 0, -1):
        by_g: dict[float, list[tuple[float, ...]]] = {}
        for suffix in dict.fromkeys(p[t - 1 :] for p in prefixes):
            by_g.setdefault(suffix[0], []).append(suffix)
        blocks: Stage = []
        new_cols: dict[tuple[float, ...], int] = {}
        for g, suffixes in by_g.items():
            blocks.append((g, np.array([cols[sx[1:]] for sx in suffixes], dtype=np.intp)))
            for sx in suffixes:
                new_cols[sx] = len(new_cols)
        head.append(blocks)
        cols = new_cols
    return head[::-1] + stages, [cols[p] for p in prefixes]


def _batched_inner_values(
    market: MarketModel, space: StateSpace, stages: list[Stage]
) -> np.ndarray:
    """Inner DP value v0 for a batch of dispatch plans, suffix-shared.

    Columns are dispatch tails.  ``stages[t-1]`` lays out the columns of
    layer t-1 as blocks: block (g, parents) runs dispatch g in slot t ahead
    of the layer-t columns ``parents`` (None: all of them), so
    ``_grid_stages`` yields every grid plan in lexicographic product order.
    Each slot is one post-decision step: the zero-action expectation
    ``space.expect`` runs once, in place; an action's continuation is the
    row of its post-decision state; the min over actions with equal charge
    sums is taken before the reserve cost of that sum is added per block.
    Slot 1 forms only the initial state's row.  Returns the flat layer-0
    row; entries at or above INF_THRESHOLD mean no finite-cost policy
    exists.
    """
    v = (-market.ev_energy_value * space.total_charge).reshape(-1, 1)
    for slot in range(market.horizon, 0, -1):
        if slot > 1:
            post = space.expect(slot, v)
            groups, n_rows = space.action_groups, space.n_states
        else:
            post = space.expect(1, v, connected_only=True)
            groups, n_rows = space.initial_groups, 1
        v = _min_over_actions(market, slot, post, groups, stages[slot - 1], n_rows)
    return v[0]


def _min_over_actions(
    market: MarketModel,
    slot: int,
    post: np.ndarray,
    groups: list[tuple[float, np.ndarray, list[np.ndarray]]],
    blocks: Stage,
    n_rows: int,
) -> np.ndarray:
    """One layer of the batched recursion from post-decision values.

    Works through the columns in chunks of about CHUNK_ELEMS values so the
    per-sum minima and the output they update stay in cache.
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
    step = max(CHUNK_ELEMS // n_rows, 1)
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


def _grid_gen_costs(market: MarketModel, levels: list[list[float]]) -> np.ndarray:
    """Dispatch cost of every grid plan, lexicographic flat order."""
    acc = np.zeros(1)
    for slot in range(1, market.horizon + 1):
        per = np.array(
            [min(market.generator.cost(slot, g), INF_PROXY) for g in levels[slot - 1]]
        )
        acc = (acc[:, None] + per[None, :]).reshape(-1)
    return acc


def _price_plans(
    market: MarketModel,
    space: StateSpace,
    plans: Sequence[tuple[float, ...]],
    tail: Sequence[float] = (),
) -> list[tuple[float, tuple[float, ...]]]:
    """Price each plan completed by the shared ``tail`` in one batched
    pass.  Returns (cost, plan) pairs cheapest first, +inf for plans with
    no finite-cost policy, ties to the smaller plan."""
    stages, cols = _prefix_stages(plans, tail)
    inner = _batched_inner_values(market, space, stages)
    scored = []
    for p, col in zip(plans, cols):
        q = market.generator_cost(list(p) + list(tail)) + float(inner[col])
        scored.append((q if inner[col] < INF_THRESHOLD else math.inf, p))
    scored.sort()
    return scored


def _solve_beam(
    levels: list[list[float]],
    market: MarketModel,
    space: StateSpace,
    width: int,
) -> tuple[tuple[float, ...], float, int]:
    """Keep the ``width`` best prefixes per depth, each scored as the plan
    it makes with the storage-blind greedy tail.  All extended prefixes of
    a depth are priced in one batched pass.  Returns the winner, its score
    and the number of prefixes scored."""
    prefixes: list[tuple[float, ...]] = [()]
    evaluated = 0
    scored: list[tuple[float, tuple[float, ...]]] = []
    for slot in range(1, market.horizon + 1):
        extended = [p + (g,) for p in prefixes for g in levels[slot - 1]]
        scored = _price_plans(market, space, extended, _greedy_tail(market, levels, slot + 1))
        evaluated += len(extended)
        prefixes = [p for _, p in scored[:width]]
    best_q, best_g = scored[0]
    if best_q == math.inf:
        raise InfeasibleModel("beam search found no feasible dispatch")
    return best_g, best_q, evaluated


def solve_outer(
    bids: Sequence[DeadlineDistribution],
    config: SolverConfig,
    market: MarketModel,
    specs: Sequence[EVSpec],
) -> SolveResult:
    """Search the dispatch space, price each plan by the inner DP, return
    the cheapest plan with its policy.  Ties go to the lexicographically
    smallest plan.  Every winner is independently re-solved by the
    reference recursion; any disagreement beyond CROSS_CHECK_TOL raises."""
    bids = tuple(bids)
    specs = tuple(specs)
    space = StateSpace(specs, bids)
    if config.candidates is not None:
        candidates = config.candidates
        if not candidates:
            raise InfeasibleModel("every candidate dispatch is infeasible")
        for g in candidates:
            check_dispatch(g, market.horizon)
        batched_q, g_star = _price_plans(market, space, candidates)[0]
        if batched_q == math.inf:
            raise InfeasibleModel("every candidate dispatch is infeasible")
        evaluated = len(candidates)
    elif config.mode == "beam":
        levels = grid_levels(market, specs, config)
        g_star, batched_q, evaluated = _solve_beam(levels, market, space, config.beam_width)
    else:
        levels = grid_levels(market, specs, config)
        total = 1
        for lt in levels:
            total *= len(lt)
        if total > config.max_candidates:
            raise GridTooLarge(
                f"exhaustive grid has {total} candidates "
                f"(limit {config.max_candidates}); use beam search"
            )
        inner = _batched_inner_values(market, space, _grid_stages(levels))
        q_flat = _grid_gen_costs(market, levels) + inner
        best_idx = int(np.argmin(q_flat))
        if q_flat[best_idx] >= INF_THRESHOLD:
            raise InfeasibleModel("every dispatch plan on the grid is infeasible")
        g_star = _unflatten(best_idx, levels)
        evaluated = total
        batched_q = float(q_flat[best_idx])
    model = MdpModel(market, specs, bids, g_star)
    values, policy = solve_dp(model, space)
    q_star = market.generator_cost(g_star) + values.v0()
    if abs(q_star - batched_q) > CROSS_CHECK_TOL:
        raise RuntimeError(
            f"batched and reference inner values disagree: "
            f"{batched_q} vs {q_star} at g={g_star}"
        )
    return SolveResult(tuple(g_star), float(q_star), values, policy, evaluated, model, space)


def _unflatten(idx: int, levels: list[list[float]]) -> tuple[float, ...]:
    out = []
    for lt in reversed(levels):
        out.append(lt[idx % len(lt)])
        idx //= len(lt)
    return tuple(reversed(out))


def conditional_beta(
    model: MdpModel,
    policy: MarkovPolicy,
    i: int,
    t: int,
    space: StateSpace | None = None,
    outcomes: ProfileOutcomes | None = None,
) -> float:
    """Expected realized cost given EV ``i`` reports slot ``t``, others
    drawn from their distributions.  Exact by enumeration; ``outcomes``
    lets calls on one solve share their rollouts."""
    if not 0 <= i < model.n_evs:
        raise IndexError(f"EV index {i} out of range")
    if not 1 <= t <= model.horizon:
        raise ValueError(f"slot {t} outside 1..{model.horizon}")
    if model.params[i].pmf[t - 1] <= 0.0:
        raise ValueError(f"slot {t} has zero probability for EV {i + 1}")
    if outcomes is None:
        outcomes = ProfileOutcomes(model, policy, space)
    others = [k for k in range(model.n_evs) if k != i]
    count = model.horizon ** len(others)
    if count > ENUMERATION_GUARD:
        raise ValueError("conditional enumeration too large")
    total = 0.0
    slots = range(1, model.horizon + 1)
    for combo in itertools.product(slots, repeat=len(others)):
        p = 1.0
        for k, tk in zip(others, combo):
            p *= model.params[k].pmf[tk - 1]
        if p == 0.0:
            continue
        profile = [0] * model.n_evs
        profile[i] = t
        for k, tk in zip(others, combo):
            profile[k] = tk
        total += p * outcomes[profile].system_cost
    return total


def estimate_lipschitz_K(
    profiles: Sequence[Sequence[DeadlineDistribution]],
    trials: int,
    config: SolverConfig,
    market: MarketModel,
    specs: Sequence[EVSpec],
    solved: SolveResult | None = None,
) -> float:
    """Sampled bound on the cost sensitivity to belief perturbations.

    For each of the first ``trials`` bid profiles (cycling through
    ``profiles``), solve the two-stage problem and take 2*sqrt(T) times
    the l2 norm of the per-slot conditional costs; the estimate is the
    running max, so it is nondecreasing in ``trials``.  ``solved``, when
    given, is the solve of ``profiles[0]`` under ``config`` and is used in
    place of solving that profile again.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if solved is not None and (
        solved.model.params != tuple(profiles[0]) or solved.model.specs != tuple(specs)
    ):
        raise ValueError("solved is not the solve of profiles[0] on these EVs")
    best = 0.0
    horizon = market.horizon
    for k in range(trials):
        bids = tuple(profiles[k % len(profiles)])
        if solved is not None and k % len(profiles) == 0:
            result = solved
        else:
            result = solve_outer(bids, config, market, specs)
        model = result.model
        outcomes = ProfileOutcomes(model, result.policy, result.space)
        for i in range(len(specs)):
            vec = np.array(
                [
                    conditional_beta(model, result.policy, i, t, outcomes=outcomes)
                    for t in range(1, horizon + 1)
                    if model.params[i].pmf[t - 1] > 0.0
                ]
            )
            best = max(best, 2.0 * math.sqrt(horizon) * float(np.linalg.norm(vec)))
    return best


# ---------------------------------------------------------------------------
# brute-force oracle: no dynamic programming anywhere
# ---------------------------------------------------------------------------


def _oracle_feasible(spec: EVSpec, state: tuple[bool, float]) -> list[tuple[float, ...]]:
    connected, h = state
    if connected:
        return [lvl - h for lvl in spec.levels]
    return [0.0]


def brute_force_oracle(
    bids: Sequence[DeadlineDistribution],
    market: MarketModel,
    specs: Sequence[EVSpec],
    grid: Sequence[Sequence[float]],
) -> float:
    """Minimum expected cost over every (plan, deterministic policy) pair.

    Policies are enumerated as explicit action tables over the states each
    policy can actually reach, and every policy is priced by summing
    realized costs over all deadline profiles.  No value recursion is used
    anywhere, so this is an independent check of the DP solver.  Tiny
    instances only.
    """
    horizon = market.horizon
    n_evs = len(specs)
    if horizon > 3 or n_evs > 2 or any(len(s.levels) > 2 for s in specs) or len(grid) > 9:
        raise ValueError("oracle instance too large: need T<=3, <=2 EVs, <=2 levels, <=9 plans")
    profiles = []
    for combo in itertools.product(range(1, horizon + 1), repeat=n_evs):
        p = 1.0
        for dist, t in zip(bids, combo):
            p *= dist.pmf[t - 1]
        if p > 0.0:
            profiles.append((combo, p))

    hazards = []
    for dist in bids:
        surv = np.maximum(dist.survival(), 0.0)
        hz = []
        for slot in range(1, horizon + 1):
            s = surv[slot - 1]
            hz.append(min(max(dist.pmf[slot - 1] / s, 0.0), 1.0) if s > 0 else None)
        hazards.append(hz)

    best = math.inf
    for g in grid:
        g = tuple(float(x) for x in g)
        gen = market.generator_cost(g)
        if gen == math.inf:
            continue
        count = 0

        def branches(slot: int, state, action):
            """Positive-probability successor states (connectivity splits)."""
            per_ev = []
            for i in range(n_evs):
                connected, h = state[i]
                h2 = h + action[i]
                if not connected:
                    per_ev.append([(False, h2)])
                    continue
                hz = hazards[i][slot - 1]
                if hz is None:
                    raise UnreachableOracleState()
                outs = []
                if hz < 1.0:
                    outs.append((True, h2))
                if hz > 0.0:
                    outs.append((False, h2))
                per_ev.append(outs)
            return [tuple(c) for c in itertools.product(*per_ev)]

        init = tuple((True, 0.0) for _ in range(n_evs))
        policy: dict[tuple[int, tuple], tuple[float, ...]] = {}
        values: list[float] = []

        def price_policy() -> float:
            total = 0.0
            for profile, p in profiles:
                connected = [True] * n_evs
                charge = [0.0] * n_evs
                reserve = 0.0
                for slot in range(1, horizon + 1):
                    state = tuple((connected[i], charge[i]) for i in range(n_evs))
                    action = policy[(slot, state)]
                    for i in range(n_evs):
                        charge[i] += action[i]
                    m = market.demand[slot - 1] + sum(action) - g[slot - 1]
                    reserve += market.reserve_cost_at(slot, m)
                    if reserve == math.inf:
                        break
                    for i in range(n_evs):
                        if slot >= profile[i]:
                            connected[i] = False
                if reserve == math.inf:
                    return math.inf
                total += p * (reserve - market.ev_energy_value * sum(charge))
            return total

        def rec(slot: int, states: tuple) -> None:
            nonlocal count
            if slot > horizon:
                count += 1
                if count > ORACLE_POLICY_GUARD:
                    raise ValueError("oracle policy count guard exceeded")
                values.append(price_policy())
                return
            option_lists = []
            for s in states:
                acts = [
                    tuple(a)
                    for a in itertools.product(
                        *(_oracle_feasible(specs[i], s[i]) for i in range(n_evs))
                    )
                ]
                option_lists.append(acts)
            for combo in itertools.product(*option_lists):
                nxt = set()
                for s, a in zip(states, combo):
                    policy[(slot, s)] = a
                    nxt.update(branches(slot, s, a))
                rec(slot + 1, tuple(sorted(nxt)))

        try:
            rec(1, (init,))
        except UnreachableOracleState:
            continue
        finite = [v for v in values if v < math.inf]
        if finite:
            best = min(best, gen + min(finite))
    if best == math.inf:
        raise InfeasibleModel("oracle: every plan/policy pair is infeasible")
    return best


class UnreachableOracleState(Exception):
    pass
