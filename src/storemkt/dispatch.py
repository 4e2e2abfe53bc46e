"""Two-stage dispatch search: outer grid over generator plans, inner MDP.

The outer stage enumerates quantized dispatch vectors; the inner stage
prices each one by solving the storage MDP.  ``beta_bar(g)`` is that
price for one plan by the reference recursion: dispatch cost plus the
optimal expected recourse value from the initial state.

Below ``solve_outer`` a plan is a row of indices into each slot's
ascending dispatch levels, so the smaller row is the lexicographically
smaller plan, and ties go to it everywhere.  Floats appear only at the
edges: explicit candidates, and near-tie plans re-priced like them, are
mapped to rows over their own levels, and the winner to ``g_star``.

Every plan is priced by one batched backward pass whose columns are
dispatch tails; the value at layer t depends only on the tail, so tails
shared by many plans are priced once.  Slot t lays out the columns of
layer t-1 as a ``Stage``, a (level, source column) pair of arrays.  The
pass runs on one state space, an ``mdp.CountSpace``.  Each slot is a
post-decision step.  The zero-action expectation runs once over the
value array, in place, one class of EVs at a time (the kernel never
becomes a dense matrix).  An action's continuation is then the row of
its post-decision state.  The stage cost depends only on the action's
charge sum, so the kernel takes the min over actions of equal sum first,
for a chunk of columns at a time in one gather and one
``minimum.reduceat`` over the space's flat runs, one per (charge sum,
state).  Each output column then adds every sum's reserve cost under its
dispatch level and takes the min over sums, in one broadcast step per
chunk of output columns.  Every cost comes from one table per slot
(``_CostTables``), built once per solve: each dispatch level's generator
cost, and a (charge sum x dispatch level) table of reserve costs with
one ``reserve_cost_at`` call per distinct mismatch.  The passes, the
beam's greedy tail, every plan's dispatch cost and the exhaustive pass's
dominance margin read them.  Slot 1 takes the min for the initial state
only.

The exhaustive search prices the whole grid in one such pass, and drops
dominated tails as it goes (Morin & Marsten, *Oper. Res.* 24(4), 1976;
Ibaraki, *J. ACM* 24(2), 1977).  The backward step is monotone and
shifts with a constant, so a tail whose values plus dispatch cost are
beaten in every row by another tail's loses under every prefix.  After
each slot t >= 2, every tail beaten by more than a margin is dropped and
only the survivors run ahead into slot t-1: 45 to 81 of table1's 127,413
four-EV plans reach slot 1.  The filter sweeps the tails once, cheapest
first: each tail still kept drops every later tail it beats, so a
dropped tail is beaten by one that stays.  The margin exceeds the worst
rounding gap between two computed plan costs plus LUMP_TIE_TOL (see
PRUNE_ROUNDING), and kept columns run exactly the full grid's
operations, so the argmin, the near-tie set and every kept plan's bits
are the full grid's.
``SolveResult.candidates_evaluated`` still counts the whole grid.  When
two or more EVs share a spec and a bid, that pass lumps them: it runs on
their occupancy counts instead of the joint states, 35 rows instead of
256 for four table1 EVs.  Lumped prices agree with joint-state prices
only up to rounding.  So when more than one plan lies within
LUMP_TIE_TOL of the lumped minimum, those plans are re-priced with every
EV in its own class, on the joint states, which pick the winner (ties to
the smaller plan, as everywhere); a lone such plan is the joint-state
argmin already.  The grid's plan count is not capped: before each slot
allocates, its bytes are bounded from the tails kept so far, and past
BATCH_BYTE_BUDGET the pass fails with ``BatchTooLarge`` instead, after
the slots before it have run.  Every mode first estimates, from the specs
alone, the joint-state tables, the (state, action) pair table and the
successor tables that pricing and the winner's re-solve build, and fails
the same way when those would not fit.

Beam search completes every prefix with one storage-blind greedy tail,
and a layer depends only on the tail below it (backward induction).  So
the tail's value layers are formed once per solve, in T-1 single-column
slot passes from the terminal layer.  Depth d then prices all its
extended prefixes in one pass over slots d..1 only, the prefixes as
columns, from a copy of the layer the tail leaves after slot d.  A solve
makes (T-1) + T(T+1)/2 slot passes, 19 at T = 5, where pricing each depth
over every slot took T², 25.  An explicit candidate list is priced like
one depth, as full-length prefixes with an empty tail.  Neither lumps:
every EV is its own class, so lumped rounding cannot reorder near-tied
prefixes.

Every search mode ends alike: the winning plan is re-solved by the
reference recursion (``mdp.solve_dp``) on the joint states of an
``mdp.StateSpace``, which also yields its policy, and the two values must
agree; disagreement is a bug, not a tolerance question.  A solve builds
that space once: every pass that does not lump, the near-tie re-pricing
included, prices on it too.  The reference is table-driven too, but it
encodes the kernel differently: it lists every (state, action) pair and
each post-decision state's successors explicitly and minimises per
(state, action), where the pricing here applies ``expect`` class by class
and takes its min over equal-sum actions.  So the cross-check compares
two encodings.

The miss-fine probe reads solves.  ``_conditional_costs`` is the one
enumeration of report profiles: it rolls the product of the EVs' supports
through a solve's policy (``mdp.rollout``), in passes that fit
BATCH_BYTE_BUDGET.  ``conditional_beta`` and ``estimate_lipschitz_K`` read
it; neither solves anything.
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
    BATCH_BYTE_BUDGET,
    CountSpace,
    EVSpec,
    MarkovPolicy,
    MdpModel,
    RolloutBatchTooLarge,
    StateSpace,
    ValueTable,
    check_dispatch,
    check_rollout_size,
    rollout,
    solve_dp,
    system_cost,
    _Groups,
    _left_sum,
)

DEFAULT_STEP = 10.0
#: finite stand-in for +inf inside matrix products (0 * inf is nan; 0 * proxy is 0)
INF_PROXY = 1e30
INF_THRESHOLD = 1e20
CROSS_CHECK_TOL = 1e-6
ORACLE_POLICY_GUARD = 500_000
#: report profiles the conditional costs may enumerate; more fail by name
ENUMERATION_GUARD = 10_000_000
#: bytes a ``_conditional_costs`` pass holds per profile beside its
#: ``rollout``: PROBE_EV_BYTES per EV for the unravelled slots and the
#: profile array, and PROBE_BYTES for the ids, the costs, the weights, the
#: terms, the masks and the terms they select
PROBE_EV_BYTES = 16
PROBE_BYTES = 48
#: values per column chunk of the batched kernel's min over actions
CHUNK_ELEMS = 16_384
#: peak bytes ``mdp._product_pairs`` holds per (state, action) pair while it
#: builds the pair table (about 75 measured, for 2 to 5 levels per EV)
PAIR_BYTES = 80
#: peak bytes ``mdp.solve_dp`` holds per joint state and listed successor
#: (2**n_evs at most) for a slot's successor table, beyond its pairs: about
#: 41 in a fit over 4 to 7 EVs
SUCCESSOR_BYTES = 64
#: grid plans priced within this of the lumped minimum are re-priced on
#: the joint states, which pick the winner
LUMP_TIE_TOL = 1e-9
#: The exhaustive pass drops a tail c when an earlier tail d beats it in
#: every row (``_undominated``, ``_prune_margin``): by the margin
#: m = 8·LUMP_TIE_TOL + PRUNE_ROUNDING·k·S where c's cost x is at most
#: H = 6·S + 2·LUMP_TIE_TOL, and d may exceed x by at most x·m/(2·H)
#: where it is above H.  Derivation.  Let u = 2**-53 and S bound every
#: cost a plan sums from finite terms, so costs above H stem from
#: INF_PROXY, where a fixed margin vanishes in rounding (1e30 - m == 1e30).
#:   - Exactly, the backward step is monotone and shifts with a constant.
#:     So under any prefix, (P, d) costs at most (P, c) minus m·W plus
#:     m/(2·H) times the expected x over c's rows above H, W being the
#:     probability of c's rows at most H under (P, c)'s policy.
#:   - A plan (P, c) that can win or tie costs at most S + LUMP_TIE_TOL
#:     plus rounding, and no part of it is below -S, so its expected x
#:     over rows above H is at most H/2.  Hence W >= 1/2, and the exact
#:     gap is at least m/2 - m/4 = m/4.
#:   - Each computed plan cost is within k·u·4S of that exact recursion,
#:     k = T·(8·n·L + 3) + 2 for T slots, n EVs and L levels per EV at
#:     most.  Per slot and level, each class of EVs forms a weighted sum of
#:     at most n + 1 values with rounded weights (at most 8·n roundings
#:     over the classes), then adds the reserve cost; then come the T + 1
#:     additions of the dispatch cost, and the filter's own two.
#:   - So the computed gap is at least m/4 - 8·k·u·S = 2·LUMP_TIE_TOL.
#:     A dropped plan is neither the argmin nor within LUMP_TIE_TOL of
#:     it, and every kept plan keeps its bits.
#: For T = 5, n = 4, L = 2 the rounding term PRUNE_ROUNDING·k·S is about
#: 1e-12·S.
PRUNE_ROUNDING = 32 * 2.0**-53
#: rows the dominance filter first looks on for a tail that another can beat
PROBE_ROWS = 8
#: values per chunk of the dominance filter's every-row comparisons
PRUNE_PAIR_ELEMS = 2**18
#: the dominance filter stops testing after this many comparisons per
#: value of the layer; the tails not yet tested are kept
PRUNE_WORK = 8


class BatchTooLarge(ValueError):
    """A slot of the exhaustive pass, or the joint-state tables of the
    fleet, would hold more than BATCH_BYTE_BUDGET bytes.  It is the
    search's only size refusal: the grid's plan count is not capped, so a
    grid fails here, at the first slot that would not fit, or solves."""


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

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.mode not in ("exhaustive", "beam"):
            raise ValueError(f"unknown search mode {self.mode!r}")
        if self.beam_width < 1:
            raise ValueError("beam width must be >= 1")
        if self.caps is not None and any(c < 0 for c in self.caps):
            raise ValueError("caps must be nonnegative")
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
    """The winning plan with its policy, plus the model it was solved on,
    so callers never rebuild it; the policy carries its state space.
    ``pricing`` is the space the winner was priced on: the policy's space,
    or the lumped ``CountSpace`` of a grid with repeats.  While the result
    lives, solves on the same class layout share its tables.  Spaces hold
    index tables and hazards only; no batched value array outlives the
    search."""

    g_star: tuple[float, ...]
    q_star: float
    values: ValueTable
    policy: MarkovPolicy
    candidates_evaluated: int
    model: MdpModel = field(repr=False, compare=False)
    pricing: CountSpace = field(repr=False, compare=False)

    def to_jsonable(self) -> dict:
        return {
            "values": self.values.to_jsonable(),
            "policy": self.policy.to_jsonable(),
            "g_star": list(self.g_star),
            "q_star": self.q_star,
            "candidates_evaluated": self.candidates_evaluated,
        }


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
    values, _ = solve_dp(model, StateSpace(model.specs, model.params))
    return market.generator_cost(g) + values.v0()


def _greedy_tail(tables: _CostTables, start_slot: int) -> list[int]:
    """Storage-blind completion from ``start_slot``, as level indices: per
    slot, the level with the cheapest dispatch cost plus the reserve cost
    of the zero charge sum, ties to the earlier (smaller) level."""
    return [
        int(np.argmin(gen + reserve[tables.zero]))
        for gen, reserve in zip(tables.gen, tables.reserve)
    ][start_slot - 1 :]


#: the columns of layer t-1, as slot t forms them: column j runs level
#: ``level[j]`` of slot t ahead of column ``src[j]`` of layer t
Stage = tuple[np.ndarray, np.ndarray]


def _prefix_stages(plans: np.ndarray, tail: Sequence[int]) -> tuple[list[Stage], np.ndarray]:
    """Stages pricing each row of ``plans`` (level indices of slots 1..d)
    completed by the shared ``tail`` (those of slots d+1..), plus the
    layer-0 column of each row.  Suffixes shared by several rows are
    priced once: layer t-1 lists each distinct suffix from slot t once, as
    its (level, layer-t column) pair, sorted."""
    stages, cols, width = [], np.zeros(len(plans), dtype=np.intp), 1
    for column in [*tail[::-1], *plans.T[::-1]]:
        keys, cols = np.unique(column * width + cols, return_inverse=True)
        stages.append(np.divmod(keys, width))
        width = len(keys)
    return stages[::-1], cols


def _batched_inner_values(
    market: MarketModel,
    space: CountSpace,
    tables: _CostTables,
    stages: list[Stage],
    layer: np.ndarray | None = None,
) -> np.ndarray:
    """Inner DP value v0 for a batch of dispatch plans, suffix-shared.

    Columns are dispatch tails, laid out by ``stages`` (``Stage``), whose
    levels index ``tables``.  The pass runs slots len(stages)..1 from a
    copy of ``layer``, the value layer after slot len(stages) (default:
    the terminal layer, when the stages cover every slot), one ``_step``
    each.  Returns the flat layer-0 row; entries at or above INF_THRESHOLD
    mean no finite-cost policy exists.
    """
    v = _terminal(market, space) if layer is None else layer.copy()
    for slot in range(len(stages), 0, -1):
        v = _step(space, tables, slot, v, stages[slot - 1])
    return v[0]


def _terminal(market: MarketModel, space: CountSpace) -> np.ndarray:
    """The terminal value layer: stored energy credited, one column."""
    return (-market.ev_energy_value * space.total_charge).reshape(-1, 1)


def _step(
    space: CountSpace, tables: _CostTables, slot: int, v: np.ndarray, stage: Stage
) -> np.ndarray:
    """Layer slot-1 from the layer ``v`` after ``slot``, one post-decision
    step: the zero-action expectation ``space.expect`` runs once, in place
    on ``v``; an action's continuation is the row of its post-decision
    state; the min over actions with equal charge sums is taken before the
    reserve cost of that sum under each column's level is added
    (``_min_over_actions``).  Slot 1 takes that min for the initial state
    only."""
    groups = space.action_groups if slot > 1 else space.initial_groups
    n_rows = space.n_states if slot > 1 else 1
    costs = tables.reserve[slot - 1] if slot > 1 else tables.reserve[0][tables.initial]
    return _min_over_actions(costs, space.expect(slot, v), groups, stage, n_rows)


def _reserve_table(
    market: MarketModel, slot: int, sums: Sequence[float], dispatch: Sequence[float]
) -> np.ndarray:
    """The reserve cost of ``slot`` for every charge sum (rows) and
    dispatch level (columns): ``reserve_cost_at`` runs once per distinct
    mismatch ``demand + sigma - g``, formed in that order."""
    mismatch = np.subtract.outer(market.demand[slot - 1] + np.array(sums, dtype=float), dispatch)
    flat = mismatch.ravel().tolist()
    cost = {m: market.reserve_cost_at(slot, m) for m in set(flat)}
    return np.array([cost[m] for m in flat], dtype=float).reshape(mismatch.shape)


class _CostTables:
    """Each slot's costs over its ascending dispatch ``levels``, built once
    per solve: the generator cost of every level (``gen``) and the
    ``_reserve_table`` over every action charge sum of a space
    (``reserve``).  Plans and stages index the levels.  Every pass of a
    solve, its greedy tail and its plans' dispatch costs read them."""

    def __init__(self, market: MarketModel, space: CountSpace, levels: Sequence[Sequence[float]]):
        sums = space.action_groups.sums
        self.levels = levels
        self.gen = [
            np.array([market.generator.cost(slot, g) for g in lt], dtype=float)
            for slot, lt in enumerate(levels, 1)
        ]
        self.reserve = [_reserve_table(market, slot, sums, lt) for slot, lt in enumerate(levels, 1)]
        # the zero action is every state's, and the initial groups' sums
        # are some of the action sums
        self.zero = int(np.searchsorted(sums, 0.0))
        self.initial = np.searchsorted(sums, space.initial_groups.sums)


def _min_over_actions(
    costs: np.ndarray, post: np.ndarray, groups: _Groups, stage: Stage, n_rows: int
) -> np.ndarray:
    """One layer of the batched recursion from post-decision values.

    Output column j continues from column src[j] of ``post`` under level
    level[j] of the slot (``stage``).  Its value in row s is the least,
    over the charge sums k, of best[k, s, src[j]] plus ``costs[k,
    level[j]]``, the reserve cost of sum k under that level
    (``_reserve_table``), capped at INF_PROXY; best[k, s] is the min over
    the actions of sum k from s of their post-decision rows, INF_PROXY
    where s has none.  A cost of +inf never wins below the cap.

    The source columns are taken in chunks.  Each chunk's per-sum minima
    are formed once, in one gather and one ``minimum.reduceat`` over the
    runs of ``groups``.  Its output columns, in source order, then take
    their source's minima, add their (sum x level) costs in one broadcast
    and take the min over sums, a chunk of them at a time.  Every temporary
    holds about CHUNK_ELEMS values, or that many per sum, unless one
    column alone holds more (see ``_layer_bytes``).
    """
    posts, starts, cells = groups.posts, groups.starts, groups.cells
    level, src = stage
    order = np.argsort(src, kind="stable")
    by_source = src[order]
    step = max(CHUNK_ELEMS // len(posts), 1)
    out_step = max(CHUNK_ELEMS // n_rows, 1)
    edges = np.searchsorted(by_source, np.arange(0, post.shape[1] + step, step)).tolist()
    best = np.full((len(groups.sums), n_rows, min(step, post.shape[1])), INF_PROXY)
    out = np.empty((n_rows, len(src)))
    for c0, lo, hi in zip(range(0, post.shape[1], step), edges[:-1], edges[1:]):
        chunk = post[:, c0 : c0 + step]
        runs = np.minimum.reduceat(chunk[posts], starts, axis=0)
        best.reshape(-1, best.shape[2])[cells, : chunk.shape[1]] = runs
        for o0 in range(lo, hi, out_step):
            cols = order[o0 : min(o0 + out_step, hi)]
            cand = best[:, :, by_source[o0 : o0 + len(cols)] - c0]
            cand += costs[:, None, level[cols]]
            least = cand.min(axis=0)
            np.minimum(least, INF_PROXY, out=least)
            out[:, cols] = least
    return out


def _space_bytes(specs: Sequence[EVSpec]) -> int:
    """Peak bytes of the joint-state tables of ``specs``, from the level
    counts alone: ``StateSpace``'s charge table, per-EV digits and total
    charge (2·n_evs + 1 values per joint state), counted with n_evs + 1
    values of slack (8 bytes × (3·n_evs + 2) per joint state), the pair
    table of ``StateSpace.action_pairs`` (a connected EV may move to any
    level, a disconnected one stays), and the successor tables
    ``mdp.solve_dp`` reads it with."""
    n_states = math.prod(2 * len(s.levels) for s in specs)
    n_pairs = math.prod(len(s.levels) ** 2 + len(s.levels) for s in specs)
    successors = SUCCESSOR_BYTES * n_states * 2 ** len(specs)
    return 8 * (3 * len(specs) + 2) * n_states + PAIR_BYTES * n_pairs + successors


def _prune_margin(
    market: MarketModel, space: CountSpace, specs: Sequence[EVSpec], tables: _CostTables
) -> tuple[float, float]:
    """The dominance margin m of the exhaustive pass and the bound H above
    which a cost stems from INF_PROXY (see PRUNE_ROUNDING).

    S, the bound on every cost a grid plan sums from finite terms, adds
    per slot the largest finite dispatch cost over the levels and the
    largest finite reserve cost over every level and action charge sum,
    both as the pass reads them from ``tables``, to the largest terminal
    credit.
    """
    scale = market.ev_energy_value * float(np.max(np.abs(space.total_charge)))
    for costs in itertools.chain.from_iterable(zip(tables.gen, tables.reserve)):
        finite = np.abs(costs[np.isfinite(costs)])
        scale += float(finite.max()) if finite.size else 0.0
    n_levels = max((len(s.levels) for s in specs), default=1)
    steps = market.horizon * (8 * len(specs) * n_levels + 3) + 2
    margin = 8 * LUMP_TIE_TOL + PRUNE_ROUNDING * steps * scale
    return margin, 6 * scale + 2 * LUMP_TIE_TOL


def _layer_bytes(
    n_states: int, n_groups: int, n_pairs: int, n_rows: int, kept: int, width: int, horizon: int
) -> int:
    """Upper bound on the bytes one slot of the exhaustive pass holds at
    once, from the ``kept`` tails it starts from and the ``width`` tails it
    forms on ``n_rows`` rows: the value layer with the expectation's
    temporaries, the new layer with the dominance filter's copies, the
    kernel's chunks and the filter's, and each tail's indices and costs.
    The kernel holds, per charge sum, a chunk's minima and one output
    chunk's broadcast sum of minima and reserve costs, about CHUNK_ELEMS
    values each, and the chunk's ``n_pairs`` gathered action values and
    their per-row minima."""
    kernel = (2 * n_groups + 1) * max(CHUNK_ELEMS, n_states) + 2 * max(CHUNK_ELEMS, n_pairs)
    chunks = kernel + 3 * max(PRUNE_PAIR_ELEMS, n_rows)
    return 8 * (4 * n_states * kept + 6 * n_rows * width + chunks + (horizon + 8) * width)


def _undominated(v: np.ndarray, tail_gen: np.ndarray, margin: float, high: float) -> np.ndarray:
    """The columns of a value layer that no other column dominates,
    ascending.

    Column d dominates column c when, in every row, d's value plus its
    dispatch cost ``x`` is at most c's minus ``margin``.  Where c's ``x``
    is above ``high`` (rows at INF_PROXY among them) a margin vanishes in
    rounding, so there d may instead exceed c's ``x`` by a relative
    margin/(2·high).  A column whose threshold lies below the least ``x``
    of some row can never be dropped.  The columns are swept cheapest
    first (fewest rows above ``high``, then the least sum): each column
    still kept drops every later droppable column it dominates, in one
    comparison on every row.  A dropped column never drops another, so
    each is dominated by a column that stays.  Once the sweep passes
    PRUNE_WORK comparisons per value of the layer, the columns not yet
    tested are kept; keeping a column is always exact.
    """
    stretch = 1.0 + margin / (2.0 * high)

    def threshold(x: np.ndarray, above: np.ndarray) -> np.ndarray:
        thr = x - margin
        np.copyto(thr, x * stretch, where=above)
        return thr

    # on the probe rows alone, a column that no other column can beat in
    # some row is kept: most layers with no dominance end here
    probe = np.unique(np.linspace(0, len(v) - 1, PROBE_ROWS).astype(np.intp))
    x = v[probe] + tail_gen
    thr = threshold(x, x > high)
    if not (thr >= x.min(axis=1, keepdims=True)).all(axis=0).any():
        return np.arange(v.shape[1])
    x = v + tail_gen
    above = x > high
    thr = threshold(x, above)
    beatable = (thr >= x.min(axis=1, keepdims=True)).all(axis=0)
    if not beatable.any():
        return np.arange(v.shape[1])
    order = np.lexsort((np.where(above, 0.0, x).sum(axis=0), above.sum(axis=0)))
    # one column per row, in ``order``: a leader and its targets are rows
    x = x.T[order]
    thr = thr.T[order]
    kept = np.ones(len(order), dtype=bool)
    live = np.flatnonzero(beatable[order])  # droppable columns still kept
    work, budget = 0, PRUNE_WORK * x.size
    pairs = max(PRUNE_PAIR_ELEMS // x.shape[1], 1)
    for lead in range(live[-1]):
        if not kept[lead]:
            continue
        live = live[np.searchsorted(live, lead, side="right") :]
        if not len(live) or work > budget:
            break
        chunks = range(0, len(live), pairs)
        beaten = np.concatenate([(x[lead] <= thr[live[p : p + pairs]]).all(axis=1) for p in chunks])
        kept[live[beaten]] = False
        live = live[~beaten]
        work += x.shape[1] * len(beaten)
    return np.sort(order[kept])


def _price_grid(
    market: MarketModel, space: CountSpace, specs: Sequence[EVSpec], levels: list[list[float]]
) -> tuple[np.ndarray, np.ndarray]:
    """Price the exhaustive grid in one batched pass that drops dominated
    dispatch tails after every slot t >= 2.

    The layer after slot t holds one value column per kept tail (g_t..g_T),
    and slot t-1 runs every one of its levels ahead of every kept tail.  A
    tail that another beats by the margin in every row (``_undominated``)
    loses under every prefix, so it is dropped.  Kept columns run exactly
    the operations of the full grid, column by column, so their values are
    bit-identical to it.  Before each slot allocates, its bytes are
    bounded from the kept tails; past BATCH_BYTE_BUDGET the pass fails with
    ``BatchTooLarge``.  Returns every plan that reaches slot 1, as a row of
    level indices (lexicographic order, ascending), and its cost: its
    dispatch cost summed from slot 1 on, plus its inner value.
    """
    tables = _CostTables(market, space, levels)
    margin, high = _prune_margin(market, space, specs, tables)
    gen = [np.minimum(costs, INF_PROXY) for costs in tables.gen]
    v = _terminal(market, space)
    # each kept tail's level indices, ascending, and its dispatch cost
    tails = np.zeros((1, 0), dtype=np.intp)
    tail_gen = np.zeros(1)
    for slot in range(market.horizon, 0, -1):
        n_levels = len(levels[slot - 1])
        groups = space.action_groups if slot > 1 else space.initial_groups
        n_rows = space.n_states if slot > 1 else 1
        width = n_levels * len(tails)
        n_sums, n_pairs = len(groups.sums), len(groups.posts)
        need = _layer_bytes(
            space.n_states, n_sums, n_pairs, n_rows, len(tails), width, market.horizon
        )
        if need > BATCH_BYTE_BUDGET:
            raise BatchTooLarge(
                f"exhaustive pass over {space.n_states} states would hold about "
                f"{need / 2**30:.1f} GiB at slot {slot}, {width} dispatch tails "
                f"(limit {BATCH_BYTE_BUDGET / 2**30:.0f} GiB); use beam search"
            )
        level = np.repeat(np.arange(n_levels), len(tails))
        src = np.tile(np.arange(len(tails)), n_levels)
        v = _step(space, tables, slot, v, (level, src))
        tails = np.column_stack([level, tails[src]])
        tail_gen = gen[slot - 1][level] + tail_gen[src]
        if slot > 1:
            keep = _undominated(v, tail_gen, margin, high)
            if len(keep) < width:
                v, tails, tail_gen = v.take(keep, axis=1), tails[keep], tail_gen[keep]
    gen_cost = np.zeros(len(tails))
    for costs, column in zip(gen, tails.T):
        gen_cost = gen_cost + costs[column]
    return tails, gen_cost + v[0]


def _price_plans(
    market: MarketModel,
    space: CountSpace,
    tables: _CostTables,
    plans: np.ndarray,
    tail: Sequence[int] = (),
    layer: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Price each row of ``plans`` completed by the shared ``tail`` in one
    batched pass, all of them level indices into ``tables``.  ``layer``,
    when given, is the value layer that ``tail`` leaves after the plans'
    last slot, and the pass runs the plans' own slots only, from a copy of
    it.  Returns each row's cost, +inf for plans with no finite-cost
    policy, and the rows cheapest first, ties to the smaller plan."""
    stages, cols = _prefix_stages(plans, tail if layer is None else ())
    inner = _batched_inner_values(market, space, tables, stages, layer)[cols]
    q = _dispatch_costs(tables, plans, tail) + inner
    q[inner >= INF_THRESHOLD] = math.inf
    return q, np.lexsort((*plans.T[::-1], q))


def _dispatch_costs(tables: _CostTables, plans: np.ndarray, tail: Sequence[int]) -> np.ndarray:
    """``market.generator_cost`` of every row of ``plans`` completed by
    ``tail``, bit for bit: each slot's generator costs are read from
    ``tables``, and a plan's terms are added from 0 in slot order."""
    total = np.zeros(len(plans))
    for gen, column in zip(tables.gen, itertools.chain(plans.T, tail)):
        total += gen[column]
    return total


def _price_candidates(
    market: MarketModel, space: CountSpace, plans: Sequence[tuple[float, ...]]
) -> tuple[float, tuple[float, ...]]:
    """The cheapest of full-length dispatch ``plans`` and its cost, ties to
    the smaller plan, priced in one batched pass on cost tables over the
    plans' own levels."""
    levels = [sorted(set(column)) for column in zip(*plans)]
    rows = np.column_stack([np.searchsorted(lt, c) for lt, c in zip(levels, zip(*plans))])
    q, order = _price_plans(market, space, _CostTables(market, space, levels), rows)
    return float(q[order[0]]), plans[order[0]]


def _solve_beam(
    levels: list[list[float]],
    market: MarketModel,
    space: CountSpace,
    width: int,
) -> tuple[np.ndarray, float, int]:
    """Keep the ``width`` best prefixes per depth, each scored as the plan
    it makes with the storage-blind greedy tail.  The tail's value layers
    are formed once, in one backward pass from the terminal layer; depth d
    prices all its extended prefixes in one batched pass over slots d..1,
    from the layer the tail leaves after slot d.  Every pass, the tail and
    every score read one set of cost tables.  Returns the winner's level
    indices, its score and the number of prefixes scored."""
    tables = _CostTables(market, space, levels)
    tail = _greedy_tail(tables, 2)
    # layers[t - 1]: the value layer after slot t under the tail's slots
    # t+1..T, one column
    layers = [_terminal(market, space)]
    prefixes = np.zeros((1, 0), dtype=np.intp)
    stages, _ = _prefix_stages(prefixes, tail)
    for slot in range(market.horizon, 1, -1):
        layers.append(_step(space, tables, slot, layers[-1].copy(), stages[slot - 2]))
    layers.reverse()
    evaluated = 0
    for slot in range(1, market.horizon + 1):
        n = len(levels[slot - 1])
        extended = np.column_stack([prefixes.repeat(n, axis=0), np.tile(range(n), len(prefixes))])
        q, order = _price_plans(market, space, tables, extended, tail[slot - 1 :], layers[slot - 1])
        evaluated += len(extended)
        prefixes = extended[order[:width]]
    if q[order[0]] == math.inf:
        raise InfeasibleModel("beam search found no feasible dispatch")
    return prefixes[0], float(q[order[0]]), evaluated


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
    if len(bids) != len(specs):
        raise ValueError(f"{len(bids)} bids for {len(specs)} EVs: need one bid per EV")
    need = _space_bytes(specs)
    if need > BATCH_BYTE_BUDGET:
        raise BatchTooLarge(
            f"the joint states, (state, action) pairs and successors of {len(specs)} EVs "
            f"would hold about {need / 2**30:.1f} GiB "
            f"(limit {BATCH_BYTE_BUDGET / 2**30:.0f} GiB); use fewer EVs or fewer charge levels"
        )
    # unlike fleets price on the joint states the winner is re-solved on
    space = pricing = StateSpace(specs, bids)
    if config.candidates is not None:
        candidates = config.candidates
        if not candidates:
            raise InfeasibleModel("every candidate dispatch is infeasible")
        for g in candidates:
            check_dispatch(g, market.horizon)
        batched_q, g_star = _price_candidates(market, space, candidates)
        if batched_q == math.inf:
            raise InfeasibleModel("every candidate dispatch is infeasible")
        evaluated = len(candidates)
    elif config.mode == "beam":
        levels = grid_levels(market, specs, config)
        row, batched_q, evaluated = _solve_beam(levels, market, space, config.beam_width)
        g_star = tuple(lt[k] for lt, k in zip(levels, row))
    else:
        levels = grid_levels(market, specs, config)
        # identical EVs price on occupancy counts
        lumped = len(set(zip(specs, bids))) < len(specs)
        if lumped:
            pricing = CountSpace(specs, bids)
        rows, q = _price_grid(market, pricing, specs, levels)
        best = int(np.argmin(q))
        if q[best] >= INF_THRESHOLD:
            raise InfeasibleModel("every dispatch plan on the grid is infeasible")
        evaluated = math.prod(len(lt) for lt in levels)
        batched_q = float(q[best])
        near = rows[q <= batched_q + LUMP_TIE_TOL] if lumped else rows[best : best + 1]
        # lumped prices match product prices only up to rounding, so the
        # product prices of the near-minimal plans pick the winner; a lone
        # near plan is the product argmin already
        plans = [tuple(lt[k] for lt, k in zip(levels, row)) for row in near]
        g_star = plans[0]
        if len(plans) > 1:
            pricing = space
            batched_q, g_star = _price_candidates(market, space, plans)
    model = MdpModel(market, specs, bids, g_star)
    values, policy = solve_dp(model, space)
    q_star = market.generator_cost(g_star) + values.v0()
    if abs(q_star - batched_q) > CROSS_CHECK_TOL:
        raise RuntimeError(
            f"batched and reference inner values disagree: "
            f"{batched_q} vs {q_star} at g={g_star}"
        )
    return SolveResult(tuple(g_star), float(q_star), values, policy, evaluated, model, pricing)


def conditional_beta(model: MdpModel, policy: MarkovPolicy, i: int, t: int) -> float:
    """Expected realized cost given EV ``i`` reports slot ``t``, others
    drawn from their distributions: exact, from the one enumeration of
    report profiles (``_conditional_costs``) with EV i's support ``(t,)``."""
    if not 0 <= i < model.n_evs:
        raise IndexError(f"EV index {i} out of range")
    if not 1 <= t <= model.horizon:
        raise ValueError(f"slot {t} outside 1..{model.horizon}")
    if model.params[i].pmf[t - 1] <= 0.0:
        raise ValueError(f"slot {t} has zero probability for EV {i + 1}")
    supports = _supports(model)
    supports[i] = (t,)
    return _conditional_costs(model, policy, supports)[i][0]


def estimate_lipschitz_K(solves: Sequence[SolveResult]) -> float:
    """Sampled bound on the cost sensitivity to belief perturbations: the
    max over ``solves`` and their EVs of 2*sqrt(T) times the l2 norm of the
    EV's per-slot conditional costs (``_conditional_costs``).  Prices the
    solves it is given and solves nothing itself."""
    if not solves:
        raise ValueError("need at least one solve")
    norms = (
        2.0 * math.sqrt(res.model.horizon) * float(np.linalg.norm(vec))
        for res in solves for vec in _conditional_costs(res.model, res.policy)
    )
    return max(norms, default=0.0)


def _supports(model: MdpModel) -> list[tuple[int, ...]]:
    """Each EV's slots with pmf > 0, in slot order."""
    return [tuple(t for t, p in enumerate(law.pmf, 1) if p > 0.0) for law in model.params]


def _conditional_costs(
    model: MdpModel, policy: MarkovPolicy, supports: Sequence[Sequence[int]] | None = None
) -> list[list[float]]:
    """Per EV i, ``conditional_beta(model, policy, i, t)`` for each slot t
    of ``supports[i]`` (by default, its slots with pmf > 0), in that order.

    The one enumeration of report profiles: the supports' product in
    ``itertools.product`` order, in passes of at most the profiles one
    ``rollout`` takes beside the pass's own arrays (``check_rollout_size``
    with PROBE_EV_BYTES and PROBE_BYTES).  Each (EV, slot) total
    adds its terms from 0.0 in that order, so no float depends on the pass
    size: p times a profile's cost, p multiplied up from 1.0 in EV order
    over the other EVs, p == 0 skipped.  Past ENUMERATION_GUARD profiles
    it raises ``RolloutBatchTooLarge`` before anything is built."""
    supports = _supports(model) if supports is None else supports
    shape = tuple(len(s) for s in supports)
    count = math.prod(shape) if shape else 0  # no EVs: nothing to condition on
    if count > ENUMERATION_GUARD:
        raise RolloutBatchTooLarge(
            f"conditional costs over {count} report profiles (limit {ENUMERATION_GUARD})"
        )
    n = model.n_evs
    per_pass = check_rollout_size(1, n, model.horizon, PROBE_EV_BYTES * n + PROBE_BYTES)
    slots = [np.array(s, dtype=np.intp) for s in supports]
    # each EV's pmf indexed by slot, so a profile's slots read its weights
    pmfs = [np.array((0.0,) + law.pmf) for law in model.params]
    generator_cost = model.market.generator_cost(model.dispatch)
    totals = [[0.0] * len(s) for s in supports]
    for start in range(0, count, per_pass):
        ids = np.arange(start, min(start + per_pass, count))
        profiles = np.array([s[k] for s, k in zip(slots, np.unravel_index(ids, shape))]).T
        r = rollout(model, policy, profiles)
        costs = system_cost(model.market, generator_cost, r.reserve_cost, r.terminal)
        del r  # freed before the next pass allocates
        for i, (support, total) in enumerate(zip(supports, totals)):
            p = np.ones(len(costs))
            for j, pmf in enumerate(pmfs):
                if j != i:
                    p = p * pmf[profiles[:, j]]
            terms, live = p * costs, p != 0.0
            for k, t in enumerate(support):
                total[k] = _left_sum(terms[live & (profiles[:, i] == t)], total[k])
    return totals


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
    instances only.  Its hazards are its own, pmf / survival as is:
    ``random_tiny_instance`` draws floor-0.05 bids, whose last slot with
    mass is the last slot, so no connected mass can pass it into a
    zero-survival layer, where ``mdp._hazards`` sets the hazard to 1.0.
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
