"""Finite-horizon storage MDP: state space, backward induction, rollouts.

The day has slots 1..T.  Each EV starts connected with an empty battery and
disconnects at most once; once disconnected its stored energy is frozen.
The joint state at the end of slot t collects, per EV, a connected flag and
a charge level drawn from that EV's admissible set.  Actions are per-EV
charge deltas applied during a slot; the slot's reserve mismatch is
``demand + sum(deltas) - dispatch``.  Policies store actions as those
float deltas, but the solvers enumerate them by *target level index*: a
connected EV may move to any of its levels, a disconnected EV stays.
Charges are resolved back to level indices within ``LEVEL_TOL``, so
levels that floats cannot represent exactly (0.07, 0.3, ...) work too.

Connectivity evolves by the hazard implied by the EV's deadline
distribution: an EV still connected at the end of slot t-1 disconnects at
the end of slot t with probability pmf(t) / P(deadline >= t).  Each
``StateSpace`` computes these hazards once.  States whose survival
probability is exactly zero are unreachable; the solver assigns them +inf
and skips them, and explicit kernel queries on them raise.

An action only moves EVs to their target levels; the hazard then acts on
the resulting *post-decision* state.  So the kernel of every action is
the zero-action kernel read at the post-decision row.  The space encodes
that kernel two ways.  The batched pricing in ``dispatch`` applies it
once per slot, one EV axis at a time (``StateSpace.expect``).  The
reference recursion ``solve_dp`` and the forward pass ``expected_outcome``
read explicit tables instead: every (state, action) pair with its
post-decision id (``StateSpace.action_pairs``), and per slot each
post-decision state's padded successor list (``StateSpace.successor_table``).

Values are expected dollars to go.  The terminal layer credits stored
energy at the market's ``ev_energy_value``.
"""
from __future__ import annotations

import bisect
import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .costs import MarketModel
from .deadlines import DeadlineDistribution

#: refuse exhaustive deadline-profile enumeration beyond this many profiles
ENUMERATION_GUARD = 10_000_000
#: kWh slack when resolving a charge to one of an EV's admissible levels
LEVEL_TOL = 1e-9


class UnreachableStateError(ValueError):
    """A kernel or policy query hit a zero-survival-probability state."""


class NoFeasibleContinuation(RuntimeError):
    """Some state has no action with finite cost at some slot."""


@dataclass(frozen=True)
class EVSpec:
    """Storage capability of one EV: capacity and admissible charge levels."""

    capacity: float
    levels: tuple[float, ...]

    def __post_init__(self) -> None:
        levels = tuple(float(h) for h in self.levels)
        if not levels or levels[0] != 0.0:
            raise ValueError("levels must start at 0")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError("levels must be strictly increasing")
        if levels[-1] > self.capacity + 1e-12:
            raise ValueError("levels exceed capacity")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "capacity", float(self.capacity))


@dataclass(frozen=True)
class MdpModel:
    """One day-ahead problem instance: market, fleet, beliefs, dispatch."""

    market: MarketModel
    specs: tuple[EVSpec, ...]
    params: tuple[DeadlineDistribution, ...]
    dispatch: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        object.__setattr__(self, "params", tuple(self.params))
        object.__setattr__(self, "dispatch", tuple(float(g) for g in self.dispatch))
        if len(self.specs) != len(self.params):
            raise ValueError("one deadline distribution per EV is required")
        horizon = self.market.horizon
        check_dispatch(self.dispatch, horizon)
        for k, dist in enumerate(self.params):
            if dist.horizon != horizon:
                raise ValueError(f"params[{k}] horizon {dist.horizon} != {horizon}")

    @property
    def horizon(self) -> int:
        return self.market.horizon

    @property
    def n_evs(self) -> int:
        return len(self.specs)


def check_dispatch(dispatch: Sequence[float], horizon: int) -> None:
    """Raise ValueError unless ``dispatch`` is one nonnegative level per slot."""
    if len(dispatch) != horizon:
        raise ValueError("dispatch length does not match horizon")
    if any(g < 0 for g in dispatch):
        raise ValueError("dispatch must be nonnegative")


def stage_cost(
    market: MarketModel, slot: int, g_slot: float, actions: Sequence[float]
) -> float:
    """Reserve cost of one slot given the dispatch and joint charge deltas."""
    mismatch = market.demand[slot - 1] + float(sum(actions)) - g_slot
    return market.reserve_cost_at(slot, mismatch)


def system_cost(
    market: MarketModel, generator_cost: float, reserve_cost: float, terminal: np.ndarray
) -> float:
    """Realized system cost: dispatch cost + reserve cost - value of the
    energy ``terminal`` (kWh per EV) handed to EVs."""
    return generator_cost + reserve_cost - market.ev_energy_value * float(terminal.sum())


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


class StateSpace:
    """Dense mixed-radix indexing of joint EV states, cached hazards, and the
    per-slot expectation operator.

    Per-EV state ids place connected charge levels first (ascending), then
    disconnected ones; EV 1 is the most significant digit of the joint id,
    so joint id 0 is the initial all-connected all-empty state.
    """

    def __init__(self, specs: Sequence[EVSpec], params: Sequence[DeadlineDistribution]):
        self.specs = tuple(specs)
        self.params = tuple(params)
        self.n_per = [2 * len(s.levels) for s in self.specs]
        self.n_states = int(np.prod(self.n_per)) if self.specs else 1
        self.horizon = self.params[0].horizon if self.params else None
        # joint-id digit arrays, one per EV
        ids = np.arange(self.n_states)
        self._digits: list[np.ndarray] = []
        stride = self.n_states
        for n in self.n_per:
            stride //= n
            self._digits.append((ids // stride) % n)
        # per-EV charge and connectivity lookup by per-EV id
        self._charges = [np.array(list(s.levels) * 2) for s in self.specs]
        self._connected = [
            np.array([True] * len(s.levels) + [False] * len(s.levels)) for s in self.specs
        ]
        # kWh stored per EV for every joint state
        self.charge_by_ev = np.array(
            [self._charges[i][self._digits[i]] for i in range(len(self.specs))]
        ).reshape(len(self.specs), self.n_states)
        self.total_charge = (
            self.charge_by_ev.sum(axis=0) if self.specs else np.zeros(self.n_states)
        )
        # P(deadline > t) per EV, and the hazard of leaving during slot t
        # (index t-1).  A zero-survival slot gets the immediate-disconnect
        # stub 1.0: its connected states carry no mass from any valid state.
        self._survival = [np.maximum(p.survival(), 0.0) for p in self.params]
        self._hazard = [
            [
                min(max(p.pmf[t] / surv[t], 0.0), 1.0) if surv[t] > 0.0 else 1.0
                for t in range(p.horizon)
            ]
            for p, surv in zip(self.params, self._survival)
        ]

    # ---- encoding ------------------------------------------------------

    def encode(self, state: Sequence[tuple[bool, float]]) -> int:
        joint = 0
        for (connected, h), spec, n in zip(state, self.specs, self.n_per):
            per = _level_index(spec.levels, h)
            joint = joint * n + (per if connected else len(spec.levels) + per)
        return joint

    def decode(self, joint: int) -> tuple[tuple[bool, float], ...]:
        out = []
        for i in range(len(self.specs) - 1, -1, -1):
            n = self.n_per[i]
            per = joint % n
            joint //= n
            out.append((bool(self._connected[i][per]), float(self._charges[i][per])))
        return tuple(reversed(out))

    @property
    def initial(self) -> int:
        return 0

    # ---- survival / validity -------------------------------------------

    def survival(self, i: int) -> np.ndarray:
        """P(deadline > t) for t = 0..T of EV ``i``, cached; do not mutate."""
        return self._survival[i]

    def valid_mask(self, layer: int) -> np.ndarray:
        """States with positive probability of existing at the given layer.

        Connected per-EV states are invalid once the EV's survival
        probability hits exactly zero.  The terminal layer is exempt: the
        terminal cost is defined everywhere.
        """
        mask = np.ones(self.n_states, dtype=bool)
        if layer >= (self.horizon or 0):
            return mask
        for i in range(len(self.specs)):
            if self._survival[i][layer] <= 0.0:
                mask &= ~self._connected[i][self._digits[i]]
        return mask

    # ---- explicit tables -------------------------------------------------

    def action_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every (state, action) pair, state-major, each state's actions in
        target-index product order (EV 1's target varies slowest).

        An action is a target level index per connected EV; a disconnected
        EV stays.  Its post-decision state keeps every connectivity flag
        and puts each EV at its target level, so the action's per-EV
        charge deltas are ``charge_by_ev[:, post] - charge_by_ev[:, state]``.
        Returns (state, post-decision id, charge sum); the sum adds those
        deltas EV by EV from 0.0, exactly as ``sum`` over an action tuple.
        Built on each call: the space keeps per-state tables only.
        """
        state = np.arange(self.n_states)
        post = np.zeros(self.n_states, dtype=np.intp)
        sigma = np.zeros(self.n_states)
        for i, (spec, n) in enumerate(zip(self.specs, self.n_per)):
            nl = len(spec.levels)
            digit = self._digits[i][state]
            reps = np.where(digit < nl, nl, 1)
            row = np.repeat(np.arange(len(state)), reps)
            # the k-th copy of a connected row targets level k
            local = np.arange(len(row)) - (np.cumsum(reps) - reps)[row]
            digit = digit[row]
            to = np.where(digit < nl, local, digit)
            delta = self._charges[i][to] - self._charges[i][digit]
            state, post, sigma = state[row], post[row] * n + to, sigma[row] + delta
        return state, post, sigma

    def successor_table(
        self, slot: int, posts: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Where post-decision states go at the end of ``slot``: (successor
        ids, probabilities, counts), one row per id in ``posts`` (default:
        every joint id), padded to the longest row with id 0 and
        probability 0.0.

        Each connected EV stays at its level with probability 1 - hazard
        and leaves at it with the hazard, a zero branch skipped; a
        disconnected EV stays put.  A row lists its successors in product
        order over the EVs (EV 1 slowest, stay before leave), each
        probability multiplied up from 1.0 in EV order.  Connected EVs
        with zero survival take the hazard stub 1.0; no valid state's
        action leads there.
        """
        posts = np.arange(self.n_states) if posts is None else posts
        ids = np.zeros((len(posts), 1), dtype=np.intp)
        probs = np.ones((len(posts), 1))
        count = np.ones(len(posts), dtype=np.intp)
        for i, (spec, n) in enumerate(zip(self.specs, self.n_per)):
            nl = len(spec.levels)
            hazard = self._hazard[i][slot - 1]
            digit = self._digits[i][posts]
            if hazard == 0.0 or hazard == 1.0:
                # one branch per row, of probability factor 1.0
                ids = ids * n + np.where(digit < nl, digit + nl * int(hazard), digit)[:, None]
                continue
            # each listed successor of a connected row splits into stay, leave
            stay = ids * n + digit[:, None]
            width = ids.shape[1]
            ids = np.repeat(stay, 2, axis=1)
            ids[:, 1::2] += nl
            kept = probs
            probs = np.empty_like(ids, dtype=float)
            probs[:, 0::2] = kept * (1.0 - hazard)
            probs[:, 1::2] = kept * hazard
            # a disconnected row keeps its one branch per successor
            frozen = digit >= nl
            ids[frozen, :width] = stay[frozen]
            probs[frozen, :width] = kept[frozen]
            count = np.where(frozen, count, 2 * count)
        pad = np.arange(ids.shape[1]) >= count[:, None]
        ids[pad] = 0
        probs[pad] = 0.0
        return ids, probs, count

    # ---- batched operators -------------------------------------------------

    def expect(self, slot: int, values: np.ndarray, connected_only: bool = False) -> np.ndarray:
        """Apply the zero-action kernel K_{slot,0} to ``values`` in place.

        ``values`` is (n_states, S), one column per dispatch tail; row s
        becomes sum_s' K(s, s') values[s'], the expected value of ending
        the slot from post-decision state s.  The product-form kernel is
        applied one EV axis at a time: a connected EV at level k stays
        connected at k with probability 1 - hazard and leaves at k
        otherwise; a disconnected EV stays put.  With ``connected_only``
        only the rows where every EV is connected are formed, returned as
        a (prod of level counts, S) array in mixed-radix level order.
        """
        if not values.flags.c_contiguous:
            raise ValueError("values must be C-contiguous: they are updated in place")
        width = values.shape[1]
        x = values.reshape(*self.n_per, width)
        for i, spec in enumerate(self.specs):
            nl = len(spec.levels)
            hazard = self._hazard[i][slot - 1]
            lead = (slice(None),) * i
            for k in range(nl):
                stay = x[lead + (k,)]
                leave = x[lead + (nl + k,)]
                stay *= 1.0 - hazard
                if connected_only:
                    leave *= hazard  # rows dropped below: no temporary
                    stay += leave
                else:
                    stay += hazard * leave
            if connected_only:
                x = x[lead + (slice(0, nl),)]
        return x.reshape(-1, width) if connected_only else values

    @cached_property
    def action_groups(self) -> list[tuple[float, np.ndarray, list[np.ndarray]]]:
        """Every (state, action) pair of ``action_pairs``, grouped by the
        action's charge sum (see ``_group_by_sum``).  Built on first use;
        only the batched pricing kernel needs it."""
        return _group_by_sum(*self.action_pairs())

    @cached_property
    def initial_groups(self) -> list[tuple[float, np.ndarray, list[np.ndarray]]]:
        """``action_groups`` restricted to the initial state, with each
        post-decision id mapped to its row of ``expect(..., connected_only=True)``."""
        out = []
        for sigma, rows, ranks in self.action_groups:
            at = np.flatnonzero(rows == self.initial)
            if not len(at):
                continue
            posts = np.array([r[at[0]] for r in ranks if len(r) > at[0]])
            sub = np.zeros(len(posts), dtype=np.intp)
            for spec, digits in zip(self.specs, self._digits):
                sub = sub * len(spec.levels) + digits[posts]
            out.append((sigma, rows[at], [sub[r : r + 1] for r in range(len(sub))]))
        return out


def _level_index(levels: Sequence[float], x: float) -> int:
    """Index of the admissible level within LEVEL_TOL of charge ``x``.

    Charges and targets arrive as sums of float deltas, which need not
    reproduce a non-dyadic level bit for bit.
    """
    k = bisect.bisect_left(levels, x - LEVEL_TOL)
    if k < len(levels) and abs(levels[k] - x) <= LEVEL_TOL:
        return k
    raise ValueError(f"charge {x!r} is not an admissible level of {tuple(levels)}")


def _group_by_sum(
    state: np.ndarray, post: np.ndarray, sigma: np.ndarray
) -> list[tuple[float, np.ndarray, list[np.ndarray]]]:
    """Group (state, post-decision id) pairs by sum: per distinct sum,
    (sigma, rows, ranks).  ``rows`` lists the states having such an
    action, those with the most first; ``ranks[r]`` holds the r-th such
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


@dataclass
class ValueTable:
    """Expected dollars-to-go per layer and joint state; +inf marks states
    that are unreachable or have no feasible continuation."""

    values: np.ndarray  # (T+1, n_states)

    def v0(self) -> float:
        return float(self.values[0, 0])

    def to_jsonable(self) -> list[list[float]]:
        return [[float(x) for x in row] for row in self.values]


@dataclass
class MarkovPolicy:
    """Deterministic slot-indexed feedback policy on joint state ids: each
    action as per-EV charge deltas, and the post-decision state it leads to
    (``posts[slot - 1, joint]``, -1 where the state has no action)."""

    n_evs: int
    actions: dict[tuple[int, int], tuple[float, ...]]
    posts: np.ndarray = field(repr=False, compare=False)

    def action(self, slot: int, joint: int) -> tuple[float, ...]:
        try:
            return self.actions[(slot, joint)]
        except KeyError:
            raise UnreachableStateError(
                f"policy has no action for slot {slot}, state {joint}"
            ) from None

    def to_jsonable(self) -> dict[str, list[float]]:
        return {
            f"{slot},{joint}": list(act)
            for (slot, joint), act in sorted(self.actions.items())
        }


def policy_artifact(values: ValueTable, policy: MarkovPolicy) -> str:
    """JSON export of a solved policy and its value table."""
    payload = {"values": values.to_jsonable(), "policy": policy.to_jsonable()}
    return json.dumps(payload, sort_keys=True)


def solve_dp(model: MdpModel, space: StateSpace | None = None) -> tuple[ValueTable, MarkovPolicy]:
    """Backward induction over all joint states (Puterman 1994, §4.5).

    The reference the batched pricing in ``dispatch`` is checked against,
    so it shares none of that kernel's shortcuts: it lists every (state,
    action) pair (``StateSpace.action_pairs``) and every post-decision
    state's successors explicitly (``StateSpace.successor_table``), and
    minimises per (state, action).  Per slot, each pair's total is its
    stage cost plus p·V[next] over its successors in list order, added one
    successor column at a time; pads are masked, never added.

    Actions with infinite stage cost are skipped.  Each state takes the
    first minimum in target-index order, so ties resolve to the smallest
    target index.  States with no finite-cost continuation keep +inf (they
    may simply be unreachable); only an infeasible *initial* state raises
    ``NoFeasibleContinuation``.  Zero-survival states are assigned +inf and
    get no action.
    """
    space = space or StateSpace(model.specs, model.params)
    market = model.market
    horizon = model.horizon
    values = np.empty((horizon + 1, space.n_states))
    values[horizon] = -market.ev_energy_value * space.total_charge
    state, post, sigma = space.action_pairs()
    first = np.searchsorted(state, np.arange(space.n_states))  # each state's first pair
    sums, sum_of = np.unique(sigma, return_inverse=True)
    actions: dict[tuple[int, int], tuple[float, ...]] = {}
    posts = np.full((horizon, space.n_states), -1, dtype=np.intp)
    for slot in range(horizon, 0, -1):
        demand, g = market.demand[slot - 1], model.dispatch[slot - 1]
        cost = np.array([market.reserve_cost_at(slot, demand + x - g) for x in sums.tolist()])
        total = cost[sum_of]
        total[~space.valid_mask(slot - 1)[state]] = math.inf
        ids, probs, count = space.successor_table(slot)
        live = np.flatnonzero(total < math.inf)
        n_succ = count[post[live]]
        nxt = values[slot]
        for j in range(ids.shape[1]):
            at = live[n_succ > j]
            q = post[at]
            total[at] += probs[q, j] * nxt[ids[q, j]]
        layer = values[slot - 1]
        layer[:] = np.minimum.reduceat(total, first)
        # the first finite minimum of each state, in action order
        hit = np.flatnonzero((total == layer[state]) & (total < math.inf))
        rows = state[hit]
        lead = np.ones(len(rows), dtype=bool)
        lead[1:] = rows[1:] != rows[:-1]
        pick = hit[lead]
        # states choosing the same deltas share one action tuple
        deltas = space.charge_by_ev[:, post[pick]] - space.charge_by_ev[:, state[pick]]
        chosen, which = np.unique(deltas, axis=1, return_inverse=True)
        moves = list(map(tuple, chosen.T.tolist()))
        keys = [(slot, s) for s in rows[lead].tolist()]
        actions.update(zip(keys, map(moves.__getitem__, which.tolist())))
        posts[slot - 1, rows[lead]] = post[pick]
    if not math.isfinite(values[0, space.initial]):
        raise NoFeasibleContinuation(
            f"no feasible continuation from the initial state "
            f"{space.decode(space.initial)} under dispatch {tuple(model.dispatch)}"
        )
    return ValueTable(values), MarkovPolicy(len(model.specs), actions, posts)


@dataclass(frozen=True)
class RolloutResult:
    """One day's realized schedule under reported deadlines."""

    storage: np.ndarray  # (n_evs, T) stored kWh at the end of each slot
    mismatch: np.ndarray  # (T,) reserve kWh, positive = production
    reserve_cost: float
    terminal: np.ndarray  # (n_evs,) kWh at end of day (frozen at departure)


def rollout(
    model: MdpModel, policy: MarkovPolicy, reported: Sequence[int], space: StateSpace | None = None
) -> RolloutResult:
    """Deterministic unroll: EV j disconnects at the end of slot reported_j.

    The slot-``reported_j`` action still applies to EV j; afterwards its
    storage is frozen, matching the implementability constraint.
    """
    space = space or StateSpace(model.specs, model.params)
    horizon = model.horizon
    n_evs = len(model.specs)
    connected = [True] * n_evs
    charge = [0.0] * n_evs
    storage = np.zeros((n_evs, horizon))
    mismatch = np.zeros(horizon)
    reserve_total = 0.0
    for slot in range(1, horizon + 1):
        state = tuple((connected[i], charge[i]) for i in range(n_evs))
        action = policy.action(slot, space.encode(state))
        for i in range(n_evs):
            charge[i] += action[i]
        m = model.market.demand[slot - 1] + float(sum(action)) - model.dispatch[slot - 1]
        mismatch[slot - 1] = m
        reserve_total += model.market.reserve_cost_at(slot, m)
        for i in range(n_evs):
            if slot >= reported[i]:
                connected[i] = False
        storage[:, slot - 1] = charge
    return RolloutResult(storage, mismatch, float(reserve_total), storage[:, -1].copy())


@dataclass(frozen=True)
class ProfileOutcome:
    """One report profile's realized day and its realized system cost."""

    rollout: RolloutResult
    system_cost: float


class ProfileOutcomes:
    """Lazy memo of a committed policy's realized day per report profile.

    A day's realized schedule depends on nothing but its report profile,
    so each distinct profile is rolled out once however often it is asked
    for.  Nothing is enumerated up front: only profiles that are asked for
    are rolled out, so there is no Tⁿ guard.
    """

    def __init__(
        self, model: MdpModel, policy: MarkovPolicy, space: StateSpace | None = None
    ) -> None:
        self.model = model
        self.policy = policy
        self.space = space or StateSpace(model.specs, model.params)
        self.generator_cost = model.market.generator_cost(model.dispatch)
        self._memo: dict[tuple[int, ...], ProfileOutcome] = {}

    def __getitem__(self, reported: Sequence[int]) -> ProfileOutcome:
        key = tuple(int(t) for t in reported)
        out = self._memo.get(key)
        if out is None:
            r = rollout(self.model, self.policy, key, self.space)
            cost = system_cost(self.model.market, self.generator_cost, r.reserve_cost, r.terminal)
            out = self._memo[key] = ProfileOutcome(r, cost)
        return out


def beta(model: MdpModel, policy: MarkovPolicy, reported: Sequence[int],
         space: StateSpace | None = None) -> float:
    """Realized system cost for one reported-deadline profile:
    dispatch cost + reserve cost - value of energy handed to EVs."""
    return ProfileOutcomes(model, policy, space)[reported].system_cost


@dataclass(frozen=True)
class ExpectedOutcome:
    reserve_cost: float
    terminal_charge: np.ndarray  # (n_evs,) expected kWh at departure
    beta: float


def expected_outcome(
    model: MdpModel, policy: MarkovPolicy, space: StateSpace | None = None
) -> ExpectedOutcome:
    """Exact expectations under the model's deadline beliefs by forward
    propagation of the state distribution through the policy: each state's
    mass moves to its action's post-decision state, then along that
    state's row of ``StateSpace.successor_table``."""
    space = space or StateSpace(model.specs, model.params)
    horizon = model.horizon
    mu = np.zeros(space.n_states)
    mu[space.initial] = 1.0
    exp_reserve = 0.0
    for slot in range(1, horizon + 1):
        support = np.flatnonzero(mu)
        for s in support.tolist():
            action = policy.action(slot, s)
            exp_reserve += mu[s] * stage_cost(
                model.market, slot, model.dispatch[slot - 1], action
            )
        ids, probs, count = space.successor_table(slot, policy.posts[slot - 1, support])
        listed = np.arange(ids.shape[1]) < count[:, None]
        mu_next = np.zeros(space.n_states)
        # row-major: mass arrives in (state, successor) order
        np.add.at(mu_next, ids[listed], (mu[support][:, None] * probs)[listed])
        mu = mu_next
    terminal = (
        space.charge_by_ev @ mu if model.specs else np.zeros(0)
    )
    market = model.market
    total = system_cost(market, market.generator_cost(model.dispatch), exp_reserve, terminal)
    return ExpectedOutcome(float(exp_reserve), terminal, float(total))


def iter_profiles(model: MdpModel) -> Iterable[tuple[tuple[int, ...], float]]:
    """Yield every reported-deadline profile with its probability under the
    model's beliefs.  Guarded against combinatorial blowup."""
    horizon = model.horizon
    count = horizon ** len(model.specs)
    if count > ENUMERATION_GUARD:
        raise ValueError(
            f"profile enumeration would visit {count} profiles; "
            "use monte_carlo_outcome with an explicit sample count and seed"
        )
    slots = range(1, horizon + 1)
    for profile in itertools.product(slots, repeat=len(model.specs)):
        p = 1.0
        for dist, t in zip(model.params, profile):
            p *= dist.pmf[t - 1]
        yield profile, p


def enumerated_outcome(
    model: MdpModel, policy: MarkovPolicy, space: StateSpace | None = None
) -> ExpectedOutcome:
    """Expectations by exhaustive deadline-profile enumeration.

    Independent of the forward-propagation path; tests hold the two to
    agree within 1e-9.
    """
    space = space or StateSpace(model.specs, model.params)
    exp_reserve = 0.0
    terminal = np.zeros(len(model.specs))
    for profile, p in iter_profiles(model):
        if p == 0.0:
            continue
        r = rollout(model, policy, profile, space)
        exp_reserve += p * r.reserve_cost
        terminal += p * r.terminal
    market = model.market
    total = system_cost(market, market.generator_cost(model.dispatch), exp_reserve, terminal)
    return ExpectedOutcome(float(exp_reserve), terminal, float(total))


def monte_carlo_outcome(
    model: MdpModel,
    policy: MarkovPolicy,
    samples: int,
    rng: np.random.Generator,
    space: StateSpace | None = None,
) -> ExpectedOutcome:
    """Sampled stand-in for ``enumerated_outcome`` on oversized fleets.

    Only used when enumeration is explicitly refused; never consulted by
    exact code paths.
    """
    space = space or StateSpace(model.specs, model.params)
    exp_reserve = 0.0
    terminal = np.zeros(len(model.specs))
    for _ in range(samples):
        profile = tuple(int(d.sample(rng)) for d in model.params)
        r = rollout(model, policy, profile, space)
        exp_reserve += r.reserve_cost
        terminal += r.terminal
    exp_reserve /= samples
    terminal /= samples
    market = model.market
    total = system_cost(market, market.generator_cost(model.dispatch), exp_reserve, terminal)
    return ExpectedOutcome(float(exp_reserve), terminal, float(total))

