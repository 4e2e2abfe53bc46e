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
the zero-action kernel read at the post-decision row, and the batched
pricing in ``dispatch`` applies that one kernel per slot
(``StateSpace.expect``) instead of one kernel per action.

Values are expected dollars to go.  The terminal layer credits stored
energy at the market's ``ev_energy_value``.
"""
from __future__ import annotations

import bisect
import itertools
import json
import math
from dataclasses import dataclass
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

    def _per_ids(self, joint: int) -> list[int]:
        ids = []
        for n in reversed(self.n_per):
            ids.append(joint % n)
            joint //= n
        ids.reverse()
        return ids

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

    # ---- scalar transitions ----------------------------------------------

    def _ev_moves(self, i: int, per: int) -> list[tuple[float, int]]:
        """EV ``i``'s actions from per-EV id ``per``, in target-index order:
        (charge delta, post-decision per-EV id).  A disconnected EV's only
        action is to stay."""
        levels = self.specs[i].levels
        if per >= len(levels):
            return [(0.0, per)]
        h = levels[per]
        return [(lvl - h, k) for k, lvl in enumerate(levels)]

    def post_outcomes(self, slot: int, post: Sequence[int]) -> list[tuple[int, float]]:
        """(next joint id, probability) pairs, skipping zeros, from the
        post-decision state with per-EV ids ``post`` at the end of ``slot``:
        each connected EV leaves at its level with the slot's hazard."""
        per_outcomes: list[list[tuple[int, float]]] = []
        for i, per in enumerate(post):
            nl = len(self.specs[i].levels)
            if per >= nl:
                per_outcomes.append([(per, 1.0)])
                continue
            if self._survival[i][slot - 1] <= 0.0:
                raise UnreachableStateError(
                    f"unreachable state queried: EV {i + 1} cannot be connected entering slot {slot}"
                )
            hazard = self._hazard[i][slot - 1]
            outs = []
            if hazard < 1.0:
                outs.append((per, 1.0 - hazard))
            if hazard > 0.0:
                outs.append((nl + per, hazard))
            per_outcomes.append(outs)
        joint_out: list[tuple[int, float]] = []
        for combo in itertools.product(*per_outcomes):
            nid = 0
            p = 1.0
            for (pid, pp), n in zip(combo, self.n_per):
                nid = nid * n + pid
                p *= pp
            joint_out.append((nid, p))
        return joint_out

    def successors(
        self, slot: int, joint: int, action: Sequence[float]
    ) -> list[tuple[int, float]]:
        """Enumerate (next joint id, probability) pairs, skipping zeros."""
        post = []
        for spec, per, a in zip(self.specs, self._per_ids(joint), action):
            connected = per < len(spec.levels)
            post.append(_level_index(spec.levels, spec.levels[per] + a) if connected else per)
        return self.post_outcomes(slot, post)

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
        """Every (state, action) pair, grouped by the action's charge sum
        (see ``_group_by_sum``).

        An action is a target level index per connected EV; a disconnected
        EV stays.  Its post-decision state keeps every connectivity flag
        and puts each EV at its target level.  Built on first use; only
        the batched pricing kernel needs it.
        """
        state = np.zeros(1, dtype=np.intp)
        post = np.zeros(1, dtype=np.intp)
        sigma = np.zeros(1)
        for spec, n in zip(self.specs, self.n_per):
            nl = len(spec.levels)
            lv = np.array(spec.levels)
            frm = np.concatenate([np.repeat(np.arange(nl), nl), np.arange(nl, n)])
            to = np.concatenate([np.tile(np.arange(nl), nl), np.arange(nl, n)])
            delta = np.concatenate([lv[to[: nl * nl]] - lv[frm[: nl * nl]], np.zeros(nl)])
            state = (state[:, None] * n + frm).ravel()
            post = (post[:, None] * n + to).ravel()
            # summed EV by EV from 0.0, exactly as sum() over an action tuple
            sigma = (sigma[:, None] + delta).ravel()
        return _group_by_sum(state, post, sigma)

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
    """Deterministic slot-indexed feedback policy on joint state ids."""

    n_evs: int
    actions: dict[tuple[int, int], tuple[float, ...]]

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
    """Backward induction over all joint states.

    Ties between equal-value actions resolve to the lexicographically
    smallest action vector.  States with no finite-cost continuation keep
    +inf (they may simply be unreachable); only an infeasible *initial*
    state raises ``NoFeasibleContinuation``.  Zero-survival states are
    assigned +inf and skipped silently.
    """
    space = space or StateSpace(model.specs, model.params)
    horizon = model.horizon
    n = space.n_states
    values = np.empty((horizon + 1, n))
    values[horizon] = -model.market.ev_energy_value * space.total_charge
    actions: dict[tuple[int, int], tuple[float, ...]] = {}
    for slot in range(horizon, 0, -1):
        layer = slot - 1
        valid = space.valid_mask(layer)
        nxt = values[slot]
        # successor lists per post-decision state, shared by every
        # (state, action) pair that lands there
        outcomes: dict[tuple[int, ...], list[tuple[int, float]]] = {}
        for s in range(n):
            if not valid[s]:
                values[layer, s] = math.inf
                continue
            per_moves = [space._ev_moves(i, per) for i, per in enumerate(space._per_ids(s))]
            best = math.inf
            best_action: tuple[float, ...] | None = None
            # target-index order per EV, so ties keep the lexicographically
            # smallest delta vector
            for combo in itertools.product(*per_moves):
                action = tuple(delta for delta, _ in combo)
                c = stage_cost(model.market, slot, model.dispatch[slot - 1], action)
                if c == math.inf:
                    continue
                post = tuple(per for _, per in combo)
                if post not in outcomes:
                    outcomes[post] = space.post_outcomes(slot, post)
                total = c
                for nid, p in outcomes[post]:
                    total += p * nxt[nid]
                if total < best:
                    best = total
                    best_action = action
            values[layer, s] = best
            if best_action is not None:
                actions[(slot, s)] = best_action
    if not math.isfinite(values[0, space.initial]):
        raise NoFeasibleContinuation(
            f"no feasible continuation from the initial state "
            f"{space.decode(space.initial)} under dispatch {tuple(model.dispatch)}"
        )
    return ValueTable(values), MarkovPolicy(len(model.specs), actions)


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
    propagation of the state distribution through the policy."""
    space = space or StateSpace(model.specs, model.params)
    horizon = model.horizon
    mu = np.zeros(space.n_states)
    mu[space.initial] = 1.0
    exp_reserve = 0.0
    for slot in range(1, horizon + 1):
        mu_next = np.zeros(space.n_states)
        for s in np.nonzero(mu)[0]:
            w = mu[s]
            action = policy.action(slot, int(s))
            exp_reserve += w * stage_cost(
                model.market, slot, model.dispatch[slot - 1], action
            )
            for nid, p in space.successors(slot, int(s), action):
                mu_next[nid] += w * p
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

