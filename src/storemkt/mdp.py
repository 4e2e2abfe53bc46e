"""Finite-horizon storage MDP: state space, backward induction, rollouts.

The day has slots 1..T.  Each EV starts connected with an empty battery and
disconnects at most once; once disconnected its stored energy is frozen.
The joint state at the end of slot t collects, per EV, a connected flag and
a charge level drawn from that EV's admissible set.  Actions are per-EV
charge deltas applied during a slot; the slot's reserve mismatch is
``demand + sum(deltas) - dispatch``.  The solvers enumerate actions by
*target level index*: a connected EV may move to any of its levels, a
disconnected EV stays.  A policy is the post-decision state each joint
state moves to, per slot, on the ``StateSpace`` it was solved on; an
action's deltas are read off that space's charges, and rollouts step
joint ids, never re-resolving a float charge to a level.

Connectivity evolves by the hazard implied by the EV's deadline
distribution: an EV still connected at the end of slot t-1 disconnects at
the end of slot t with probability pmf(t) / P(deadline >= t), and surely
from its last slot with mass on if its bid has a zero tail.  Each space
computes these hazards once.  States whose survival probability is
exactly zero are unreachable; the solver assigns them +inf and skips
them, and explicit kernel queries on them raise.

An action only moves EVs to their target levels; the hazard then acts on
the resulting *post-decision* state.  So the kernel of every action is
the zero-action kernel read at the post-decision row.  EVs with the same
spec and bid are exchangeable, so the joint chain lumps exactly onto
occupancy counts: how many EVs of each such class sit in each
(connected, level) cell.  ``CountSpace`` is that lumped chain, and
``StateSpace`` the product chain on joint ids, every EV its own class.
Both list their (state, action) pairs by one definition (``action_pairs``).
The batched pricing in ``dispatch`` reads them as flat runs, one per
(charge sum, state) (``_Groups``), and applies the kernel in place
(``expect``); the reference ``solve_dp`` reads them as one table, plus
each post-decision state's successors (``successor_table``).

``rollout`` is the one forward pass over report profiles: it steps a
batch of them through the committed policy together, as arrays of joint
ids; the day loop in ``simulate`` reads it, and so does the miss-fine
probe's one enumeration of report profiles, ``dispatch._conditional_costs``,
in passes of at most the profiles one ``rollout`` takes.
``expected_outcome`` moves the state distribution by the same per-slot
step (``_policy_step``), so both price a slot with equal floats.

Values are expected dollars to go.  The terminal layer credits stored
energy at the market's ``ev_energy_value``.
"""
from __future__ import annotations

import math
import operator
import weakref
from dataclasses import dataclass, field
from functools import cache, cached_property, reduce
from typing import Callable, Iterable, Sequence

import numpy as np

from .costs import MarketModel
from .deadlines import DeadlineDistribution

#: bytes one batched ``rollout``, one slot of the exhaustive pass in
#: ``dispatch``, or the joint-state tables every solve builds may hold at
#: once; a larger one fails by name
BATCH_BYTE_BUDGET = 2 * 2**30
#: peak bytes ``rollout`` holds per report profile: ROLLOUT_EV_BYTES per
#: EV, 8 per slot and 8 more for its leave steps, ROLLOUT_BYTES, and the
#: storage and mismatch it returns, 8 per EV and slot and 8 per slot
ROLLOUT_EV_BYTES = 32
ROLLOUT_BYTES = 128


class UnreachableStateError(ValueError):
    """A kernel or policy query hit a zero-survival-probability state."""


class RolloutBatchTooLarge(ValueError):
    """A batched rollout's report profiles would not fit its byte budget."""


class NoFeasibleContinuation(RuntimeError):
    """Some state has no action with finite cost at some slot."""


@dataclass(frozen=True)
class EVSpec:
    """Storage capability of one EV: capacity and admissible charge levels."""

    capacity: float
    levels: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.capacity > 0:
            raise ValueError("capacity must be positive")
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


def system_cost(
    market: MarketModel,
    generator_cost: float,
    reserve_cost: float | np.ndarray,
    terminal: np.ndarray,
) -> float | np.ndarray:
    """Realized system cost: dispatch cost + reserve cost - value of the
    energy ``terminal`` (kWh per EV, on its last axis) handed to EVs.  On a
    batch of profiles, one cost per profile; each profile's charges are
    summed as one row, as an (n_evs,) array sums them."""
    return generator_cost + reserve_cost - market.ev_energy_value * terminal.sum(axis=-1)


def _left_sum(x: np.ndarray, start: float = 0.0) -> float:
    """Python float sum, left to right from ``start``, as a running account adds it."""
    return reduce(operator.add, x.tolist(), start)


@dataclass(frozen=True, eq=False)
class _Groups:
    """Every (state, action) pair of a space grouped by charge sum, as the
    batched kernel reads them, read-only: ``sums`` lists the distinct sums
    ascending; ``posts`` every action's post-decision id by sum, then by
    state, each state's in pair order.  Run i, one sum's actions from one
    state, starts at ``posts[starts[i]]``; ``cells[i]`` is its sum's index
    times ``n_rows`` plus its state."""

    sums: np.ndarray
    posts: np.ndarray
    starts: np.ndarray
    cells: np.ndarray
    n_rows: int

    def __post_init__(self) -> None:
        _read_only(self.sums, self.posts, self.starts, self.cells)


#: each class layout's action and initial groups, held while some space
#: holds them
_SHARED_GROUPS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _shared_groups(key: tuple, build: Callable[[], _Groups]) -> _Groups:
    """The groups cached under ``key``; if there are none, ``build()``'s,
    cached.  The cache holds them weakly, so spaces of one class layout
    share one set while any of them holds it, and no set outlives its last
    space."""
    groups = _SHARED_GROUPS.get(key)
    if groups is None:
        groups = _SHARED_GROUPS[key] = build()
    return groups


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


def _hazards(survival: np.ndarray, pmf: Sequence[float]) -> list[float]:
    """P(leave during slot t | connected entering it), index t-1.  In a bid
    with a zero tail it is 1.0 from the last slot with mass on, where
    pmf / survival may round below 1: no connected mass passes that slot
    into the zero-survival slots.  (After the day's last slot comes the
    terminal layer, valid everywhere, so there the quotient stays.)  A
    zero-survival slot gets the same stub: its connected states carry no
    mass from any valid state."""
    last = max(t for t, p in enumerate(pmf) if p > 0.0)
    gone = last + 1 < len(pmf)
    return [
        1.0 if survival[t] <= 0.0 or (gone and t >= last) else min(max(p / survival[t], 0.0), 1.0)
        for t, p in enumerate(pmf)
    ]


def _radix_digits(sizes: Sequence[int]) -> tuple[int, list[np.ndarray]]:
    """State count of a mixed-radix product and each axis's digit of every
    joint id, axis 1 most significant."""
    n_states = int(np.prod(sizes)) if len(sizes) else 1
    ids = np.arange(n_states)
    digits = []
    stride = n_states
    for n in sizes:
        stride //= n
        digits.append((ids // stride) % n)
    return n_states, digits


def _move_table(
    moves: Sequence[Sequence[int]], charge: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One axis's actions as flat arrays (first, count, to, delta): digit d
    may move to each of ``moves[d]``, listed at entries first[d] ..
    first[d] + count[d] - 1, changing the stored charge by delta."""
    count = np.array([len(m) for m in moves])
    to = np.array([t for m in moves for t in m], dtype=np.intp)
    src = np.repeat(np.arange(len(moves)), count)
    return np.cumsum(count) - count, count, to, charge[to] - charge[src]


def _product_pairs(
    n_states: int, digits: Sequence[np.ndarray], tables: Sequence[tuple]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (state, action) pair of a mixed-radix product whose axes act
    independently, state-major, axis 1's move varying slowest: (state,
    post-decision id, charge sum), the sum added axis by axis from 0.0."""
    state = np.arange(n_states)
    post = np.zeros(n_states, dtype=np.intp)
    sigma = np.zeros(n_states)
    for digit_of, (first, count, to, delta) in zip(digits, tables):
        digit = digit_of[state]
        reps = count[digit]
        row = np.repeat(np.arange(len(state)), reps)
        k = first[digit[row]] + np.arange(len(row)) - (np.cumsum(reps) - reps)[row]
        state, post, sigma = state[row], post[row] * len(first) + to[k], sigma[row] + delta[k]
    return state, post, sigma


def _sum_runs(state: np.ndarray, post: np.ndarray, sigma: np.ndarray, n_rows: int) -> _Groups:
    """The (state, post-decision id) pairs with charge sums ``sigma`` as
    ``_Groups``, in one sort: by sum, then by state, stable."""
    sums, k = np.unique(sigma, return_inverse=True)
    order = np.lexsort((state, k))
    state, k = state[order], k[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (k[1:] != k[:-1]) | (state[1:] != state[:-1])
    starts = np.flatnonzero(new)
    return _Groups(sums, post[order], starts, k[starts] * n_rows + state[starts], n_rows)


def _state0_runs(groups: _Groups) -> _Groups:
    """The runs of ``groups`` from state 0, as groups on one row: each
    sum's first run, where it has one."""
    ends = np.append(groups.starts[1:], len(groups.posts))
    at = np.flatnonzero(groups.cells % groups.n_rows == 0)
    lengths = ends[at] - groups.starts[at]
    posts = np.concatenate([groups.posts[a:z] for a, z in zip(groups.starts[at], ends[at])])
    sums = groups.sums[groups.cells[at] // groups.n_rows]
    return _Groups(sums, posts, np.cumsum(lengths) - lengths, np.arange(len(at)), 1)


def _compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    """Every way to put ``total`` EVs in ``parts`` cells, the first cell
    fullest first."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _binomial(count: int, p: float) -> list[float]:
    """P(j of ``count`` independent EVs leave) for j = 0..count."""
    return [math.comb(count, j) * p**j * (1.0 - p) ** (count - j) for j in range(count + 1)]


class _Cells:
    """The count vectors of one class of m exchangeable EVs on ``spec``'s
    levels, and their moves; no bid enters, so ``_cells`` shares them,
    read-only.

    ``cells[s]`` counts the class's EVs per cell: connected at each level,
    then disconnected at each level.  States with every EV connected come
    first, so state 0 has all m connected at level 0.  For m = 1 this is
    ``StateSpace``'s per-EV id order.
    """

    def __init__(self, spec: EVSpec, m: int):
        nl = len(spec.levels)
        cells = [
            conn + gone
            for left in range(m + 1)
            for conn in _compositions(m - left, nl)
            for gone in _compositions(left, nl)
        ]
        self.m = m
        self.cells = np.array(cells)
        self.n_levels = nl
        self.charge = self.cells @ np.array(spec.levels * 2)
        index = {c: s for s, c in enumerate(cells)}
        # an action spreads the connected EVs over the levels in any way
        alike: dict[tuple, list[int]] = {}
        for s, c in enumerate(cells):
            alike.setdefault((sum(c[:nl]), c[nl:]), []).append(s)
        self.move_table = _move_table([alike[(sum(c[:nl]), c[nl:])] for c in cells], self.charge)
        _read_only(self.cells, self.charge, *self.move_table)
        # departures at level k, per count c >= 1 of EVs connected there
        # (largest first, so an in-place update reads only unwritten rows):
        # the states with that count, and where j = 0..c leavers take each
        self.departures = []
        for k in range(nl):
            per_count = []
            for c in range(m, 0, -1):
                rows = np.flatnonzero(self.cells[:, k] == c)
                targets = np.empty((len(rows), c + 1), dtype=np.intp)
                for j in range(c + 1):
                    shift = np.zeros(2 * nl, dtype=int)
                    shift[k], shift[nl + k] = -j, j
                    targets[:, j] = [index[tuple(v)] for v in self.cells[rows] + shift]
                _read_only(rows, targets)
                per_count.append((c, rows, targets))
            self.departures.append(per_count)


@cache
def _cells(spec: EVSpec, m: int) -> _Cells:
    """The ``_Cells`` of m EVs on ``spec``, built once: they are small, and
    every space with such a class shares them."""
    return _Cells(spec, m)


class CountSpace:
    """The state space of the batched pricing: the fleet's occupancy counts.

    EVs with equal ``(EVSpec, DeadlineDistribution)`` form a class
    (``StateSpace`` passes ``lump=False``: every EV a class of its own).  A
    class's EVs face one hazard and the stage cost reads only the charge
    sum, so the joint chain of ``StateSpace`` is exactly lumpable onto the
    number of a class's EVs in each (connected, level) cell (Kemeny &
    Snell, *Finite Markov Chains*, 1960; Buchholz, *J. Appl. Prob.*
    1994).  m EVs of one class with L levels have C(m + 2L - 1, 2L - 1)
    count states against (2L)^m product states: 35 against 256 for table1
    at n = 4.  An action moves a class's connected EVs to any levels; it is
    kept once per (state, post-decision counts), its charge sum the charge
    difference.

    The joint id is mixed-radix over the classes, ordered by their first
    EV, the first most significant; id 0 is the initial state.  Only the
    survival and hazards depend on the bids: each class's ``_Cells`` are
    built once per (spec, m), and spaces of one class layout ((spec, m) per
    class, in order) share their ``action_groups`` and ``initial_groups``,
    all read-only.  The groups are flat runs of post-decision ids, one per
    (charge sum, state), built in one sort of the pair table
    (``_sum_runs``); the initial groups are the runs from state 0.  They are
    cheap to build, so they are shared only while some space holds them,
    not cached across solves.
    """

    def __init__(
        self, specs: Sequence[EVSpec], params: Sequence[DeadlineDistribution], lump: bool = True
    ):
        sizes: dict[tuple[EVSpec, DeadlineDistribution], int] = {}
        for key in zip(specs, params):
            sizes[key] = sizes.get(key, 0) + 1
        classes = sizes.items() if lump else [(key, 1) for key in zip(specs, params)]
        self._layout = tuple((spec, m) for (spec, _), m in classes)
        # P(deadline > t) per class, and the hazard of leaving during slot t
        self._survival = [np.maximum(dist.survival(), 0.0) for (_, dist), _ in classes]
        self._classes = [
            (_cells(spec, m), _hazards(survival, dist.pmf))
            for ((spec, dist), m), survival in zip(classes, self._survival)
        ]
        self.n_states, self._digits = _radix_digits([len(c.cells) for c, _ in self._classes])
        self.total_charge = sum(
            (c.charge[d] for (c, _), d in zip(self._classes, self._digits)),
            np.zeros(self.n_states),
        )

    def expect(self, slot: int, values: np.ndarray) -> np.ndarray:
        """Apply the zero-action kernel K_{slot,0} to ``values`` in place.

        ``values`` is (n_states, S), one column per dispatch tail; row s
        becomes sum_s' K(s, s') values[s'], the expected value of ending
        the slot from post-decision state s.  The kernel is applied one
        class at a time, one connected level at a time: j of the c EVs
        connected there leave with binomial probability.  A class of one
        EV stays with probability 1 - hazard and leaves otherwise, updated
        through two views of the level.
        """
        if not values.flags.c_contiguous:
            raise ValueError("values must be C-contiguous: they are updated in place")
        x = values.reshape(*(len(c.cells) for c, _ in self._classes), values.shape[1])
        for i, (cls, hazards) in enumerate(self._classes):
            lead = (slice(None),) * i
            hazard = hazards[slot - 1]
            if cls.m == 1:
                nl = cls.n_levels
                for k in range(nl):
                    stay = x[lead + (k,)]
                    stay *= 1.0 - hazard
                    stay += hazard * x[lead + (nl + k,)]
                continue
            for per_count in cls.departures:
                for c, rows, targets in per_count:
                    acc = None
                    for j, p in enumerate(_binomial(c, hazard)):
                        if p != 0.0:
                            term = p * x[lead + (targets[:, j],)]
                            acc = term if acc is None else np.add(acc, term, out=acc)
                    x[lead + (rows,)] = acc
        return values

    def action_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every (state, action) pair, state-major, each state's actions in
        move order (class 1's move varying slowest; on a ``StateSpace``,
        target-index order).  An action spreads each class's connected EVs
        over its levels; a disconnected EV stays.  Returns (state,
        post-decision id, charge sum), the sum added class by class from
        0.0, exactly as ``sum`` over a ``StateSpace`` action's deltas
        ``charge_by_ev[:, post] - charge_by_ev[:, state]``.  Built on each
        call: the space keeps per-state tables only.
        """
        tables = [c.move_table for c, _ in self._classes]
        return _product_pairs(self.n_states, self._digits, tables)

    @cached_property
    def action_groups(self) -> _Groups:
        """``action_pairs`` grouped by charge sum (``_sum_runs``)."""
        return _shared_groups(
            ("action", self._layout), lambda: _sum_runs(*self.action_pairs(), self.n_states)
        )

    @cached_property
    def initial_groups(self) -> _Groups:
        """The runs of ``action_groups`` from the initial state (``_state0_runs``)."""
        return _shared_groups(("initial", self._layout), lambda: _state0_runs(self.action_groups))


class StateSpace(CountSpace):
    """The joint states: the ``CountSpace`` with every EV its own class,
    plus the tables the reference and the rollouts read.

    Per-EV state ids place connected charge levels first (ascending), then
    disconnected ones; EV 1 is the most significant digit of the joint id,
    so joint id 0 is the initial all-connected all-empty state.
    """

    initial = 0

    def __init__(self, specs: Sequence[EVSpec], params: Sequence[DeadlineDistribution]):
        super().__init__(specs, params, lump=False)
        self.specs = tuple(specs)
        self.params = tuple(params)
        self.horizon = self.params[0].horizon if self.params else None
        # kWh stored per EV for every joint state
        self.charge_by_ev = np.array(
            [c.charge[d] for (c, _), d in zip(self._classes, self._digits)]
        ).reshape(len(self.specs), self.n_states)
        # joint-id step of EV i leaving: connected at level k -> disconnected at k
        sizes = [len(c.cells) for c, _ in self._classes]
        self.leave_step = [
            c.n_levels * math.prod(sizes[i + 1 :]) for i, (c, _) in enumerate(self._classes)
        ]

    def decode(self, joint: int) -> tuple[tuple[bool, float], ...]:
        return tuple(
            (bool(d[joint] < c.n_levels), float(c.charge[d[joint]]))
            for (c, _), d in zip(self._classes, self._digits)
        )

    def valid_mask(self, layer: int) -> np.ndarray:
        """States with positive probability of existing at the given layer.

        Connected per-EV states are invalid once the EV's survival
        probability hits exactly zero.  The terminal layer is exempt: the
        terminal cost is defined everywhere.
        """
        mask = np.ones(self.n_states, dtype=bool)
        if layer >= (self.horizon or 0):
            return mask
        for (c, _), d, survival in zip(self._classes, self._digits, self._survival):
            if survival[layer] <= 0.0:
                mask &= d >= c.n_levels
        return mask

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
        for (cls, hazards), digit_of in zip(self._classes, self._digits):
            n, nl = len(cls.cells), cls.n_levels
            hazard = hazards[slot - 1]
            digit = digit_of[posts]
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


@dataclass
class ValueTable:
    """Expected dollars-to-go per layer and joint state; +inf marks states
    that are unreachable or have no feasible continuation."""

    values: np.ndarray  # (T+1, n_states)

    def v0(self) -> float:
        return float(self.values[0, 0])

    def to_jsonable(self) -> list[list[float]]:
        return [[float(x) for x in row] for row in self.values]


@dataclass(eq=False)
class MarkovPolicy:
    """Deterministic slot-indexed feedback policy on the joint state ids of
    ``space``, the space it was solved on: ``posts[slot - 1, joint]`` is the
    post-decision state that state moves to, -1 where it has no action.  An
    action's per-EV charge deltas are the post-decision state's charges
    minus the state's, as ``solve_dp`` derived them."""

    space: StateSpace = field(repr=False)
    posts: np.ndarray = field(repr=False)

    def step(self, slot: int, joints: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The post-decision ids of ``joints`` at ``slot`` and their actions'
        per-EV charge deltas, one row per joint.  A joint with no action
        raises ``UnreachableStateError``."""
        posts = self.posts[slot - 1, joints]
        if (posts < 0).any():
            raise UnreachableStateError(
                f"policy has no action for slot {slot}, state {joints[posts < 0][0]}"
            )
        charge = self.space.charge_by_ev
        return posts, (charge[:, posts] - charge[:, joints]).T

    def to_jsonable(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for slot, row in enumerate(self.posts, start=1):
            joints = np.flatnonzero(row >= 0)
            deltas = self.step(slot, joints)[1].tolist()
            out.update(zip((f"{slot},{j}" for j in joints.tolist()), deltas))
        return out


def solve_dp(model: MdpModel, space: StateSpace) -> tuple[ValueTable, MarkovPolicy]:
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
    get no action.  ``space`` is the model's ``StateSpace``; the policy
    keeps it.
    """
    market = model.market
    horizon = model.horizon
    values = np.empty((horizon + 1, space.n_states))
    values[horizon] = -market.ev_energy_value * space.total_charge
    state, post, sigma = space.action_pairs()
    first = np.searchsorted(state, np.arange(space.n_states))  # each state's first pair
    sums, sum_of = np.unique(sigma, return_inverse=True)
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
        posts[slot - 1, rows[lead]] = post[hit[lead]]
    if not math.isfinite(values[0, space.initial]):
        raise NoFeasibleContinuation(
            f"no feasible continuation from the initial state "
            f"{space.decode(space.initial)} under dispatch {tuple(model.dispatch)}"
        )
    return ValueTable(values), MarkovPolicy(space, posts)


@dataclass(frozen=True)
class RolloutResult:
    """Realized schedules of a batch of report profiles, row k for profile k."""

    storage: np.ndarray  # (count, n_evs, T) stored kWh at the end of each slot
    mismatch: np.ndarray  # (count, T) reserve kWh, positive = production
    reserve_cost: np.ndarray  # (count,)
    terminal: np.ndarray  # (count, n_evs) kWh at end of day (frozen at departure)


def _policy_step(
    model: MdpModel, policy: MarkovPolicy, slot: int, states: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The policy's move at ``slot`` from each of ``states`` (joint ids):
    (post-decision ids, per-EV charge deltas one row per state, mismatch,
    reserve cost).  The mismatch adds ``sum`` of a row's deltas to the
    demand; the reserve cost is looked up once per distinct mismatch.  A
    state with no action raises ``UnreachableStateError``."""
    posts, deltas = policy.step(slot, states)
    market = model.market
    demand, g = market.demand[slot - 1], model.dispatch[slot - 1]
    mismatch = [demand + sum(action) - g for action in deltas.tolist()]
    cost = {m: market.reserve_cost_at(slot, m) for m in dict.fromkeys(mismatch)}
    return posts, deltas, np.array(mismatch), np.array([cost[m] for m in mismatch])


def check_rollout_size(count: int, n_evs: int, horizon: int) -> int:
    """Raise ``RolloutBatchTooLarge`` if ``rollout`` of ``count`` report
    profiles would hold more than BATCH_BYTE_BUDGET bytes, else return how
    many one pass takes.  A caller that builds profiles checks first."""
    working = ROLLOUT_EV_BYTES * n_evs + 8 * (horizon + 1) + ROLLOUT_BYTES
    per_profile = working + 8 * n_evs * horizon + 8 * horizon
    if count * per_profile > BATCH_BYTE_BUDGET:
        raise RolloutBatchTooLarge(
            f"a batched rollout of {count} report profiles would hold about "
            f"{count * per_profile} bytes (limit {BATCH_BYTE_BUDGET})"
        )
    return BATCH_BYTE_BUDGET // per_profile


def rollout(model: MdpModel, policy: MarkovPolicy, profiles: np.ndarray) -> RolloutResult:
    """Deterministic unroll of every report profile, a (count, n_evs)
    array of slots in 1..T: in row k, EV j disconnects at the end of slot
    ``profiles[k, j]``.

    The slot-``profiles[k, j]`` action still applies to EV j; afterwards
    its storage is frozen, matching the implementability constraint.  The
    profiles step through ``policy.posts`` together: each slot moves every
    distinct joint id once (``_policy_step``) to its post-decision id, plus
    the ``leave_step`` of each EV leaving.  Each EV's storage is the
    running sum of its deltas, and each profile's reserve cost is added
    slot by slot from 0.0.  Past BATCH_BYTE_BUDGET bytes the pass raises
    ``RolloutBatchTooLarge`` before it allocates (``check_rollout_size``).
    """
    horizon, n_evs = model.horizon, model.n_evs
    profiles = np.asarray(profiles)
    if profiles.ndim != 2 or profiles.shape[1] != n_evs:
        raise ValueError(f"profiles must be a (count, {n_evs}) array of report slots")
    count = len(profiles)
    check_rollout_size(count, n_evs, horizon)
    slots = profiles.astype(np.intp, copy=False)
    if (slots != profiles).any() or ((slots < 1) | (slots > horizon)).any():
        raise ValueError(f"report slots must be integers in 1..{horizon}")
    space = policy.space
    # leaves[t]: the joint-id step of each profile's EVs that leave at the
    # end of slot t (their leave_step)
    leaves = np.zeros((horizon + 1, count), dtype=np.intp)
    every = np.arange(count)
    for column, step in zip(slots.T, space.leave_step):
        leaves[column, every] += step
    storage = np.empty((count, n_evs, horizon))
    mismatch = np.empty((count, horizon))
    charge = np.zeros((count, n_evs))
    reserve = np.zeros(count)
    # the distinct states the profiles are in, and each profile's one
    states, at = np.array([space.initial]), np.zeros(count, dtype=np.intp)
    for slot in range(1, horizon + 1):
        posts, deltas, slot_mismatch, cost = _policy_step(model, policy, slot, states)
        charge += deltas[at]
        storage[:, :, slot - 1] = charge
        mismatch[:, slot - 1] = slot_mismatch[at]
        reserve += cost[at]
        joint = posts[at] + leaves[slot]
        states = np.flatnonzero(np.bincount(joint))
        at = np.searchsorted(states, joint)
    return RolloutResult(storage, mismatch, reserve, charge)


@dataclass(frozen=True)
class ExpectedOutcome:
    reserve_cost: float
    terminal_charge: np.ndarray  # (n_evs,) expected kWh at departure
    beta: float


def expected_outcome(model: MdpModel, policy: MarkovPolicy) -> ExpectedOutcome:
    """Exact expectations under the model's deadline beliefs by forward
    propagation of the state distribution through the policy: each state's
    mass moves to its action's post-decision state (``_policy_step``, as
    in ``rollout``), then along that state's row of
    ``StateSpace.successor_table``.  The expected reserve cost adds each
    state's mass times its reserve cost, state by state in id order."""
    space = policy.space
    horizon = model.horizon
    mu = np.zeros(space.n_states)
    mu[space.initial] = 1.0
    exp_reserve = 0.0
    for slot in range(1, horizon + 1):
        support = np.flatnonzero(mu)
        posts, _, _, cost = _policy_step(model, policy, slot, support)
        exp_reserve = _left_sum(mu[support] * cost, exp_reserve)
        ids, probs, count = space.successor_table(slot, posts)
        listed = np.arange(ids.shape[1]) < count[:, None]
        mu_next = np.zeros(space.n_states)
        # row-major: mass arrives in (state, successor) order
        np.add.at(mu_next, ids[listed], (mu[support][:, None] * probs)[listed])
        mu = mu_next
    terminal = space.charge_by_ev @ mu
    market = model.market
    total = system_cost(market, market.generator_cost(model.dispatch), exp_reserve, terminal)
    return ExpectedOutcome(exp_reserve, terminal, float(total))

