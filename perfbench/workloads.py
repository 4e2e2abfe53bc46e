"""The benchmark's four workloads.

Each workload turns the benchmark seed into config dicts, which the run
loads through ``config.load_setup``; the program sees only those configs.
A workload defines one op, the check of its output, and the summary that
is compared with ``golden.json``.  Ops call the program through module
attributes (``dispatch.solve_outer``, never a bare imported name) so that
the traced run's wrappers see every call.
"""
from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np

from storemkt import dispatch, experiments, presets, scenarios, simulate

DEFAULT_SEED = 0
#: distinct inputs built per run where each op draws a fresh instance;
#: a run that gets past the pool reuses its inputs in order
POOL = 128
TOL = 1e-9


class CheckFailed(Exception):
    """An op returned, but its output failed a check."""

    def __init__(self, layer: str, message: str):
        super().__init__(message)
        self.layer = layer


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def _bids(setup) -> tuple:
    return tuple(s.day_ahead_bid for s in setup.strategies)


def _mixed_table1(rng: np.random.Generator, n_evs: int, mode: str) -> dict:
    """The table1 market with ``n_evs`` unlike EVs: each bid is drawn with
    ``random_floored_pmf`` (floor 0.02), and the last EV has levels
    (0, 5, 10) where the others have (0, 10)."""
    cfg = presets.table1_config(n=n_evs)
    for ev in cfg["evs"]:
        pmf = scenarios.random_floored_pmf(rng, cfg["horizon"], 0.02)
        ev["theta"] = {"pmf": list(pmf), "floor": 0.02}
    cfg["evs"][-1]["levels"] = [0.0, 5.0, 10.0]
    cfg["solver"]["mode"] = mode
    return cfg


def _check_payments(rows: list[dict], n_evs: int) -> None:
    if len(rows) != n_evs:
        raise CheckFailed("experiments", f"{len(rows)} payment rows for {n_evs} EVs")
    worst = max((abs(r["identity_residual"]) for r in rows), default=0.0)
    if not worst <= TOL:
        raise CheckFailed("mechanism", f"payment identity residual {worst:.3g} > {TOL}")


def _solve_summary(solve) -> dict:
    return {"q_star": float(solve.q_star), "g_star": [float(g) for g in solve.g_star]}


class Workload:
    """One named workload; ``seed`` sets every input it builds."""

    name = ""
    salt = 0
    #: ops at the default seed whose outputs golden.json records
    golden_ops = 0

    def __init__(self, seed: int):
        self.seed = seed

    def configs(self) -> list[dict]:
        raise NotImplementedError

    def op_input(self, k: int) -> tuple[int, object]:
        """Index of the loaded input op ``k`` runs on, plus any extra argument."""
        raise NotImplementedError

    def run(self, setup, extra):
        raise NotImplementedError

    def check(self, out, setup, idx: int) -> None:
        """Raise CheckFailed when the output breaks an invariant."""

    def summary(self, out) -> dict:
        raise NotImplementedError

    def golden_key(self, k: int, idx: int) -> str | None:
        if self.seed == DEFAULT_SEED and k < self.golden_ops:
            return str(k)
        return None

    def _cycle(self, k: int, size: int) -> int:
        """Op ``k`` walks a fresh seeded permutation of ``size`` inputs per cycle."""
        return int(_rng(self.seed, self.salt, k // size).permutation(size)[k % size])


class ClearFleet4(Workload):
    """One day-ahead clearing, ``payments_table``, on table1 with four
    identical EVs; the profile cycles through A-E in a seeded order."""

    name = "clear-fleet4"
    salt = 1
    PROFILES = "ABCDE"

    def configs(self) -> list[dict]:
        return [presets.table1_config(n=4, profile=p) for p in self.PROFILES]

    def op_input(self, k: int) -> tuple[int, object]:
        return self._cycle(k, len(self.PROFILES)), None

    def run(self, setup, extra):
        return experiments.payments_table(setup)

    def check(self, out, setup, idx: int) -> None:
        _, rows = out
        _check_payments(rows, len(setup.specs))
        spread = max(r["p_da"] for r in rows) - min(r["p_da"] for r in rows)
        if not spread <= TOL:
            raise CheckFailed("mechanism", f"identical EVs paid {spread:.3g} apart")

    def summary(self, out) -> dict:
        return _solve_summary(out[0])

    def golden_key(self, k: int, idx: int) -> str | None:
        # the inputs do not depend on the seed, so every seed is checked
        return self.PROFILES[idx]


class PaymentsMixed3(Workload):
    """The full ``payments`` command, ``payments_table`` then the
    ``resolve_j_m("auto")`` probe, on a seed-drawn three-EV mixed fleet."""

    name = "payments-mixed3"
    salt = 2
    golden_ops = 12

    def configs(self) -> list[dict]:
        return [_mixed_table1(_rng(self.seed, self.salt, j), 3, "exhaustive") for j in range(POOL)]

    def op_input(self, k: int) -> tuple[int, object]:
        return k % POOL, None

    def run(self, setup, extra):
        solve, rows = experiments.payments_table(setup)
        csv = experiments.payments_csv(rows)
        fine = simulate.resolve_j_m("auto", _bids(setup), setup.solver, setup.market, setup.specs)
        return solve, rows, csv, fine

    def check(self, out, setup, idx: int) -> None:
        _, rows, _, fine = out
        _check_payments(rows, len(setup.specs))
        if not (math.isfinite(fine) and fine > 0.0):
            raise CheckFailed("simulate", f"miss fine {fine} is not a positive number")

    def summary(self, out) -> dict:
        return _solve_summary(out[0])


class BeamMixed2(Workload):
    """``solve_outer`` in beam mode (width 8) on a seed-drawn two-EV mixed
    fleet, checked against the exhaustive optimum solved outside the op."""

    name = "beam-mixed2"
    salt = 3
    golden_ops = 12

    def __init__(self, seed: int):
        super().__init__(seed)
        self._exhaustive: dict[int, float] = {}

    def configs(self) -> list[dict]:
        return [_mixed_table1(_rng(self.seed, self.salt, j), 2, "beam") for j in range(POOL)]

    def op_input(self, k: int) -> tuple[int, object]:
        return k % POOL, None

    def run(self, setup, extra):
        return dispatch.solve_outer(_bids(setup), setup.solver, setup.market, setup.specs)

    def check(self, out, setup, idx: int) -> None:
        if idx not in self._exhaustive:
            exhaustive = dataclasses.replace(setup.solver, mode="exhaustive")
            self._exhaustive[idx] = dispatch.solve_outer(
                _bids(setup), exhaustive, setup.market, setup.specs
            ).q_star
        best = self._exhaustive[idx]
        if out.q_star < best - TOL:
            raise CheckFailed("dispatch", f"beam q_star {out.q_star} below exhaustive {best}")

    def summary(self, out) -> dict:
        return _solve_summary(out)


class DaysTheorem1(Workload):
    """One ``simulate`` command on the theorem1 preset: ``run_horizon``
    over its 5,000 days with ``j_m="auto"``, then the trace CSV and the
    diagnostics JSON.  Strategies cycle in a seeded order; each op draws
    its simulation seed from the benchmark seed."""

    name = "days-theorem1"
    salt = 4
    golden_ops = 64
    # truthful, the four adversaries of simulate.default_adversary_suite
    # for the preset's theta = (0.21, 0.79), and the theorem1 suite's
    # two-point underbid
    STRATEGIES = (
        {"rule": {"kind": "truthful"}},
        {"bid_pmf": [1.0, 0.0], "rule": {"kind": "histogram_match"}},
        {"rule": {"kind": "early_exit"}},
        {"rule": {"kind": "fixed", "slot": 1}},
        {"bid_pmf": [0.0, 1.0], "rule": {"kind": "histogram_match"}},
        {"bid_pmf": [0.19, 0.81], "rule": {"kind": "truthful"}},
    )

    def configs(self) -> list[dict]:
        out = []
        for strategy in self.STRATEGIES:
            cfg = presets.theorem1_config()
            cfg["simulation"]["strategies"] = [strategy]
            out.append(cfg)
        return out

    def op_input(self, k: int) -> tuple[int, object]:
        sim_seed = int(_rng(self.seed, self.salt, k, 1).integers(2**31))
        return self._cycle(k, len(self.STRATEGIES)), sim_seed

    def run(self, setup, extra):
        res = simulate.run_horizon(
            setup.market, setup.specs, setup.params, setup.strategies, setup.days, extra,
            setup.window_schedule, setup.penalty_schedule, setup.solver, setup.j_m,
        )
        return res, res.to_csv(), experiments.to_json(res.diagnostics)

    def check(self, out, setup, idx: int) -> None:
        res, csv, _ = out
        want = setup.days * (1 + len(setup.specs))
        rows = csv.count("\n") - 1
        if rows != want:
            raise CheckFailed("simulate", f"trace has {rows} rows, want {want}")

    def summary(self, out) -> dict:
        res, csv, _ = out
        return {
            **_solve_summary(res.solve),
            "trace_sha256": hashlib.sha256(csv.encode()).hexdigest(),
        }


WORKLOADS = {w.name: w for w in (ClearFleet4, PaymentsMixed3, BeamMixed2, DaysTheorem1)}


def check_golden(summary: dict, want: dict) -> None:
    """``q_star`` within TOL, every other recorded field exactly."""
    for field, value in want.items():
        got = summary.get(field)
        if field == "q_star":
            ok = got is not None and abs(got - value) <= TOL
        else:
            ok = got == value
        if not ok:
            layer = "simulate" if field == "trace_sha256" else "dispatch"
            raise CheckFailed(layer, f"{field} is {got!r}, recorded {value!r}")
