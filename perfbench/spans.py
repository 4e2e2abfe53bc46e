"""Span recorder for the traced run.

``install`` wraps every public function of the program's layer modules
(``config``, ``mdp``, ``dispatch``, ``mechanism``, ``simulate``,
``experiments``) at every attribute of a loaded ``storemkt`` module that is
bound to it, plus the ``StateSpace`` constructor and ``SimResult.to_csv``.
Nothing under ``src/`` is edited: the wrappers are installed at run time.

A span is (name, start, end, parent, op).  Spans stay in flat arrays in
memory and are written once, by ``Recorder.write``, when the run ends.
A span's self time is its duration minus the time covered by its child
spans; calls run on one thread, so children never overlap.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("config", "mdp", "dispatch", "mechanism", "simulate", "experiments")
#: methods traced besides the module-level functions: (module, class, method) -> span name
METHODS = {
    ("mdp", "StateSpace", "__init__"): "mdp.StateSpace",
    ("simulate", "SimResult", "to_csv"): "simulate.to_csv",
}

#: per-layer metrics of the traced run: (name, unit, better).  Counts and
#: seconds are per op (totals over the traced ops divided by their number),
#: except ``config.load_setup.s``, which covers building the run's inputs once.
PER_LAYER = (
    ("config.load_setup.s", "s", "lower"),
    ("mdp.StateSpace.calls", "count/op", "lower"),
    ("mdp.StateSpace.s", "s/op", "lower"),
    ("mdp.n_states_max", "count", "lower"),
    ("mdp.solve_dp.calls", "count/op", "lower"),
    ("mdp.solve_dp.s", "s/op", "lower"),
    ("mdp.expected_outcome.s", "s/op", "lower"),
    ("mdp.rollout.calls", "count/op", "lower"),
    ("mdp.rollout.s", "s/op", "lower"),
    ("mdp.beta.calls", "count/op", "lower"),
    ("dispatch.solve_outer.calls", "count/op", "lower"),
    ("dispatch.solve_outer.self_s", "s/op", "lower"),
    ("dispatch.plans_priced", "count/op", "lower"),
    ("dispatch.plans_per_s", "1/s", "higher"),
    ("dispatch.solve_outer.dup_frac", "ratio", "lower"),
    ("dispatch.estimate_lipschitz_K.s", "s/op", "lower"),
    ("dispatch.conditional_beta.calls", "count/op", "lower"),
    ("dispatch.conditional_beta.self_s", "s/op", "lower"),
    ("mechanism.day_ahead_payment.calls", "count/op", "lower"),
    ("mechanism.settlement.calls", "count/op", "lower"),
    ("mechanism.settlement.s", "s/op", "lower"),
    ("simulate.run_horizon.self_s", "s/op", "lower"),
    ("simulate.days", "count/op", "higher"),
    ("simulate.realtime_report.calls", "count/op", "lower"),
    ("simulate.realtime_report.s", "s/op", "lower"),
    ("simulate.resolve_j_m.calls", "count/op", "lower"),
    ("simulate.resolve_j_m.s", "s/op", "lower"),
    ("simulate.to_csv.s", "s/op", "lower"),
    ("simulate.trace_bytes", "bytes/op", "lower"),
    ("experiments.payments_table.self_s", "s/op", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


class Recorder:
    """In-memory span store plus the counters read off call results."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.active = False  # spans are recorded only while the program runs an op
        self.current_op = -1
        self.n_states_max = 0
        self.plans_priced = 0
        self.solve_calls = 0
        self.solve_dups = 0
        self._solve_keys: set[str] = set()
        self.trace_bytes = 0
        self.days = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        nid = self._name_id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.op.append(self.current_op)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    # ---- counters read off calls ---------------------------------------

    def _after_state_space(self, args, kwargs, out) -> None:
        self.n_states_max = max(self.n_states_max, int(getattr(args[0], "n_states", 0)))

    def _solve_outer_hook(self, signature: inspect.Signature):
        def after(args, kwargs, out) -> None:
            bound = signature.bind(*args, **kwargs).arguments
            key = repr(
                {k: tuple(v) if isinstance(v, list) else v for k, v in bound.items()}
            )
            self.solve_calls += 1
            self.solve_dups += key in self._solve_keys
            self._solve_keys.add(key)
            self.plans_priced += int(out.candidates_evaluated)

        return after

    def _after_run_horizon(self, args, kwargs, out) -> None:
        self.days += int(out.days)

    def _after_to_csv(self, args, kwargs, out) -> None:
        self.trace_bytes += len(out.encode())

    # ---- results ---------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """calls, inclusive seconds and self seconds per span name."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        par = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        child = np.zeros(len(dur))
        has_parent = par >= 0
        np.add.at(child, par[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        incl = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=dur - child, minlength=k)
        return {
            name: {"calls": float(calls[i]), "s": float(incl[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def metrics(self, n_ops: int, overhead_frac: float) -> dict[str, float]:
        """Every PER_LAYER metric over ``n_ops`` traced ops; a span never entered reads 0."""
        tot = self.totals()
        per = 1.0 / max(n_ops, 1)

        def span(name: str, stat: str) -> float:
            return tot.get(name, {}).get(stat, 0.0)

        out: dict[str, float] = {}
        for name, _, _ in PER_LAYER:
            base, _, stat = name.rpartition(".")
            if stat in ("calls", "s", "self_s"):
                out[name] = span(base, stat) * per
        solve_s = span("dispatch.solve_outer", "s")
        out.update(
            {
                "config.load_setup.s": span("config.load_setup", "s"),
                "mdp.n_states_max": float(self.n_states_max),
                "dispatch.plans_priced": self.plans_priced * per,
                "dispatch.plans_per_s": self.plans_priced / solve_s if solve_s > 0 else 0.0,
                "dispatch.solve_outer.dup_frac": self.solve_dups / self.solve_calls
                if self.solve_calls
                else 0.0,
                "simulate.days": self.days * per,
                "simulate.trace_bytes": self.trace_bytes * per,
                "trace.overhead_frac": overhead_frac,
            }
        )
        return {name: out[name] for name, _, _ in PER_LAYER}

    def write(self, path: Path) -> None:
        """Write every span once: a JSON name table plus flat arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def install(rec: Recorder) -> None:
    """Replace each traced function at every storemkt module attribute bound to it."""
    mods = {name: importlib.import_module(f"storemkt.{name}") for name in LAYERS}
    loaded = [m for n, m in list(sys.modules.items()) if n == "storemkt" or n.startswith("storemkt.")]
    hooks = {"mdp.StateSpace": rec._after_state_space,
             "simulate.run_horizon": rec._after_run_horizon,
             "simulate.to_csv": rec._after_to_csv}
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            after = hooks.get(name)
            if name == "dispatch.solve_outer":
                after = rec._solve_outer_hook(inspect.signature(obj))
            traced = rec.wrap(name, obj, after)
            for m in loaded:
                for a, v in list(vars(m).items()):
                    if v is obj:
                        setattr(m, a, traced)
    for (short, cls_name, meth), name in METHODS.items():
        cls = getattr(mods[short], cls_name)
        setattr(cls, meth, rec.wrap(name, getattr(cls, meth), hooks.get(name)))
