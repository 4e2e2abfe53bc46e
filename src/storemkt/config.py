"""JSON configuration: schema validation, normalization, domain loading.

Configs are plain JSON with explicit units.  Rates are $/MWh (guarded by a
mandatory ``rate_units`` field), energies kWh, the EV energy credit
$/kWh.  ``validate_config`` returns per-field diagnostics instead of
raising so the CLI can print them all at once; ``load_setup`` converts a
validated config into solver-ready objects.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from typing import Sequence

from .costs import CostForm, MarketModel, asym_lin_quad, linear, table
from .deadlines import DEFAULT_FLOOR, DeadlineDistribution, violations
from .dispatch import SolverConfig
from .mdp import EVSpec
from .mechanism import PenaltySchedule, WindowSchedule
from .simulate import (
    BiddingStrategy,
    EarlyExit,
    Fixed,
    HistogramMatch,
    RealtimeRule,
    Truthful,
)

log = logging.getLogger("storemkt")

RATE_UNITS = "USD_per_MWh"
COST_FORMS = ("linear", "asym_lin_quad", "table")
RULE_KINDS = ("truthful", "early_exit", "fixed", "histogram_match")


class ConfigError(ValueError):
    """Carries the full diagnostic list for CLI display."""

    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


@dataclass
class RunSetup:
    """Validated, object-form configuration ready to solve or simulate."""

    market: MarketModel
    specs: tuple[EVSpec, ...]
    params: tuple[DeadlineDistribution, ...]
    strategies: tuple[BiddingStrategy, ...]
    window_schedule: WindowSchedule
    penalty_schedule: PenaltySchedule
    j_m: float | str
    solver: SolverConfig
    days: int
    seeds: tuple[int, ...]


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _num_list(x, n: int | None = None) -> bool:
    return (
        isinstance(x, list)
        and (n is None or len(x) == n)
        and all(_is_num(v) for v in x)
    )


DEFAULTS = {
    "units": {"rate_units": RATE_UNITS, "ev_energy_value": 1.0},
    "mechanism": {
        "gamma": 1.0,
        "window_scale": 1.0,
        "penalty_coefficient": 1.0,
        "penalty_exponent": 2.0,
        "j_m": "auto",
    },
    "solver": {
        "step": 10.0,
        "mode": "exhaustive",
        "beam_width": 8,
        "caps": None,
        "candidates": None,
        "max_candidates": 2_000_000,
    },
    "simulation": {"days": 1, "seeds": [0], "strategies": None},
}


def _merged(section: str, raw: dict) -> dict:
    out = dict(DEFAULTS[section])
    out.update(raw or {})
    return out


def _check_cost_form(spec, horizon: int, path: str, out: list[str]) -> None:
    if not isinstance(spec, dict) or spec.get("form") not in COST_FORMS:
        out.append(f"{path}.form: must be one of {COST_FORMS}")
        return
    form = spec["form"]
    if form in ("linear", "asym_lin_quad"):
        rates = spec.get("rates")
        if _is_num(rates):
            return
        if not _num_list(rates, horizon):
            out.append(f"{path}.rates: need a number or list of {horizon} numbers")
        elif any(r < 0 for r in rates):
            out.append(f"{path}.rates: rates must be nonnegative")
    else:
        slots = spec.get("slots")
        if not isinstance(slots, list) or len(slots) != horizon:
            out.append(f"{path}.slots: need {horizon} per-slot tables")
            return
        for t, slot in enumerate(slots):
            if not isinstance(slot, dict) or not slot:
                out.append(f"{path}.slots[{t}]: need a nonempty mapping")
                continue
            for k, v in slot.items():
                try:
                    float(k)
                except (TypeError, ValueError):
                    out.append(f"{path}.slots[{t}]: key {k!r} is not numeric")
                if not _is_num(v):
                    out.append(f"{path}.slots[{t}][{k}]: cost must be finite")


def validate_config(raw: dict) -> tuple[dict | None, list[str]]:
    """Return (normalized config with defaults filled, diagnostics).

    Normalized config is None when any diagnostic is fatal.  The single
    logged-but-allowed relaxation is a probability floor of exactly zero,
    which fixed presets with deterministic deadlines need.
    """
    diags: list[str] = []
    if not isinstance(raw, dict):
        return None, ["config: top level must be a JSON object"]
    horizon = raw.get("horizon")
    if not isinstance(horizon, int) or horizon < 1:
        diags.append("horizon: must be a positive integer")
        return None, diags
    norm: dict = {"horizon": horizon}

    demand = raw.get("demand")
    if not _num_list(demand, horizon):
        diags.append(f"demand: need a list of {horizon} numbers")
    elif any(d < 0 for d in demand):
        bad = next(i for i, d in enumerate(demand) if d < 0)
        diags.append(f"demand[{bad}]: negative demand {demand[bad]}")
    else:
        norm["demand"] = [float(d) for d in demand]

    for section in ("generator", "reserves"):
        spec = raw.get(section)
        _check_cost_form(spec, horizon, section, diags)
        if isinstance(spec, dict):
            norm[section] = spec

    units = _merged("units", raw.get("units"))
    if units.get("rate_units") != RATE_UNITS:
        diags.append(
            f"units.rate_units: must be {RATE_UNITS!r} (got {units.get('rate_units')!r})"
        )
    if not _is_num(units.get("ev_energy_value")) or units["ev_energy_value"] <= 0:
        diags.append("units.ev_energy_value: must be a positive number ($/kWh)")
    norm["units"] = units

    evs = raw.get("evs", [])
    if not isinstance(evs, list):
        diags.append("evs: must be a list")
        evs = []
    norm_evs = []
    zero_floor = []
    for k, ev in enumerate(evs):
        path = f"evs[{k}]"
        if not isinstance(ev, dict):
            diags.append(f"{path}: must be an object")
            continue
        cap = ev.get("capacity")
        levels = ev.get("levels")
        theta = ev.get("theta", {})
        if not _is_num(cap) or cap <= 0:
            diags.append(f"{path}.capacity: must be positive")
        if not _num_list(levels) or not levels or levels[0] != 0:
            diags.append(f"{path}.levels: must be a list starting at 0")
        elif any(b <= a for a, b in zip(levels, levels[1:])):
            diags.append(f"{path}.levels: must be strictly increasing")
        elif _is_num(cap) and levels[-1] > cap:
            diags.append(f"{path}.levels: top level exceeds capacity")
        pmf = theta.get("pmf") if isinstance(theta, dict) else None
        floor = theta.get("floor", DEFAULT_FLOOR) if isinstance(theta, dict) else DEFAULT_FLOOR
        if not _num_list(pmf, horizon):
            diags.append(f"{path}.theta.pmf: need a list of {horizon} numbers")
        else:
            if not _is_num(floor) or floor < 0:
                diags.append(f"{path}.theta.floor: must be a nonnegative number")
            else:
                if floor == 0.0:
                    zero_floor.append(f"{path}.theta")
                for msg in violations(pmf, floor):
                    diags.append(f"{path}.theta: {msg}")
        norm_evs.append(
            {
                "capacity": cap,
                "levels": [float(x) for x in (levels or [])],
                "theta": {"pmf": [float(x) for x in (pmf or [])], "floor": floor},
            }
        )
    norm["evs"] = norm_evs
    if zero_floor:
        log.warning(
            "%s: probability floor 0 accepted (preset exception)", ", ".join(zero_floor)
        )

    mech = _merged("mechanism", raw.get("mechanism"))
    if not _is_num(mech.get("gamma")) or mech["gamma"] <= 0.5:
        diags.append("mechanism.gamma: must exceed 0.5")
    if not _is_num(mech.get("window_scale")) or mech["window_scale"] < 1.0:
        diags.append("mechanism.window_scale: must be >= 1")
    if not _is_num(mech.get("penalty_coefficient")) or mech["penalty_coefficient"] <= 0:
        diags.append("mechanism.penalty_coefficient: must be positive")
    if not _is_num(mech.get("penalty_exponent")) or mech["penalty_exponent"] <= 1.0:
        diags.append("mechanism.penalty_exponent: must exceed 1")
    jm = mech.get("j_m")
    if jm != "auto" and (not _is_num(jm) or jm <= 0):
        diags.append('mechanism.j_m: must be "auto" or a positive number')
    norm["mechanism"] = mech

    solver = _merged("solver", raw.get("solver"))
    if not _is_num(solver.get("step")) or solver["step"] <= 0:
        diags.append("solver.step: must be positive")
    if solver.get("mode") not in ("exhaustive", "beam"):
        diags.append('solver.mode: must be "exhaustive" or "beam"')
    if not isinstance(solver.get("beam_width"), int) or solver["beam_width"] < 1:
        diags.append("solver.beam_width: must be a positive integer")
    if solver.get("caps") is not None and not _num_list(solver["caps"], horizon):
        diags.append(f"solver.caps: need null or a list of {horizon} numbers")
    cands = solver.get("candidates")
    if cands is not None:
        if not isinstance(cands, list) or not cands:
            diags.append("solver.candidates: need null or a nonempty list of plans")
        else:
            for k, plan in enumerate(cands):
                if not _num_list(plan, horizon) or any(g < 0 for g in plan):
                    diags.append(
                        f"solver.candidates[{k}]: need {horizon} nonnegative energies"
                    )
    if not isinstance(solver.get("max_candidates"), int) or solver["max_candidates"] < 1:
        diags.append("solver.max_candidates: must be a positive integer")
    norm["solver"] = solver

    sim = _merged("simulation", raw.get("simulation"))
    if not isinstance(sim.get("days"), int) or sim["days"] < 1:
        diags.append("simulation.days: must be a positive integer")
    seeds = sim.get("seeds")
    if (
        not isinstance(seeds, list)
        or not seeds
        or not all(isinstance(s, int) for s in seeds)
    ):
        diags.append("simulation.seeds: must be a nonempty list of integers")
    strategies = sim.get("strategies")
    if strategies is not None:
        if not isinstance(strategies, list) or len(strategies) != len(norm_evs):
            diags.append(
                f"simulation.strategies: need one entry per EV ({len(norm_evs)})"
            )
        else:
            for k, strat in enumerate(strategies):
                diags.extend(_check_strategy(strat, horizon, f"simulation.strategies[{k}]"))
    norm["simulation"] = sim

    if diags:
        return None, diags
    return norm, []


def _check_strategy(strat, horizon: int, path: str) -> list[str]:
    out: list[str] = []
    if not isinstance(strat, dict):
        return [f"{path}: must be an object"]
    bid = strat.get("bid_pmf")
    if bid is not None and not _num_list(bid, horizon):
        out.append(f"{path}.bid_pmf: need null or a list of {horizon} numbers")
    rule = strat.get("rule", {"kind": "truthful"})
    if not isinstance(rule, dict) or rule.get("kind") not in RULE_KINDS:
        out.append(f"{path}.rule.kind: must be one of {RULE_KINDS}")
        return out
    if rule["kind"] == "fixed":
        slot = rule.get("slot")
        if not isinstance(slot, int) or not 1 <= slot <= horizon:
            out.append(f"{path}.rule.slot: must be an integer in 1..{horizon}")
    if rule["kind"] == "histogram_match":
        target = rule.get("target_pmf")
        if target is not None and not _num_list(target, horizon):
            out.append(f"{path}.rule.target_pmf: need null or a list of {horizon} numbers")
    return out


def _build_cost(spec: dict, horizon: int) -> CostForm:
    if spec["form"] == "linear":
        return linear(spec["rates"], horizon)
    if spec["form"] == "asym_lin_quad":
        return asym_lin_quad(spec["rates"], horizon)
    return table([{float(k): float(v) for k, v in slot.items()} for slot in spec["slots"]])


def _build_rule(rule: dict, horizon: int) -> RealtimeRule:
    kind = rule.get("kind", "truthful")
    if kind == "truthful":
        return Truthful()
    if kind == "early_exit":
        return EarlyExit()
    if kind == "fixed":
        return Fixed(rule["slot"])
    target = rule.get("target_pmf")
    return HistogramMatch(
        DeadlineDistribution(tuple(target), floor=0.0) if target is not None else None
    )


def load_setup(raw: dict) -> RunSetup:
    """Validate and convert to domain objects; raises ConfigError."""
    norm, diags = validate_config(raw)
    if norm is None:
        raise ConfigError(diags)
    horizon = norm["horizon"]
    market = MarketModel(
        demand=tuple(norm["demand"]),
        generator=_build_cost(norm["generator"], horizon),
        reserves=_build_cost(norm["reserves"], horizon),
        ev_energy_value=float(norm["units"]["ev_energy_value"]),
    )
    specs = tuple(
        EVSpec(ev["capacity"], tuple(ev["levels"])) for ev in norm["evs"]
    )
    params = tuple(
        DeadlineDistribution(tuple(ev["theta"]["pmf"]), floor=float(ev["theta"]["floor"]))
        for ev in norm["evs"]
    )
    raw_strats = norm["simulation"].get("strategies")
    strategies = []
    for i in range(len(specs)):
        if raw_strats is None:
            strategies.append(BiddingStrategy(params[i], Truthful()))
            continue
        strat = raw_strats[i]
        bid_pmf = strat.get("bid_pmf")
        bid = (
            DeadlineDistribution(tuple(float(x) for x in bid_pmf), floor=0.0)
            if bid_pmf is not None
            else params[i]
        )
        strategies.append(BiddingStrategy(bid, _build_rule(strat.get("rule", {}), horizon)))
    mech = norm["mechanism"]
    solver = norm["solver"]
    return RunSetup(
        market=market,
        specs=specs,
        params=params,
        strategies=tuple(strategies),
        window_schedule=WindowSchedule(mech["gamma"], mech["window_scale"]),
        penalty_schedule=PenaltySchedule(
            mech["penalty_coefficient"], mech["penalty_exponent"]
        ),
        j_m=mech["j_m"],
        solver=SolverConfig(
            step=float(solver["step"]),
            mode=solver["mode"],
            beam_width=solver["beam_width"],
            caps=tuple(solver["caps"]) if solver["caps"] is not None else None,
            candidates=tuple(tuple(c) for c in solver["candidates"])
            if solver["candidates"] is not None
            else None,
            max_candidates=solver["max_candidates"],
        ),
        days=norm["simulation"]["days"],
        seeds=tuple(norm["simulation"]["seeds"]),
    )


def emit(config: dict) -> str:
    """Canonical serialization; parse(emit(c)) == c for normalized c."""
    return json.dumps(config, indent=2, sort_keys=True) + "\n"


def parse(text: str) -> dict:
    return json.loads(text)
