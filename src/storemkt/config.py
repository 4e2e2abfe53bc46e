"""JSON configuration: schema validation, normalization, domain loading.

Configs are plain JSON with explicit units.  Rates are $/MWh (guarded by a
mandatory ``rate_units`` field), energies kWh, the EV energy credit
$/kWh.  This module checks only the JSON shape; every value rule lives in
the domain constructor, whose ValueError becomes the diagnostic
``"<field path>: <message>"``.  ``validate_config`` and ``load_setup``
share one builder, so a config that validates also loads.
"""
from __future__ import annotations

import contextlib
import json
import logging
import math
from dataclasses import dataclass, fields
from typing import Iterator

from .costs import CostForm, MarketModel, asym_lin_quad, linear, table
from .deadlines import DEFAULT_FLOOR, DeadlineDistribution
from .dispatch import SolverConfig
from .mdp import EVSpec, check_dispatch
from .mechanism import PenaltySchedule, WindowSchedule
from .simulate import BiddingStrategy, EarlyExit, Fixed, HistogramMatch, Truthful

log = logging.getLogger("storemkt")

RATE_UNITS = "USD_per_MWh"
COST_FORMS = ("linear", "asym_lin_quad", "table")
RULE_KINDS = ("truthful", "early_exit", "fixed", "histogram_match")


@contextlib.contextmanager
def each_cause_once() -> Iterator[None]:
    """Within the block, log each config warning cause once: a run that
    loads many configs (``experiment fig2``) reports a cause on its first
    config only.  Records without a ``cause`` all pass."""
    seen: set[str | None] = set()

    def first(record: logging.LogRecord) -> bool:
        cause = getattr(record, "cause", None)
        repeat = cause in seen
        seen.add(cause)
        return cause is None or not repeat

    log.addFilter(first)
    try:
        yield
    finally:
        log.removeFilter(first)


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


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


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
    "solver": {f.name: f.default for f in fields(SolverConfig)},
    "simulation": {"days": 1, "seeds": [0], "strategies": None},
}
#: the top-level keys the builder reads
TOP_KEYS = ("horizon", "demand", "generator", "reserves", "evs", *DEFAULTS)


def _unknown(obj: dict, path: str, keys, diags: list[str]) -> None:
    """One diagnostic per key of ``obj`` not among ``keys``."""
    diags.extend(f"{path}{key}: unknown key" for key in obj if key not in keys)


def _merged(section: str, raw: dict, diags: list[str]) -> dict:
    given = raw.get(section) or {}
    if not isinstance(given, dict):
        diags.append(f"{section}: must be an object")
        given = {}
    _unknown(given, f"{section}.", DEFAULTS[section], diags)
    return {**DEFAULTS[section], **given}


def _numbers(section: dict, path: str, keys: tuple[str, ...], diags: list[str]) -> bool:
    """True when each of ``keys`` holds a number; one diagnostic per miss."""
    missing = [key for key in keys if not _is_num(section.get(key))]
    diags.extend(f"{path}.{key}: must be a number" for key in missing)
    return not missing


def _make(diags: list[str], path: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, or None with its ValueError noted at ``path``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        diags.append(f"{path}: {exc}")
        return None


def _cost_form(spec, horizon: int, path: str, diags: list[str]) -> CostForm | None:
    if not isinstance(spec, dict) or spec.get("form") not in COST_FORMS:
        diags.append(f"{path}.form: must be one of {COST_FORMS}")
        return None
    _unknown(spec, f"{path}.", ("form", "slots" if spec["form"] == "table" else "rates"), diags)
    if spec["form"] != "table":
        rates = spec.get("rates")
        if not (_is_num(rates) or _num_list(rates, horizon)):
            diags.append(f"{path}.rates: need a number or list of {horizon} numbers")
            return None
        build = linear if spec["form"] == "linear" else asym_lin_quad
        return _make(diags, f"{path}.rates", build, rates, horizon)
    slots = spec.get("slots")
    if not isinstance(slots, list) or len(slots) != horizon:
        diags.append(f"{path}.slots: need {horizon} per-slot tables")
        return None
    bad = [
        f"{path}.slots[{t}]: need a nonempty mapping from energies to numbers"
        for t, slot in enumerate(slots)
        if not isinstance(slot, dict) or not slot or not all(map(_is_real, slot.values()))
    ]
    diags.extend(bad)
    return None if bad else _make(diags, f"{path}.slots", table, slots)


def _optional_pmf(pmf, horizon: int, path: str, diags: list[str]):
    """A floor-0 ``DeadlineDistribution``, or None for null and on error."""
    if pmf is None:
        return None
    if not _num_list(pmf, horizon):
        diags.append(f"{path}: need null or a list of {horizon} numbers")
        return None
    return _make(diags, path, DeadlineDistribution, tuple(pmf), 0.0)


def _strategy(strat, horizon: int, path: str, diags: list[str]):
    """One ``simulation.strategies`` entry as (bid, rule): the bid is None
    when the entry keeps the true distribution.  None when it is invalid."""
    if not isinstance(strat, dict):
        diags.append(f"{path}: must be an object")
        return None
    n = len(diags)
    _unknown(strat, f"{path}.", ("bid_pmf", "rule"), diags)
    bid = _optional_pmf(strat.get("bid_pmf"), horizon, f"{path}.bid_pmf", diags)
    rule = strat.get("rule", {"kind": "truthful"})
    kind = rule.get("kind") if isinstance(rule, dict) else None
    if kind in RULE_KINDS:
        extra = {"fixed": "slot", "histogram_match": "target_pmf"}.get(kind)
        _unknown(rule, f"{path}.rule.", ("kind", extra), diags)
    if kind == "truthful":
        rule = Truthful()
    elif kind == "early_exit":
        rule = EarlyExit()
    elif kind == "fixed":
        slot = rule.get("slot")
        if not _is_int(slot) or not 1 <= slot <= horizon:
            diags.append(f"{path}.rule.slot: must be an integer in 1..{horizon}")
        rule = Fixed(slot)
    elif kind == "histogram_match":
        target = rule.get("target_pmf")
        rule = HistogramMatch(_optional_pmf(target, horizon, f"{path}.rule.target_pmf", diags))
    else:
        diags.append(f"{path}.rule.kind: must be one of {RULE_KINDS}")
    return (bid, rule) if len(diags) == n else None


def _build(raw) -> tuple[dict | None, RunSetup | None, list[str]]:
    """(normalized config with defaults filled, its ``RunSetup``, diagnostics);
    both None on any diagnostic.  The one relaxation, logged but not fatal,
    is a probability floor of exactly zero, which fixed presets need."""
    if not isinstance(raw, dict):
        return None, None, ["config: top level must be a JSON object"]
    horizon = raw.get("horizon")
    if not _is_int(horizon) or horizon < 1:
        return None, None, ["horizon: must be a positive integer"]
    diags: list[str] = []
    _unknown(raw, "", TOP_KEYS, diags)
    norm: dict = {"horizon": horizon}

    demand = raw.get("demand")
    if not _num_list(demand, horizon):
        diags.append(f"demand: need a list of {horizon} numbers")
    forms = []
    for section in ("generator", "reserves"):
        spec = raw.get(section)
        forms.append(_cost_form(spec, horizon, section, diags))
        if isinstance(spec, dict):
            norm[section] = spec
    units = norm["units"] = _merged("units", raw, diags)
    if units.get("rate_units") != RATE_UNITS:
        diags.append(
            f"units.rate_units: must be {RATE_UNITS!r} (got {units.get('rate_units')!r})"
        )
    value_ok = _numbers(units, "units", ("ev_energy_value",), diags)
    market = None
    if value_ok and _num_list(demand, horizon) and None not in forms:
        norm["demand"] = [float(d) for d in demand]
        value = float(units["ev_energy_value"])
        market = _make(diags, "market", MarketModel, tuple(norm["demand"]), *forms, value)

    evs = raw.get("evs", [])
    if not isinstance(evs, list):
        diags.append("evs: must be a list")
        evs = []
    norm_evs, specs, params, zero_floor = [], [], [], []
    for k, ev in enumerate(evs):
        path = f"evs[{k}]"
        if not isinstance(ev, dict):
            diags.append(f"{path}: must be an object")
            continue
        theta = ev.get("theta", {})
        theta = {"floor": DEFAULT_FLOOR, **theta} if isinstance(theta, dict) else {}
        cap, levels = ev.get("capacity"), ev.get("levels")
        pmf, floor = theta.get("pmf"), theta.get("floor")
        n = len(diags)
        _unknown(ev, f"{path}.", ("capacity", "levels", "theta"), diags)
        _unknown(theta, f"{path}.theta.", ("pmf", "floor"), diags)
        _numbers(ev, path, ("capacity",), diags)
        _numbers(theta, f"{path}.theta", ("floor",), diags)
        if not _num_list(levels):
            diags.append(f"{path}.levels: must be a list of numbers")
        if not _num_list(pmf, horizon):
            diags.append(f"{path}.theta.pmf: need a list of {horizon} numbers")
        if len(diags) > n:
            continue
        if floor == 0.0:
            zero_floor.append(f"{path}.theta")
        levels, pmf = [float(x) for x in levels], [float(x) for x in pmf]
        specs.append(_make(diags, path, EVSpec, cap, tuple(levels)))
        params.append(
            _make(diags, f"{path}.theta", DeadlineDistribution, tuple(pmf), float(floor))
        )
        norm_evs.append({"capacity": cap, "levels": levels, "theta": {"pmf": pmf, "floor": floor}})
    norm["evs"] = norm_evs
    if zero_floor:
        log.warning(
            "%s: probability floor 0 accepted (preset exception)",
            ", ".join(zero_floor),
            extra={"cause": "zero floor"},
        )

    mech = norm["mechanism"] = _merged("mechanism", raw, diags)
    window = penalty = None
    if _numbers(mech, "mechanism", ("gamma", "window_scale"), diags):
        window = _make(diags, "mechanism", WindowSchedule, mech["gamma"], mech["window_scale"])
    if _numbers(mech, "mechanism", ("penalty_coefficient", "penalty_exponent"), diags):
        coefficient, exponent = mech["penalty_coefficient"], mech["penalty_exponent"]
        penalty = _make(diags, "mechanism", PenaltySchedule, coefficient, exponent)
    jm = mech.get("j_m")
    if jm != "auto" and (not _is_num(jm) or jm <= 0):
        diags.append('mechanism.j_m: must be "auto" or a positive number')

    solver = norm["solver"] = _merged("solver", raw, diags)
    n = len(diags)
    _numbers(solver, "solver", ("step",), diags)
    if not _is_int(solver.get("beam_width")):
        diags.append("solver.beam_width: must be an integer")
    caps = solver.get("caps")
    if caps is not None and not _num_list(caps, horizon):
        diags.append(f"solver.caps: need null or a list of {horizon} numbers")
    cands = solver.get("candidates")
    if cands is not None and (not isinstance(cands, list) or not cands):
        diags.append("solver.candidates: need null or a nonempty list of plans")
    for k, plan in enumerate(cands if isinstance(cands, list) else []):
        if not _num_list(plan):
            diags.append(f"solver.candidates[{k}]: need a list of numbers")
        else:
            _make(diags, f"solver.candidates[{k}]", check_dispatch, plan, horizon)
    solver_config = None
    if len(diags) == n:
        args = {f.name: solver[f.name] for f in fields(SolverConfig)}
        args["step"] = float(args["step"])
        solver_config = _make(diags, "solver", SolverConfig, **args)

    sim = norm["simulation"] = _merged("simulation", raw, diags)
    if not _is_int(sim.get("days")) or sim["days"] < 1:
        diags.append("simulation.days: must be a positive integer")
    seeds = sim.get("seeds")
    if (
        not isinstance(seeds, list)
        or not seeds
        or not all(map(_is_int, seeds))
    ):
        diags.append("simulation.seeds: must be a nonempty list of integers")
    elif min(seeds) < 0:
        diags.append("simulation.seeds: must be nonnegative")
    strategies = sim.get("strategies")
    if strategies is None:
        strategies = [(None, Truthful())] * len(evs)
    elif not isinstance(strategies, list) or len(strategies) != len(evs):
        diags.append(f"simulation.strategies: need one entry per EV ({len(evs)})")
    else:
        strategies = [
            _strategy(strat, horizon, f"simulation.strategies[{k}]", diags)
            for k, strat in enumerate(strategies)
        ]

    if diags:
        return None, None, diags
    return norm, RunSetup(
        market=market,
        specs=tuple(specs),
        params=tuple(params),
        strategies=tuple(
            BiddingStrategy(truth if bid is None else bid, rule)
            for (bid, rule), truth in zip(strategies, params)
        ),
        window_schedule=window,
        penalty_schedule=penalty,
        j_m=jm,
        solver=solver_config,
        days=sim["days"],
        seeds=tuple(seeds),
    ), []


def validate_config(raw: dict) -> tuple[dict | None, list[str]]:
    """Return (normalized config with defaults filled, diagnostics); the
    config is None on any diagnostic, and ``load_setup`` succeeds otherwise."""
    norm, _, diags = _build(raw)
    return norm, diags


def load_setup(raw: dict) -> RunSetup:
    """Validate and convert to domain objects; raises ConfigError."""
    _, setup, diags = _build(raw)
    if setup is None:
        raise ConfigError(diags)
    return setup


def emit(config: dict) -> str:
    """Canonical serialization; parse(emit(c)) == c for normalized c."""
    return json.dumps(config, indent=2, sort_keys=True) + "\n"


def parse(text: str) -> dict:
    return json.loads(text)
