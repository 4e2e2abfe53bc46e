"""Built-in scenario configurations.

Single-instance presets (``example1``, ``table1``, ``theorem1``) resolve
to one config dict and work with every subcommand; ``fig2`` and
``lemma-checks`` are experiment suites spanning many instances and only
run under ``experiment``.

Preset arguments ride in the name: ``example1:p=0.21``,
``table1:n=0,profile=C``.
"""
from __future__ import annotations

import functools
import logging
from typing import Callable

from .config import ConfigError
from .deadlines import SUM_TOL

log = logging.getLogger("storemkt")

TABLE1_DEMAND = (36.7387, 38.5138, 56.6975, 73.9188, 57.6061)
TABLE1_GEN_RATES = (12.4198, 18.8367, 19.1754, 31.0088, 33.3978)
TABLE1_RESERVE_RATES = (27.8936, 28.2861, 29.3702, 30.5788, 34.3765)
#: published per-profile deadline weights; B, C and D are printed to four
#: decimals and do not sum to exactly one, so they are renormalized on load
TABLE1_THETAS_RAW = {
    "A": (0.2, 0.2, 0.2, 0.2, 0.2),
    "B": (0.0770, 0.2442, 0.0783, 0.0716, 0.5290),
    "C": (0.0378, 0.2430, 0.1449, 0.5683, 0.0059),
    "D": (0.0212, 0.0462, 0.1019, 0.2061, 0.6245),
    "E": (0.0, 0.0, 0.0, 0.0, 1.0),
}
FIG2_PROFILES = ("A", "B", "C", "D", "E")
FIG2_MAX_EVS = 4

SINGLE_PRESETS = ("example1", "table1", "theorem1")
EXPERIMENT_PRESETS = ("example1", "table1", "fig2", "lemma-checks", "theorem1")


@functools.cache
def table1_theta(profile: str) -> tuple[float, ...]:
    """Profile weights summing to one; renormalized (and logged) once per process."""
    pmf = TABLE1_THETAS_RAW[profile]
    s = sum(pmf)
    if abs(s - 1.0) > SUM_TOL:
        log.warning(
            "profile %s weights sum to %.4f; renormalizing", profile, s
        )
        pmf = tuple(p / s for p in pmf)
    return pmf


def _theta_floor(pmf: tuple[float, ...]) -> float:
    m = min(pmf)
    return 0.0 if m == 0.0 else min(0.001, m)


def example1_config(p: float = 0.19) -> dict:
    """Two-slot toy market: free early generation, one unit-capacity EV.

    The only sensible plans are generating late (cost 2) or generating
    early into the EV (expected recourse 10p), so candidates are pinned
    to that pair; the full quantized grid admits a third plan that hands
    the EV free energy, which the scenario excludes by construction.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must be inside (0, 1)")
    return {
        "horizon": 2,
        "demand": [0.0, 1.0],
        "generator": {
            "form": "table",
            "slots": [{"0.0": 0.0, "1.0": 0.0}, {"0.0": 0.0, "1.0": 2.0}],
        },
        "reserves": {
            "form": "table",
            "slots": [{"0.0": 0.0}, {"0.0": 0.0, "1.0": 11.0}],
        },
        "units": {"rate_units": "USD_per_MWh", "ev_energy_value": 1.0},
        "evs": [
            {
                "capacity": 1.0,
                "levels": [0.0, 1.0],
                "theta": {"pmf": [p, 1.0 - p], "floor": _theta_floor((p, 1.0 - p))},
            }
        ],
        "mechanism": {
            "gamma": 1.0,
            "window_scale": 1.0,
            "penalty_coefficient": 1.0,
            "penalty_exponent": 2.0,
            "j_m": "auto",
        },
        "solver": {
            "step": 1.0,
            "mode": "exhaustive",
            "beam_width": 8,
            "caps": None,
            "candidates": [[1.0, 0.0], [0.0, 1.0]],
        },
        "simulation": {"days": 5000, "seeds": [0], "strategies": None},
    }


def table1_config(n: int = 4, profile: str = "A") -> dict:
    """Five-slot market with linear generation, linear/quadratic reserves,
    and ``n`` identical 10 kWh EVs sharing one deadline profile."""
    if not 0 <= n <= FIG2_MAX_EVS:
        raise ValueError(f"n must be in 0..{FIG2_MAX_EVS}")
    if profile not in TABLE1_THETAS_RAW:
        raise ValueError(f"profile must be one of {sorted(TABLE1_THETAS_RAW)}")
    pmf = table1_theta(profile)
    return {
        "horizon": 5,
        "demand": list(TABLE1_DEMAND),
        "generator": {"form": "linear", "rates": list(TABLE1_GEN_RATES)},
        "reserves": {"form": "asym_lin_quad", "rates": list(TABLE1_RESERVE_RATES)},
        "units": {"rate_units": "USD_per_MWh", "ev_energy_value": 1.0},
        "evs": [
            {
                "capacity": 10.0,
                "levels": [0.0, 10.0],
                "theta": {"pmf": list(pmf), "floor": _theta_floor(pmf)},
            }
            for _ in range(n)
        ],
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
        },
        "simulation": {"days": 2000, "seeds": [0], "strategies": None},
    }


def theorem1_config() -> dict:
    """The incentive desk-check instance: the toy market at p = 0.21,
    where underbidding p = 0.19 was the profitable deviation before
    settlements."""
    cfg = example1_config(p=0.21)
    cfg["simulation"] = {"days": 5000, "seeds": [0], "strategies": None}
    return cfg


#: each single-instance preset's builder and the type of each argument it takes
_BUILDERS: dict[str, tuple[Callable[..., dict], dict[str, type]]] = {
    "example1": (example1_config, {"p": float}),
    "table1": (table1_config, {"n": int, "profile": str}),
    "theorem1": (theorem1_config, {}),
}


def parse_preset_name(name: str) -> tuple[str, dict]:
    """Split ``table1:n=0,profile=C`` into (base, kwargs).  Raises
    ValueError naming an unknown or experiment-only preset, an argument it
    does not take, a repeated one, or a value of the wrong type."""
    base, _, argstr = name.partition(":")
    if base not in _BUILDERS:
        raise ValueError(
            f"preset {base!r} is experiment-only or unknown; "
            f"single-instance presets: {SINGLE_PRESETS}"
        )
    types = _BUILDERS[base][1]
    kwargs: dict = {}
    for part in argstr.split(",") if argstr else ():
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in types:
            raise ValueError(f"unknown argument {key!r} ({base} takes {', '.join(types) or 'none'})")
        if key in kwargs:
            raise ValueError(f"argument {key!r} given twice")
        try:
            kwargs[key] = types[key](value)
        except ValueError:
            raise ValueError(f"{key} takes {types[key].__name__} values, not {value!r}") from None
    return base, kwargs


def is_preset(name: str) -> bool:
    base, _, _ = name.partition(":")
    return base in EXPERIMENT_PRESETS


def preset_config(name: str) -> dict:
    """Materialize a single-instance preset (with optional arguments);
    raises ConfigError naming a bad name, argument or value."""
    try:
        base, kwargs = parse_preset_name(name)
        return _BUILDERS[base][0](**kwargs)
    except ValueError as exc:
        raise ConfigError([f"{name}: {exc}"]) from None
