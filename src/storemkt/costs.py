"""Per-slot cost forms for the generator and the reserves.

Units convention, fixed package-wide: energy in kWh, money in dollars.
Rates are quoted in $/MWh, so a linear term prices energy as
``rate * kwh / 1000`` and the quadratic absorption term of the asymmetric
form prices it as ``rate * kwh**2 / 1000``.  With typical rate magnitudes
this makes absorbing a 10 kWh surplus roughly ten times costlier than
producing a 10 kWh shortfall, which is the intended asymmetry: reserves
produce easily and consume reluctantly.

Sign convention for the reserve argument: positive means the reserves must
produce (demand plus EV charging exceeds dispatch), negative means they
must absorb surplus dispatch.

Table forms map a quantized energy amount directly to a dollar cost; any
amount without an entry is infeasible and prices as ``+inf``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

MWH_PER_KWH = 1.0 / 1000.0
#: table keys are matched after rounding to this many decimals of a kWh
TABLE_KEY_DECIMALS = 9


class CostModelError(ValueError):
    """A cost form was built from inconsistent data."""


def _as_rates(rates: float | Sequence[float], horizon: int | None) -> tuple[float, ...]:
    if np.isscalar(rates):
        if horizon is None:
            raise CostModelError("scalar rate needs an explicit horizon")
        out = (float(rates),) * horizon
    else:
        out = tuple(float(r) for r in rates)  # type: ignore[union-attr]
    if horizon is not None and len(out) != horizon:
        raise CostModelError(f"expected {horizon} per-slot rates, got {len(out)}")
    if any(r < 0 for r in out):
        raise CostModelError("rates must be nonnegative")
    return out


@dataclass(frozen=True)
class LinearCost:
    """Signed linear pricing: rate_t * kwh / 1000.

    Negative energy (absorption) is credited at the same rate.
    """

    rates: tuple[float, ...]

    def cost(self, slot: int, kwh: float) -> float:
        return self.rates[slot - 1] * kwh * MWH_PER_KWH

    @property
    def horizon(self) -> int:
        return len(self.rates)


@dataclass(frozen=True)
class AsymLinQuadCost:
    """Linear on production (kwh >= 0), quadratic on absorption (kwh < 0)."""

    rates: tuple[float, ...]

    def cost(self, slot: int, kwh: float) -> float:
        rate = self.rates[slot - 1]
        if kwh >= 0.0:
            return rate * kwh * MWH_PER_KWH
        return rate * kwh * kwh * MWH_PER_KWH

    @property
    def horizon(self) -> int:
        return len(self.rates)


def _round_key(kwh: float) -> float:
    return round(float(kwh), TABLE_KEY_DECIMALS)


@dataclass(frozen=True)
class TableCost:
    """Explicit per-slot tables from quantized kWh to dollars.

    ``slots[t-1]`` holds slot t's table.  Energies absent from a slot's
    table are infeasible there and cost ``+inf``.
    """

    slots: tuple[Mapping[float, float], ...]

    def __post_init__(self) -> None:
        normalized = []
        for i, table in enumerate(self.slots):
            entries = {}
            for kwh, dollars in table.items():
                if not math.isfinite(dollars):
                    raise CostModelError(f"slot {i + 1} table has non-finite cost")
                entries[_round_key(kwh)] = float(dollars)
            normalized.append(entries)
        object.__setattr__(self, "slots", tuple(normalized))

    def cost(self, slot: int, kwh: float) -> float:
        return self.slots[slot - 1].get(_round_key(kwh), math.inf)

    @property
    def horizon(self) -> int:
        return len(self.slots)


CostForm = LinearCost | AsymLinQuadCost | TableCost


def linear(rates: float | Sequence[float], horizon: int | None = None) -> LinearCost:
    return LinearCost(_as_rates(rates, horizon))


def asym_lin_quad(rates: float | Sequence[float], horizon: int | None = None) -> AsymLinQuadCost:
    return AsymLinQuadCost(_as_rates(rates, horizon))


def table(slots: Sequence[Mapping[float, float]]) -> TableCost:
    return TableCost(tuple(dict(s) for s in slots))


@dataclass(frozen=True)
class MarketModel:
    """Slot demand plus the generator and reserve cost forms.

    ``ev_energy_value`` converts stored EV energy to dollars when it enters
    objectives and settlements (terminal credit, charge gaps).
    """

    demand: tuple[float, ...]
    generator: CostForm
    reserves: CostForm
    ev_energy_value: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "demand", tuple(float(d) for d in self.demand))
        horizon = len(self.demand)
        if horizon == 0:
            raise CostModelError("demand must cover at least one slot")
        for t, d in enumerate(self.demand):
            if d < 0:
                raise CostModelError(f"negative demand {d} at demand[{t}]")
        for name, form in (("generator", self.generator), ("reserves", self.reserves)):
            if form.horizon != horizon:
                raise CostModelError(
                    f"{name} cost form covers {form.horizon} slots, demand covers {horizon}"
                )
        if not (self.ev_energy_value >= 0.0):
            raise CostModelError("ev_energy_value must be nonnegative")

    @property
    def horizon(self) -> int:
        return len(self.demand)

    def generator_cost(self, g: Sequence[float]) -> float:
        """Total dispatch cost, +inf when any slot's output is infeasible."""
        if len(g) != self.horizon:
            raise CostModelError("dispatch length does not match horizon")
        return float(sum(self.generator.cost(t + 1, g[t]) for t in range(self.horizon)))

    def reserve_cost_at(self, slot: int, mismatch_kwh: float) -> float:
        """Reserve cost for one slot's mismatch (positive = production)."""
        return self.reserves.cost(slot, mismatch_kwh)
