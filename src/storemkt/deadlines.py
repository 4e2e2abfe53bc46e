"""Deadline distributions over discrete daily slots.

An EV's availability on a given day is summarized by its deadline: the last
slot during which it is still connected.  A deadline distribution assigns a
probability to each slot 1..T.  This module owns the algebra the rest of the
package builds on:

* construction and validation (probability floor, normalization),
* cdf / mean,
* the signed sup-gap ``alpha`` between two distributions' cdfs,
* pointwise cdf dominance,
* inverse-cdf sampling and the monotone coupling used to compare systems
  whose deadline laws are cdf-ordered.

All randomness flows through an explicit ``numpy.random.Generator`` so runs
replay exactly from a 64-bit seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: tolerance on pmf normalization
SUM_TOL = 1e-12
#: slack allowed when deciding cdf dominance / zero alpha
DOMINANCE_TOL = 1e-12
#: default probability floor applied to every slot
DEFAULT_FLOOR = 0.001


class DistributionError(ValueError):
    """A pmf violated a deadline-distribution invariant."""


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator from a 64-bit seed (PCG64)."""
    return np.random.Generator(np.random.PCG64(seed))


def violations(pmf: Sequence[float], floor: float) -> list[str]:
    """Check deadline-pmf invariants, returning one message per violation.

    An empty list means the pmf is a valid deadline distribution with the
    given probability floor.  Messages name the offending index so config
    errors point at the right slot.
    """
    msgs: list[str] = []
    values = np.asarray(pmf, dtype=float)
    if values.ndim != 1 or values.size == 0:
        return ["pmf must be a non-empty 1-d sequence"]
    horizon = values.size
    if not np.isfinite(values).all():
        msgs.append("pmf entries must be finite")
        return msgs
    if floor < 0.0:
        msgs.append(f"floor {floor} is negative")
    if floor > 1.0 / horizon + SUM_TOL:
        msgs.append(f"floor {floor} exceeds 1/T = {1.0 / horizon}")
    for t, p in enumerate(values):
        if p < floor:
            msgs.append(f"pmf[{t}] = {p} below floor {floor}")
            break
    total = float(values.sum())
    if abs(total - 1.0) > SUM_TOL:
        msgs.append(f"pmf sums to {total!r}, not 1 within {SUM_TOL}")
    return msgs


@dataclass(frozen=True)
class DeadlineDistribution:
    """Probability mass over deadline slots 1..T with a per-slot floor.

    The floor is the smallest probability any slot may carry.  A positive
    floor keeps every slot's conditional quantities well defined; a zero
    floor is accepted so fixed presets with exact zeros can be reproduced,
    at the price of unreachable late states (handled downstream).
    """

    pmf: tuple[float, ...]
    floor: float = DEFAULT_FLOOR

    def __post_init__(self) -> None:
        msgs = violations(self.pmf, self.floor)
        if msgs:
            raise DistributionError("; ".join(msgs))
        object.__setattr__(self, "pmf", tuple(float(p) for p in self.pmf))

    @property
    def horizon(self) -> int:
        return len(self.pmf)

    def cdf(self) -> np.ndarray:
        """Running sum of the pmf; nondecreasing, ends at 1 up to SUM_TOL."""
        return np.cumsum(self.pmf)

    def survival(self) -> np.ndarray:
        """P(deadline > t) for t = 0..T; entry 0 is 1, entry T is ~0."""
        out = np.empty(len(self.pmf) + 1)
        out[0] = 1.0
        out[1:] = 1.0 - self.cdf()
        return out

    def mean(self) -> float:
        """Expected deadline slot, sum of t * pmf(t) for t = 1..T."""
        t = np.arange(1, len(self.pmf) + 1)
        return float(np.dot(t, self.pmf))

    def sample(self, rng: np.random.Generator) -> int:
        """Draw one deadline slot by inverse cdf (smallest t with F(t) >= u)."""
        return self.sample_many(rng, 1)[0]

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.quantile(rng.random(n))

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """Deadline slot of each uniform in ``u``: the smallest t with F(t) >= u."""
        cdf = self.cdf()
        idx = np.searchsorted(cdf, u, side="left")
        # cumulative rounding can leave cdf[-1] a hair under 1.0
        np.clip(idx, 0, len(cdf) - 1, out=idx)
        return idx + 1


def alpha(theta: DeadlineDistribution, phi: DeadlineDistribution) -> float:
    """Signed sup over t of F_theta(t) - F_phi(t).

    Positive alpha means theta puts strictly more mass on early deadlines
    somewhere than phi admits.  Both cdfs reach 1 at t = T so the sup is
    never meaningfully negative.
    """
    if theta.horizon != phi.horizon:
        raise DistributionError("alpha requires equal horizons")
    return float(np.max(theta.cdf() - phi.cdf()))


def dominates(phi: DeadlineDistribution, theta: DeadlineDistribution) -> bool:
    """True when F_phi lies on or above F_theta at every slot.

    Under this order, ``phi`` is the law with (weakly) earlier deadlines.
    Equivalent to ``alpha(theta, phi) <= DOMINANCE_TOL``.
    """
    if phi.horizon != theta.horizon:
        raise DistributionError("dominates requires equal horizons")
    return bool(np.all(phi.cdf() >= theta.cdf() - DOMINANCE_TOL))


def coupled_sample(
    lam: DeadlineDistribution,
    lam_tilde: DeadlineDistribution,
    rng: np.random.Generator,
) -> tuple[int, int]:
    """Draw (t, f) with t ~ lam, f ~ lam_tilde and f <= t pathwise.

    Requires F_{lam_tilde} >= F_{lam} pointwise.  One uniform draw feeds
    both inverse cdfs, so the pair is monotone by construction and each
    marginal is exact.
    """
    if not dominates(lam_tilde, lam):
        raise DistributionError("coupled_sample requires lam_tilde to dominate lam")
    u = rng.random()
    t = int(np.searchsorted(lam.cdf(), u, side="left"))
    f = int(np.searchsorted(lam_tilde.cdf(), u, side="left"))
    horizon = lam.horizon
    return min(t, horizon - 1) + 1, min(f, horizon - 1) + 1
