import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storemkt.deadlines import (
    DeadlineDistribution,
    DistributionError,
    alpha,
    coupled_sample,
    dominates,
    make_rng,
    violations,
)
from storemkt.scenarios import random_floored_pmf, shift_mass_earlier

UNIFORM5 = DeadlineDistribution((0.2, 0.2, 0.2, 0.2, 0.2))
LAST_ONLY = DeadlineDistribution((0.0, 0.0, 0.0, 0.0, 1.0), floor=0.0)


def floored_pmfs(max_len=6, floor=0.01):
    """Random valid pmfs built on the floored simplex."""

    def build(weights):
        n = len(weights)
        total = sum(weights)
        pmf = tuple(floor + (1.0 - n * floor) * w / total for w in weights)
        return DeadlineDistribution(pmf, floor=floor)

    return st.lists(
        st.floats(0.05, 1.0, allow_nan=False), min_size=2, max_size=max_len
    ).map(build)


def test_uniform_cdf_survival_mean():
    assert np.allclose(UNIFORM5.cdf(), (0.2, 0.4, 0.6, 0.8, 1.0), atol=1e-12)
    assert np.allclose(UNIFORM5.survival(), (1.0, 0.8, 0.6, 0.4, 0.2, 0.0), atol=1e-12)
    assert UNIFORM5.mean() == pytest.approx(3.0, abs=1e-12)
    assert UNIFORM5.horizon == 5


def test_two_slot_examples():
    d = DeadlineDistribution((0.19, 0.81))
    assert d.mean() == pytest.approx(1.81, abs=1e-12)
    assert d.survival()[1] == pytest.approx(0.81, abs=1e-12)


def test_alpha_and_dominance_examples():
    assert alpha(UNIFORM5, LAST_ONLY) == pytest.approx(0.8, abs=1e-12)
    assert alpha(LAST_ONLY, UNIFORM5) == pytest.approx(0.0, abs=1e-12)
    assert dominates(UNIFORM5, LAST_ONLY)
    assert not dominates(LAST_ONLY, UNIFORM5)
    assert dominates(UNIFORM5, UNIFORM5)


def test_alpha_horizon_mismatch():
    with pytest.raises(DistributionError):
        alpha(UNIFORM5, DeadlineDistribution((0.5, 0.5)))


def test_violations_messages():
    assert violations([0.5, 0.4], 0.001)  # sums to 0.9
    assert any("sum" in m for m in violations([0.5, 0.4], 0.001))
    assert any("negative" in m or "floor" in m for m in violations([-0.1, 1.1], 0.001))
    assert any("floor" in m for m in violations([0.0005, 0.9995], 0.001))
    assert violations([0.5, 0.5], 0.001) == []


def test_constructor_rejects_bad_pmf():
    with pytest.raises(DistributionError):
        DeadlineDistribution((0.5, 0.4))
    with pytest.raises(DistributionError):
        DeadlineDistribution((0.0005, 0.9995))  # below default floor


def test_zero_floor_accepted():
    assert LAST_ONLY.pmf == (0.0, 0.0, 0.0, 0.0, 1.0)


def test_sampling_is_deterministic_and_in_range():
    a = UNIFORM5.sample_many(make_rng(7), 1000)
    b = UNIFORM5.sample_many(make_rng(7), 1000)
    assert np.array_equal(a, b)
    assert a.min() >= 1 and a.max() <= 5
    # frequencies land near 0.2 (5 sigma at n=1000 is ~0.063)
    freqs = np.bincount(a, minlength=6)[1:] / 1000.0
    assert np.all(np.abs(freqs - 0.2) < 0.07)


def test_coupled_sample_orders_draws():
    rng = make_rng(3)
    for _ in range(500):
        t, f = coupled_sample(LAST_ONLY, UNIFORM5, rng)
        assert 1 <= f <= t <= 5


def test_coupled_sample_requires_dominance():
    with pytest.raises(DistributionError):
        coupled_sample(UNIFORM5, LAST_ONLY, make_rng(0))


@given(floored_pmfs())
def test_cdf_monotone_and_normalized(d):
    cdf = d.cdf()
    assert np.all(np.diff(cdf) >= -1e-15)
    assert cdf[-1] == pytest.approx(1.0, abs=1e-9)
    surv = d.survival()
    assert surv[0] == 1.0
    assert np.all(np.diff(surv) <= 1e-15)


@given(floored_pmfs(), st.integers(0, 2**32 - 1))
@settings(max_examples=50)
def test_earlier_shift_dominates(d, seed):
    rng = make_rng(seed)
    shifted = shift_mass_earlier(d, rng)
    assert shifted.floor == d.floor
    assert dominates(shifted, d)
    assert alpha(shifted, d) >= -1e-12


@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=50)
def test_random_floored_pmf_valid(horizon, seed):
    pmf = random_floored_pmf(make_rng(seed), horizon, floor=0.02)
    assert violations(pmf, 0.02) == []


@given(floored_pmfs(), st.integers(0, 2**32 - 1))
@settings(max_examples=50)
def test_coupled_sample_marginal_consistency(d, seed):
    rng = make_rng(seed)
    shifted = shift_mass_earlier(d, rng)
    t, f = coupled_sample(d, shifted, rng)
    assert 1 <= f <= t <= d.horizon
