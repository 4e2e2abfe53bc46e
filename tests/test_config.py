import copy
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from storemkt.config import ConfigError, RunSetup, emit, load_setup, parse, validate_config
from storemkt.dispatch import solve_outer
from storemkt.presets import (
    is_preset,
    parse_preset_name,
    preset_config,
    table1_theta,
)
from storemkt.simulate import Fixed, HistogramMatch, Truthful


def test_presets_validate_and_round_trip():
    for name in ("example1", "example1:p=0.21", "table1", "table1:n=0,profile=C", "theorem1"):
        cfg = preset_config(name)
        norm, diags = validate_config(cfg)
        assert diags == []
        assert parse(emit(norm)) == norm
        # normalization is idempotent
        again, _ = validate_config(norm)
        assert again == norm


def test_parse_preset_name():
    assert parse_preset_name("table1:n=2,profile=D") == ("table1", {"n": 2, "profile": "D"})
    assert parse_preset_name("example1") == ("example1", {})
    with pytest.raises(ValueError):
        parse_preset_name("example1:bogus=1")
    assert is_preset("fig2") and is_preset("lemma-checks")
    assert not is_preset("example9")


def test_experiment_only_presets_have_no_single_config():
    with pytest.raises(ValueError, match="experiment-only or unknown"):
        preset_config("fig2")
    with pytest.raises(ValueError):
        preset_config("lemma-checks")


def test_preset_argument_validation():
    with pytest.raises(ValueError):
        preset_config("example1:p=1.5")
    with pytest.raises(ValueError):
        preset_config("table1:n=9")
    with pytest.raises(ValueError):
        preset_config("table1:profile=Z")


def test_published_weights_renormalized():
    for profile in ("A", "B", "C", "D", "E"):
        pmf = table1_theta(profile)
        assert sum(pmf) == pytest.approx(1.0, abs=1e-12)


def test_diagnostics_name_the_field():
    cfg = preset_config("example1")
    cfg["demand"] = [0.0, -1.0]
    _, diags = validate_config(cfg)
    assert any("demand[1]" in d for d in diags)

    cfg = preset_config("example1")
    cfg["evs"][0]["theta"]["pmf"] = [0.1, 0.8]
    _, diags = validate_config(cfg)
    assert any("theta" in d and "sum" in d for d in diags)

    cfg = preset_config("example1")
    cfg["units"]["rate_units"] = "EUR_per_kWh"
    _, diags = validate_config(cfg)
    assert any("rate_units" in d for d in diags)

    cfg = preset_config("example1")
    cfg["simulation"]["days"] = 0
    _, diags = validate_config(cfg)
    assert any("simulation.days" in d for d in diags)

    cfg = preset_config("example1")
    cfg["simulation"]["strategies"] = [{"rule": {"kind": "random"}}]
    _, diags = validate_config(cfg)
    assert any("rule.kind" in d for d in diags)

    cfg = preset_config("example1")
    cfg["mechanism"]["gamma"] = 0.4
    _, diags = validate_config(cfg)
    assert any("gamma" in d for d in diags)

    cfg = preset_config("example1")
    cfg["generator"] = {"form": "polynomial"}
    _, diags = validate_config(cfg)
    assert any("generator.form" in d for d in diags)

    _, diags = validate_config({"horizon": 0})
    assert diags == ["horizon: must be a positive integer"]

    _, diags = validate_config([1, 2])
    assert diags == ["config: top level must be a JSON object"]


def test_multiple_diagnostics_collected():
    cfg = preset_config("example1")
    cfg["demand"] = [-1.0, -1.0]
    cfg["mechanism"]["penalty_exponent"] = 0.5
    cfg["solver"]["mode"] = "dfs"
    norm, diags = validate_config(cfg)
    assert norm is None
    assert len(diags) >= 3


def test_load_setup_raises_config_error_with_all_diagnostics():
    cfg = preset_config("example1")
    cfg["demand"] = "everything"
    cfg["solver"]["step"] = -1
    with pytest.raises(ConfigError) as err:
        load_setup(cfg)
    assert len(err.value.diagnostics) == 2


def test_load_setup_builds_domain_objects():
    s = load_setup(preset_config("table1:n=2,profile=B"))
    assert s.market.horizon == 5
    assert len(s.specs) == 2 and len(s.params) == 2
    assert s.specs[0].capacity == 10.0
    assert s.params[0].pmf == pytest.approx(table1_theta("B"))
    assert all(isinstance(st.rule, Truthful) for st in s.strategies)
    assert s.j_m == "auto"
    assert s.solver.step == 10.0
    assert s.days == 2000 and s.seeds == (0,)


def test_load_setup_builds_strategies():
    cfg = preset_config("example1")
    cfg["simulation"]["strategies"] = [
        {"bid_pmf": [0.5, 0.5], "rule": {"kind": "histogram_match"}}
    ]
    s = load_setup(cfg)
    assert isinstance(s.strategies[0].rule, HistogramMatch)
    assert s.strategies[0].day_ahead_bid.pmf == (0.5, 0.5)

    cfg["simulation"]["strategies"] = [{"rule": {"kind": "fixed", "slot": 2}}]
    s = load_setup(cfg)
    assert s.strategies[0].rule == Fixed(2)
    # no bid override: the bid defaults to the true distribution
    assert s.strategies[0].day_ahead_bid.pmf == pytest.approx((0.19, 0.81))

    cfg["simulation"]["strategies"] = [{"rule": {"kind": "fixed", "slot": 9}}]
    with pytest.raises(ConfigError, match="rule.slot"):
        load_setup(cfg)


def test_zero_floor_is_logged_not_fatal(caplog):
    cfg = preset_config("example1")
    cfg["evs"][0]["theta"] = {"pmf": [0.0, 1.0], "floor": 0.0}
    with caplog.at_level("WARNING", logger="storemkt"):
        norm, diags = validate_config(cfg)
    assert diags == []
    assert norm is not None
    assert any("floor 0 accepted" in r.message for r in caplog.records)


# Base configs for the agreement test: presets plus the optional fields they
# leave null (strategies with bids, targets and fixed slots; caps).
_STRATEGY_BASES = {
    "example1": [
        {"bid_pmf": [0.5, 0.5], "rule": {"kind": "histogram_match", "target_pmf": [0.5, 0.5]}}
    ],
    "table1:n=2": [{"rule": {"kind": "fixed", "slot": 3}}, {"rule": {"kind": "early_exit"}}],
}
_BASES = {}
for _name, _strategies in _STRATEGY_BASES.items():
    _BASES[_name] = preset_config(_name)
    _BASES[_name]["simulation"]["strategies"] = _strategies
_BASES["table1:n=2"]["solver"]["caps"] = [100.0] * 5


def _nodes(node, path=()):
    """Every path below ``node``: dict keys and list indices, leaves and
    containers alike."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


_NODES = [(name, path) for name, cfg in _BASES.items() for path in _nodes(cfg)]
_VALUES = [
    0, 0.0, 1, -1, -10.0, 0.6, 1e-13, 2.5, 1e9, math.inf, math.nan, True, None,
    "auto", "x", [], {}, [0.5, 0.6], [-0.5, 1.5], [0.2] * 5, [-10.0] + [100.0] * 4,
]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_NODES), st.sampled_from(_VALUES))
@example(("example1", ("simulation", "strategies", 0, "bid_pmf", 1)), 0.6)
def test_validation_and_loading_agree(node, value):
    name, path = node
    cfg = copy.deepcopy(_BASES[name])
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = copy.deepcopy(value)
    norm, diags = validate_config(cfg)
    if not diags:
        assert norm is not None
        assert isinstance(load_setup(cfg), RunSetup)
    else:
        assert norm is None
        with pytest.raises(ConfigError) as err:
            load_setup(cfg)
        assert err.value.diagnostics == diags


@pytest.mark.parametrize(
    "section, key, value, diag",
    [
        ("demand", 1, -1.0, "market: negative demand -1.0 at demand[1]"),
        ("units", "ev_energy_value", -0.5, "market: ev_energy_value must be nonnegative"),
        ("generator", "rates", -1.0, "generator.rates: rates must be nonnegative"),
        ("evs", 0, {"capacity": 0.0, "levels": [0.0], "theta": {"pmf": [0.2] * 5}},
         "evs[0]: capacity must be positive"),
        ("solver", "caps", [-10.0] + [100.0] * 4, "solver: caps must be nonnegative"),
        ("solver", "beam_width", 0, "solver: beam width must be >= 1"),
        ("solver", "candidates", [[0.0] * 4],
         "solver.candidates[0]: dispatch length does not match horizon"),
        ("solver", "candidates", [[0.0, -1.0, 0.0, 0.0, 0.0]],
         "solver.candidates[0]: dispatch must be nonnegative"),
    ],
)
def test_value_rules_report_the_domain_message(section, key, value, diag):
    cfg = preset_config("table1:n=2")
    cfg[section][key] = value
    assert validate_config(cfg) == (None, [diag])


def test_energy_value_zero_loads_and_solves():
    cfg = preset_config("table1:n=2")
    cfg["units"]["ev_energy_value"] = 0
    s = load_setup(cfg)
    assert s.market.ev_energy_value == 0.0
    bids = tuple(strat.day_ahead_bid for strat in s.strategies)
    assert math.isfinite(solve_outer(bids, s.solver, s.market, s.specs).q_star)


def test_top_level_follows_the_ev_spec_slack():
    cfg = preset_config("example1")
    cfg["evs"][0]["levels"] = [0.0, 1.0 + 1e-13]
    assert load_setup(cfg).specs[0].levels[-1] == 1.0 + 1e-13
    cfg["evs"][0]["levels"] = [0.0, 1.0 + 1e-11]
    assert validate_config(cfg) == (None, ["evs[0]: levels exceed capacity"])


@pytest.mark.parametrize(
    "path, diag",
    [
        (("horizon",), "horizon: must be a positive integer"),
        (("solver", "beam_width"), "solver.beam_width: must be an integer"),
        (("mechanism", "j_m"), 'mechanism.j_m: must be "auto" or a positive number'),
        (("simulation", "days"), "simulation.days: must be a positive integer"),
        (("simulation", "seeds", 0), "simulation.seeds: must be a nonempty list of integers"),
        (("simulation", "strategies", 0, "rule", "slot"),
         "simulation.strategies[0].rule.slot: must be an integer in 1..5"),
    ],
)
def test_booleans_are_not_integers(path, diag):
    # JSON true is a Python bool, which is an int
    cfg = copy.deepcopy(_BASES["table1:n=2"])
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = True
    assert validate_config(cfg) == (None, [diag])


@pytest.mark.parametrize(
    "path, diag",
    [
        (("mechansim",), "mechansim: unknown key"),
        (("solver", "mdoe"), "solver.mdoe: unknown key"),
        (("units", "rate_unit"), "units.rate_unit: unknown key"),
        (("generator", "slots"), "generator.slots: unknown key"),
        (("evs", 0, "capcity"), "evs[0].capcity: unknown key"),
        (("evs", 0, "theta", "flor"), "evs[0].theta.flor: unknown key"),
        (("simulation", "strategies", 0, "bid"), "simulation.strategies[0].bid: unknown key"),
        (("simulation", "strategies", 0, "rule", "target_pmf"),
         "simulation.strategies[0].rule.target_pmf: unknown key"),
        (("solver", "max_candidates"), "solver.max_candidates: unknown key"),
    ],
)
def test_unknown_keys_fail_by_name(path, diag):
    # a misspelled key is refused, not ignored (nor echoed in the normal form)
    cfg = copy.deepcopy(_BASES["table1:n=2"])
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = None
    assert validate_config(cfg) == (None, [diag])
    with pytest.raises(ConfigError) as err:
        load_setup(cfg)
    assert err.value.diagnostics == [diag]
