"""Admissible configs solve, or fail by name.

Every command runs through ``cli.main`` on table1-shaped markets whose
reserve costs are finite at every mismatch, so no plan is infeasible: an
exit 3 ("infeasible") is a wrong answer.  Exit 2 (a grid or rollout over
its budget) is a named failure and passes.
"""
import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from storemkt.cli import main
from storemkt.config import load_setup
from storemkt.dispatch import solve_outer
from storemkt.mdp import expected_outcome
from storemkt.presets import preset_config

from reference import enumerated_outcome

#: the one-decimal pmfs with mass on table1's slots 1-3 only whose
#: pmf / survival quotient rounds below 1.0 at their last slot with mass
ROUNDED_BELOW_ONE = {
    (0.1, 0.6, 0.3),
    (0.1, 0.7, 0.2),
    (0.2, 0.5, 0.3),
    (0.3, 0.4, 0.3),
    (0.4, 0.3, 0.3),
    (0.5, 0.2, 0.3),
    (0.6, 0.1, 0.3),
    (0.7, 0.1, 0.2),
}


def _zero_tail_config(pmf) -> dict:
    cfg = preset_config("table1:n=1")
    cfg["evs"][0]["theta"] = {"pmf": list(pmf) + [0.0] * (5 - len(pmf)), "floor": 0.0}
    return cfg


def test_zero_tail_bids_solve():
    # an EV surely gone after slot 3 leaves no connected mass behind, so
    # every such bid solves, and its policy's forward expectation matches
    # the enumeration of its report profiles, which uses no hazards
    pmfs = [(a / 10, b / 10, (10 - a - b) / 10) for a in range(1, 9) for b in range(1, 10 - a)]
    assert len(pmfs) == 36 and ROUNDED_BELOW_ONE <= set(pmfs)
    for pmf in pmfs:
        s = load_setup(_zero_tail_config(pmf))
        res = solve_outer(s.params, s.solver, s.market, s.specs)
        fwd = expected_outcome(res.model, res.policy)
        enum = enumerated_outcome(res.model, res.policy)
        assert abs(fwd.beta - enum.beta) <= 1e-9, pmf
        assert abs(fwd.reserve_cost - enum.reserve_cost) <= 1e-9, pmf
        assert abs(fwd.terminal_charge - enum.terminal_charge).max() <= 1e-9, pmf
        assert abs(fwd.beta - res.q_star) <= 1e-9, pmf
        if pmf == (0.1, 0.6, 0.3):
            assert f"{res.q_star:.12g}" == "-3.16213198691"


def _run(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@st.composite
def admissible_configs(draw) -> dict:
    """A table1-shaped config: 0-4 EVs of 1-3 levels, some not dyadic, an
    EV sometimes a copy of the one before (a lumped class); floored bids
    and floor-0 bids with zero tails; an energy value in [0, 1]; linear or
    ``asym_lin_quad`` reserves; steps of 10 or 20 kWh, caps with zeros;
    exhaustive or beam mode."""
    cfg = preset_config("table1:n=1")
    evs = []
    for _ in range(draw(st.integers(0, 4))):
        if evs and draw(st.booleans()):
            evs.append(evs[-1])
            continue
        extra = draw(st.sets(st.sampled_from([2.5, 10 / 3, 5.0, 7.1, 10.0]), max_size=2))
        if draw(st.booleans()):
            weights = draw(st.lists(st.integers(1, 9), min_size=5, max_size=5))
            theta = {"pmf": [w / sum(weights) for w in weights], "floor": 0.02}
        else:
            weights = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
            pmf = [w / sum(weights) for w in weights]
            theta = {"pmf": pmf + [0.0] * (5 - len(pmf)), "floor": 0.0}
        evs.append({"capacity": 10.0, "levels": [0.0] + sorted(extra), "theta": theta})
    cfg["evs"] = evs
    cfg["units"]["ev_energy_value"] = draw(st.floats(0.0, 1.0, allow_subnormal=False))
    cfg["reserves"]["form"] = draw(st.sampled_from(["linear", "asym_lin_quad"]))
    cfg["solver"]["step"] = draw(st.sampled_from([10.0, 20.0]))
    if draw(st.booleans()):
        cfg["solver"]["caps"] = draw(
            st.lists(st.sampled_from([0.0, 20.0, 40.0, 80.0]), min_size=5, max_size=5)
        )
    cfg["solver"]["mode"] = draw(st.sampled_from(["exhaustive", "beam"]))
    cfg["mechanism"]["j_m"] = 100.0
    return cfg


def check_admissible(cfg: dict) -> None:
    """``solve`` in both modes, ``payments`` and a 3-day ``simulate`` each
    exit 0 or 2; on exit 0, beam q* is no better than exhaustive q*, every
    payment identity holds within 1e-9, and the trace has one system row
    plus one row per EV for each day."""
    n, days = len(cfg["evs"]), 3
    with tempfile.TemporaryDirectory() as tmp:
        q = {}
        for mode in ("exhaustive", "beam"):
            path = Path(tmp, f"{mode}.json")
            path.write_text(json.dumps(dict(cfg, solver=dict(cfg["solver"], mode=mode))))
            code, out = _run("solve", str(path))
            assert code in (0, 2), (mode, code)
            if code == 0:
                q[mode] = float(out.split()[1])
        if len(q) == 2:
            assert q["beam"] >= q["exhaustive"] - 1e-9 * max(1.0, abs(q["exhaustive"]))
        path = Path(tmp, "config.json")
        path.write_text(json.dumps(cfg))
        code, out = _run("payments", str(path))
        assert code in (0, 2), code
        if code == 0:
            rows = out.strip().split("\n")[1:]
            assert len(rows) == n
            assert all(abs(float(row.split(",")[2])) <= 1e-9 for row in rows), rows
        trace = Path(tmp, "trace.csv")
        code, _ = _run(
            "simulate", str(path), "--days", str(days), "--out", str(trace),
            "--diagnostics", str(Path(tmp, "diagnostics.json")),
        )
        assert code in (0, 2), code
        if code == 0:
            assert len(trace.read_text().strip().split("\n")) == 1 + days * (1 + n)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(admissible_configs())
def test_admissible_configs_solve_or_fail_by_name(cfg):
    check_admissible(cfg)
