"""Batch command line interface.

Subcommands: validate, solve, payments, simulate, experiment, oracle.
Positional configs accept either a JSON file path or a built-in scenario
name ("example1", "table1", "theorem1", optionally parameterized like
"example1:p=0.25" or "table1:n=2,profile=C").

Exit codes: 0 success, 2 configuration problem, a run or a horizon over
its memory budget or a fine that overflows a float, 3 infeasible model, 4 an
experiment or oracle assertion failed.
--seed overrides the config seed where a command consumes one.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ConfigError, each_cause_once, emit, load_setup, parse, validate_config
from .deadlines import make_rng
from .dispatch import (
    BatchTooLarge,
    InfeasibleModel,
    SolverConfig,
    brute_force_oracle,
    solve_outer,
)
from .experiments import SUITES, payments_csv, payments_table, to_json
from .mdp import NoFeasibleContinuation, RolloutBatchTooLarge
from .mechanism import FineOverflow
from .presets import is_preset, preset_config
from .scenarios import random_tiny_instance
from .simulate import HorizonTooLong, resolve_j_m, run_horizon

ORACLE_TOL = 1e-9


def _load_config(arg: str) -> dict:
    if is_preset(arg):
        return preset_config(arg)
    path = Path(arg)
    if not path.exists():
        raise ConfigError([f"no such config file or scenario name: {arg}"])
    try:
        return parse(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{arg}: invalid JSON: {exc}"])


def _write(path_arg: str | None, text: str, fallback=None) -> None:
    if path_arg:
        out = Path(path_arg)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
    else:
        # resolve the stream at call time so redirection works
        (fallback if fallback is not None else sys.stdout).write(text)


def cmd_validate(args) -> int:
    raw = _load_config(args.config)
    normalized, diags = validate_config(raw)
    if diags:
        for d in diags:
            print(d, file=sys.stderr)
        return 2
    print(emit(normalized), end="")
    return 0


def cmd_solve(args) -> int:
    setup = load_setup(_load_config(args.config))
    bids = tuple(s.day_ahead_bid for s in setup.strategies)
    res = solve_outer(bids, setup.solver, setup.market, setup.specs)
    print(f"q_star {res.q_star:.12g}")
    print("g_star " + " ".join(f"{g:.12g}" for g in res.g_star))
    print(f"candidates {res.candidates_evaluated}")
    if args.out:
        _write(args.out, to_json(res.to_jsonable()))
    return 0


def cmd_payments(args) -> int:
    setup = load_setup(_load_config(args.config))
    solve, rows = payments_table(setup)
    bids = tuple(s.day_ahead_bid for s in setup.strategies)
    # probe before writing, so a run that fails leaves no CSV behind
    fine = resolve_j_m("auto", bids, setup.solver, setup.market, setup.specs, solve)
    _write(args.out, payments_csv(rows))
    print(
        f"sampled cost-sensitivity bound k_hat = {fine / 10.0:.6g}; "
        f"recommended miss fine j_m = {fine:.6g}",
        file=sys.stderr,
    )
    return 0


def cmd_simulate(args) -> int:
    setup = load_setup(_load_config(args.config))
    days = args.days if args.days is not None else setup.days
    seed = args.seed if args.seed is not None else setup.seeds[0]
    res = run_horizon(
        setup.market, setup.specs, setup.params, setup.strategies, days, seed,
        setup.window_schedule, setup.penalty_schedule, setup.solver, setup.j_m,
    )
    _write(args.out, res.to_csv())
    diag_text = to_json(res.diagnostics)
    if args.diagnostics:
        _write(args.diagnostics, diag_text)
    else:
        # keep stdout clean for the trace when it goes there
        (sys.stdout if args.out else sys.stderr).write(diag_text)
    return 0


def cmd_experiment(args) -> int:
    if args.preset not in SUITES:
        print(
            f"unknown experiment {args.preset!r}; "
            f"expected one of {', '.join(sorted(SUITES))}",
            file=sys.stderr,
        )
        return 2
    report, files = SUITES[args.preset]()
    out_dir = Path(args.out or f"artifacts/{args.preset}")
    out_dir.mkdir(parents=True, exist_ok=True)
    files = dict(files)
    files["report.json"] = to_json(report)
    for name, text in sorted(files.items()):
        (out_dir / name).write_text(text)
    for name, check in sorted(report.get("checks", {}).items()):
        print(f"  {name}: {'PASS' if check.get('ok') else 'FAIL'}")
    print(f"{args.preset}: {'PASS' if report['ok'] else 'FAIL'} -> {out_dir}")
    return 0 if report["ok"] else 4


def cmd_oracle(args) -> int:
    rng = make_rng(args.seed if args.seed is not None else 0)
    worst = 0.0
    print("trial,q_solver,q_oracle,abs_diff")
    for k in range(args.trials):
        bids, market, specs, grid = random_tiny_instance(rng)
        res = solve_outer(bids, SolverConfig(candidates=grid), market, specs)
        ref = brute_force_oracle(bids, market, specs, grid)
        diff = abs(res.q_star - ref)
        worst = max(worst, diff)
        print(f"{k},{res.q_star:.12g},{ref:.12g},{diff:.3g}")
    print(f"worst {worst:.3g}", file=sys.stderr)
    return 0 if worst <= ORACLE_TOL else 4


def _at_least(low: int):
    """An argparse type: an integer no less than ``low``."""

    def count(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"need an integer >= {low}, got {text}")
        return int(text)

    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="storemkt",
        description="Storage-market dispatch, payments and simulation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a config and print its normal form")
    p.add_argument("config")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="solve the day-ahead dispatch problem")
    p.add_argument("config")
    p.add_argument("--out", help="write the solution artifact JSON here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("payments", help="per-EV day-ahead transfers (CSV)")
    p.add_argument("config")
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(func=cmd_payments)

    p = sub.add_parser("simulate", help="run the multi-day market")
    p.add_argument("config")
    p.add_argument("--days", type=_at_least(1))
    p.add_argument("--seed", type=_at_least(0))
    p.add_argument("--out", help="write the trace CSV here instead of stdout")
    p.add_argument("--diagnostics", help="write the diagnostics JSON here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("experiment", help="run a named verification suite")
    p.add_argument("preset", help=", ".join(sorted(SUITES)))
    p.add_argument("--out", help="artifact directory (default artifacts/<name>)")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser(
        "oracle", help="cross-check the solver against brute-force enumeration"
    )
    p.add_argument("--trials", type=_at_least(1), default=5)
    p.add_argument("--seed", type=_at_least(0))
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with each_cause_once():
            return args.func(args)
    except ConfigError as exc:
        for d in exc.diagnostics:
            print(d, file=sys.stderr)
        return 2
    except (BatchTooLarge, RolloutBatchTooLarge, FineOverflow, HorizonTooLong) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (InfeasibleModel, NoFeasibleContinuation) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
