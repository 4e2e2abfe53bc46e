"""Named verification suites: threshold sweep, baseline artifacts, the
penetration sweep, and the empirical incentive checks.

Each suite returns ``(report, files)``: a JSON-ready report whose ``ok``
key is the suite verdict, and a dict of artifact filename -> text.  The
CLI writes the files and turns ``ok`` into the exit code; tests call the
suites directly.
"""
from __future__ import annotations

import json
from typing import Sequence

import numpy as np

from .config import RunSetup, load_setup
from .deadlines import DeadlineDistribution, alpha, make_rng
from .dispatch import SolveResult, estimate_lipschitz_K, solve_outer
from .mechanism import day_ahead, window_closing_day
from .presets import (
    FIG2_MAX_EVS,
    FIG2_PROFILES,
    example1_config,
    table1_config,
    theorem1_config,
)
from .scenarios import random_small_instance, shift_mass_earlier
from .simulate import (
    BiddingStrategy,
    Fixed,
    HistogramMatch,
    SimResult,
    Truthful,
    default_adversary_suite,
    run_horizon,
    verify_theorem1,
)

ORDER_TOL = 1e-9
#: theorem1's two-point underbid, judged once the window closes over it
UNDERBID = "underbid_two_points_truthful"
PAIR_SEED = 236_521


def _np_default(x):
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON serializable: {type(x)}")


def to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, default=_np_default) + "\n"


def _bids(setup: RunSetup) -> tuple[DeadlineDistribution, ...]:
    return tuple(s.day_ahead_bid for s in setup.strategies)


def _solve(setup: RunSetup) -> SolveResult:
    return solve_outer(_bids(setup), setup.solver, setup.market, setup.specs)


# ---------------------------------------------------------------------------
# example1: dispatch threshold sweep


def threshold_sweep() -> tuple[dict, dict]:
    """q* must equal min(2, 10p) and the chosen dispatch must flip from
    charge-first to generate-late exactly at p = 0.2."""
    rows = []
    flip_at = None
    max_err = 0.0
    ok = True
    for k in range(1, 8):
        p = round(0.05 * k, 2)
        setup = load_setup(example1_config(p))
        res = _solve(setup)
        want = min(2.0, 10.0 * p)
        err = abs(res.q_star - want)
        max_err = max(max_err, err)
        plan = tuple(res.g_star)
        if flip_at is None and plan == (0.0, 1.0):
            flip_at = p
        want_plan = (1.0, 0.0) if p < 0.2 else (0.0, 1.0)
        row_ok = err <= ORDER_TOL and plan == want_plan
        ok = ok and row_ok
        rows.append({"p": p, "q_star": res.q_star, "g_star": list(plan), "ok": row_ok})
    ok = ok and flip_at == 0.2
    report = {
        "name": "example1",
        "ok": ok,
        "flip_at": flip_at,
        "max_q_error": max_err,
        "rows": rows,
    }
    csv = ["p,q_star,g_1,g_2"]
    for r in rows:
        csv.append(
            f"{r['p']:.12g},{r['q_star']:.12g},{r['g_star'][0]:.12g},{r['g_star'][1]:.12g}"
        )
    return report, {"example1_threshold.csv": "\n".join(csv) + "\n"}


# ---------------------------------------------------------------------------
# payments (shared by the payments subcommand and the table1 suite)


def payments_table(setup: RunSetup) -> tuple[SolveResult, list[dict]]:
    """Per-EV day-ahead transfers with the two-form identity residual, one
    row per EV of ``mechanism.day_ahead``.

    The residual column is the difference between the externality form
    and the value-function form of the same transfer; anything above
    rounding noise means solver expectations and values disagree.
    """
    da = day_ahead(_bids(setup), setup.solver, setup.market, setup.specs)
    rows = [
        {"ev": i + 1, "p_da": p, "q_star_minus": q, "identity_residual": r}
        for i, (p, q, r) in enumerate(zip(da.p_da, da.q_star_minus, da.identity_residual))
    ]
    return da.solve, rows


def payments_csv(rows: Sequence[dict]) -> str:
    out = ["ev,p_da,identity_residual"]
    out += [f"{r['ev']},{r['p_da']:.12g},{r['identity_residual']:.12g}" for r in rows]
    return "\n".join(out) + "\n"


def table1_suite() -> tuple[dict, dict]:
    """Reference five-slot instance: solve, pay, and sanity-order against
    the storage-free baseline."""
    setup = load_setup(table1_config())
    solve, rows = payments_table(setup)
    baseline = _solve(load_setup(table1_config(n=0)))
    spread = (
        max(r["p_da"] for r in rows) - min(r["p_da"] for r in rows) if rows else 0.0
    )
    ok = (
        solve.q_star <= baseline.q_star + ORDER_TOL
        and spread <= ORDER_TOL  # identical EVs must be paid identically
        and all(abs(r["identity_residual"]) <= ORDER_TOL for r in rows)
    )
    report = {
        "name": "table1",
        "ok": ok,
        "q_star": solve.q_star,
        "q_star_no_ev": baseline.q_star,
        "g_star": list(solve.g_star),
        "candidates_evaluated": solve.candidates_evaluated,
        "payment_spread": spread,
        "payments": rows,
    }
    files = {
        "table1_payments.csv": payments_csv(rows),
        "table1_solution.json": to_json(
            {"solve": solve.to_jsonable(), "payments": rows}
        ),
    }
    return report, files


# ---------------------------------------------------------------------------
# fig2: penetration sweep


def fig2_suite() -> tuple[dict, dict]:
    """q* over (deadline profile) x (number of EVs), with the ordering
    checks: more EVs never raise cost, later-departing profiles never
    raise cost."""
    cells = [(prof, n) for prof in FIG2_PROFILES for n in range(FIG2_MAX_EVS + 1)]
    q = {
        (prof, n): _solve(load_setup(table1_config(n=n, profile=prof))).q_star
        for prof, n in cells
    }

    violations = []
    for prof in FIG2_PROFILES:
        for n in range(FIG2_MAX_EVS):
            if q[(prof, n + 1)] > q[(prof, n)] + ORDER_TOL:
                violations.append(f"{prof}: q* rises from n={n} to n={n + 1}")
    # stochastically-later profiles are weakly more useful
    order_pairs = [("E", "D"), ("D", "B"), ("B", "A"), ("D", "C")]
    for n in range(FIG2_MAX_EVS + 1):
        for later, earlier in order_pairs:
            if q[(later, n)] > q[(earlier, n)] + ORDER_TOL:
                violations.append(f"n={n}: q*({later}) > q*({earlier})")
    ok = not violations
    csv = ["profile,n_evs,q_star_usd"]
    for prof, n in cells:
        csv.append(f"{prof},{n},{q[(prof, n)]:.12g}")
    report = {
        "name": "fig2",
        "ok": ok,
        "violations": violations,
        "q_star": {f"{prof},{n}": q[(prof, n)] for prof, n in cells},
    }
    return report, {"fig2_qstar.csv": "\n".join(csv) + "\n"}


# ---------------------------------------------------------------------------
# dominated-pair property checks (shared with the test suite)


def dominated_pair_check(rng: np.random.Generator) -> dict | None:
    """One randomized check of cost monotonicity and the Lipschitz bound
    under earlier-shifted deadline bids.  Returns None when the shift
    degenerates (nothing moved)."""
    market, specs, bids, config, focal = random_small_instance(rng)
    lam = bids[focal]
    lam_tilde = shift_mass_earlier(lam, rng)
    if lam_tilde.pmf == lam.pmf:
        return None
    a = alpha(lam_tilde, lam)

    def with_focal(dist):
        return tuple(dist if k == focal else bids[k] for k in range(len(bids)))

    base = solve_outer(with_focal(lam), config, market, specs)
    shifted = solve_outer(with_focal(lam_tilde), config, market, specs)
    q_base, q_shift = base.q_star, shifted.q_star
    k_hat = estimate_lipschitz_K([shifted, base])
    gap = q_shift - q_base
    return {
        "alpha": a,
        "q_base": q_base,
        "q_shifted": q_shift,
        "gap": gap,
        "k_hat": k_hat,
        "monotone_ok": gap >= -ORDER_TOL,
        "lipschitz_ok": gap <= k_hat * a + ORDER_TOL,
    }


def dominated_pair_suite(pairs: int, seed: int = PAIR_SEED) -> dict:
    rng = make_rng(seed)
    done = []
    while len(done) < pairs:
        check = dominated_pair_check(rng)
        if check is not None:
            done.append(check)
    return {
        "pairs": len(done),
        "monotone_violations": sum(not c["monotone_ok"] for c in done),
        "lipschitz_violations": sum(not c["lipschitz_ok"] for c in done),
        "max_gap": max(c["gap"] for c in done),
        "ok": all(c["monotone_ok"] and c["lipschitz_ok"] for c in done),
        "checks": done,
    }


# ---------------------------------------------------------------------------
# lemma-checks: the four empirical guarantees


def _simulate(
    setup: RunSetup, strategies: Sequence[BiddingStrategy], days: int, seed: int
) -> SimResult:
    """``run_horizon`` on ``setup``'s market, EVs, true laws, schedules,
    solver and miss fine, under ``strategies``."""
    return run_horizon(
        setup.market, setup.specs, setup.params, strategies, days, seed,
        setup.window_schedule, setup.penalty_schedule, setup.solver, setup.j_m,
    )


def window_compliance_suite(seeds: int = 20, days: int = 2000) -> dict:
    """Truthful reporters stay inside the shrinking frequency window:
    across seeds, at most one run may show any penalty event from day 50
    on (early-day windows are tight and a single unlucky seed is within
    the concentration bound)."""
    setup = load_setup(example1_config(0.19))
    bad = []
    events_total = 0
    for seed in range(seeds):
        res = _simulate(setup, setup.strategies, days, seed)
        events_total += int(res.event_days.sum())
        if res.event_days[:, 49:].any():  # an event on day 50 or later
            bad.append(seed)
    return {
        "seeds": seeds,
        "days": days,
        "bad_seeds": bad,
        "events_any_day_all_seeds": events_total,
        "ok": len(bad) <= 1,
    }


def deadline_missing_suite(days: int = 5000, seed: int = 0) -> dict:
    """A bidder that understates late departures by alpha = 0.2 and then
    steers reports to match its bid must miss deadlines on at least 15
    percent of days, while triggering no window penalties."""
    setup = load_setup(example1_config(0.21))
    truth = setup.params[0]
    bid = DeadlineDistribution((0.01, 0.99), floor=0.001)
    a = alpha(truth, bid)
    strategies = (BiddingStrategy(bid, HistogramMatch()),)
    res = _simulate(setup, strategies, days, seed)
    missed, events = int(res.missed_days[0].sum()), int(res.event_days[0].sum())
    rate = missed / days
    return {
        "days": days,
        "seed": seed,
        "alpha": a,
        "miss_rate": rate,
        "missed": missed,
        "penalty_events": events,
        "ok": rate >= max(0.15, a - 0.05) and events == 0,
    }


def penalty_growth_suite(days: int = 120, seed: int = 0) -> dict:
    """A deviator that always reports slot 1 sees its running average
    penalty exceed 1000 by day 100 and grow monotonically from day 10."""
    setup = load_setup(table1_config(n=1, profile="A"))
    strategies = (BiddingStrategy(setup.params[0], Fixed(1)),)
    res = _simulate(setup, strategies, days, seed)
    running = np.cumsum(res.penalty_days[0]) / np.arange(1, days + 1)
    monotone = bool(np.all(np.diff(running[9:]) >= -1e-12))
    event_days = np.flatnonzero(res.event_days[0]) + 1
    first_event = int(event_days[0]) if event_days.size else None
    return {
        "days": days,
        "seed": seed,
        "first_event_day": first_event,
        "running_avg_day_100": float(running[99]),
        "monotone_from_day_10": monotone,
        "ok": running[99] > 1e3 and monotone,
    }


def lemma_suite() -> tuple[dict, dict]:
    checks = {
        "window_compliance": window_compliance_suite(),
        "cost_monotonicity_and_lipschitz": dominated_pair_suite(12),
        "deadline_missing": deadline_missing_suite(),
        "penalty_growth": penalty_growth_suite(),
    }
    ok = all(c["ok"] for c in checks.values())
    report = {"name": "lemma-checks", "ok": ok, "checks": checks}
    return report, {"lemma_checks.json": to_json(report)}


# ---------------------------------------------------------------------------
# theorem1: incentive desk check


def theorem1_suite() -> tuple[dict, dict]:
    """Paired-seed deviation check on the two-slot instance with true
    late-departure probability 0.79.  The suite covers the analyzed
    misreport classes plus the two-point underbid (bid 0.19 where truth
    is 0.21) with honest real-time reports.

    The underbid drifts report frequencies by only 0.02, which the
    compliance window cannot resolve within the preset's days.  The
    guarantee is asymptotic, so, as acceptance criterion 9 does, the
    suite judges that adversary's DSIC on the day the window closes over
    its drift (``window_closing_day``), and reports its gap at the
    preset's days as information.  Every other check is judged at the
    preset's days."""
    setup = load_setup(theorem1_config())
    truth = setup.params[0]
    underbid = BiddingStrategy(DeadlineDistribution((0.19, 0.81), floor=0.001), Truthful())
    suite = default_adversary_suite(truth) + [(UNDERBID, underbid)]

    def verify(adversaries, days: int) -> dict:
        return verify_theorem1(
            setup.market,
            setup.specs,
            setup.params,
            adversaries,
            days,
            setup.seeds,
            0,
            setup.window_schedule,
            setup.penalty_schedule,
            setup.solver,
            setup.j_m,
        )

    report = verify(suite, setup.days)
    closing = window_closing_day(setup.window_schedule, truth.pmf, underbid.day_ahead_bid.pmf)
    late = verify([(UNDERBID, underbid)], closing)["adversaries"][UNDERBID]
    dsic = [
        cell
        for name, cells in report["adversaries"].items()
        if name != UNDERBID
        for cell in cells.values()
    ] + list(late.values())
    # verify_theorem1's own verdict judges the underbid at the preset's days
    del report["all_ok"]
    report["name"] = "theorem1"
    report["informational"] = [f"adversaries.{UNDERBID}"]
    report["underbid_closing"] = {"days": closing, "adversaries": {UNDERBID: late}}
    report["ok"] = all(c["dsic_ok"] for c in dsic) and all(
        t["ir_ok"] and t["efficiency_ok"] for t in report["truthful"].values()
    )
    return report, {"theorem1_report.json": to_json(report)}


SUITES = {
    "example1": threshold_sweep,
    "table1": table1_suite,
    "fig2": fig2_suite,
    "lemma-checks": lemma_suite,
    "theorem1": theorem1_suite,
}
