"""Run the toy market for a month and read the books.

One solve fixes the dispatch plan, the storage policy, and each EV's
day-ahead transfer for the whole horizon.  After that, every day is:
draw the true departure, let the EV report through its real-time rule,
unroll the policy against the report, settle.

Each trace row must balance on its own:

    total_payment = p_da + charge_gap - penalty

and the simulation must replay byte for byte from its seed.
"""
from storemkt.config import load_setup
from storemkt.presets import preset_config
from storemkt.simulate import run_horizon


def month(seed: int):
    s = load_setup(preset_config("example1:p=0.19"))
    return run_horizon(
        s.market, s.specs, s.params, s.strategies,
        days=30, seed=seed,
        window_schedule=s.window_schedule,
        penalty_schedule=s.penalty_schedule,
        solver_config=s.solver,
        j_m=s.j_m,
    )


res = month(seed=5)
print(f"plan {res.solve.g_star}, q* = {res.solve.q_star}, "
      f"day-ahead transfer {res.p_da[0]} per day, miss fine {res.j_m:.3f}")
print()

csv = res.to_csv()
lines = csv.splitlines()
print("first days of the trace (system row, then one row per EV):")
for line in lines[:7]:
    print("  " + line)
print(f"  ... {len(lines) - 1} rows total")

# the ledger identity, checked on every EV row of the month
for i, p_da in enumerate(res.p_da):
    for d in range(res.days):
        lhs = res.payment_days[i, d]
        rhs = p_da + res.charge_gap_days[i, d] - res.penalty_days[i, d]
        assert abs(lhs - rhs) <= 1e-12, (d + 1, i + 1, lhs, rhs)
print()
print("every EV row satisfies total_payment = p_da + charge_gap - penalty")

d = res.diagnostics
ev = d["per_ev"][0]
print()
print(f"diagnostics: avg beta {d['avg_beta']:.4f} against q* {d['q_star']}, "
      f"avg utility {ev['avg_utility']:.4f}, "
      f"penalties {ev['penalty_count']}, missed {ev['missed_count']}")

# determinism: same seed, same bytes; different seed, different draws
assert month(seed=5).to_csv() == csv
assert month(seed=6).to_csv() != csv
print("replay check: seed 5 reproduces byte-identically, seed 6 differs")
