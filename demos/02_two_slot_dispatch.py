"""Price a tiny two-slot market by hand and watch the dispatch flip.

One EV with a 1 kWh battery connects at slot 1 and departs at the end of
slot 1 with probability p, otherwise at the end of slot 2.  Demand is
0 kWh then 1 kWh.  The operator weighs two plans:

  * (1, 0): generate early for free, park the energy in the EV, discharge
    it at slot 2.  Backfires when the EV leaves early: the reserves must
    cover the slot-2 kWh at a cost of 11, minus the 1 dollar of energy the
    EV drove away with.  Expected cost 10p.
  * (0, 1): generate at slot 2 for 2 dollars, ignore the EV entirely.

So storage should win exactly while 10p < 2.
"""
from storemkt.costs import MarketModel, table
from storemkt.deadlines import DeadlineDistribution
from storemkt.dispatch import SolverConfig, beta_bar, conditional_beta, solve_outer
from storemkt.mdp import EVSpec, MdpModel, rollout

market = MarketModel(
    demand=(0.0, 1.0),
    generator=table([{0.0: 0.0, 1.0: 0.0}, {0.0: 0.0, 1.0: 2.0}]),
    reserves=table([{0.0: 0.0}, {0.0: 0.0, 1.0: 11.0}]),
    ev_energy_value=1.0,
)
spec = EVSpec(1.0, (0.0, 1.0))
config = SolverConfig(candidates=((1.0, 0.0), (0.0, 1.0)))

print("expected cost of each plan as the early-departure probability moves")
print(f"{'p':>5}  {'store early':>12}  {'generate late':>14}  chosen")
for p in [0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35]:
    bid = DeadlineDistribution((p, 1.0 - p))
    early = beta_bar([bid], (1.0, 0.0), market, [spec])
    late = beta_bar([bid], (0.0, 1.0), market, [spec])
    res = solve_outer([bid], config, market, [spec])
    assert abs(res.q_star - min(early, late)) <= 1e-12
    assert abs(res.q_star - min(2.0, 10.0 * p)) <= 1e-12
    print(f"{p:>5.2f}  {early:>12.2f}  {late:>14.2f}  g* = {res.g_star}")

# below the flip the solver commits to storage; unroll both departures,
# one report profile per row, in one pass
p = 0.19
bid = DeadlineDistribution((p, 1.0 - p))
res = solve_outer([bid], config, market, [spec])
model = MdpModel(market, (spec,), (bid,), res.g_star)
print()
print(f"p = {p}: q* = {res.q_star}, plan {res.g_star}")
r = rollout(model, res.policy, [[1], [2]])
for k, t in enumerate((1, 2)):
    print(
        f"  departs slot {t}: storage path {r.storage[k, 0].tolist()}, "
        f"mismatch {r.mismatch[k].tolist()}, reserve cost {float(r.reserve_cost[k])}"
    )
assert r.reserve_cost.tolist() == [11.0, 0.0]

# realized cost conditional on the departure slot, then back to the mean
b1 = conditional_beta(model, res.policy, 0, 1)
b2 = conditional_beta(model, res.policy, 0, 2)
print(f"  cost if it leaves early {b1}, if it stays {b2}")
assert abs(p * b1 + (1.0 - p) * b2 - res.q_star) <= 1e-12
print(f"  p*{b1} + (1-p)*{b2} = {p * b1 + (1 - p) * b2} = q*")
