#!/usr/bin/env python3
"""Distinguishing games, the cross-comparator identity, and the theorem suite.

The match-test distinguisher probes the second template with the two
candidate features: whenever every template accepts its own feature, its
advantage lands at 1 minus the mean template match rate.  The
cross-comparator's error rates obey |1 - (FCMR + FNCMR)| = advantage.
The final block runs all four relation checks the way `btpeval verify
--theorem all` does.
"""

from btpeval import exact, verify
from btpeval.adversaries import CrossComparatorAdversary, MatchTestUnlinkAdversary
from btpeval.games import est_cross_match_rates, run_unlink_game
from btpeval.metrics import RunSettings
from btpeval.population import generate_population
from btpeval.schemes import LEAK_BOTH, build_scheme

pop = generate_population(7, 16, 0.03, seed=1)
fc = build_scheme({"scheme": "fc", "code": {"n": 7, "k": 4, "t": 1}}, 7)

mr, _ = exact.enumerator(fc, pop).pt_match_stats()
game = run_unlink_game(fc, pop, LEAK_BOTH, MatchTestUnlinkAdversary(),
                       RunSettings(trials=20000, seed=10))
print(f"match-test distinguisher: advantage {game.advantage.point:.4f}, "
      f"predicted 1 - MR = {1 - mr:.4f}")

cm = est_cross_match_rates(fc, pop, LEAK_BOTH, CrossComparatorAdversary(),
                           RunSettings(trials=10000, seed=11))
print(f"cross-comparator: FCMR {cm.fcmr.point:.4f}  FNCMR {cm.fncmr.point:.4f}")
print(f"identity |1-(FCMR+FNCMR)| = {cm.identity_advantage:.4f}  "
      f"vs game advantage {cm.unlink_advantage.point:.4f}  "
      f"(gap {cm.identity_gap:.4f})")

print("\nrelation checks on the default configuration:")
settings = RunSettings(tau=1, trials=5000, seed=12)
for v in verify.verify_all(fc, pop, settings):
    lhs = "-" if v.lhs is None else f"{v.lhs:8.4f}"
    rhs = "-" if v.rhs is None else f"{v.rhs:8.4f}"
    print(f"  {v.theorem}[{v.leak}] {v.status:6s} lhs={lhs} {v.relation} "
          f"rhs={rhs} tol={v.tolerance if v.tolerance is not None else 0:.4f}")
