#!/usr/bin/env python3
"""A tour of the model: the feature space, noisy users, and three schemes.

Users live on the Hamming cube {0,1}^n.  Each user has a center template;
every capture flips each bit independently with probability p.  A
protection scheme turns a capture into a template (pi, alpha) and decides
matches from (pi, PIR(alpha, fresh capture)).
"""

from btpeval import metrics
from btpeval.population import FeatureElement, generate_population, hamming_distance
from btpeval.rng import substream
from btpeval.schemes import PlaintextScheme, RotationScheme, build_scheme

pop = generate_population(n=7, num_users=16, flip_prob=0.03, seed=1)
print("centers:", ", ".join(str(c) for c in pop.centers[:6]), "...")

rng = substream(1, "demo")
u = 0
capture = pop.sample(u, rng)
print(f"user {u} center {pop.center(u)}  capture {capture}  "
      f"distance {hamming_distance(pop.center(u), capture)}")
print(f"probability of re-drawing the center exactly: "
      f"{pop.feature_probability(u, pop.center(u)):.6f}")

# -- fuzzy commitment -------------------------------------------------------
fc = build_scheme({"scheme": "fc", "code": {"n": 7, "k": 4, "t": 1}}, 7)
pt = fc.pie(capture, rng)
print("\nfuzzy commitment:")
print("  pi (digest):", pt.pi.hex())
print("  alpha      :", pt.alpha)
probe_near = FeatureElement(7, capture.value ^ 0b1)      # distance 1
probe_far = FeatureElement(7, capture.value ^ 0b111)     # distance 3
print("  probe at distance 1 ->",
      "match" if fc.pic(pt.pi, fc.pir(pt.alpha, probe_near)) else "non-match")
print("  probe at distance 3 ->",
      "match" if fc.pic(pt.pi, fc.pir(pt.alpha, probe_far)) else "non-match")

# The code-offset law: acceptance depends only on the probe's distance to
# the enrolled feature, never on which codeword was drawn.
law_holds = all(
    fc.pic(p.pi, fc.pir(p.alpha, probe)) == (hamming_distance(capture, probe) <= 1)
    for _, p in fc.pie_support(capture)
    for probe in (FeatureElement(7, v) for v in range(128))
)
print("  match <=> distance <= 1, over every codeword and probe:", law_holds)

# -- cancelable rotation ----------------------------------------------------
rot = RotationScheme(7, tau=1)
pt = rot.pie(capture, rng)
print("\nrotation:")
print(f"  pi {pt.pi}  alpha (offset) {pt.alpha}")
print("  un-rotating the template recovers the capture:",
      pt.pi.rotate(-pt.alpha) == capture)

# -- plaintext --------------------------------------------------------------
plain = PlaintextScheme(7, tau=1)
pt = plain.pie(capture, rng)
print("\nplaintext baseline: pi IS the capture ->", pt.pi == capture)

# -- raw comparator baselines ----------------------------------------------
fnmr, fmr = metrics.est_baseline_rates(pop, 1, metrics.RunSettings(trials=20000, seed=2))
print(f"\nraw threshold comparator at tau=1: "
      f"FNMR {fnmr.point:.4f}  FMR {fmr.point:.4f}")
