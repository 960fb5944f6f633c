#!/usr/bin/env python3
"""A tour of the model: the feature space, noisy users, and three schemes.

Users live on the Hamming cube {0,1}^n.  Each user has a center template;
every capture flips each bit independently with probability p.  A
protection scheme turns a capture into a template (pi, alpha) and decides
matches from (pi, PIR(alpha, fresh capture)).
"""

import numpy as np

from btpeval import metrics
from btpeval.population import bitstring, generate_population
from btpeval.rng import substream
from btpeval.schemes import PlaintextScheme, RotationScheme, build_scheme

pop = generate_population(n=7, num_users=16, flip_prob=0.03, seed=1)
# features are packed integers, bit i coordinate i; `bitstring` prints one
# with coordinate 0 leftmost
print("centers:", ", ".join(bitstring(pop.n, c) for c in pop.centers[:6]), "...")

rng = substream(1, "demo")
u = 0
# captures are packed uint64 values, drawn for an array of users at once
capture = pop.sample_batch(np.array([u]), rng)[0]
center = pop.centers[u]
print(f"user {u} center {bitstring(7, center)}  capture {bitstring(7, capture)}  "
      f"distance {np.bitwise_count(center ^ capture)}")
# no bit of the n flips, each with probability p
print(f"probability of re-drawing the center exactly: "
      f"{(1 - pop.flip_prob) ** pop.n:.6f}")

# -- fuzzy commitment -------------------------------------------------------
# A scheme works on packed captures and integer codes: fc's pi is the index
# of the random codeword w (standing for H(w)), alpha the packed x XOR w.
fc = build_scheme({"scheme": "fc", "code": {"n": 7, "k": 4, "t": 1}}, 7)
pi, alpha = fc.pie_batch(capture, rng)
print("\nfuzzy commitment:")
print("  pi (codeword index):", pi)
print("  alpha               :", bitstring(7, alpha))


def matches(scheme, pi, alpha, probe):
    return bool(scheme.pic_batch(pi, scheme.pir_batch(alpha, probe)))


probe_near = capture ^ np.uint64(0b1)      # distance 1
probe_far = capture ^ np.uint64(0b111)     # distance 3
print("  probe at distance 1 ->",
      "match" if matches(fc, pi, alpha, probe_near) else "non-match")
print("  probe at distance 3 ->",
      "match" if matches(fc, pi, alpha, probe_far) else "non-match")

# The code-offset law: acceptance depends only on the probe's distance to
# the enrolled feature, never on which codeword was drawn.  The support
# lists every (probability, pi, alpha) outcome of pie; one array call
# decides every codeword against every probe.
_, pis, alphas = fc.pie_support_batch(capture)
probes = np.arange(128, dtype=np.uint64)
accepted = fc.pic_batch(pis[:, None], fc.pir_batch(alphas[:, None], probes))
law_holds = bool((accepted == (np.bitwise_count(probes ^ capture) <= 1)).all())
print("  match <=> distance <= 1, over every codeword and probe:", law_holds)

# -- cancelable rotation ----------------------------------------------------
rot = RotationScheme(7, tau=1)
pi, alpha = rot.pie_batch(capture, rng)
print("\nrotation:")
print(f"  pi {bitstring(7, pi)}  alpha (offset) {alpha}")
# rotating by n - alpha more brings every coordinate back home
print("  un-rotating the template recovers the capture:",
      rot.pir_batch(7 - alpha, pi) == capture)

# -- plaintext --------------------------------------------------------------
plain = PlaintextScheme(7, tau=1)
pi, _ = plain.pie_batch(capture, rng)
print("\nplaintext baseline: pi IS the capture ->", pi == capture)

# -- raw comparator baselines ----------------------------------------------
fnmr, fmr = metrics.est_baseline_rates(pop, 1, metrics.RunSettings(trials=20000, seed=2))
print(f"\nraw threshold comparator at tau=1: "
      f"FNMR {fnmr.point:.4f}  FMR {fmr.point:.4f}")
