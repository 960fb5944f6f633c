#!/usr/bin/env python3
"""Recognition and protection metrics, Monte Carlo versus exact values.

Every estimator has an exact twin: the sampled value should sit
inside its interval around the exact number.  The diversity rate also
yields the renewability entropy -log2(rate): for the [7,4] fuzzy
commitment it is exactly the 4 message bits.
"""

from btpeval import exact, metrics
from btpeval.population import bitstring, generate_population
from btpeval.schemes import build_scheme

pop = generate_population(7, 16, 0.03, seed=1)
fc = build_scheme({"scheme": "fc", "code": {"n": 7, "k": 4, "t": 1}}, 7)
en = exact.enumerator(fc, pop)
S = metrics.RunSettings(trials=20000, seed=3)

rows = [
    ("FNMR (scheme)", metrics.est_scheme_fnmr(fc, pop, S), en.fnmr()),
    ("FMR total perf, AD factor", metrics.est_fmr_tp(fc, pop, "ad", S),
     en.fmr_tp("ad")),
    ("FMR total perf, PI factor", metrics.est_fmr_tp(fc, pop, "pi", S),
     en.fmr_tp("pi")),
    ("FMR biometric perf", metrics.est_fmr_bp(fc, pop, S), en.fmr_bp()),
    ("FMR diversity", metrics.est_fmr_div(fc, pop, S), en.fmr_div()),
]
print(f"{'metric':28s} {'estimate':>9s} {'95% interval':>22s} {'exact':>9s}")
for name, est, ex in rows:
    print(f"{name:28s} {est.point:9.4f} "
          f"[{est.ci_low:9.4f}, {est.ci_high:8.4f}] {ex:9.4f}")

div = en.fmr_div()
print(f"\nrenewability entropy: -log2({div:.4f}) = "
      f"{metrics.entropy_bits(div):.2f} bits (message length of the code)")

m1 = metrics.extremal_mr(pop, 1)
print(f"\nbest blind feature at tau=1: {bitstring(pop.n, m1.witness)} "
      f"with match rate {m1.value:.4f}")
ov = metrics.overlap_rates(pop, 1)
print(f"ball-intersection extremes at tau=1: p={ov.p_tau:.4f} q={ov.q_tau:.4f}")

stats = metrics.exact_pt_match_stats(fc, pop)
print(f"\nper-template match rate: mean {stats.mean:.4f}, "
      f"std dev {stats.std_dev:.4f}, variation {stats.variation_coeff:.3f}")
print(f"Chebyshev floor at delta=0.16: rate > {stats.chebyshev_threshold(0.16):.4f} "
      f"for at least 84% of templates")
