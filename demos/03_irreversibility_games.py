#!/usr/bin/env python3
"""Inversion games: blind baselines, leak readers, and the sampling inverter.

An inversion adversary sees a leaked part of a template and guesses a
feature element; it wins the distance game when the guess lands within
tau of the challenge feature, and the acceptance game when the comparator
accepts the guess.  Advantage is the win rate above the best blind
strategy (whose success is exactly the extremal match rate).
"""

from btpeval import metrics
from btpeval.adversaries import (
    PalSamplerAdversary,
    PalSamplerConfig,
    ReadViewAdversary,
    build_adversary,
)
from btpeval.games import run_al_irr_game, run_coupled_irr_trials, run_pal_irr_game
from btpeval.metrics import RunSettings
from btpeval.population import generate_population
from btpeval.schemes import LEAK_AD, LEAK_BOTH, LEAK_PI, PlaintextScheme, build_scheme

pop = generate_population(7, 16, 0.03, seed=1)
fc = build_scheme({"scheme": "fc", "code": {"n": 7, "k": 4, "t": 1}}, 7)
TRIALS = 8000


def show(label, result):
    print(f"{label:46s} win {result.win_rate.point:6.4f}  "
          f"baseline {result.baseline:6.4f}  "
          f"advantage {result.advantage.point:+7.4f}")


# Blind baselines: no view at all, success equals the extremal rate.  The
# blind adversary answers the argmax of MR at tau (distance game) or of
# rMR (acceptance game).
def blind(game):
    return build_adversary("blind", game, fc, pop, RunSettings(tau=1), LEAK_PI)


show("blind argmax, distance game (tau=1, leak pi)",
     run_al_irr_game(fc, pop, LEAK_PI, 1, blind("al-irr"),
                     RunSettings(trials=TRIALS, seed=4)))
show("blind argmax, acceptance game (leak pi)",
     run_pal_irr_game(fc, pop, LEAK_PI, blind("pal-irr"),
                      RunSettings(trials=TRIALS, seed=5)))

# The plaintext scheme hands the adversary everything.
plain = PlaintextScheme(7, tau=0)
show("plaintext, read-pi inverter (tau=0)",
     run_al_irr_game(plain, pop, LEAK_PI, 0, ReadViewAdversary("pi"),
                     RunSettings(trials=TRIALS, seed=6)))

# Reading the fuzzy-commitment offset only wins when the zero codeword
# was drawn: rate 2^-4.
show("fc, read-alpha guess (tau=0, leak ad)",
     run_al_irr_game(fc, pop, LEAK_AD, 0, ReadViewAdversary("alpha"),
                     RunSettings(trials=TRIALS, seed=7)))

# Full leakage: the repeated-sampling inverter replays random users'
# captures against the leaked template until one is accepted.
stats = metrics.exact_pt_match_stats(fc, pop)
cfg = PalSamplerConfig.from_stats(stats, delta=0.16, gamma=0.5)
print(f"\nsampling inverter setup: mean rate {stats.mean:.4f}, "
      f"C^2 {stats.variation_coeff**2:.4f}, rounds {cfg.n_delta}")
result = run_pal_irr_game(fc, pop, LEAK_BOTH, PalSamplerAdversary(cfg),
                          RunSettings(trials=5000, seed=8))
print(f"acceptance-game win rate with the full template: "
      f"{result.win_rate.point:.4f} (target > {1 - cfg.gamma})")

# Coupled transcripts: an exact-recovery win is a within-tau win is an
# acceptance win; the inclusions hold trial by trial.
coupled = run_coupled_irr_trials(fc, pop, LEAK_PI, 1, blind("al-irr"),
                                 RunSettings(trials=10000, seed=9))
print(f"\ncoupled win rates: exact {coupled.rates['fl']:.4f} <= "
      f"within-tau {coupled.rates['al']:.4f} <= "
      f"accepted {coupled.rates['pal']:.4f}; "
      f"violations {coupled.inclusion_violations()}")
