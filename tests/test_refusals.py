"""Boundary refusals: each input check the package makes raises its error
type with a message that names what is wrong."""

import numpy as np
import pytest

from btpeval import exact
from btpeval.adversaries import (
    BlindArgmaxAdversary,
    CoinFlipUnlinkAdversary,
    PalSamplerConfig,
    ReadViewAdversary,
    ReductionUnlinkAdversary,
    SamplerIrrAdversary,
    compute_n_delta,
)
from btpeval.errors import ConfigError, ContractError, DimensionError, ProtocolError
from btpeval.games import run_al_irr_game, run_coupled_irr_trials, run_unlink_game
from btpeval.metrics import (AdvantageEstimate, MatchRateStats, RunSettings,
                             est_fmr_bp, est_mr_of_feature, est_scheme_fnmr,
                             extremal_mr, overlap_rates, pt_match_stats,
                             rmr_of_feature)
from btpeval.population import (
    Population,
    SamplingOracle,
    generate_population,
    parse_bits,
)
from btpeval.rng import substream
from btpeval.schemes import (
    LEAK_BOTH,
    LEAK_PI,
    BrokenScheme,
    LeakSet,
    LinearCode,
    PlaintextScheme,
    RotationScheme,
    build_scheme,
)
from btpeval.verify import verify_all

POP = generate_population(7, 16, 0.03, seed=1)
POP22 = generate_population(22, 16, 0.03, seed=1)
FC = build_scheme({"scheme": "fc"}, 7)
ZERO = 0
# a scheme of n = 10, refused beside the n = 7 population
ROT10 = RotationScheme(10, 1)
FEW = RunSettings(trials=3, seed=0)


class WrongShapeGuess(CoinFlipUnlinkAdversary):
    def phase2_batch(self, state, view, view_prime, oracle, rng):
        return np.zeros((oracle.trials, 2), dtype=np.int64)


class HalvedRotation(RotationScheme):
    """rot without its ball law, whose outcome probabilities sum to 1/2."""

    def pie_support_batch(self, xs):
        probs, pi, alpha = super().pie_support_batch(xs)
        return probs / 2, pi, alpha

    def match_radius(self):
        return None


class FieldlessRotation(RotationScheme):
    """rot's radius with no feature field to tie the law to."""

    feature_fields = ()


class TwoFieldRotation(RotationScheme):
    """rot's radius with two feature fields."""

    feature_fields = ("pi", "alpha")


class UnknownFieldRotation(RotationScheme):
    """rot's radius with a feature field that is neither pi nor alpha."""

    feature_fields = ("key",)


def _define_match_law():
    class LawRotation(RotationScheme):
        def match_law(self):
            return None


def _config(mu=0.5, n_delta=3):
    return PalSamplerConfig(mr_mean=0.5, sigma=0.0, delta=0.16, gamma=0.5,
                            mu=mu, n_delta=n_delta)


# (call, error type, message fragment)
REFUSALS = {
    "n_delta mu=0": (lambda: compute_n_delta(0.0, 0.1, 0.5), ConfigError,
                     "mu must be in (0, 1], got 0.0"),
    "n_delta target": (lambda: compute_n_delta(0.5, 0.5, 0.4), ConfigError,
                       "out of range"),
    "config mu": (lambda: _config(mu=0.0), ConfigError,
                  "mu = 0.0 out of (0, 1]"),
    "config n_delta": (lambda: _config(n_delta=0), ConfigError,
                       "n_delta must be >= 1"),
    "read-view field": (lambda: ReadViewAdversary("x"), ConfigError,
                        "which must be 'pi' or 'alpha'"),
    "reduction tau": (lambda: ReductionUnlinkAdversary(
        BlindArgmaxAdversary(ZERO), -1), ConfigError, "tau must be >= 0"),
    "al-irr tau": (lambda: run_al_irr_game(
        FC, POP, LEAK_PI, -1, BlindArgmaxAdversary(ZERO),
        RunSettings(trials=3, seed=0)), ConfigError, "tau must be >= 0"),
    "unlink guess shape": (lambda: run_unlink_game(
        FC, POP, LEAK_BOTH, WrongShapeGuess(), RunSettings(trials=3, seed=0)),
        ProtocolError, "need 3 guesses, got shape (3, 2)"),
    "config block": (lambda: Population.from_config([7]), ConfigError,
                     "the block must be a JSON object, got [7]"),
    "exact fmr_tp factor": (lambda: exact.enumerator(FC, POP).fmr_tp("xx"),
                            ConfigError, "factor must be 'ad' or 'pi'"),
    "exact n": (lambda: exact.LawOracle(RotationScheme(9, 1), POP),
                ConfigError, "scheme and population disagree on n"),
    "exact outcome probabilities": (lambda: exact.enumerator(
        HalvedRotation(7, 1), POP), ContractError,
        "probabilities >= 0 that sum to 1"),
    "radius without a feature field": (lambda: exact.enumerator(
        FieldlessRotation(7, 1), POP), ContractError,
        "FieldlessRotation declares a match radius but not one feature field, "
        "pi or alpha"),
    "radius with two feature fields": (lambda: exact.enumerator(
        TwoFieldRotation(7, 1), POP), ContractError,
        "TwoFieldRotation declares a match radius but not one feature field, "
        "pi or alpha"),
    "radius with an unknown feature field": (lambda: exact.enumerator(
        UnknownFieldRotation(7, 1), POP), ContractError,
        "UnknownFieldRotation declares a match radius but not one feature "
        "field, pi or alpha"),
    "retired match_law": (_define_match_law, ContractError,
                          "LawRotation.match_law is retired: declare "
                          "match_radius"),
    "decode word bits": (lambda: FC.code.decode_codes(
        np.array([0, 2**64 - 1], dtype=np.uint64)), IndexError,
        "a word has more than 7 bits"),
    "estimate trials": (lambda: AdvantageEstimate(0.0, -1, 0.0, 0.0),
                        ConfigError, "trials must be >= 0"),
    "stats mean": (lambda: MatchRateStats(1.5, 0.0), ConfigError,
                   "mean rate 1.5 outside [0, 1]"),
    "stats std": (lambda: MatchRateStats(0.5, -0.1), ConfigError,
                  "standard deviation must be >= 0"),
    "chebyshev delta": (lambda: MatchRateStats(0.5, 0.1).chebyshev_threshold(0),
                        ConfigError, "delta must be positive"),
    "bitstring": (lambda: parse_bits("012"), ConfigError,
                  "not a bitstring: '012'"),
    "empty bitstring": (lambda: parse_bits(""), ConfigError,
                        "not a bitstring: ''"),
    "config center": (lambda: Population.from_config(
        {"p": 0.05, "centers": ["1010000", "01a0011"]}), ConfigError,
        "not a bitstring: '01a0011'"),
    "empty config center": (lambda: Population.from_config(
        {"p": 0.05, "centers": ["1010000", ""]}), ConfigError,
        "not a bitstring: ''"),
    "config center length": (lambda: Population.from_config(
        {"p": 0.05, "centers": ["1010000", "0110011", "1010000101"]}),
        DimensionError, "center has 10 bits, expected 7"),
    "center bits": (lambda: Population(7, 0.03, 0, (5, 1 << 7)),
                    DimensionError, "a center has more than 7 bits"),
    "centers shape": (lambda: Population(7, 0.03, 0, [[1, 2], [3, 4]]),
                      ConfigError, "centers must be one packed value per user"),
    "float center": (lambda: Population(7, 0.03, 0, [1.5, 2.7]), ConfigError,
                     "a center must be an integer, got 1.5"),
    "bool center": (lambda: Population(7, 0.03, 0, [True, False]),
                    ConfigError, "a center must be an integer, got True"),
    "string center": (lambda: Population(7, 0.03, 0, ["5", "3"]),
                      ConfigError, "a center must be an integer, got '5'"),
    "negative center": (lambda: Population(7, 0.03, 0, [-1, 3]),
                        DimensionError, "a center is negative: -1"),
    "float center array": (lambda: Population(
        7, 0.03, 0, np.array([1.0, 2.0])), ConfigError,
        "a center must be an integer, got 1.0"),
    "negative center array": (lambda: Population(
        7, 0.03, 0, np.array([3, -2])), DimensionError,
        "a center is negative: -2"),
    "population n float": (lambda: Population(7.0, 0.03, 0, [1, 2]),
                           ConfigError, "n must be an integer, got 7.0"),
    "population p str": (lambda: Population(7, "0.03", 0, [1, 2]),
                         ConfigError, "flip_prob must be a number, got '0.03'"),
    "population seed float": (lambda: Population(7, 0.03, 1.5, [1, 2]),
                              ConfigError, "seed must be an integer, got 1.5"),
    "config n float": (lambda: Population.from_config(
        {"n": 7.9, "U": 16, "p": 0.03}), ConfigError,
        "n must be an integer, got 7.9"),
    "config U float": (lambda: Population.from_config(
        {"n": 7, "U": 16.7, "p": 0.03}), ConfigError,
        "U must be an integer, got 16.7"),
    "config seed float": (lambda: Population.from_config(
        {"n": 7, "U": 16, "p": 0.03, "seed": 1.5}), ConfigError,
        "seed must be an integer, got 1.5"),
    "generated p str": (lambda: generate_population(7, 16, "0.03", 1),
                        ConfigError, "p must be a number, got '0.03'"),
    "mr probe bits": (lambda: est_mr_of_feature(
        POP, 300, 1, RunSettings(trials=3)), DimensionError,
        "probe 300 has more than 7 bits"),
    "rmr probe bits": (lambda: rmr_of_feature(
        FC, POP, 1 << 7, RunSettings(trials=3)), DimensionError,
        "probe 128 has more than 7 bits"),
    "generator row": (lambda: LinearCode.from_bitstrings(["101", "1x1"], 0),
                      ConfigError, "not a bitstring: '1x1'"),
    "empty generator row": (lambda: LinearCode.from_bitstrings(["", ""], 0),
                            ConfigError, "not a bitstring: ''"),
    "one user": (lambda: Population(7, 0.03, 0, (ZERO,)), ConfigError,
                 "need at least 2 users, got 1"),
    "flip_prob": (lambda: Population(7, 0.5, 0, (ZERO, ZERO)), ConfigError,
                  "flip_prob must be in [0, 0.5), got 0.5"),
    "oracle user": (lambda: SamplingOracle(
        POP, substream(0, "x"), 10, 2).sample(np.array([0]), np.array([16])),
        IndexError, "unknown user in batch query"),
    "oracle trial": (lambda: SamplingOracle(
        POP, substream(0, "x"), 10, 4).sample(np.array([-1]), np.array([0])),
        IndexError, "unknown trial in batch query"),
    "oracle subset trial": (lambda: SamplingOracle(
        POP, substream(0, "x"), 10, 4).subset([0, 1]).sample(
            np.array([1, -1]), np.array([0, 0])),
        IndexError, "unknown trial in batch query"),
    "oracle rows": (lambda: SamplingOracle(
        POP, substream(0, "x"), 10, 2).sample(np.array([0, 1]),
                                              np.zeros(3, dtype=np.int64)),
        ContractError, "users of shape (3,) do not give one row to each "
                       "of 2 trials"),
    "oracle flat rows": (lambda: SamplingOracle(
        POP, substream(0, "x"), 10, 2).sample(np.array([0, 1]),
                                              np.zeros(4, dtype=np.int64)),
        ContractError, "users of shape (4,) do not give one row to each "
                       "of 2 trials"),
    "code k=0": (lambda: LinearCode(7, 0, (), 1), ConfigError,
                 "k_code must be >= 1, got 0"),
    "code k=17": (lambda: LinearCode(20, 17, (), 0), ConfigError,
                  "capped at k <= 16"),
    "code rows": (lambda: LinearCode(7, 4, (1, 2, 4), 1), ConfigError,
                  "generator must have k rows"),
    "code row range": (lambda: LinearCode(3, 1, (8,), 0), ConfigError,
                       "generator row out of range"),
    "code row lengths": (lambda: LinearCode.from_bitstrings(["101", "10"], 0),
                         ConfigError, "generator rows have unequal length"),
    "fc n=8": (lambda: build_scheme({"scheme": "fc", "code": {"n": 8}}, 8),
               ConfigError, "fc needs an explicit generator matrix"),
    "threshold n": (lambda: RotationScheme(0, 1), ConfigError,
                    "n must be in [1, 64], got 0"),
    "broken n": (lambda: BrokenScheme(0), ConfigError,
                 "n must be in [1, 64], got 0"),
    # a scheme, a code and a population refuse the same n in the same words
    "rot n=65": (lambda: RotationScheme(65, 1), ConfigError,
                 "n must be in [1, 64], got 65"),
    "plain n=65": (lambda: PlaintextScheme(65, 1), ConfigError,
                   "n must be in [1, 64], got 65"),
    "broken n=65": (lambda: BrokenScheme(65), ConfigError,
                    "n must be in [1, 64], got 65"),
    "rot tau float": (lambda: build_scheme({"scheme": "rot", "tau": 1.9}, 7),
                      ConfigError, "tau must be an integer, got 1.9"),
    "plain tau bool": (lambda: build_scheme(
        {"scheme": "plain", "tau": True}, 7), ConfigError,
        "tau must be an integer, got True"),
    "threshold tau float": (lambda: RotationScheme(7, 1.5), ConfigError,
                            "tau must be an integer, got 1.5"),
    "threshold n float": (lambda: RotationScheme(7.0, 1), ConfigError,
                          "n must be an integer, got 7.0"),
    "broken n float": (lambda: BrokenScheme(7.5), ConfigError,
                       "n must be an integer, got 7.5"),
    "fc t str": (lambda: build_scheme({"scheme": "fc", "code": {"t": "1"}}, 7),
                 ConfigError, "t must be an integer, got '1'"),
    # the cached default code, built at t = 1 above, is not handed to 1.0
    "fc default t float": (lambda: build_scheme(
        {"scheme": "fc", "code": {"t": 1.0}}, 7), ConfigError,
        "t must be an integer, got 1.0"),
    "fc generator t float": (lambda: build_scheme(
        {"scheme": "fc", "code": {"t": 1.0, "generator": ["10110", "01011"]}},
        5), ConfigError, "t must be an integer, got 1.0"),
    # types are checked before the generator's dimensions
    "fc code n str": (lambda: build_scheme(
        {"scheme": "fc", "code": {"n": "5", "generator": ["10110", "01011"]}},
        5), ConfigError, "code.n must be an integer, got '5'"),
    "code k float": (lambda: LinearCode(7, 4.0, (1, 2, 4, 8), 1), ConfigError,
                     "k_code must be an integer, got 4.0"),
    "code n=65": (lambda: LinearCode(65, 1, (1,), 0), ConfigError,
                  "n must be in [1, 64], got 65"),
    "code row float": (lambda: LinearCode(3, 1, (4.0,), 0), ConfigError,
                       "generator row must be an integer, got 4.0"),
    "settings seed float": (lambda: RunSettings(seed=1.5), ConfigError,
                            "seed must be an integer, got 1.5"),
    "settings trials bool": (lambda: RunSettings(trials=True), ConfigError,
                             "trials must be an integer, got True"),
    "settings tau float": (lambda: RunSettings(tau=0.5), ConfigError,
                           "tau must be an integer, got 0.5"),
    "settings jobs float": (lambda: RunSettings(jobs=2.0), ConfigError,
                            "jobs must be an integer, got 2.0"),
    "settings replace trials": (lambda: RunSettings().replace(trials=2.5),
                                ConfigError,
                                "trials must be an integer, got 2.5"),
    "settings delta str": (lambda: RunSettings(delta="0.1"), ConfigError,
                           "delta must be a number, got '0.1'"),
    "settings gamma bool": (lambda: RunSettings(gamma=True), ConfigError,
                            "gamma must be a number, got True"),
    "settings level str": (lambda: RunSettings(level="x"), ConfigError,
                           "level must be a number, got 'x'"),
    "theorem": (lambda: verify_all(FC, POP, theorem="t9"), ConfigError,
                "unknown theorem 't9'"),
    # each config block's reader owns its keys, types and bitstring lists
    "config centers string": (lambda: Population.from_config(
        {"centers": "0101", "p": 0.03}), ConfigError,
        "centers must be a non-empty list of bitstrings, got '0101'"),
    "config centers ints": (lambda: Population.from_config(
        {"centers": [5, 6], "p": 0.03}), ConfigError,
        "centers: not a bitstring: 5"),
    "config p str": (lambda: Population.from_config(
        {"n": 7, "U": 16, "p": "0.03"}), ConfigError,
        "p must be a number, got '0.03'"),
    "config unknown key": (lambda: Population.from_config(
        {"n": 7, "U": 16, "p": 0.03, "sed": 5}), ConfigError,
        "unknown key(s) ['sed'] in the block"),
    "config n float before center lengths": (lambda: Population.from_config(
        {"n": 7.9, "p": 0.05, "centers": ["1010000", "0110011"]}),
        ConfigError, "n must be an integer, got 7.9"),
    "scheme unknown key": (lambda: build_scheme(
        {"scheme": "rot", "tua": 3}, 7), ConfigError,
        "unknown key(s) ['tua'] in the block"),
    "scheme block": (lambda: build_scheme(["rot"], 7), ConfigError,
                     "the block must be a JSON object, got ['rot']"),
    "code block": (lambda: build_scheme({"code": 7}, 7), ConfigError,
                   "code must be a JSON object, got 7"),
    "fc code k float": (lambda: build_scheme(
        {"scheme": "fc", "code": {"k": 4.0}}, 7), ConfigError,
        "code.k must be an integer, got 4.0"),
    "fc empty generator": (lambda: build_scheme(
        {"scheme": "fc", "code": {"generator": []}}, 7), ConfigError,
        "code.generator must be a non-empty list of bitstrings, got []"),
    "fc generator string": (lambda: build_scheme(
        {"scheme": "fc", "code": {"generator": "1000110"}}, 7), ConfigError,
        "code.generator must be a non-empty list of bitstrings, got "
        "'1000110'"),
    "rot generator string": (lambda: build_scheme(
        {"scheme": "rot", "code": {"generator": "1000110"}}, 7), ConfigError,
        "code.generator must be a non-empty list of bitstrings"),
    "leak set int": (lambda: LeakSet.parse(5), ConfigError,
                     "a leak set must be a string such as 'pi+ad', got 5"),
    # every Monte Carlo path refuses a scheme of another n than the
    # population's, before it draws
    "fnmr n": (lambda: est_scheme_fnmr(ROT10, POP, FEW), ConfigError,
               "scheme and population disagree on n"),
    "pt stats n": (lambda: pt_match_stats(ROT10, POP, FEW), ConfigError,
                   "scheme and population disagree on n"),
    "unlink n": (lambda: run_unlink_game(
        ROT10, POP, LEAK_BOTH, CoinFlipUnlinkAdversary(), FEW), ConfigError,
        "scheme and population disagree on n"),
    "al-irr n": (lambda: run_al_irr_game(
        ROT10, POP, LEAK_PI, 1, BlindArgmaxAdversary(ZERO), FEW), ConfigError,
        "scheme and population disagree on n"),
    "fmr_bp n": (lambda: est_fmr_bp(FC, generate_population(10, 16, 0.03, 1),
                                    FEW), ConfigError,
                 "scheme and population disagree on n"),
    # a radius is an integer >= 0 on every exact and game path
    "extremal mr radius": (lambda: extremal_mr(POP, -1), ConfigError,
                           "radius must be >= 0, got -1"),
    "overlap radius": (lambda: overlap_rates(POP, -1), ConfigError,
                       "tau must be >= 0, got -1"),
    "overlap radius float": (lambda: overlap_rates(POP, 1.5), ConfigError,
                             "tau must be an integer, got 1.5"),
    "exact mr radius float": (lambda: exact.mr_of(POP, [1, 2], 2.5),
                              ConfigError,
                              "radius must be an integer, got 2.5"),
    # the closed form refuses a value past n bits, as the lookup does
    "exact mr_of bits": (lambda: exact.mr_of(POP, [1 << 7], 1),
                         DimensionError, "a value has more than 7 bits"),
    "exact mr_of bits n=22": (lambda: exact.mr_of(
        POP22, [(1 << 22) | int(POP22.centers[0])], 1), DimensionError,
        "a value has more than 22 bits"),
    "extremal mr radius float": (lambda: extremal_mr(POP, 1.5), ConfigError,
                                 "radius must be an integer, got 1.5"),
    "al-irr tau float": (lambda: run_al_irr_game(
        FC, POP, LEAK_PI, 1.5, BlindArgmaxAdversary(ZERO), FEW), ConfigError,
        "tau must be an integer, got 1.5"),
    "coupled tau": (lambda: run_coupled_irr_trials(
        FC, POP, LEAK_PI, -1, BlindArgmaxAdversary(ZERO), FEW), ConfigError,
        "tau must be >= 0"),
    "reduction tau float": (lambda: ReductionUnlinkAdversary(
        BlindArgmaxAdversary(ZERO), 1.5), ConfigError,
        "tau must be an integer, got 1.5"),
    "sampler queries float": (lambda: SamplerIrrAdversary(2.5), ConfigError,
                              "num_queries must be an integer, got 2.5"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refused_with_its_reason(case):
    call, error, fragment = REFUSALS[case]
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)


def test_verify_refuses_a_mismatched_n_before_any_trial(chunk_runs):
    with pytest.raises(ConfigError, match="scheme and population disagree"):
        verify_all(ROT10, POP, FEW)
    assert chunk_runs.trials == []


def test_numpy_numbers_are_accepted_settings():
    s = RunSettings(seed=np.int64(3), trials=np.int32(50), jobs=np.uint8(1),
                    delta=np.float32(0.25), gamma=1 / 2, level=np.float64(0.9))
    assert (s.seed, s.trials, s.delta) == (3, 50, np.float32(0.25))
