"""Scalar reference twins of the built-in adversaries.

The built-ins play a chunk of trials in array operations.  Each twin
plays the same strategy one trial at a time with scalar phases, which the
per-trial driver of `reference_trials` runs trial by trial; a twin reads
one trial's template codes with the scheme's batch methods.  The tests
hold the built-ins' batch phases against these twins and the exact
oracles.  `UniqueSampler` is a batch reference: the sampler scored by the
closed form over a chunk's distinct candidates, as it was before it read
the cached match-rate vector.
"""

import numpy as np

from btpeval import exact
from btpeval.adversaries import (
    BlindArgmaxAdversary,
    CoinFlipUnlinkAdversary,
    CrossComparatorAdversary,
    MatchTestUnlinkAdversary,
    PalSamplerAdversary,
    ReadViewAdversary,
    ReductionUnlinkAdversary,
    SamplerIrrAdversary,
)
from btpeval.errors import ContractError
from btpeval.schemes import LEAK_BOTH
from reference_exact import closed_form_mr
from reference_population import hamming_distance, neighborhood_overlap
from reference_trials import TrialIrrAdversary, TrialUnlinkAdversary


def _accepts(scheme, view, x) -> bool:
    """The comparator's decision on one trial's leaked codes and capture x."""
    return bool(scheme.pic_batch(view.pi,
                                 scheme.pir_batch(view.alpha, np.uint64(x))))


class PalSampler(TrialIrrAdversary):
    """Resample random users' captures until the comparator accepts one
    against the leaked template, up to n_delta rounds."""

    name = "pal-sampler"

    def __init__(self, cfg):
        self.cfg = cfg

    def phase1(self, params, leak, tau, oracle, rng):
        if leak != LEAK_BOTH:
            raise ContractError("the sampling inverter needs both template parts")
        return params

    def phase2(self, state, view, oracle, rng):
        scheme, pop = state.scheme, state.population
        x_prime = None
        for _ in range(self.cfg.n_delta):
            x_prime = oracle.sample(int(rng.integers(pop.num_users)))
            if _accepts(scheme, view, x_prime):
                return x_prime
        return x_prime


class Blind(TrialIrrAdversary):
    """Always answers a fixed feature."""

    name = "blind"

    def __init__(self, guess):
        self.guess = guess

    def phase1(self, params, leak, tau, oracle, rng):
        return None

    def phase2(self, state, view, oracle, rng):
        return self.guess


class ReadView(TrialIrrAdversary):
    """Returns one leaked field verbatim as the guess."""

    def __init__(self, which):
        self.which = which
        self.name = f"read-{which}"

    def phase1(self, params, leak, tau, oracle, rng):
        part = "pi" if self.which == "pi" else "ad"
        if not getattr(leak, part):
            raise ContractError(f"{self.name} needs {part} in lambda, got {leak}")
        return params.scheme

    def phase2(self, state, view, oracle, rng):
        if self.which not in state.feature_fields:
            raise ContractError(f"leaked {self.which} is not a feature element")
        return int(getattr(view, self.which))


class Sampler(TrialIrrAdversary):
    """Answers the first of `num_queries` random captures with the highest
    exact match rate at the game threshold, or in the acceptance game at
    the comparator's radius (0 for a scheme without one)."""

    name = "sampler"

    def __init__(self, num_queries):
        self.num_queries = num_queries
        self._scores = {}

    def phase1(self, params, leak, tau, oracle, rng):
        if tau is None:
            tau = params.scheme.guaranteed_match_radius() or 0
        return params, tau

    def phase2(self, state, view, oracle, rng):
        params, tau = state
        pop = params.population
        best, best_score = None, -1.0
        for _ in range(self.num_queries):
            cand = oracle.sample(int(rng.integers(pop.num_users)))
            key = (cand, tau)
            if key not in self._scores:
                self._scores[key] = closed_form_mr(pop, cand, tau)
            score = self._scores[key]
            if score > best_score:
                best, best_score = cand, score
        return best


class UniqueSampler(SamplerIrrAdversary):
    """The batch sampler scored by the closed form over a chunk's distinct
    candidates, spread back through `np.unique`'s inverse: the reference
    the lookup in `exact.mr_scores` must equal bit for bit."""

    def phase2_batch(self, state, view, oracle, rng):
        params, tau = state
        pop = params.population
        m, q = oracle.trials, self.num_queries
        users = rng.integers(pop.num_users, size=m * q)
        cands = oracle.sample(np.repeat(np.arange(m), q), users)
        values, inverse = np.unique(cands, return_inverse=True)
        scores = exact.mr_of(pop, values, tau)
        # the first best candidate in query order
        best = np.argmax(scores[inverse].reshape(m, q), axis=1)
        return cands.reshape(m, q)[np.arange(m), best]


def _random_triple(params, oracle, rng):
    pop = params.population
    users = [int(rng.integers(pop.num_users)) for _ in range(3)]
    return tuple(oracle.sample(u) for u in users)


def _match_test_decision(scheme, view_prime, x0, x1, rng) -> int:
    """A non-match on x1 pins the mated case, a non-match on x0 the
    non-mated case; double acceptance falls back to a coin."""
    if not _accepts(scheme, view_prime, x1):
        return 0
    if not _accepts(scheme, view_prime, x0):
        return 1
    return int(rng.integers(2))


class MatchTest(TrialUnlinkAdversary):
    name = "match-test"

    def phase1(self, params, leak, oracle, rng):
        if leak != LEAK_BOTH:
            raise ContractError("the match-test distinguisher needs both parts")
        x, x0, x1 = _random_triple(params, oracle, rng)
        return x, x0, x1, (params, x0, x1)

    def phase2(self, state, view, view_prime, oracle, rng):
        params, x0, x1 = state
        return _match_test_decision(params.scheme, view_prime, x0, x1, rng)


class Coin(TrialUnlinkAdversary):
    name = "coin"

    def phase1(self, params, leak, oracle, rng):
        return (*_random_triple(params, oracle, rng), None)

    def phase2(self, state, view, view_prime, oracle, rng):
        return int(rng.integers(2))


def _match_test_rule(params, x0, x1, view_prime, rng):
    if view_prime.pi is None or view_prime.alpha is None:
        return int(rng.integers(2))
    return _match_test_decision(params.scheme, view_prime, x0, x1, rng)


RULES = {
    "match-test": _match_test_rule,
    "always-0": lambda params, x0, x1, view_prime, rng: 0,
    "always-1": lambda params, x0, x1, view_prime, rng: 1,
    "coin": lambda params, x0, x1, view_prime, rng: int(rng.integers(2)),
}


class CrossComparator(TrialUnlinkAdversary):
    """Samples one user twice (x and x0) and a distinct one once (x1),
    then applies a decision rule."""

    def __init__(self, rule):
        self.rule = rule
        self.name = f"cross-comparator[{rule}]"

    def phase1(self, params, leak, oracle, rng):
        pop = params.population
        u = int(rng.integers(pop.num_users))
        v = int(rng.integers(pop.num_users - 1))
        v += v >= u
        x, x0, x1 = oracle.sample(u), oracle.sample(u), oracle.sample(v)
        return x, x0, x1, (params, x0, x1)

    def phase2(self, state, view, view_prime, oracle, rng):
        params, x0, x1 = state
        return RULES[self.rule](params, x0, x1, view_prime, rng)


class Reduction(TrialUnlinkAdversary):
    """Asks the inner inverter for the second template when the challenge
    balls are apart and votes for the feature its guess lands near."""

    def __init__(self, inner, tau):
        self.inner = inner
        self.tau = tau
        self.name = f"reduction[{inner.name}]"

    def phase1(self, params, leak, oracle, rng):
        inner_state = self.inner.phase1(params, leak, self.tau, oracle, rng)
        x, x0, x1 = _random_triple(params, oracle, rng)
        return x, x0, x1, (x0, x1, inner_state)

    def phase2(self, state, view, view_prime, oracle, rng):
        x0, x1, inner_state = state
        if neighborhood_overlap(x0, x1, self.tau):
            return int(rng.integers(2))
        guess = self.inner.phase2(inner_state, view_prime, oracle, rng)
        if hamming_distance(x0, guess) <= self.tau:
            return 0
        if hamming_distance(x1, guess) <= self.tau:
            return 1
        return int(rng.integers(2))


def scalar_twin(adversary):
    """The scalar reference twin of a built-in adversary."""
    if isinstance(adversary, ReductionUnlinkAdversary):
        return Reduction(scalar_twin(adversary.inner), adversary.tau)
    twins = {
        ReadViewAdversary: lambda a: ReadView(a.which),
        PalSamplerAdversary: lambda a: PalSampler(a.cfg),
        BlindArgmaxAdversary: lambda a: Blind(a.guess),
        SamplerIrrAdversary: lambda a: Sampler(a.num_queries),
        MatchTestUnlinkAdversary: lambda a: MatchTest(),
        CoinFlipUnlinkAdversary: lambda a: Coin(),
        CrossComparatorAdversary: lambda a: CrossComparator(a.rule_name),
    }
    return twins[type(adversary)](adversary)
