"""Built-in adversaries for the inversion and distinguishing games.

Baselines (blind argmax, view readers, coin flip) pin the trivial ends of
the advantage scale.  The constructive adversaries realize the
unachievability arguments: the repeated-sampling inverter wins the
full-leakage acceptance game whenever per-template match rates
concentrate, and the match-test distinguisher converts template
accept/reject behavior into linkage with advantage 1 - MR.  The reduction
wrapper turns any inversion adversary into a distinguisher, which is what
the unlinkability-implies-irreversibility bound exercises.

`build_adversary` builds each built-in by name from the run settings in
`metrics.RunSettings`, for `btpeval game` and the theorem checks alike.  An
adversary refuses a leak set it cannot use when the game runs, and
`pal-sampler` already when it is built.

Each adversary has one implementation, a batch pair of phases that plays a
chunk of trials in array operations (see `games`).
"""

from __future__ import annotations

import math

import numpy as np

from . import exact
from .errors import ConfigError, ContractError, ModeError, VariationTooHighError, require_type
from .games import IrrAdversary, UnlinkAdversary
from .metrics import (PT_BLOCK_PROBES, MatchRateStats, RunSettings,
                      exact_pt_match_stats, extremal_mr, extremal_rmr,
                      pt_match_stats)
from .records import Record
from .schemes import LEAK_BOTH, LeakSet, ProtectedTemplate


# --------------------------------------------------------------------------
# repeated-sampling inverter


def compute_n_delta(mu: float, delta: float, gamma: float) -> int:
    """Smallest N >= 1 with (1 - mu)^N < (gamma - delta) / (1 - delta).

    Evaluated in log space so tiny mu cannot underflow the power.
    """
    if not 0.0 < mu <= 1.0:
        raise ConfigError(f"mu must be in (0, 1], got {mu}")
    target = (gamma - delta) / (1.0 - delta)
    if not 0.0 < target < 1.0:
        raise ConfigError(f"(gamma-delta)/(1-delta) = {target} out of range")
    if mu == 1.0:
        return 1
    big_l = math.log1p(-mu)
    big_t = math.log(target)
    n = max(1, math.floor(big_t / big_l))
    while n * big_l >= big_t:
        n += 1
    while n > 1 and (n - 1) * big_l < big_t:
        n -= 1
    return n


class PalSamplerConfig(Record):
    """Parameters of the repeated-sampling inverter.

    Requires C^2 < delta < gamma < 1 where C is the variation coefficient
    of the per-template match rate; mu = mean - sigma / sqrt(delta) is the
    rate floor Chebyshev guarantees with probability >= 1 - delta, and
    n_delta the number of sampling rounds that makes the residual failure
    probability small enough for an overall win rate above 1 - gamma.
    """

    mr_mean: float
    sigma: float
    delta: float
    gamma: float
    mu: float
    n_delta: int

    @classmethod
    def from_stats(cls, stats: MatchRateStats, delta: float,
                   gamma: float) -> "PalSamplerConfig":
        """The inverter's one gate and sizing: refuses a zero mean or C^2 >= delta."""
        if not 0.0 < delta < gamma < 1.0:
            raise ConfigError(f"need 0 < delta < gamma < 1, got {delta}, {gamma}")
        if stats.mean <= 0.0:
            raise VariationTooHighError("mean match rate must be positive")
        c2 = stats.variation_coeff ** 2
        if delta <= c2:
            raise VariationTooHighError(
                f"delta = {delta} must exceed C^2 = {c2:.6f}"
            )
        mu = stats.chebyshev_threshold(delta)
        n_delta = compute_n_delta(mu, delta, gamma)
        return cls(mr_mean=stats.mean, sigma=stats.std_dev, delta=delta,
                   gamma=gamma, mu=mu, n_delta=n_delta)

    def _validate(self):
        if not 0.0 < self.mu <= 1.0:
            raise ConfigError(f"mu = {self.mu} out of (0, 1]")
        require_type("n_delta", self.n_delta, whole=True, least=1)


def inverter_stats(scheme, pop, settings: RunSettings) -> tuple:
    """(statistics, "exact" or "measured") sizing the inverter: exact wherever
    `exact.enumerator` serves (scheme, pop), else a `pt_match_stats` estimate."""
    try:
        return exact_pt_match_stats(scheme, pop), "exact"
    except ModeError:
        return pt_match_stats(scheme, pop, settings).stats, "measured"


def _require_both(name: str, leak):
    """Refuse a leak set without both template parts."""
    if leak != LEAK_BOTH:
        raise ContractError(f"{name} needs lambda pi+ad, got {leak}")


class PalSamplerAdversary(IrrAdversary):
    """Full-leakage inverter: resample random users' captures until the
    comparator accepts one against the leaked template, up to n_delta
    rounds; needs the whole template to run the acceptance test."""

    name = "pal-sampler"

    def __init__(self, cfg: PalSamplerConfig):
        self.cfg = cfg

    def phase1_batch(self, params, leak, tau, oracle, rng):
        _require_both(self.name, leak)
        return params

    def phase2_batch(self, state, view, oracle, rng):
        """Each round samples for the trials still unaccepted (and within
        budget) only."""
        scheme, pop = state.scheme, state.population
        guess = np.zeros(oracle.trials, dtype=np.uint64)
        live = np.arange(oracle.trials)
        for _ in range(self.cfg.n_delta):
            if not live.size:
                break
            users = rng.integers(pop.num_users, size=live.size)
            guess[live] = cands = oracle.sample(live, users)
            vid = scheme.pir_batch(view.alpha[live], cands)
            accepted = scheme.pic_batch(view.pi[live], vid)
            live = live[~accepted & ~oracle.cut[live]]
        return guess


# --------------------------------------------------------------------------
# blind and reading baselines


class BlindArgmaxAdversary(IrrAdversary):
    """Ignores the leaked view and always answers a fixed best-rate feature."""

    name = "blind"

    def __init__(self, guess: int):
        self.guess = guess

    def phase1_batch(self, params, leak, tau, oracle, rng):
        return None

    def phase2_batch(self, state, view, oracle, rng):
        return np.full(oracle.trials, self.guess, dtype=np.uint64)


class ReadViewAdversary(IrrAdversary):
    """Returns one leaked field verbatim as the guess: only a field the
    scheme lists in `feature_fields`, whose codes are packed features."""

    def __init__(self, which: str):
        if which not in ("pi", "alpha"):
            raise ConfigError("which must be 'pi' or 'alpha'")
        self.which = which
        self.name = f"read-{'pi' if which == 'pi' else 'alpha'}"

    def phase1_batch(self, params, leak, tau, oracle, rng):
        part = "pi" if self.which == "pi" else "ad"
        if not getattr(leak, part):
            raise ContractError(f"{self.name} needs {part} in lambda, got {leak}")
        return params.scheme

    def phase2_batch(self, state, view, oracle, rng):
        if self.which not in state.feature_fields:
            raise ContractError(f"leaked {self.which} is not a feature element")
        return getattr(view, self.which)


class SamplerIrrAdversary(IrrAdversary):
    """Oracle-driven candidate picker: draws `num_queries` captures from
    random users and answers the candidate with the highest exact match
    rate at the game threshold, or at the comparator's radius (0 without
    one) in the acceptance game.  Works for any leak set (never reads the
    view), so its success can only approach the blind optimum from below.

    A chunk draws all its trials' users in one `integers` call, then
    captures and scores its candidates in blocks of trials, each of at
    most `metrics.PT_BLOCK_PROBES` captures (one trial's q where q is
    larger).  The oracle's stream yields a block's captures as one draw
    of the whole chunk would, so the guesses do not depend on the block.
    """

    name = "sampler"

    def __init__(self, num_queries: int = RunSettings.sampler_queries):
        require_type("num_queries", num_queries, whole=True, least=1)
        self.num_queries = num_queries

    def phase1_batch(self, params, leak, tau, oracle, rng):
        if tau is None:
            tau = params.scheme.guaranteed_match_radius() or 0
        return (params, tau)

    def phase2_batch(self, state, view, oracle, rng):
        params, tau = state
        pop = params.population
        m, q = oracle.trials, self.num_queries
        users = rng.integers(pop.num_users, size=(m, q))
        guess = np.empty(m, dtype=np.uint64)
        rows = max(1, PT_BLOCK_PROBES // q)
        for lo in range(0, m, rows):
            hi = min(lo + rows, m)
            cands = oracle.sample(np.arange(lo, hi), users[lo:hi])
            # the first best candidate in query order
            best = np.argmax(exact.mr_scores(pop, cands, tau), axis=1)
            guess[lo:hi] = cands[np.arange(hi - lo), best]
        return guess


# --------------------------------------------------------------------------
# distinguishers


def _match_test_batch(scheme, view_prime, x0, x1, rng) -> np.ndarray:
    """Accept/reject probing of the second template, for every trial of a
    chunk: a non-match on x1 pins the mated case, a non-match on x0 pins
    the non-mated case, double acceptance falls back to a coin."""
    r1 = scheme.pic_batch(view_prime.pi, scheme.pir_batch(view_prime.alpha, x1))
    r0 = scheme.pic_batch(view_prime.pi, scheme.pir_batch(view_prime.alpha, x0))
    coin = rng.integers(2, size=len(x0))
    return np.where(r1, np.where(r0, coin, 1), 0)


def _capture_triples(owners, oracle):
    """Per trial, captures of the users in each row of `owners` (trials x
    3), charged to the trial: the columns x, x0 and x1."""
    return tuple(oracle.sample(np.arange(oracle.trials), owners).T)


def _random_triples(pop, oracle, rng):
    """Three independent random captures per trial."""
    owners = rng.integers(pop.num_users, size=(oracle.trials, 3))
    return _capture_triples(owners, oracle)


class MatchTestUnlinkAdversary(UnlinkAdversary):
    """Distinguisher that submits three independent random captures and
    decides by testing the second template against x1 then x0."""

    name = "match-test"

    def phase1_batch(self, params, leak, oracle, rng):
        _require_both(self.name, leak)
        x, x0, x1 = _random_triples(params.population, oracle, rng)
        return x, x0, x1, (params, x0, x1)

    def phase2_batch(self, state, view, view_prime, oracle, rng):
        params, x0, x1 = state
        return _match_test_batch(params.scheme, view_prime, x0, x1, rng)


class CoinFlipUnlinkAdversary(UnlinkAdversary):
    """Pure guessing baseline."""

    name = "coin"

    def phase1_batch(self, params, leak, oracle, rng):
        return (*_random_triples(params.population, oracle, rng), None)

    def phase2_batch(self, state, view, view_prime, oracle, rng):
        return rng.integers(2, size=oracle.trials)


def _match_test_rule(params, xs, view, view_prime, oracle, rng):
    """Degrades to a coin when the leak set hides a field the acceptance
    test needs."""
    if view_prime.pi is None or view_prime.alpha is None:
        return rng.integers(2, size=oracle.trials)
    _, x0, x1 = xs
    return _match_test_batch(params.scheme, view_prime, x0, x1, rng)


# Decision rules of the cross-comparator, deciding every trial of a chunk.
COMPARATOR_RULES = {
    "match-test": _match_test_rule,
    "always-0": lambda params, xs, view, view_prime, oracle, rng:
        np.zeros(oracle.trials, dtype=np.int64),
    "always-1": lambda params, xs, view, view_prime, oracle, rng:
        np.ones(oracle.trials, dtype=np.int64),
    "coin": lambda params, xs, view, view_prime, oracle, rng:
        rng.integers(2, size=oracle.trials),
}


class CrossComparatorAdversary(UnlinkAdversary):
    """The error-rate probe: phase 1 picks a distinct user pair, samples
    the first user twice (x and x0) and the second once (x1); phase 2
    applies a pluggable decision rule to the views."""

    def __init__(self, rule: str = "match-test"):
        if rule not in COMPARATOR_RULES:
            raise ConfigError(
                f"unknown comparator rule {rule!r}; choose from "
                f"{sorted(COMPARATOR_RULES)}"
            )
        self.rule_name = rule
        self.name = f"cross-comparator[{rule}]"

    def phase1_batch(self, params, leak, oracle, rng):
        pop = params.population
        u = rng.integers(pop.num_users, size=oracle.trials)
        v = rng.integers(pop.num_users - 1, size=oracle.trials)
        v += v >= u
        xs = _capture_triples(np.stack([u, u, v], axis=1), oracle)
        return (*xs, (params, xs))

    def phase2_batch(self, state, view, view_prime, oracle, rng):
        params, xs = state
        return COMPARATOR_RULES[self.rule_name](params, xs, view, view_prime,
                                                oracle, rng)


class ReductionUnlinkAdversary(UnlinkAdversary):
    """Wraps an inversion adversary into a distinguisher.

    Phase 1 runs the inner phase 1 and submits three independent random
    captures.  Phase 2 only acts when the challenge balls around x0 and x1
    are disjoint: it asks the inner adversary to invert the second
    template and votes for whichever challenge feature the guess lands
    near; everything else is a coin.  The first view is never inspected.
    """

    def __init__(self, inner: IrrAdversary, tau: int):
        require_type("tau", tau, whole=True, least=0)
        self.inner = inner
        self.tau = tau
        self.name = f"reduction[{getattr(inner, 'name', 'custom')}]"

    def phase1_batch(self, params, leak, oracle, rng):
        inner_state = self.inner.phase1_batch(params, leak, self.tau, oracle,
                                              rng)
        x, x0, x1 = _random_triples(params.population, oracle, rng)
        return x, x0, x1, ((x0, x1), inner_state)

    def phase2_batch(self, state, view, view_prime, oracle, rng):
        """The inner adversary sees only the trials whose balls are apart,
        and only their queries are charged."""
        (x0, x1), inner_state = state
        votes = rng.integers(2, size=len(x0))
        apart = np.flatnonzero(np.bitwise_count(x0 ^ x1) > 2 * self.tau)
        if apart.size:
            guess = self.inner.phase2_batch(
                inner_state, _view_subset(view_prime, apart),
                oracle.subset(apart), rng)
            near0 = np.bitwise_count(x0[apart] ^ guess) <= self.tau
            near1 = np.bitwise_count(x1[apart] ^ guess) <= self.tau
            votes[apart] = np.where(near0, 0, np.where(near1, 1, votes[apart]))
        return votes


def _view_subset(view: ProtectedTemplate, sel) -> ProtectedTemplate:
    """The view of some trials of a chunk."""
    return ProtectedTemplate(*(None if part is None else part[sel]
                               for part in (view.pi, view.alpha)))


# --------------------------------------------------------------------------
# the adversary factory


IRR_ADVERSARIES = ("blind", "pal-sampler", "sampler", "read-pi", "read-alpha")


def adversary_names(game: str) -> tuple:
    """Every name `build_adversary` accepts for `game`."""
    if game != "unlink":
        return IRR_ADVERSARIES
    return ("match-test", "appendix-b", "coin", "cross-comparator",
            *(f"cross-comparator[{rule}]" for rule in COMPARATOR_RULES),
            *(f"reduction(inner={inner})" for inner in IRR_ADVERSARIES))


def build_adversary(name: str, game: str, scheme, pop,
                    settings: RunSettings, leak: LeakSet):
    """The built-in adversary `name` for `game` ("al-irr", "pal-irr" or
    "unlink") on leak set `leak`, set up from `settings`: `pal-sampler` is
    sized from the template statistics `inverter_stats` chooses, `sampler`
    draws `sampler_queries` candidates.  `pal-sampler`, the one built-in
    with set-up work, refuses a leak set it cannot use before that work;
    the others refuse one when the game runs."""
    names = adversary_names(game)
    if name not in names:
        raise ConfigError(f"unknown adversary {name!r} for the {game} game; "
                          f"choose from {', '.join(names)}")
    s = settings
    if name.startswith("reduction("):
        inner = name[len("reduction(inner="):-1]
        return ReductionUnlinkAdversary(
            build_adversary(inner, "al-irr", scheme, pop, s, leak), s.tau)
    if name.startswith("cross-comparator"):
        return CrossComparatorAdversary(
            name[len("cross-comparator["):-1] or "match-test")
    if name in ("match-test", "appendix-b"):
        return MatchTestUnlinkAdversary()
    if name == "coin":
        return CoinFlipUnlinkAdversary()
    if name == "blind":
        best = (extremal_rmr(scheme, pop, s) if game == "pal-irr"
                else extremal_mr(pop, s.tau, s))
        return BlindArgmaxAdversary(best.witness)
    if name == "pal-sampler":
        _require_both(name, leak)
        stats, _ = inverter_stats(scheme, pop, s)
        return PalSamplerAdversary(
            PalSamplerConfig.from_stats(stats, s.delta, s.gamma))
    if name == "sampler":
        return SamplerIrrAdversary(s.sampler_queries)
    return ReadViewAdversary("pi" if name == "read-pi" else "alpha")
