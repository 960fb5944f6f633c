"""Challenger-adversary protocols for the irreversibility and
unlinkability games.

Each game follows the same shape: a setup phase hands the public
parameters to the adversary's first stage, the challenger prepares a
challenge from fresh captures, the adversary's second stage answers from
its leaked view.  All state between the stages travels through the
explicit state value returned by phase 1.  A trial that exhausts its
oracle budget counts as a loss and is flagged.

Two engines play the same protocol.  The batch engine plays an adversary
that has batch phases (every built-in the theorem checks use): a chunk of
`GAME_CHUNK` trials draws from three streams keyed by the chunk, for the
challenger, the adversary and the sampling oracles, and runs each step as
array operations on the scheme's batch contract.  One of its trials is
replayed by re-running its chunk.  The scalar engine plays any other
adversary, one trial at a time, each trial on its own three streams, so
one trial replays alone.  Either way a result depends only on (inputs,
seed, trials), never on how chunks were scheduled across workers.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import BudgetExceededError, ConfigError, ProtocolError
from .metrics import (
    AdvantageEstimate,
    MValue,
    absolute_advantage,
    extremal_mr,
    extremal_rmr,
    run_chunks,
)
from .population import (
    BatchSamplingOracle,
    FeatureElement,
    Population,
    SamplingOracle,
    hamming_distance,
)
from .rng import substream
from .schemes import REJECT, BtpScheme, LeakSet, ProtectedTemplate, PtView, leak_view

GAME_CHUNK = 512
_ROLES = ("ch", "adv", "samp")


@dataclass(frozen=True)
class GameParams:
    """Public game parameters handed to adversaries.

    The population model (user count, noise level, distribution family)
    is public; only the challenger's draws are secret.
    """

    scheme: BtpScheme
    population: Population


class IrrAdversary(ABC):
    """Two-stage inversion adversary.

    Stateless by contract: anything phase 2 needs must be in the state
    value phase 1 returns.

    An adversary may also play a chunk of trials at once, with
    `phase1_batch(params, leak, tau, oracle, rng)` and
    `phase2_batch(state, view, oracle, rng)`.  The oracle is a
    `BatchSamplingOracle` over the chunk's `oracle.trials` trials, the
    view's fields are arrays of template codes (None where hidden), and
    phase 2 returns one packed guess per trial.  Its state holds nothing
    per trial: phase 2 may be called on a subset of the trials.
    """

    name = "irr-adversary"

    @abstractmethod
    def phase1(self, params: GameParams, leak: LeakSet, tau, oracle, rng):
        """Receive the public parameters, optionally probe the oracle,
        return the state for phase 2.  `tau` is None in the
        pseudo-authorized-leakage variant."""

    @abstractmethod
    def phase2(self, state, view: PtView, oracle, rng) -> FeatureElement:
        """Receive the leaked view, return the feature-element guess."""


class UnlinkAdversary(ABC):
    """Two-stage distinguishing adversary for the unlinkability game.

    Its batch phases, if any, are `phase1_batch(params, leak, oracle,
    rng)`, returning packed (x, x0, x1) arrays and a state, and
    `phase2_batch(state, view, view_prime, oracle, rng)`, returning one
    bit per trial (see `IrrAdversary`).
    """

    name = "unlink-adversary"

    @abstractmethod
    def phase1(self, params: GameParams, leak: LeakSet, oracle, rng):
        """Return (x, x0, x1, state); the challenger encodes x and x_b."""

    @abstractmethod
    def phase2(self, state, view: PtView, view_prime: PtView, oracle, rng) -> int:
        """Return the guessed bit."""


@dataclass(frozen=True, eq=False)
class GameResult:
    """Outcome of a game run: counts, rates, advantage, query accounting."""

    game: str
    leak: str
    trials: int
    wins: int
    win_rate: AdvantageEstimate
    advantage: AdvantageEstimate
    baseline: float | None
    baseline_mode: str | None
    flagged: int
    queries: dict
    adversary: str
    transcript_digests: list | None = None

    def to_dict(self) -> dict:
        out = {
            "game": self.game,
            "lambda": self.leak,
            "adversary": self.adversary,
            "trials": self.trials,
            "wins": self.wins,
            "win_rate": self.win_rate.to_dict(),
            "advantage": self.advantage.to_dict(),
            "flagged": self.flagged,
            "queries": dict(self.queries),
        }
        if self.baseline is not None:
            out["baseline"] = self.baseline
            out["baseline_mode"] = self.baseline_mode
            if self.baseline_mode != "exact":
                out["baseline_warning"] = (
                    "baseline is a candidate-set lower bound; the advantage "
                    "may be overstated"
                )
        return out


def _canon(obj) -> str:
    if obj is REJECT:
        return "REJECT"
    if isinstance(obj, FeatureElement):
        return f"fe:{str(obj)}"
    if isinstance(obj, bytes):
        return f"b:{obj.hex()}"
    if obj is None:
        return "-"
    if isinstance(obj, (int, np.integer)):
        return f"i:{int(obj)}"
    raise ProtocolError(f"cannot canonicalize {type(obj).__name__} for transcripts")


def _transcript_digest(*parts) -> str:
    data = "|".join(_canon(p) if not isinstance(p, str) else p for p in parts)
    return hashlib.blake2b(data.encode(), digest_size=12).hexdigest()


# --------------------------------------------------------------------------
# trial machinery


def _owner(cls, name):
    return next((c for c in cls.__mro__ if name in c.__dict__), object)


def runs_batched(adversary) -> bool:
    """Whether the batch engine plays `adversary`.

    It must define `phase1_batch` and `phase2_batch` no higher in its class
    tree than the scalar phases they mirror, so that a subclass overriding
    only a scalar phase is played by the scalar engine; an adversary that
    wraps an `inner` one also needs the inner one batched.
    """
    cls = type(adversary)
    for phase in ("phase1", "phase2"):
        batch = _owner(cls, phase + "_batch")
        if batch is object or not issubclass(batch, _owner(cls, phase)):
            return False
    inner = getattr(adversary, "inner", None)
    return inner is None or runs_batched(inner)


def _chunk_streams(seed, label, lo):
    """Challenger, adversary and sampling streams of the chunk at `lo`."""
    return [substream(seed, label, lo // GAME_CHUNK, role) for role in _ROLES]


def _step(trace, name):
    if trace is not None:
        trace.append(name)


def _fe(n, value) -> str:
    return _canon(FeatureElement(n, int(value)))


@dataclass
class _IrrSpec:
    """Inversion trials, scored once for every win rule.

    Each trial records the Hamming distance of the guess to the challenge
    feature (-1 where the budget cut the trial) and, when `score_pic` is
    set, whether the comparator accepts the guess against the challenge
    template.  Exact recovery (d = 0), within-tau (d <= tau) and
    acceptance wins are reductions over those arrays.  `tau` is None in
    the pseudo-authorized-leakage variant.
    """

    scheme: BtpScheme
    pop: Population
    leak: LeakSet
    tau: int | None
    adversary: IrrAdversary
    budget: int
    label: str
    score_pic: bool
    record: bool = False

    def run_range(self, seed, lo, hi, trace=None):
        if runs_batched(self.adversary):
            return self._run_batch(seed, lo, hi, trace)
        params = GameParams(self.scheme, self.pop)
        dist = np.full(hi - lo, -1, dtype=np.int64)
        accepted = np.zeros(hi - lo, dtype=bool)
        flagged = np.zeros(hi - lo, dtype=bool)
        queries = {"adv_phase1": 0, "adv_phase2": 0, "challenger": 0}
        transcripts = [] if self.record else None
        for i in range(lo, hi):
            rng_ch = substream(seed, self.label, i, "ch")
            rng_adv = substream(seed, self.label, i, "adv")
            rng_samp = substream(seed, self.label, i, "samp")
            oracle1 = SamplingOracle(self.pop, rng_samp, self.budget)
            oracle2 = SamplingOracle(self.pop, rng_samp, self.budget)
            oracle_ch = SamplingOracle(self.pop, rng_ch, self.budget)
            guess = None
            x = None
            try:
                _step(trace, "phase1")
                state = self.adversary.phase1(params, self.leak, self.tau,
                                              oracle1, rng_adv)
                _step(trace, "challenge")
                u = int(rng_ch.integers(self.pop.num_users))
                x = oracle_ch.sample(u)
                pt = self.scheme.pie(x, rng_ch)
                view = leak_view(pt, self.leak)
                _step(trace, "phase2")
                guess = self.adversary.phase2(state, view, oracle2, rng_adv)
                _step(trace, "decide")
                dist[i - lo] = hamming_distance(x, guess)
                if self.score_pic:
                    accepted[i - lo] = self.scheme.pic(
                        pt.pi, self.scheme.pir(pt.alpha, guess))
            except BudgetExceededError:
                flagged[i - lo] = True
            queries["adv_phase1"] += oracle1.query_count
            queries["adv_phase2"] += oracle2.query_count
            queries["challenger"] += oracle_ch.query_count
            if transcripts is not None:
                transcripts.append((_canon(x), _canon(guess)))
        return dist, accepted, flagged, queries, transcripts

    def _run_batch(self, seed, lo, hi, trace):
        m = hi - lo
        rng_ch, rng_adv, rng_samp = _chunk_streams(seed, self.label, lo)
        oracle1 = BatchSamplingOracle(self.pop, rng_samp, self.budget, m)
        oracle2 = BatchSamplingOracle(self.pop, rng_samp, self.budget, m)
        _step(trace, "phase1")
        state = self.adversary.phase1_batch(GameParams(self.scheme, self.pop),
                                            self.leak, self.tau, oracle1,
                                            rng_adv)
        _step(trace, "challenge")
        users = rng_ch.integers(self.pop.num_users, size=m)
        x = self.pop.sample_batch(users, rng_ch)
        pi, alpha = self.scheme.pie_batch(x, rng_ch)
        view = leak_view(ProtectedTemplate(pi, alpha), self.leak)
        _step(trace, "phase2")
        guess = np.asarray(self.adversary.phase2_batch(state, view, oracle2,
                                                       rng_adv)).astype(np.uint64)
        _step(trace, "decide")
        if guess.shape != (m,) or (guess >> np.uint64(self.pop.n)).any():
            raise ProtocolError(f"need {m} packed {self.pop.n}-bit guesses")
        cut1 = oracle1.cut          # such a trial never reached the challenge
        flagged = cut1 | oracle2.cut
        dist = np.where(flagged, -1, np.bitwise_count(x ^ guess)).astype(np.int64)
        accepted = np.zeros(m, dtype=bool)
        if self.score_pic:
            vid = self.scheme.pir_batch(alpha, guess)
            accepted = self.scheme.pic_batch(pi, vid) & ~flagged
        queries = {"adv_phase1": int(oracle1.counts.sum()),
                   "adv_phase2": int(oracle2.counts[~cut1].sum()),
                   "challenger": int(m - cut1.sum())}
        transcripts = None
        if self.record:
            n = self.pop.n
            transcripts = [("-" if c else _fe(n, xi), "-" if f else _fe(n, g))
                           for c, f, xi, g in zip(cut1, flagged, x, guess)]
        return dist, accepted, flagged, queries, transcripts


@dataclass
class _UnlinkSpec:
    scheme: BtpScheme
    pop: Population
    leak: LeakSet
    adversary: UnlinkAdversary
    budget: int
    label: str
    force_b: int | None = None
    record: bool = False

    def run_range(self, seed, lo, hi, trace=None):
        if runs_batched(self.adversary):
            return self._run_batch(seed, lo, hi, trace)
        params = GameParams(self.scheme, self.pop)
        wins = np.zeros(hi - lo, dtype=bool)
        answers = np.zeros(hi - lo, dtype=np.int8)
        flagged = np.zeros(hi - lo, dtype=bool)
        queries = {"adv_phase1": 0, "adv_phase2": 0, "challenger": 0}
        digests = [] if self.record else None
        for i in range(lo, hi):
            rng_ch = substream(seed, self.label, i, "ch")
            rng_adv = substream(seed, self.label, i, "adv")
            rng_samp = substream(seed, self.label, i, "samp")
            oracle1 = SamplingOracle(self.pop, rng_samp, self.budget)
            oracle2 = SamplingOracle(self.pop, rng_samp, self.budget)
            win = False
            b_prime = -1
            b = -1
            try:
                _step(trace, "phase1")
                x, x0, x1, state = self.adversary.phase1(params, self.leak,
                                                         oracle1, rng_adv)
                _step(trace, "challenge")
                b = int(rng_ch.integers(2)) if self.force_b is None else self.force_b
                pt = self.scheme.pie(x, rng_ch)
                pt_prime = self.scheme.pie(x0 if b == 0 else x1, rng_ch)
                view = leak_view(pt, self.leak)
                view_prime = leak_view(pt_prime, self.leak)
                _step(trace, "phase2")
                b_prime = self.adversary.phase2(state, view, view_prime,
                                                oracle2, rng_adv)
                _step(trace, "decide")
                if b_prime not in (0, 1):
                    raise ProtocolError(f"guess must be 0 or 1, got {b_prime!r}")
                win = b_prime == b
            except BudgetExceededError:
                flagged[i - lo] = True
            wins[i - lo] = win
            answers[i - lo] = b_prime
            queries["adv_phase1"] += oracle1.query_count
            queries["adv_phase2"] += oracle2.query_count
            if digests is not None:
                digests.append(_transcript_digest(f"b{b}", f"g{b_prime}",
                                                  "w" if win else "l"))
        return wins, answers, flagged, queries, digests

    def _run_batch(self, seed, lo, hi, trace):
        m = hi - lo
        rng_ch, rng_adv, rng_samp = _chunk_streams(seed, self.label, lo)
        oracle1 = BatchSamplingOracle(self.pop, rng_samp, self.budget, m)
        oracle2 = BatchSamplingOracle(self.pop, rng_samp, self.budget, m)
        _step(trace, "phase1")
        x, x0, x1, state = self.adversary.phase1_batch(
            GameParams(self.scheme, self.pop), self.leak, oracle1, rng_adv)
        _step(trace, "challenge")
        b = (rng_ch.integers(2, size=m) if self.force_b is None
             else np.full(m, self.force_b))
        pis, alphas = self.scheme.pie_batch(
            np.stack([x, np.where(b == 0, x0, x1)], axis=1), rng_ch)
        view, view_prime = (leak_view(ProtectedTemplate(pis[:, j], alphas[:, j]),
                                      self.leak) for j in (0, 1))
        _step(trace, "phase2")
        b_prime = np.asarray(self.adversary.phase2_batch(
            state, view, view_prime, oracle2, rng_adv))
        _step(trace, "decide")
        cut1 = oracle1.cut          # such a trial never reached the challenge
        flagged = cut1 | oracle2.cut
        if b_prime.shape != (m,):
            raise ProtocolError(f"need {m} guesses, got shape {b_prime.shape}")
        bad = ~flagged & (b_prime != 0) & (b_prime != 1)
        if bad.any():
            raise ProtocolError(f"guess must be 0 or 1, got {b_prime[bad][0]!r}")
        answers = np.where(flagged, -1, b_prime).astype(np.int8)
        wins = answers == b
        queries = {"adv_phase1": int(oracle1.counts.sum()),
                   "adv_phase2": int(oracle2.counts[~cut1].sum()),
                   "challenger": 0}
        digests = None
        if self.record:
            shown_b = np.where(cut1, -1, b)
            digests = [_transcript_digest(f"b{bb}", f"g{g}", "w" if w else "l")
                       for bb, g, w in zip(shown_b, answers, wins)]
        return wins, answers, flagged, queries, digests


def _run_spec(spec, trials, seed, jobs):
    if spec.budget < 1:
        raise ConfigError(f"query_budget must be >= 1, got {spec.budget}")
    return run_chunks(partial(spec.run_range, seed), trials, GAME_CHUNK, jobs)


def _merge_queries(parts_queries):
    out = {}
    for q in parts_queries:
        for k, v in q.items():
            out[k] = out.get(k, 0) + v
    return out


@dataclass(frozen=True, eq=False)
class _IrrRecord:
    """Per-trial arrays of an `_IrrSpec` run, merged over its chunks."""

    dist: np.ndarray
    accepted: np.ndarray
    flagged: np.ndarray
    queries: dict
    transcripts: list | None

    def within(self, tau: int) -> np.ndarray:
        return (self.dist >= 0) & (self.dist <= tau)


def _run_irr(spec: _IrrSpec, trials, seed, jobs) -> _IrrRecord:
    parts = _run_spec(spec, trials, seed, jobs)
    return _IrrRecord(
        dist=np.concatenate([p[0] for p in parts]),
        accepted=np.concatenate([p[1] for p in parts]),
        flagged=np.concatenate([p[2] for p in parts]),
        queries=_merge_queries(p[3] for p in parts),
        transcripts=[t for p in parts for t in p[4]] if spec.record else None,
    )


# --------------------------------------------------------------------------
# public game runners


def run_al_irr_game(scheme, pop, leak: LeakSet, tau: int, adversary: IrrAdversary,
                    trials: int, seed: int = 0, baseline: MValue | None = None,
                    budget: int = 10**6, level: float = 0.95, jobs: int = 1,
                    record_transcripts: bool = False) -> GameResult:
    """Authorized-leakage inversion game: win when the guess lands within
    tau of the challenge feature.  Advantage is the win rate minus the
    best blind success rate m (signed)."""
    if tau < 0:
        raise ConfigError("tau must be >= 0")
    if baseline is None:
        baseline = extremal_mr(pop, tau)
    spec = _IrrSpec(scheme, pop, leak, tau, adversary, budget,
                    f"al{tau}:{leak}", score_pic=False, record=record_transcripts)
    rec = _run_irr(spec, trials, seed, jobs)
    return _irr_result("al-irr", spec, rec, rec.within(tau), level, baseline)


def run_pal_irr_game(scheme, pop, leak: LeakSet, adversary: IrrAdversary,
                     trials: int, seed: int = 0, baseline: MValue | None = None,
                     budget: int = 10**6, level: float = 0.95, jobs: int = 1,
                     record_transcripts: bool = False) -> GameResult:
    """Pseudo-authorized-leakage variant: win when the comparator accepts
    the guess against the challenge template (full template retained by
    the challenger regardless of the leak set)."""
    if baseline is None:
        baseline = extremal_rmr(scheme, pop)
    spec = _IrrSpec(scheme, pop, leak, None, adversary, budget,
                    f"pal:{leak}", score_pic=True, record=record_transcripts)
    rec = _run_irr(spec, trials, seed, jobs)
    return _irr_result("pal-irr", spec, rec, rec.accepted, level, baseline)


def _irr_result(game, spec, rec: _IrrRecord, wins: np.ndarray, level,
                baseline) -> GameResult:
    digests = None
    if rec.transcripts is not None:
        digests = [_transcript_digest(x, guess, "w" if w else "l")
                   for (x, guess), w in zip(rec.transcripts, wins)]
    win_rate = AdvantageEstimate.from_counts(
        int(wins.sum()), len(wins), level,
        queries_used=rec.queries["adv_phase1"] + rec.queries["adv_phase2"])
    return GameResult(
        game=game, leak=str(spec.leak), trials=len(wins), wins=int(wins.sum()),
        win_rate=win_rate, advantage=win_rate.shifted(-baseline.value),
        baseline=baseline.value, baseline_mode=baseline.mode,
        flagged=int(rec.flagged.sum()), queries=rec.queries,
        adversary=getattr(spec.adversary, "name", "custom"),
        transcript_digests=digests,
    )


def run_unlink_game(scheme, pop, leak: LeakSet, adversary: UnlinkAdversary,
                    trials: int, seed: int = 0, budget: int = 10**6,
                    level: float = 0.95, jobs: int = 1,
                    record_transcripts: bool = False) -> GameResult:
    """Distinguishing game: the challenger encodes x and x_b; the adversary
    guesses b from the two leaked views.  Advantage is |2*win_rate - 1|."""
    spec = _UnlinkSpec(scheme, pop, leak, adversary, budget,
                       f"unlink:{leak}", record=record_transcripts)
    parts = _run_spec(spec, trials, seed, jobs)
    wins = int(sum(p[0].sum() for p in parts))
    flagged = int(sum(p[2].sum() for p in parts))
    queries = _merge_queries(p[3] for p in parts)
    digests = None
    if record_transcripts:
        digests = [d for p in parts for d in p[4]]
    win_rate = AdvantageEstimate.from_counts(
        wins, trials, level,
        queries_used=queries["adv_phase1"] + queries["adv_phase2"])
    return GameResult(
        game="unlink", leak=str(leak), trials=trials, wins=wins,
        win_rate=win_rate, advantage=absolute_advantage(win_rate),
        baseline=None, baseline_mode=None, flagged=flagged, queries=queries,
        adversary=getattr(adversary, "name", "custom"),
        transcript_digests=digests,
    )


@dataclass(frozen=True, eq=False)
class CrossMatchResult:
    """Cross-comparator error rates and the advantage identity check."""

    fcmr: AdvantageEstimate
    fncmr: AdvantageEstimate
    identity_advantage: float
    unlink_advantage: AdvantageEstimate
    identity_gap: float

    def to_dict(self) -> dict:
        return {
            "fcmr": self.fcmr.to_dict(),
            "fncmr": self.fncmr.to_dict(),
            "identity_advantage": self.identity_advantage,
            "unlink_advantage": self.unlink_advantage.to_dict(),
            "identity_gap": self.identity_gap,
        }


def est_cross_match_rates(scheme, pop, leak: LeakSet, comparator: UnlinkAdversary,
                          trials: int, seed: int = 0, budget: int = 10**6,
                          level: float = 0.95, jobs: int = 1) -> CrossMatchResult:
    """False cross-match / false non-cross-match rates of a comparator.

    FCMR conditions on non-mated challenges (b = 1) and counts answers of
    0; FNCMR conditions on mated challenges (b = 0) and counts answers of
    1.  |1 - (FCMR + FNCMR)| must agree with the comparator's own
    unlinkability advantage, which is measured independently and returned
    alongside.
    """
    if pop.num_users < 2:
        raise ConfigError("cross-comparison needs at least two users")
    results = {}
    for b, label in ((1, "fcmr"), (0, "fncmr")):
        spec = _UnlinkSpec(scheme, pop, leak, comparator, budget,
                           f"cross:{label}:{leak}", force_b=b)
        parts = _run_spec(spec, trials, seed, jobs)
        answers = np.concatenate([p[1] for p in parts])
        false_answer = 0 if b == 1 else 1
        count = int((answers == false_answer).sum())
        queries = _merge_queries(p[3] for p in parts)
        results[label] = AdvantageEstimate.from_counts(
            count, trials, level,
            queries_used=queries["adv_phase1"] + queries["adv_phase2"])
    identity = abs(1.0 - (results["fcmr"].point + results["fncmr"].point))
    game = run_unlink_game(scheme, pop, leak, comparator, trials,
                           seed=seed + 1, budget=budget, level=level, jobs=jobs)
    return CrossMatchResult(
        fcmr=results["fcmr"], fncmr=results["fncmr"],
        identity_advantage=identity,
        unlink_advantage=game.advantage,
        identity_gap=abs(identity - game.advantage.point),
    )


# --------------------------------------------------------------------------
# coupled trials for the irreversibility relation checks


@dataclass(frozen=True, eq=False)
class CoupledIrrResult:
    """Per-trial win indicators of the three win rules on one transcript.

    Each trial runs the authorized-leakage protocol once; the exact guess
    is then scored against d <= 0, d <= tau, and comparator acceptance, so
    the inclusion checks carry no sampling slack at all.
    """

    tau: int
    trials: int
    wins_fl: np.ndarray
    wins_al: np.ndarray
    wins_pal: np.ndarray
    flagged: int

    @property
    def rates(self) -> dict:
        t = self.trials
        return {
            "fl": self.wins_fl.sum() / t,
            "al": self.wins_al.sum() / t,
            "pal": self.wins_pal.sum() / t,
        }

    def inclusion_violations(self) -> dict:
        return {
            "fl_subset_al": int((self.wins_fl & ~self.wins_al).sum()),
            "al_subset_pal": int((self.wins_al & ~self.wins_pal).sum()),
        }


def run_coupled_irr_trials(scheme, pop, leak: LeakSet, tau: int,
                           adversary: IrrAdversary, trials: int, seed: int = 0,
                           budget: int = 10**6, jobs: int = 1) -> CoupledIrrResult:
    """One authorized-leakage transcript per trial, scored under all three
    win rules with shared randomness."""
    spec = _IrrSpec(scheme, pop, leak, tau, adversary, budget,
                    f"coupled{tau}:{leak}", score_pic=True)
    rec = _run_irr(spec, trials, seed, jobs)
    return CoupledIrrResult(
        tau=tau,
        trials=trials,
        wins_fl=rec.within(0),
        wins_al=rec.within(tau),
        wins_pal=rec.accepted,
        flagged=int(rec.flagged.sum()),
    )


def trace_irr_trial(scheme, pop, leak: LeakSet, tau, adversary: IrrAdversary,
                    seed: int = 0, pal: bool = False, budget: int = 10**6) -> list:
    """Step order of a single inversion-game trial, for fidelity checks."""
    spec = _IrrSpec(scheme, pop, leak, None if pal else tau, adversary, budget,
                    "trace", score_pic=pal)
    trace = []
    spec.run_range(seed, 0, 1, trace=trace)
    return trace


def trace_unlink_trial(scheme, pop, leak: LeakSet, adversary: UnlinkAdversary,
                       seed: int = 0, budget: int = 10**6) -> list:
    """Step order of a single unlinkability-game trial."""
    spec = _UnlinkSpec(scheme, pop, leak, adversary, budget, "trace")
    trace = []
    spec.run_range(seed, 0, 1, trace=trace)
    return trace
