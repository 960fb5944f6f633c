"""Challenger-adversary protocols for the irreversibility and
unlinkability games.

Each game follows the same shape: a setup phase hands the public
parameters to the adversary's first stage, the challenger prepares a
challenge from fresh captures, the adversary's second stage answers from
its leaked view.  All state between the stages travels through the
explicit state value returned by phase 1.  A trial that exhausts its
oracle budget is flagged; an inversion game counts it as a loss, and the
unlinkability game scores it on a fair coin.

One engine plays every adversary: a chunk of `metrics.CHUNK_TRIALS`
(4096) trials, the one chunk size of every Monte Carlo loop, draws from
three streams keyed by the chunk, for the challenger, the adversary and
the sampling oracles, and runs each step as array operations on the
scheme's batch contract.  An adversary implements only the batch pair of
phases, which plays a chunk of trials.

Each chunk returns one record of per-trial arrays: the game's own fields,
the flag, the queries charged to each role and, with
`record_transcripts`, each trial's transcript.  The records are joined in
trial order and scored once, so a result depends only on (inputs, seed,
trials), never on how chunks were scheduled across workers.  A trial is
replayed by re-running its chunk with `record_transcripts`.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod

import numpy as np

from .errors import ProtocolError, require_type
from .metrics import (
    CHUNK_TRIALS,
    AdvantageEstimate,
    MValue,
    RunSettings,
    _run_chunks,
    absolute_advantage,
    extremal_mr,
    extremal_rmr,
)
from .population import Population, SamplingOracle, bitstring
from .records import Record
from .rng import substream
from .schemes import BtpScheme, LeakSet, ProtectedTemplate, leak_view, require_same_n

_ROLES = ("ch", "adv", "samp")


class GameParams(Record):
    """Public game parameters handed to adversaries.

    The population model (user count, noise level, distribution family)
    is public; only the challenger's draws are secret.
    """

    scheme: BtpScheme
    population: Population


class IrrAdversary(ABC):
    """Two-stage inversion adversary, played a chunk of trials at a time.

    Stateless by contract: anything phase 2 needs must be in the state
    value phase 1 returns.  `phase1_batch(params, leak, tau, oracle, rng)`
    returns the state for `phase2_batch(state, view, oracle, rng)`, which
    returns one packed guess per trial.  `tau` is None in the
    pseudo-authorized-leakage variant.  The oracle is a `SamplingOracle`
    over the chunk's `oracle.trials` trials, which cuts (and so loses) a
    trial that passes `query_budget`.  A view is the challenge
    `ProtectedTemplate`, arrays of template codes, with the parts outside
    the leak set None.  Phase 2 may be called on a subset of the trials,
    so what the state holds per trial it keys by trial row
    (`oracle.rows`).
    """

    name = "irr-adversary"

    @abstractmethod
    def phase1_batch(self, params: GameParams, leak: LeakSet, tau, oracle,
                     rng):
        """Receive the public parameters, optionally probe the oracle,
        return the state for phase 2."""

    @abstractmethod
    def phase2_batch(self, state, view: ProtectedTemplate, oracle,
                     rng) -> np.ndarray:
        """Receive the leaked views, return the packed guesses."""


class UnlinkAdversary(ABC):
    """Two-stage distinguishing adversary for the unlinkability game.

    `phase1_batch(params, leak, oracle, rng)` returns packed (x, x0, x1)
    arrays and a state, and the challenger encodes x and x_b;
    `phase2_batch(state, view, view_prime, oracle, rng)` returns one bit
    per trial.  See `IrrAdversary` for the oracle and the views; a trial
    the oracle cuts is scored on a fair coin instead of its answer.
    """

    name = "unlink-adversary"

    @abstractmethod
    def phase1_batch(self, params: GameParams, leak: LeakSet, oracle, rng):
        """Return (x, x0, x1, state); the challenger encodes x and x_b."""

    @abstractmethod
    def phase2_batch(self, state, view: ProtectedTemplate,
                     view_prime: ProtectedTemplate, oracle, rng) -> np.ndarray:
        """Return the guessed bits."""


def _integers(answers, what) -> np.ndarray:
    """An adversary's answers as an array, refused unless of an integer
    dtype."""
    answers = np.asarray(answers)
    if answers.dtype.kind not in "iu":
        raise ProtocolError(f"{what} must be integers, got an array of "
                            f"{answers.dtype}")
    return answers


def _packed(features, m: int, n: int, what) -> np.ndarray:
    """An adversary's features as m packed n-bit uint64 values, refused
    unless they are integers of that shape and width."""
    features = _integers(features, what).astype(np.uint64)
    if features.shape != (m,) or (features >> np.uint64(n)).any():
        raise ProtocolError(f"need {m} packed {n}-bit {what}")
    return features


class GameResult(Record):
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

    # a result is equal only to itself
    __eq__, __hash__ = object.__eq__, object.__hash__

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


def _transcript_digest(*parts: str) -> str:
    return hashlib.blake2b("|".join(parts).encode(), digest_size=12).hexdigest()


# --------------------------------------------------------------------------
# trial machinery


def _fe(n, value) -> str:
    return f"fe:{bitstring(n, value)}"


class _GameSpec(Record):
    """A game's trials, played a chunk at a time by `run_range`.

    A chunk returns its record: a dict of per-trial arrays holding the
    game's own fields, `flagged`, the queries charged to each role
    (`adv_phase1`, `adv_phase2`, `challenger`) and, when `record` is set,
    the trial's `transcript` without its win mark.
    """

    scheme: BtpScheme
    pop: Population
    leak: LeakSet
    adversary: IrrAdversary | UnlinkAdversary
    settings: RunSettings
    label: str
    record: bool = False

    def _validate(self):
        require_same_n(self.scheme, self.pop)

    def _chunk(self, lo, hi):
        """The challenger and adversary streams of the chunk at `lo`, and
        one sampling oracle per phase, both on the chunk's sampling
        stream."""
        rng_ch, rng_adv, rng_samp = (
            substream(self.settings.seed, self.label, lo // CHUNK_TRIALS, role)
            for role in _ROLES)
        oracles = [SamplingOracle(self.pop, rng_samp,
                                  self.settings.query_budget, hi - lo)
                   for _ in range(2)]
        return rng_ch, rng_adv, oracles

    @staticmethod
    def _charges(oracle1, oracle2, challenger: int) -> dict:
        """`flagged` and the queries of each trial by role; the challenger
        charges `challenger` queries to a trial that reached the
        challenge."""
        cut1 = oracle1.cut          # such a trial never reached the challenge
        return {"flagged": cut1 | oracle2.cut,
                "adv_phase1": oracle1.counts,
                "adv_phase2": np.where(cut1, 0, oracle2.counts),
                "challenger": np.where(cut1, 0, challenger)}


class _IrrSpec(_GameSpec):
    """Inversion trials, scored once for every win rule.

    Each trial records the Hamming distance `dist` of the guess to the
    challenge feature (-1 where the budget cut the trial) and, when
    `score_pic` is set, whether the comparator `accepted` the guess
    against the challenge template.  Exact recovery (d = 0), within-tau
    (d <= tau) and acceptance wins are reductions over those arrays.
    `tau` is None in the pseudo-authorized-leakage variant.
    """

    tau: int | None
    score_pic: bool

    def _validate(self):
        super()._validate()
        if self.tau is not None:
            require_type("tau", self.tau, whole=True, least=0)

    def run_range(self, lo, hi) -> dict:
        m, n = hi - lo, self.pop.n
        rng_ch, rng_adv, (oracle1, oracle2) = self._chunk(lo, hi)
        state = self.adversary.phase1_batch(GameParams(self.scheme, self.pop),
                                            self.leak, self.tau, oracle1,
                                            rng_adv)
        users = rng_ch.integers(self.pop.num_users, size=m)
        x = self.pop.sample_batch(users, rng_ch)
        pi, alpha = self.scheme.pie_batch(x, rng_ch)
        view = leak_view(ProtectedTemplate(pi, alpha), self.leak)
        guess = _packed(self.adversary.phase2_batch(state, view, oracle2,
                                                    rng_adv), m, n, "guesses")
        rec = self._charges(oracle1, oracle2, challenger=1)
        flagged = rec["flagged"]
        rec["dist"] = np.where(flagged, -1, np.bitwise_count(x ^ guess)).astype(np.int64)
        rec["accepted"] = np.zeros(m, dtype=bool)
        if self.score_pic:
            vid = self.scheme.pir_batch(alpha, guess)
            rec["accepted"] = self.scheme.pic_batch(pi, vid) & ~flagged
        if self.record:
            rec["transcript"] = [
                f"{'-' if c else _fe(n, xi)}|{'-' if f else _fe(n, g)}"
                for c, f, xi, g in zip(oracle1.cut, flagged, x, guess)]
        return rec


class _UnlinkSpec(_GameSpec):
    """Distinguishing trials: the challenger encodes x and x_b, with b
    drawn per trial unless `force_b` fixes it.  Each trial records its
    `answers` (-1 where the budget cut the trial), the bit `scored`,
    which is the answer or, on a cut trial, a fair coin the challenger
    draws after the challenge, and `wins`."""

    force_b: int | None = None

    def run_range(self, lo, hi) -> dict:
        m = hi - lo
        rng_ch, rng_adv, (oracle1, oracle2) = self._chunk(lo, hi)
        *features, state = self.adversary.phase1_batch(
            GameParams(self.scheme, self.pop), self.leak, oracle1, rng_adv)
        x, x0, x1 = (_packed(f, m, self.pop.n, "challenge features")
                     for f in features)
        b = (rng_ch.integers(2, size=m) if self.force_b is None
             else np.full(m, self.force_b))
        pis, alphas = self.scheme.pie_batch(
            np.stack([x, np.where(b == 0, x0, x1)], axis=1), rng_ch)
        view, view_prime = (leak_view(ProtectedTemplate(pis[:, j], alphas[:, j]),
                                      self.leak) for j in (0, 1))
        b_prime = _integers(self.adversary.phase2_batch(
            state, view, view_prime, oracle2, rng_adv), "guessed bits")
        rec = self._charges(oracle1, oracle2, challenger=0)
        flagged = rec["flagged"]
        if b_prime.shape != (m,):
            raise ProtocolError(f"need {m} guesses, got shape {b_prime.shape}")
        bad = ~flagged & (b_prime != 0) & (b_prime != 1)
        if bad.any():
            raise ProtocolError(f"guess must be 0 or 1, got {b_prime[bad][0]!r}")
        rec["answers"] = np.where(flagged, -1, b_prime).astype(np.int8)
        rec["scored"] = rec["answers"].copy()
        if flagged.any():
            rec["scored"][flagged] = rng_ch.integers(2, size=flagged.sum())
        rec["wins"] = rec["scored"] == b
        if self.record:
            shown_b = np.where(oracle1.cut, -1, b)
            rec["transcript"] = [f"b{bb}|g{g}"
                                 for bb, g in zip(shown_b, rec["answers"])]
        return rec


def _run_spec(spec: _GameSpec) -> dict:
    """The game's record over all trials: each chunk's fields joined in
    trial order."""
    parts = _run_chunks(spec.run_range, spec.settings.trials, spec.settings.jobs)
    return {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}


def _game_result(game, spec: _GameSpec, rec: dict, wins: np.ndarray,
                 baseline: MValue | None = None) -> GameResult:
    """Score a record's `wins`: the win rate less the baseline's value, or
    |2 * win_rate - 1| without one."""
    queries = {role: int(rec[role].sum())
               for role in ("adv_phase1", "adv_phase2", "challenger")}
    win_rate = AdvantageEstimate.from_counts(
        int(wins.sum()), len(wins), spec.settings.level,
        queries_used=queries["adv_phase1"] + queries["adv_phase2"])
    digests = None
    if "transcript" in rec:
        digests = [_transcript_digest(t, "w" if w else "l")
                   for t, w in zip(rec["transcript"], wins)]
    return GameResult(
        game=game, leak=str(spec.leak), trials=len(wins), wins=int(wins.sum()),
        win_rate=win_rate,
        advantage=(absolute_advantage(win_rate) if baseline is None
                   else win_rate.shifted(-baseline.value)),
        baseline=None if baseline is None else baseline.value,
        baseline_mode=None if baseline is None else baseline.mode,
        flagged=int(rec["flagged"].sum()), queries=queries,
        adversary=getattr(spec.adversary, "name", "custom"),
        transcript_digests=digests,
    )


def _within(rec: dict, tau: int) -> np.ndarray:
    return (rec["dist"] >= 0) & (rec["dist"] <= tau)


# --------------------------------------------------------------------------
# public game runners


def run_al_irr_game(scheme, pop, leak: LeakSet, tau: int, adversary: IrrAdversary,
                    settings: RunSettings = RunSettings(),
                    record_transcripts: bool = False) -> GameResult:
    """Authorized-leakage inversion game: win when the guess lands within
    tau of the challenge feature.  Advantage is the win rate minus the
    best blind success rate m (signed)."""
    spec = _IrrSpec(scheme, pop, leak, adversary, settings, f"al{tau}:{leak}",
                    tau=tau, score_pic=False, record=record_transcripts)
    baseline = extremal_mr(pop, tau, settings)
    rec = _run_spec(spec)
    return _game_result("al-irr", spec, rec, _within(rec, tau), baseline)


def run_pal_irr_game(scheme, pop, leak: LeakSet, adversary: IrrAdversary,
                     settings: RunSettings = RunSettings(),
                     record_transcripts: bool = False) -> GameResult:
    """Pseudo-authorized-leakage variant: win when the comparator accepts
    the guess against the challenge template (full template retained by
    the challenger regardless of the leak set)."""
    baseline = extremal_rmr(scheme, pop, settings)
    spec = _IrrSpec(scheme, pop, leak, adversary, settings, f"pal:{leak}",
                    tau=None, score_pic=True, record=record_transcripts)
    rec = _run_spec(spec)
    return _game_result("pal-irr", spec, rec, rec["accepted"], baseline)


def run_unlink_game(scheme, pop, leak: LeakSet, adversary: UnlinkAdversary,
                    settings: RunSettings = RunSettings(),
                    record_transcripts: bool = False) -> GameResult:
    """Distinguishing game: the challenger encodes x and x_b; the adversary
    guesses b from the two leaked views.  Advantage is |2*win_rate - 1|."""
    spec = _UnlinkSpec(scheme, pop, leak, adversary, settings, f"unlink:{leak}",
                       record=record_transcripts)
    rec = _run_spec(spec)
    return _game_result("unlink", spec, rec, rec["wins"])


class CrossMatchResult(Record):
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
                          settings: RunSettings = RunSettings()) -> CrossMatchResult:
    """False cross-match / false non-cross-match rates of a comparator.

    FCMR conditions on non-mated challenges (b = 1) and counts answers of
    0; FNCMR conditions on mated challenges (b = 0) and counts answers of
    1.  A trial the budget cut is scored on the fair coin the game gives
    it.  |1 - (FCMR + FNCMR)| must agree with the comparator's own
    unlinkability advantage, which is measured independently, on seed
    `settings.seed + 1`, and returned alongside.
    """
    results = {}
    for b, label in ((1, "fcmr"), (0, "fncmr")):
        spec = _UnlinkSpec(scheme, pop, leak, comparator, settings,
                           f"cross:{label}:{leak}", force_b=b)
        rec = _run_spec(spec)
        false_answer = 0 if b == 1 else 1
        results[label] = _game_result(label, spec, rec,
                                      rec["scored"] == false_answer).win_rate
    identity = abs(1.0 - (results["fcmr"].point + results["fncmr"].point))
    game = run_unlink_game(scheme, pop, leak, comparator,
                           settings.replace(seed=settings.seed + 1))
    return CrossMatchResult(
        fcmr=results["fcmr"], fncmr=results["fncmr"],
        identity_advantage=identity,
        unlink_advantage=game.advantage,
        identity_gap=abs(identity - game.advantage.point),
    )


# --------------------------------------------------------------------------
# coupled trials for the irreversibility relation checks


class CoupledIrrResult(Record):
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

    # a result is equal only to itself
    __eq__, __hash__ = object.__eq__, object.__hash__

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
                           adversary: IrrAdversary,
                           settings: RunSettings = RunSettings()) -> CoupledIrrResult:
    """One authorized-leakage transcript per trial, scored under all three
    win rules with shared randomness."""
    spec = _IrrSpec(scheme, pop, leak, adversary, settings,
                    f"coupled{tau}:{leak}", tau=tau, score_pic=True)
    rec = _run_spec(spec)
    return CoupledIrrResult(
        tau=tau,
        trials=settings.trials,
        wins_fl=_within(rec, 0),
        wins_al=_within(rec, tau),
        wins_pal=rec["accepted"],
        flagged=int(rec["flagged"].sum()),
    )
