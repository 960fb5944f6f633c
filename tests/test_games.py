"""Game protocol mechanics: fidelity, budgets, determinism, known rates,
and the built-ins' batch phases against their scalar twins and the exact
oracles."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from btpeval import adversaries, exact, games, metrics
from btpeval.adversaries import (
    BlindArgmaxAdversary,
    CoinFlipUnlinkAdversary,
    CrossComparatorAdversary,
    MatchTestUnlinkAdversary,
    PalSamplerAdversary,
    PalSamplerConfig,
    ReadViewAdversary,
    ReductionUnlinkAdversary,
    SamplerIrrAdversary,
    build_adversary,
)
from btpeval.errors import ConfigError, ContractError, ProtocolError
from btpeval.games import (
    GameParams,
    IrrAdversary,
    UnlinkAdversary,
    est_cross_match_rates,
    run_al_irr_game,
    run_coupled_irr_trials,
    run_pal_irr_game,
    run_unlink_game,
)
from btpeval.metrics import RunSettings
from btpeval.population import Population, SamplingOracle, generate_population
from btpeval.rng import substream
from btpeval.schemes import (
    LEAK_AD,
    LEAK_BOTH,
    LEAK_PI,
    FuzzyCommitmentScheme,
    PlaintextScheme,
    RotationScheme,
    build_scheme,
)
from reference_adversaries import scalar_twin
from reference_exact import sampler_al_irr_win_rate
from reference_results import half_width, plug_in_se
from reference_schemes import rotate
from reference_trials import TrialIrrAdversary, TrialUnlinkAdversary
from toy_schemes import LotteryScheme


def engines(adversary):
    """A built-in adversary and its scalar twin, which the per-trial
    driver plays trial by trial."""
    return {"batch": adversary, "scalar": scalar_twin(adversary)}


class GreedySampler(TrialIrrAdversary):
    """Queries past any budget; used to exercise the abort path."""

    name = "greedy"

    def phase1(self, params, leak, tau, oracle, rng):
        return None

    def phase2(self, state, view, oracle, rng):
        while True:
            oracle.sample(0)


class BadBitAdversary(TrialUnlinkAdversary):
    name = "bad-bit"

    def phase1(self, params, leak, oracle, rng):
        x = oracle.sample(0)
        return x, x, x, None

    def phase2(self, state, view, view_prime, oracle, rng):
        return 2


class ThriftyIrr(TrialIrrAdversary):
    """Asks for 0-3 captures in each phase, so a budget of 2 cuts some
    trials before the challenge, some after it, and leaves the rest."""

    name = "thrifty"

    def phase1(self, params, leak, tau, oracle, rng):
        for _ in range(int(rng.integers(4))):
            oracle.sample(0)

    def phase2(self, state, view, oracle, rng):
        guess = 0
        for _ in range(int(rng.integers(4))):
            guess = oracle.sample(int(rng.integers(16)))
        return guess


class ThriftyUnlink(TrialUnlinkAdversary):
    """Asks for 3-5 captures in phase 1 and 0-5 in phase 2: a budget of 4
    cuts trials in either phase."""

    name = "thrifty"

    def phase1(self, params, leak, oracle, rng):
        for _ in range(int(rng.integers(3))):
            oracle.sample(0)
        x, x0, x1 = (oracle.sample(int(u)) for u in rng.integers(16, size=3))
        return x, x0, x1, None

    def phase2(self, state, view, view_prime, oracle, rng):
        for _ in range(int(rng.integers(6))):
            oracle.sample(0)
        return int(rng.integers(2))


def transcripts_digest(result):
    text = "".join(result.transcript_digests)
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


class UnrotateAdversary(TrialUnlinkAdversary):
    """Rotation-specific distinguisher: invert the leaked template and
    compare with the submitted features."""

    name = "unrotate"

    def phase1(self, params, leak, oracle, rng):
        pop = params.population
        users = [int(rng.integers(pop.num_users)) for _ in range(3)]
        x, x0, x1 = (oracle.sample(u) for u in users)
        return x, x0, x1, (pop.n, x0, x1)

    def phase2(self, state, view, view_prime, oracle, rng):
        n, x0, x1 = state
        recovered = rotate(n, int(view_prime.pi), -int(view_prime.alpha))
        if recovered == x0:
            return 0
        if recovered == x1:
            return 1
        return int(rng.integers(2))


class RecordingFc(FuzzyCommitmentScheme):
    """fc that logs each call of `pie_batch` and `pic_batch`."""

    def __init__(self, code, log):
        super().__init__(code)
        self.log = log

    def pie_batch(self, *args):
        self.log.append("pie_batch")
        return super().pie_batch(*args)

    def pic_batch(self, *args):
        self.log.append("pic_batch")
        return super().pic_batch(*args)


def logging_phases(adversary, log):
    """The adversary, with each call of a batch phase logged."""
    for phase in ("phase1", "phase2"):
        play = getattr(adversary, f"{phase}_batch")

        def logged(*args, phase=phase, play=play):
            log.append(phase)
            return play(*args)

        setattr(adversary, f"{phase}_batch", logged)
    return adversary


class TestProtocolFidelity:
    @pytest.mark.parametrize("engine", ["batch", "scalar"])
    def test_protocol_order_seen_from_outside(self, fc_scheme, default_pop,
                                              engine):
        # the adversaries chosen never call the scheme themselves, and fc's
        # blind baselines come from its match law, not from scheme calls,
        # so the log holds the phases and the challenger's encoding and
        # decision only
        log = []
        scheme = RecordingFc(fc_scheme.code, log)
        pop = default_pop

        def adversary(adv):
            return logging_phases(engines(adv)[engine], log)

        runs = {
            "al-irr": lambda: run_al_irr_game(
                scheme, pop, LEAK_PI, 1, adversary(
                    BlindArgmaxAdversary(metrics.extremal_mr(pop, 1).witness)),
                RunSettings(trials=3, seed=0)),
            "pal-irr": lambda: run_pal_irr_game(
                scheme, pop, LEAK_BOTH,
                adversary(BlindArgmaxAdversary(5)),
                RunSettings(trials=3, seed=0)),
            "unlink": lambda: run_unlink_game(
                scheme, pop, LEAK_BOTH, adversary(CoinFlipUnlinkAdversary()),
                RunSettings(trials=3, seed=0)),
        }
        decisions = {"al-irr": [], "pal-irr": ["pic_batch"], "unlink": []}
        for game, run in runs.items():
            log.clear()
            run()
            assert log == ["phase1", "pie_batch", "phase2",
                           *decisions[game]], game

    def test_bad_guess_bit_raises(self, fc_scheme, default_pop):
        with pytest.raises(ProtocolError):
            run_unlink_game(fc_scheme, default_pop, LEAK_BOTH, BadBitAdversary(),
                            RunSettings(trials=3, seed=0))

    @pytest.mark.parametrize("answer", [
        lambda m: np.full(m, 2), lambda m: np.full(m, 1.0), lambda m: None,
        lambda m: np.array([1] * m, dtype=object)],
        ids=["two", "float", "none", "objects"])
    def test_batch_guess_bit_checked(self, fc_scheme, default_pop, answer):
        class BadBatchBit(CoinFlipUnlinkAdversary):
            def phase2_batch(self, state, view, view_prime, oracle, rng):
                return answer(oracle.trials)

        with pytest.raises(ProtocolError):
            run_unlink_game(fc_scheme, default_pop, LEAK_BOTH, BadBatchBit(),
                            RunSettings(trials=3, seed=0))

    @pytest.mark.parametrize("feature", [
        lambda m: np.full(m, 1 << 7), lambda m: np.full(m, -1),
        lambda m: np.full(m, 3.7), lambda m: None,
        lambda m: np.zeros(m + 1, dtype=np.uint64)],
        ids=["wide", "negative", "float", "none", "long"])
    def test_batch_challenge_features_checked(self, fc_scheme, default_pop,
                                              feature):
        class BadFeature(CoinFlipUnlinkAdversary):
            def phase1_batch(self, params, leak, oracle, rng):
                x, x0, x1, state = super().phase1_batch(params, leak, oracle,
                                                        rng)
                return x, feature(oracle.trials), x1, state

        with pytest.raises(ProtocolError, match="challenge features"):
            run_unlink_game(fc_scheme, default_pop, LEAK_BOTH, BadFeature(),
                            RunSettings(trials=3, seed=0))

    @pytest.mark.parametrize("guess", [
        lambda m: np.full(m, 1 << 7), lambda m: np.full(m, 3.7),
        lambda m: None, lambda m: np.array([1] * m, dtype=object)],
        ids=["wide", "float", "none", "objects"])
    def test_batch_guess_checked(self, fc_scheme, default_pop, guess):
        class BadGuess(SamplerIrrAdversary):
            def phase2_batch(self, state, view, oracle, rng):
                return guess(oracle.trials)

        with pytest.raises(ProtocolError):
            run_al_irr_game(fc_scheme, default_pop, LEAK_PI, 1, BadGuess(),
                            RunSettings(trials=3, seed=0))

    @pytest.mark.parametrize("guess", [1 << 7, -1, 5.0, "1010000", None])
    def test_scalar_guess_must_be_a_packed_feature(self, fc_scheme,
                                                   default_pop, guess):
        class BadGuess(TrialIrrAdversary):
            def phase1(self, params, leak, tau, oracle, rng):
                return None

            def phase2(self, state, view, oracle, rng):
                return guess

        with pytest.raises(ProtocolError):
            run_al_irr_game(fc_scheme, default_pop, LEAK_PI, 1, BadGuess(),
                            RunSettings(trials=3, seed=0))

    def test_scalar_inner_keeps_its_trial_state(self, fc_scheme, default_pop):
        # the reduction hands its inner adversary only the trials whose
        # balls are apart; each must get the state its own phase 1 made
        class RowChecker(TrialIrrAdversary):
            def phase1(self, params, leak, tau, oracle, rng):
                return oracle.row

            def phase2(self, state, view, oracle, rng):
                assert state == oracle.row
                return 0

        result = run_unlink_game(fc_scheme, default_pop, LEAK_AD,
                                 ReductionUnlinkAdversary(RowChecker(), 1),
                                 RunSettings(trials=700, seed=6))
        assert result.flagged == 0

    def test_adversary_needs_a_phase_pair(self):
        class ScalarOnly(IrrAdversary):
            def phase1(self, params, leak, tau, oracle, rng):
                return None

            def phase2(self, state, view, oracle, rng):
                return 0

        class HalfPair(UnlinkAdversary):
            def phase1_batch(self, params, leak, oracle, rng):
                return None

        for cls, missing in ((ScalarOnly, ["phase1_batch", "phase2_batch"]),
                             (HalfPair, ["phase2_batch"])):
            with pytest.raises(TypeError, match="abstract") as refused:
                cls()
            assert [name for name in ("phase1_batch", "phase2_batch")
                    if name in str(refused.value)] == missing
        SamplerIrrAdversary(4)          # the batch pair is enough


class TestBudgets:
    def test_exhausted_trial_is_flagged_loss(self, fc_scheme, default_pop):
        result = run_al_irr_game(fc_scheme, default_pop, LEAK_PI, 1, GreedySampler(),
                                 RunSettings(trials=5, seed=0, query_budget=10))
        assert result.flagged == 5
        assert result.wins == 0
        assert result.queries["adv_phase2"] == 50  # budget consumed, then cut

    def test_blind_adversary_uses_no_queries(self, fc_scheme, default_pop):
        blind = BlindArgmaxAdversary(metrics.extremal_mr(default_pop, 1).witness)
        result = run_al_irr_game(fc_scheme, default_pop, LEAK_PI, 1, blind,
                                 RunSettings(trials=50, seed=0))
        assert result.queries["adv_phase1"] == 0
        assert result.queries["adv_phase2"] == 0
        assert result.queries["challenger"] == 50

    @pytest.mark.parametrize("budget", [0, -3])
    @pytest.mark.parametrize("adversary", ["batch", "scalar", "unlink"])
    def test_budget_below_one_rejected(self, fc_scheme, default_pop, budget,
                                       adversary):
        if adversary == "unlink":
            with pytest.raises(ConfigError):
                run_unlink_game(fc_scheme, default_pop, LEAK_BOTH,
                                MatchTestUnlinkAdversary(),
                                RunSettings(trials=5, seed=0, query_budget=budget))
            return
        adv = engines(SamplerIrrAdversary(4))[adversary]
        with pytest.raises(ConfigError):
            run_al_irr_game(fc_scheme, default_pop, LEAK_PI, 1, adv,
                            RunSettings(trials=5, seed=0, query_budget=budget))

    def _both(self, run, adversary):
        results = [run(adv) for adv in engines(adversary).values()]
        batch, scalar = results
        assert (batch.flagged, batch.queries) == (scalar.flagged,
                                                 scalar.queries)
        return batch

    def test_sampler_cut_at_budget_on_both_engines(self, fc_scheme,
                                                   default_pop):
        trials = 700
        result = self._both(lambda adv: run_al_irr_game(
            fc_scheme, default_pop, LEAK_AD, 1, adv,
            RunSettings(trials=trials, seed=3, query_budget=5)),
            SamplerIrrAdversary(16))
        assert result.flagged == trials
        assert result.wins == 0
        assert result.queries == {"adv_phase1": 0, "adv_phase2": 5 * trials,
                                  "challenger": trials}

    @pytest.mark.parametrize("scheme_name, n_delta, flagged", [
        ("broken", 3, 700),     # every round rejects: cut at round two
        ("fc", 1, 0),           # one round never passes the budget
    ])
    def test_pal_sampler_budget_one_on_both_engines(self, default_pop,
                                                    scheme_name, n_delta,
                                                    flagged):
        scheme = build_scheme({"scheme": scheme_name}, 7)
        cfg = PalSamplerConfig(mr_mean=0.5, sigma=0.0, delta=0.16, gamma=0.5,
                               mu=0.5, n_delta=n_delta)
        trials = 700
        result = self._both(lambda adv: run_pal_irr_game(
            scheme, default_pop, LEAK_BOTH, adv,
            RunSettings(trials=trials, seed=4, query_budget=1)),
            PalSamplerAdversary(cfg))
        assert result.flagged == flagged
        assert result.queries == {"adv_phase1": 0, "adv_phase2": trials,
                                  "challenger": trials}

    def test_phase1_cut_on_both_engines(self, fc_scheme, default_pop):
        # three captures asked for in phase 1, two allowed: no trial gets
        # a challenge, and phase 2 is never charged
        trials = 700
        results = [run_unlink_game(
            fc_scheme, default_pop, LEAK_BOTH, adv,
            RunSettings(trials=trials, seed=5, query_budget=2))
            for adv in engines(MatchTestUnlinkAdversary()).values()]
        batch, scalar = results
        assert batch.flagged == scalar.flagged == trials
        assert batch.queries == scalar.queries == {
            "adv_phase1": 2 * trials, "adv_phase2": 0, "challenger": 0}
        # every trial is scored on the challenger's coin, whatever the
        # adversary: another one, cut as early, gets the same wins
        thrifty = run_unlink_game(
            fc_scheme, default_pop, LEAK_BOTH, ThriftyUnlink(),
            RunSettings(trials=trials, seed=5, query_budget=1))
        assert thrifty.flagged == trials
        assert batch.wins == scalar.wins == thrifty.wins
        assert 0 < batch.wins < trials

    @pytest.mark.parametrize("adversary", ["coin", "match-test", "reduction"])
    def test_all_cut_run_wins_on_a_fair_coin(self, fc_scheme, default_pop,
                                             adversary):
        # a cut trial is no evidence either way: the win rate of a run
        # whose every trial is cut covers 1/2, so its advantage reads ~0
        adv = {"coin": CoinFlipUnlinkAdversary(),
               "match-test": MatchTestUnlinkAdversary(),
               "reduction": ReductionUnlinkAdversary(SamplerIrrAdversary(16),
                                                     1)}[adversary]
        trials = 2000
        result = run_unlink_game(
            fc_scheme, default_pop, LEAK_BOTH, adv,
            RunSettings(trials=trials, seed=8, query_budget=1, level=0.99))
        assert result.flagged == trials
        assert result.win_rate.ci_low <= 0.5 <= result.win_rate.ci_high

    @pytest.mark.parametrize("engine", ["batch", "scalar", "scalar-inner"])
    def test_reduction_charges_inner_only_when_balls_apart(
            self, fc_scheme, default_pop, engine):
        inner = SamplerIrrAdversary(16)
        adv = {**engines(ReductionUnlinkAdversary(inner, 1)),
               "scalar-inner": ReductionUnlinkAdversary(scalar_twin(inner), 1),
               }[engine]
        result = run_unlink_game(fc_scheme, default_pop, LEAK_AD, adv,
                                 RunSettings(trials=700, seed=6, query_budget=5))
        # a trial is cut exactly when the inner adversary ran on it
        assert result.queries["adv_phase2"] == 5 * result.flagged
        assert result.queries["adv_phase1"] == 3 * 700
        assert 0 < result.flagged < 700


class TestDeterminism:
    def test_same_seed_same_result(self, fc_scheme, default_pop):
        s = RunSettings(trials=300, seed=7)
        a = run_unlink_game(fc_scheme, default_pop, LEAK_BOTH,
                            MatchTestUnlinkAdversary(), s,
                            record_transcripts=True)
        b = run_unlink_game(fc_scheme, default_pop, LEAK_BOTH,
                            MatchTestUnlinkAdversary(), s,
                            record_transcripts=True)
        assert a.wins == b.wins
        assert a.transcript_digests == b.transcript_digests

    def test_jobs_invariance(self, fc_scheme, default_pop, chunk_runs):
        a, b = (run_unlink_game(fc_scheme, default_pop, LEAK_BOTH,
                                MatchTestUnlinkAdversary(),
                                RunSettings(trials=metrics.CHUNK_TRIALS + 176,
                                            seed=9, jobs=jobs),
                                record_transcripts=True)
                for jobs in (1, 2))
        assert chunk_runs.pools == 1
        assert a.wins == b.wins
        assert a.transcript_digests == b.transcript_digests

    @pytest.mark.parametrize("engine", ["batch", "scalar"])
    def test_irr_transcripts_jobs_invariant(self, fc_scheme, default_pop,
                                            engine, chunk_runs):
        adv = engines(SamplerIrrAdversary(4))[engine]
        trials = metrics.CHUNK_TRIALS + 76         # two chunks
        a, b = (run_al_irr_game(fc_scheme, default_pop, LEAK_AD, 1, adv,
                                RunSettings(trials=trials, seed=9, jobs=jobs),
                                record_transcripts=True)
                for jobs in (1, 2))
        assert chunk_runs.pools == 1
        assert len(a.transcript_digests) == trials
        assert a.transcript_digests == b.transcript_digests

    def test_scalar_engine_keeps_per_trial_streams(self, fc_scheme,
                                                   default_pop):
        # reference digests of adversaries written trial by trial: their
        # phases run on each trial in turn, drawing from the chunk's streams
        s = RunSettings(trials=300, seed=7)
        u = run_unlink_game(fc_scheme, default_pop, LEAK_BOTH,
                            scalar_twin(MatchTestUnlinkAdversary()), s,
                            record_transcripts=True)
        a = run_al_irr_game(fc_scheme, default_pop, LEAK_AD, 1,
                            scalar_twin(SamplerIrrAdversary(4)), s,
                            record_transcripts=True)
        assert (u.wins, transcripts_digest(u)) == (281, "8a8f79658665ed46")
        assert (a.wins, transcripts_digest(a)) == (48, "56f2ed5468113a7e")

    PINNED = {
        # wins, flagged, queries (adv_phase1, adv_phase2, challenger), digest
        "pal-sampler": (114, 0, 0, 2800, 700, "fe794db2f011fa9a"),
        "pal-pal-sampler-cut": (234, 466, 0, 1821, 700, "e677ebe93fb980f5"),
        "al-cut-in-both-phases": (40, 302, 868, 643, 530, "59d65c41e0ae8114"),
        # in the unlink runs a cut trial is scored on the challenger's coin
        "unlink-cut-in-both-phases": (380, 307, 2572, 1103, 0,
                                      "888a979bb8823601"),
        "unlink-reduction-cut": (355, 486, 2100, 2430, 0, "08d801254e46a430"),
    }

    @pytest.mark.parametrize("case", PINNED)
    def test_pinned_transcripts(self, fc_scheme, default_pop, case):
        # reference digests of pal-irr runs and of runs whose budget cuts
        # trials, so their transcripts hold "-" entries
        fc, pop = fc_scheme, default_pop
        kw = dict(record_transcripts=True)

        def budget(b):
            return RunSettings(trials=700, seed=11, query_budget=b)

        pal_cfg = PalSamplerConfig(mr_mean=0.5, sigma=0.0, delta=0.16,
                                   gamma=0.5, mu=0.5, n_delta=4)
        runs = {
            "pal-sampler": lambda: run_pal_irr_game(
                fc, pop, LEAK_BOTH, SamplerIrrAdversary(4), budget(10**6),
                **kw),
            "pal-pal-sampler-cut": lambda: run_pal_irr_game(
                fc, pop, LEAK_BOTH, PalSamplerAdversary(pal_cfg), budget(3),
                **kw),
            "al-cut-in-both-phases": lambda: run_al_irr_game(
                fc, pop, LEAK_AD, 1, ThriftyIrr(), budget(2), **kw),
            "unlink-cut-in-both-phases": lambda: run_unlink_game(
                fc, pop, LEAK_BOTH, ThriftyUnlink(), budget(4), **kw),
            "unlink-reduction-cut": lambda: run_unlink_game(
                fc, pop, LEAK_AD,
                ReductionUnlinkAdversary(SamplerIrrAdversary(16), 1),
                budget(5), **kw),
        }
        r = runs[case]()
        assert (r.wins, r.flagged, r.queries["adv_phase1"],
                r.queries["adv_phase2"], r.queries["challenger"],
                transcripts_digest(r)) == self.PINNED[case]

    def test_pinned_cross_match_counts(self, fc_scheme, default_pop):
        trials = 1100
        res = est_cross_match_rates(fc_scheme, default_pop, LEAK_BOTH,
                                    CrossComparatorAdversary(),
                                    RunSettings(trials=trials, seed=25))
        assert round(res.fcmr.point * trials) == 42
        assert round(res.fncmr.point * trials) == 46
        assert res.fcmr.queries_used == res.fncmr.queries_used == 3 * trials
        assert res.unlink_advantage.point == pytest.approx(1010 / 1100, abs=1e-12)

    # A run of at most 512 trials is chunk 0 alone, with one key and one
    # range, at a chunk size of 512 or of 1024 trials, so these reference
    # values hold under either layout.
    SINGLE_CHUNK = {
        # wins, flagged, queries (adv_phase1, adv_phase2, challenger), digest
        "al-irr": (98, 0, 0, 2048, 512, "a33f2c30d5b3905d"),
        "pal-irr": (214, 0, 0, 1660, 512, "8414d3899e24a138"),
        "unlink": (465, 0, 1536, 0, 0, "ba0d0dec69ae7195"),
    }

    @pytest.mark.parametrize("game", SINGLE_CHUNK)
    def test_single_chunk_transcripts_keep_their_layout(self, fc_scheme,
                                                        default_pop, game):
        fc, pop, s = fc_scheme, default_pop, RunSettings(trials=512, seed=13)
        kw = dict(record_transcripts=True)
        pal_cfg = PalSamplerConfig(mr_mean=0.5, sigma=0.0, delta=0.16,
                                   gamma=0.5, mu=0.5, n_delta=4)
        runs = {
            "al-irr": lambda: run_al_irr_game(
                fc, pop, LEAK_AD, 1, SamplerIrrAdversary(4), s, **kw),
            "pal-irr": lambda: run_pal_irr_game(
                fc, pop, LEAK_BOTH, PalSamplerAdversary(pal_cfg), s, **kw),
            "unlink": lambda: run_unlink_game(
                fc, pop, LEAK_BOTH, MatchTestUnlinkAdversary(), s, **kw),
        }
        r = runs[game]()
        assert (r.wins, r.flagged, r.queries["adv_phase1"],
                r.queries["adv_phase2"], r.queries["challenger"],
                transcripts_digest(r)) == self.SINGLE_CHUNK[game]

    def test_single_chunk_coupled_and_cross_match_keep_their_layout(
            self, fc_scheme, default_pop):
        s = RunSettings(trials=512, seed=13)
        c = run_coupled_irr_trials(fc_scheme, default_pop, LEAK_PI, 1,
                                   SamplerIrrAdversary(4), s)
        wins = np.concatenate([c.wins_fl, c.wins_al, c.wins_pal])
        assert [int(w.sum()) for w in (c.wins_fl, c.wins_al, c.wins_pal)] == [
            27, 86, 86]
        assert hashlib.blake2b(wins.astype(np.uint8).tobytes(),
                               digest_size=8).hexdigest() == "b8d59aed6fc77392"
        res = est_cross_match_rates(fc_scheme, default_pop, LEAK_BOTH,
                                    CrossComparatorAdversary(), s)
        assert round(res.fcmr.point * 512) == round(res.fncmr.point * 512) == 18
        assert res.unlink_advantage.point == pytest.approx(478 / 512, abs=1e-12)

    def test_batched_game_derives_three_streams_per_chunk(
            self, fc_scheme, default_pop, monkeypatch):
        calls = []
        derive = games.substream

        def counted(*args):
            calls.append(args)
            return derive(*args)

        monkeypatch.setattr(games, "substream", counted)
        run_unlink_game(fc_scheme, default_pop, LEAK_BOTH, MatchTestUnlinkAdversary(),
                        RunSettings(trials=metrics.CHUNK_TRIALS + 176, seed=3))
        assert len(calls) == 6           # 2 chunks x (ch, adv, samp)
        assert [c[2:] for c in calls] == [(i, role) for i in (0, 1)
                                          for role in ("ch", "adv", "samp")]

    def test_seed_changes_outcomes(self, fc_scheme, default_pop):
        a = run_unlink_game(fc_scheme, default_pop, LEAK_BOTH,
                            MatchTestUnlinkAdversary(),
                            RunSettings(trials=500, seed=1))
        b = run_unlink_game(fc_scheme, default_pop, LEAK_BOTH,
                            MatchTestUnlinkAdversary(),
                            RunSettings(trials=500, seed=2))
        assert a.wins != b.wins


class TestChunkCost:
    """Guards on what a chunk holds and asks for, not on how long it
    takes."""

    def test_sampler_chunk_peak_memory_bounded(self, fc_scheme, default_pop):
        # a chunk holds its trials' users, m x 16 of them, and one block of
        # candidate captures: about 0.95 MiB at 1024 trials in one block,
        # 1.24 MiB at 4096 trials in blocks of PT_BLOCK_PROBES captures
        s = RunSettings(trials=metrics.CHUNK_TRIALS, seed=1)
        adv = build_adversary("sampler", "al-irr", fc_scheme, default_pop, s,
                              LEAK_PI)
        run_al_irr_game(fc_scheme, default_pop, LEAK_PI, 1, adv,
                        RunSettings(trials=10, seed=2))
        tracemalloc.start()
        try:
            run_al_irr_game(fc_scheme, default_pop, LEAK_PI, 1, adv, s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("q", [1, 16, 100])
    def test_sampler_captures_in_bounded_blocks(self, batch_calls, fc_scheme,
                                                default_pop, q):
        run_al_irr_game(fc_scheme, default_pop, LEAK_PI, 1,
                        SamplerIrrAdversary(q),
                        RunSettings(trials=metrics.CHUNK_TRIALS, seed=3))
        sizes = batch_calls.captures
        assert sum(sizes) >= metrics.CHUNK_TRIALS * q
        assert max(sizes) <= metrics.PT_BLOCK_PROBES

    @pytest.mark.parametrize("block", [16, 100, metrics.PT_BLOCK_PROBES,
                                       16 * metrics.CHUNK_TRIALS])
    def test_sampler_guesses_do_not_depend_on_the_block(
            self, monkeypatch, fc_scheme, default_pop, block):
        # the last bound puts the whole chunk of m x 16 captures in one block
        def guesses():
            m = metrics.CHUNK_TRIALS
            oracle = SamplingOracle(default_pop, substream(4, "samp"),
                                    10**6, m)
            adv_rng = substream(4, "adv")
            guess = SamplerIrrAdversary(16).phase2_batch(
                (GameParams(fc_scheme, default_pop), 1), None, oracle, adv_rng)
            return (guess.tolist(), oracle.counts.tolist(),
                    oracle.rng.random(), adv_rng.random())

        reference = guesses()
        monkeypatch.setattr(adversaries, "PT_BLOCK_PROBES", block)
        assert guesses() == reference


class TestKnownRates:
    def test_plaintext_read_pi_always_wins(self, default_pop):
        scheme = PlaintextScheme(7, tau=0)
        result = run_al_irr_game(scheme, default_pop, LEAK_PI, 0,
                                 ReadViewAdversary("pi"),
                                 RunSettings(trials=1500, seed=3))
        assert result.win_rate.point == 1.0
        m0 = metrics.extremal_mr(default_pop, 0)
        assert result.advantage.point == pytest.approx(1.0 - m0.value)

    def test_fc_read_alpha_wins_at_zero_codeword_rate(self, fc_scheme,
                                                      default_pop):
        # exact win probability over the codeword draw: the guess equals
        # the feature only when the zero codeword was drawn
        result = run_al_irr_game(fc_scheme, default_pop, LEAK_AD, 0,
                                 ReadViewAdversary("alpha"),
                                 RunSettings(trials=8000, seed=5, level=0.99))
        assert result.win_rate.ci_low <= 1 / 16 <= result.win_rate.ci_high

    def test_blind_al_advantage_near_zero(self, fc_scheme, default_pop):
        blind = BlindArgmaxAdversary(metrics.extremal_mr(default_pop, 1).witness)
        result = run_al_irr_game(fc_scheme, default_pop, LEAK_PI, 1, blind,
                                 RunSettings(trials=8000, seed=7, level=0.99))
        assert result.advantage.ci_low <= 0.0 <= result.advantage.ci_high
        assert result.baseline_mode == "exact"

    def test_blind_pal_advantage_near_zero(self, fc_scheme, default_pop):
        blind = build_adversary("blind", "pal-irr", fc_scheme, default_pop,
                                RunSettings(), LEAK_PI)
        result = run_pal_irr_game(fc_scheme, default_pop, LEAK_PI, blind,
                                  RunSettings(trials=8000, seed=9, level=0.99))
        assert result.advantage.ci_low <= 0.0 <= result.advantage.ci_high

    def test_candidate_set_baseline_follows_the_seed(self):
        # past ENUM_N_CAP the lottery scheme has no exact oracle: the
        # baseline is a Monte Carlo candidate-set extreme, drawn from the
        # run's seed as a direct `extremal_rmr` call draws it
        pop = generate_population(12, 16, 0.03, seed=1)
        scheme = LotteryScheme(12, 0.3)
        s = RunSettings(trials=200, seed=3)
        m = metrics.extremal_rmr(scheme, pop, s)
        result = run_pal_irr_game(scheme, pop, LEAK_BOTH,
                                  BlindArgmaxAdversary(m.witness), s)
        assert (result.baseline, result.baseline_mode) == (m.value,
                                                           "lower_bound")

    def test_coin_flip_advantage_shrinks(self, fc_scheme, default_pop):
        small = run_unlink_game(fc_scheme, default_pop, LEAK_BOTH,
                                CoinFlipUnlinkAdversary(),
                                RunSettings(trials=200, seed=11))
        large = run_unlink_game(fc_scheme, default_pop, LEAK_BOTH,
                                CoinFlipUnlinkAdversary(),
                                RunSettings(trials=20000, seed=11))
        assert large.advantage.point < 0.02
        assert half_width(large.advantage) < half_width(small.advantage)

    def test_unrotate_adversary_links_rotation_templates(self):
        rng = np.random.default_rng(1)
        vals = rng.choice(128, size=16, replace=False)
        pop = Population(n=7, flip_prob=0.0, seed=0,
                         centers=vals)
        scheme = RotationScheme(7, tau=0)
        result = run_unlink_game(scheme, pop, LEAK_BOTH, UnrotateAdversary(),
                                 RunSettings(trials=6000, seed=13, level=0.99))
        # wrong only when the two candidate users coincide: advantage 1 - 1/U
        expected = 1.0 - 1.0 / pop.num_users
        assert result.advantage.point > 0.85
        assert result.advantage.ci_low <= expected <= result.advantage.ci_high


class TestCoupledTrials:
    def test_inclusions_and_pal_equality_for_fc(self, fc_scheme, default_pop):
        blind = BlindArgmaxAdversary(metrics.extremal_mr(default_pop, 1).witness)
        res = run_coupled_irr_trials(fc_scheme, default_pop, LEAK_PI, 1, blind,
                                     RunSettings(trials=4000, seed=15))
        v = res.inclusion_violations()
        assert v == {"fl_subset_al": 0, "al_subset_pal": 0}
        # at tau = t the acceptance test IS the distance test
        assert np.array_equal(res.wins_al, res.wins_pal)

    def test_read_alpha_coupling(self, fc_scheme, default_pop):
        res = run_coupled_irr_trials(fc_scheme, default_pop, LEAK_AD, 1,
                                     ReadViewAdversary("alpha"),
                                     RunSettings(trials=4000, seed=17))
        v = res.inclusion_violations()
        assert v == {"fl_subset_al": 0, "al_subset_pal": 0}


class TestCrossMatchRates:
    def test_always_zero_rule(self, fc_scheme, default_pop):
        res = est_cross_match_rates(fc_scheme, default_pop, LEAK_BOTH,
                                    CrossComparatorAdversary("always-0"),
                                    RunSettings(trials=400, seed=19))
        assert res.fcmr.point == 1.0
        assert res.fncmr.point == 0.0
        assert res.identity_advantage == pytest.approx(0.0)

    def test_always_one_rule(self, fc_scheme, default_pop):
        res = est_cross_match_rates(fc_scheme, default_pop, LEAK_BOTH,
                                    CrossComparatorAdversary("always-1"),
                                    RunSettings(trials=400, seed=21))
        assert res.fcmr.point == 0.0
        assert res.fncmr.point == 1.0
        assert res.identity_advantage == pytest.approx(0.0)

    def test_error_rates_hit_their_exact_values(self, fc_scheme, default_pop):
        # with the match-test rule on a scheme whose templates accept
        # their own feature, the only route to a false answer is the
        # double-acceptance coin, taken exactly when the cross-user probe
        # is accepted: FCMR = FNCMR = fmr_bp / 2
        from btpeval import exact

        target = exact.enumerator(fc_scheme, default_pop).fmr_bp() / 2.0
        res = est_cross_match_rates(fc_scheme, default_pop, LEAK_BOTH,
                                    CrossComparatorAdversary(),
                                    RunSettings(trials=8000, seed=25, level=0.99))
        assert res.fcmr.ci_low <= target <= res.fcmr.ci_high
        assert res.fncmr.ci_low <= target <= res.fncmr.ci_high

    def test_default_rule_identity_matches_game(self, fc_scheme, default_pop):
        res = est_cross_match_rates(fc_scheme, default_pop, LEAK_BOTH,
                                    CrossComparatorAdversary(),
                                    RunSettings(trials=6000, seed=23))
        se_adv = half_width(res.unlink_advantage) / metrics.z_value(0.95)
        se = (plug_in_se(res.fcmr) ** 2 + plug_in_se(res.fncmr) ** 2
              + se_adv ** 2) ** 0.5
        assert res.identity_gap <= 3 * se + 1e-9
        assert res.identity_advantage > 0.5

    def test_cut_trials_read_the_coin(self, fc_scheme, default_pop):
        # the comparator asks for three captures in phase 1: a budget of
        # two cuts every trial, whose scored bit is then a fair coin
        res = est_cross_match_rates(fc_scheme, default_pop, LEAK_BOTH,
                                    CrossComparatorAdversary(),
                                    RunSettings(trials=2000, seed=27,
                                                query_budget=2, level=0.99))
        assert res.fcmr.queries_used == res.fncmr.queries_used == 2 * 2000
        for rate in (res.fcmr, res.fncmr):
            assert rate.ci_low <= 0.5 <= rate.ci_high
        assert res.unlink_advantage.ci_low <= 0.0


SCHEMES = {
    "fc": {"scheme": "fc", "code": {"n": 7, "k": 4, "t": 1}},
    "rot": {"scheme": "rot", "tau": 1},
    "plain": {"scheme": "plain", "tau": 1},
    "broken": {"scheme": "broken"},
}
Z99 = metrics.z_value(0.99)


@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
class TestEngineDifferential:
    """Batch phases against their scalar twins against the exact oracle,
    each within its 99% interval, at fixed seeds."""

    TRIALS = 2000

    def _play(self, run, adversary):
        return {engine: run(adv)
                for engine, adv in engines(adversary).items()}

    def _hits(self, results, target, field="win_rate"):
        for engine, result in results.items():
            est = getattr(result, field)
            assert est.ci_low <= target <= est.ci_high, (engine, est, target)
            assert result.flagged == 0

    def test_blind_al_irr(self, default_pop, scheme_name):
        scheme = build_scheme(SCHEMES[scheme_name], 7)
        results = self._play(lambda adv: run_al_irr_game(
            scheme, default_pop, LEAK_PI, 1, adv,
            RunSettings(trials=self.TRIALS, seed=51, level=0.99)),
            BlindArgmaxAdversary(metrics.extremal_mr(default_pop, 1).witness))
        self._hits(results, metrics.extremal_mr(default_pop, 1).value)

    def test_match_test_unlink(self, default_pop, scheme_name):
        scheme = build_scheme(SCHEMES[scheme_name], 7)
        en = exact.enumerator(scheme, default_pop)
        results = self._play(lambda adv: run_unlink_game(
            scheme, default_pop, LEAK_BOTH, adv,
            RunSettings(trials=self.TRIALS, seed=53, level=0.99)),
            MatchTestUnlinkAdversary())
        if en.hypothesis_own_match():
            self._hits(results, 1.0 - en.pt_match_stats()[0], "advantage")
        else:
            # broken rejects every probe, so the answer is always 0
            self._hits(results, 0.5)

    def test_pal_sampler(self, default_pop, scheme_name):
        scheme = build_scheme(SCHEMES[scheme_name], 7)
        w, r = exact.enumerator(scheme, default_pop).templates()
        n_delta = 3
        cfg = PalSamplerConfig(mr_mean=0.5, sigma=0.0, delta=0.16, gamma=0.5,
                               mu=0.5, n_delta=n_delta)
        target = float(w @ (1.0 - (1.0 - r) ** n_delta))
        results = self._play(lambda adv: run_pal_irr_game(
            scheme, default_pop, LEAK_BOTH, adv,
            RunSettings(trials=self.TRIALS, seed=55, level=0.99)),
            PalSamplerAdversary(cfg))
        self._hits(results, target)

    # Unlink adversaries whose answers never depend on the challenge bit:
    # each wins exactly half the time
    VIEW_BLIND = ("coin", "cross-comparator[coin]",
                  "cross-comparator[always-0]", "cross-comparator[always-1]",
                  "reduction(inner=blind)", "reduction(inner=sampler)")

    @pytest.mark.parametrize("name", VIEW_BLIND)
    def test_view_blind_unlink_wins_half(self, default_pop, scheme_name, name):
        scheme = build_scheme(SCHEMES[scheme_name], 7)
        settings = RunSettings(trials=self.TRIALS, seed=57, level=0.99)
        adversary = build_adversary(name, "unlink", scheme, default_pop,
                                    settings, LEAK_BOTH)
        self._hits(self._play(lambda adv: run_unlink_game(
            scheme, default_pop, LEAK_BOTH, adv, settings), adversary), 0.5)

    @pytest.mark.parametrize("which, leak", [
        ("pi", LEAK_PI), ("pi", LEAK_BOTH), ("alpha", LEAK_AD),
        ("alpha", LEAK_BOTH)], ids=["pi-pi", "pi-both", "alpha-ad",
                                    "alpha-both"])
    def test_view_reader(self, default_pop, scheme_name, which, leak):
        # the same wins and transcripts as the twin, or the same refusal
        # where the scheme's field is not a feature element
        scheme = build_scheme(SCHEMES[scheme_name], 7)
        settings = RunSettings(trials=self.TRIALS, seed=63)
        runs = (lambda adv: run_al_irr_game(scheme, default_pop, leak, 1, adv,
                                            settings, record_transcripts=True),
                lambda adv: run_pal_irr_game(scheme, default_pop, leak, adv,
                                             settings, record_transcripts=True))
        readable = (scheme_name, which) in {("plain", "pi"), ("rot", "pi"),
                                            ("fc", "alpha")}
        for run in runs:
            if readable:
                batch, scalar = self._play(run, ReadViewAdversary(which)).values()
                assert (batch.wins, transcripts_digest(batch)) == (
                    scalar.wins, transcripts_digest(scalar))
                continue
            for adv in engines(ReadViewAdversary(which)).values():
                with pytest.raises(ContractError, match=f"^leaked {which} is "
                                   "not a feature element$"):
                    run(adv)

    def _two_sample(self, results):
        """No closed form: the two win rates agree within a 99% two-sample
        test."""
        p_b = results["batch"].win_rate.point
        p_s = results["scalar"].win_rate.point
        pooled = (p_b + p_s) / 2
        se = math.sqrt(pooled * (1 - pooled) * 2 / self.TRIALS)
        assert abs(p_b - p_s) <= Z99 * se, (p_b, p_s)

    def test_sampler_al_irr(self, default_pop, scheme_name):
        # over two chunks, so the batch phases cross a chunk boundary
        scheme = build_scheme(SCHEMES[scheme_name], 7)
        results = self._play(lambda adv: run_al_irr_game(
            scheme, default_pop, LEAK_AD, 1, adv,
            RunSettings(trials=metrics.CHUNK_TRIALS + 176, seed=61,
                        level=0.99)),
            SamplerIrrAdversary(16))
        self._hits(results, sampler_al_irr_win_rate(default_pop, 1, 16))

    def test_reduction_two_sample(self, default_pop, scheme_name):
        # an inner inverter that reads the template, so the reduction's
        # votes carry the challenge bit
        scheme = build_scheme(SCHEMES[scheme_name], 7)
        cfg = PalSamplerConfig(mr_mean=0.5, sigma=0.0, delta=0.16, gamma=0.5,
                               mu=0.5, n_delta=4)
        self._two_sample(self._play(lambda adv: run_unlink_game(
            scheme, default_pop, LEAK_BOTH, adv,
            RunSettings(trials=self.TRIALS, seed=59)),
            ReductionUnlinkAdversary(PalSamplerAdversary(cfg), 1)))
