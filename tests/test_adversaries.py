"""Constructive adversaries: repetition counts, decision rules, reductions."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btpeval import exact, metrics
from btpeval.adversaries import (
    BlindArgmaxAdversary,
    CrossComparatorAdversary,
    MatchTestUnlinkAdversary,
    PalSamplerAdversary,
    PalSamplerConfig,
    ReductionUnlinkAdversary,
    SamplerIrrAdversary,
    build_adversary,
    compute_n_delta,
)
from btpeval.errors import ConfigError, ContractError, ModeError, VariationTooHighError
from btpeval.games import (GameParams, _UnlinkSpec, run_al_irr_game, run_pal_irr_game,
                           run_unlink_game)
from btpeval.metrics import MatchRateStats, RunSettings
from btpeval.population import SamplingOracle, generate_population
from btpeval.rng import substream
from btpeval.schemes import (LEAK_AD, LEAK_BOTH, LEAK_PI, ProtectedTemplate, build_scheme,
                             leak_view)
from reference_adversaries import UniqueSampler
from reference_results import plug_in_se

# a [10,4] code, for fc past the default [7,4]
FC10 = {"scheme": "fc", "code": {"generator": [
    "1000111000", "0100100110", "0010010101", "0001001011"], "t": 1}}


class TestNDelta:
    def test_worked_example(self):
        # mean 0.5, sigma 0.1 (C = 0.2), delta 0.16, gamma 0.5:
        # mu = 0.25, target = 0.34/0.84 = 0.404762..., and
        # 0.75^3 = 0.421875 >= target > 0.75^4 = 0.316406...
        cfg = PalSamplerConfig.from_stats(MatchRateStats(0.5, 0.1), 0.16, 0.5)
        assert cfg.mu == pytest.approx(0.25)
        assert cfg.n_delta == 4
        assert (1 - cfg.mu) ** 4 < (0.5 - 0.16) / (1 - 0.16) <= (1 - cfg.mu) ** 3

    def test_delta_below_c_squared_rejected(self):
        with pytest.raises(VariationTooHighError):
            PalSamplerConfig.from_stats(MatchRateStats(0.5, 0.1), 0.03, 0.5)

    def test_gamma_not_above_delta_rejected(self):
        with pytest.raises(ConfigError):
            PalSamplerConfig.from_stats(MatchRateStats(0.5, 0.1), 0.16, 0.16)
        with pytest.raises(ConfigError):
            PalSamplerConfig.from_stats(MatchRateStats(0.5, 0.1), 0.16, 1.0)

    def test_degenerate_mu_one(self):
        assert compute_n_delta(1.0, 0.1, 0.5) == 1

    @given(st.data())
    @settings(max_examples=200)
    def test_minimality_property(self, data):
        mean = data.draw(st.floats(0.05, 0.95))
        c = data.draw(st.floats(0.0, 0.99))
        sigma = c * mean
        delta = data.draw(st.floats(c * c + 1e-6, 0.999, exclude_min=False))
        gamma = data.draw(st.floats(delta + 1e-6, 0.9999))
        mu = mean - sigma / math.sqrt(delta)
        if not 0.0 < mu <= 1.0:
            return
        n = compute_n_delta(mu, delta, gamma)
        big_l = math.log1p(-mu) if mu < 1.0 else float("-inf")
        big_t = math.log((gamma - delta) / (1.0 - delta))
        assert n * big_l < big_t
        if n > 1:
            assert (n - 1) * big_l >= big_t


class TestPalSampler:
    def test_needs_full_template(self, fc_scheme, default_pop):
        cfg = PalSamplerConfig.from_stats(MatchRateStats(0.2, 0.02), 0.16, 0.5)
        adv = PalSamplerAdversary(cfg)
        with pytest.raises(ContractError):
            run_pal_irr_game(fc_scheme, default_pop, LEAK_PI, adv,
                             RunSettings(trials=2, seed=0))

    def test_query_cap_is_n_delta(self, fc_scheme, default_pop):
        stats = metrics.exact_pt_match_stats(fc_scheme, default_pop)
        cfg = PalSamplerConfig.from_stats(stats, 0.16, 0.5)
        trials = 400
        result = run_pal_irr_game(fc_scheme, default_pop, LEAK_BOTH,
                                  PalSamplerAdversary(cfg),
                                  RunSettings(trials=trials, seed=1))
        assert result.queries["adv_phase2"] <= trials * cfg.n_delta
        assert result.queries["adv_phase1"] == 0
        assert result.flagged == 0

    def test_wins_above_target(self, fc_scheme, default_pop):
        stats = metrics.exact_pt_match_stats(fc_scheme, default_pop)
        cfg = PalSamplerConfig.from_stats(stats, 0.16, 0.5)
        result = run_pal_irr_game(fc_scheme, default_pop, LEAK_BOTH,
                                  PalSamplerAdversary(cfg),
                                  RunSettings(trials=3000, seed=2))
        assert result.win_rate.point > 1.0 - 0.5


class TestMatchTestAdversary:
    def test_needs_full_template(self, fc_scheme, default_pop):
        with pytest.raises(ContractError):
            run_unlink_game(fc_scheme, default_pop, LEAK_PI, MatchTestUnlinkAdversary(),
                            RunSettings(trials=2, seed=0))

    @pytest.mark.parametrize("forced_b", [0, 1])
    def test_conditional_success_is_one_minus_half_mr(self, fc_scheme,
                                                      default_pop, forced_b):
        mr, _ = exact.enumerator(fc_scheme, default_pop).pt_match_stats()
        spec = _UnlinkSpec(fc_scheme, default_pop, LEAK_BOTH,
                           MatchTestUnlinkAdversary(),
                           RunSettings(seed=31, query_budget=10**6),
                           f"cond{forced_b}", force_b=forced_b)
        trials = 8000
        answers = spec.run_range(0, trials)["answers"]
        rate = (answers == forced_b).mean()
        target = 1.0 - mr / 2.0
        se = math.sqrt(target * (1 - target) / trials)
        assert abs(rate - target) <= 4 * se

    def test_advantage_equals_one_minus_mr(self, fc_scheme, default_pop):
        mr, _ = exact.enumerator(fc_scheme, default_pop).pt_match_stats()
        result = run_unlink_game(fc_scheme, default_pop, LEAK_BOTH,
                                 MatchTestUnlinkAdversary(),
                                 RunSettings(trials=10000, seed=33, level=0.99))
        assert result.advantage.ci_low <= 1.0 - mr <= result.advantage.ci_high

    def test_degenerate_always_match_scheme(self, default_pop):
        from toy_schemes import AlwaysMatchScheme

        result = run_unlink_game(AlwaysMatchScheme(7), default_pop, LEAK_BOTH,
                                 MatchTestUnlinkAdversary(),
                                 RunSettings(trials=6000, seed=35, level=0.99))
        assert result.advantage.point < 0.05


class TestCrossComparator:
    def test_pi_only_leak_degenerates(self, fc_scheme, default_pop):
        # fresh digests of independent codewords carry no linkage signal
        result = run_unlink_game(fc_scheme, default_pop, LEAK_PI,
                                 CrossComparatorAdversary(),
                                 RunSettings(trials=8000, seed=37))
        assert result.advantage.point < 0.03

    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigError):
            CrossComparatorAdversary("nope")

    def test_distinct_pair_sampling(self, fc_scheme, noiseless_pop):
        # noiseless captures are their owners' (distinct) centers
        adv = CrossComparatorAdversary()
        params = GameParams(fc_scheme, noiseless_pop)
        rng = substream(0, "cc")
        oracle = SamplingOracle(noiseless_pop, substream(1, "cc"), 100, 500)
        x, x0, x1, state = adv.phase1_batch(params, LEAK_BOTH, oracle, rng)
        assert (oracle.counts == 3).all()
        assert (x == x0).all() and (x0 != x1).all()


class SpyView:
    """Raises on any field access; proves a view was never inspected."""

    def __getattr__(self, name):
        raise AssertionError(f"view field {name} was read")


class CountingInner(SamplerIrrAdversary):
    def __init__(self, **kw):
        super().__init__(**kw)
        self.calls = 0

    def phase2_batch(self, state, view, oracle, rng):
        self.calls += 1
        return super().phase2_batch(state, view, oracle, rng)


class TestReductionAdversary:
    def test_first_view_never_inspected(self, fc_scheme, default_pop):
        inner = CountingInner(num_queries=4)
        adv = ReductionUnlinkAdversary(inner, 1)
        rng = substream(2, "red")
        oracle = SamplingOracle(default_pop, substream(3, "red"), 100, 50)
        x, x0, x1, state = adv.phase1_batch(GameParams(fc_scheme, default_pop),
                                            LEAK_AD, oracle, rng)
        view_prime = leak_view(ProtectedTemplate(*fc_scheme.pie_batch(x0, rng)),
                               LEAK_AD)
        bits = adv.phase2_batch(state, SpyView(), view_prime, oracle, rng)
        assert set(bits.tolist()) <= {0, 1}
        assert inner.calls == 1     # some balls were apart

    def test_overlap_branch_skips_inner(self, fc_scheme, default_pop):
        # 2*tau >= n: every ball pair intersects, so only coins are thrown
        inner = CountingInner(num_queries=4)
        result = run_unlink_game(fc_scheme, default_pop, LEAK_AD,
                                 ReductionUnlinkAdversary(inner, tau=4),
                                 RunSettings(trials=300, seed=39))
        assert inner.calls == 0
        assert result.advantage.point < 0.15

    def test_blind_inner_consistent_with_zero(self, fc_scheme, default_pop):
        inner = BlindArgmaxAdversary(metrics.extremal_mr(default_pop, 1).witness)
        result = run_unlink_game(fc_scheme, default_pop, LEAK_AD,
                                 ReductionUnlinkAdversary(inner, tau=1),
                                 RunSettings(trials=8000, seed=41, level=0.99))
        ov = metrics.overlap_rates(default_pop, 1)
        m1 = metrics.extremal_mr(default_pop, 1)
        lower = -(ov.p_tau - ov.q_tau) * m1.value
        assert result.advantage.point >= lower - 3 * 2 * plug_in_se(result.win_rate)


class TestBlindAdversary:
    @pytest.mark.parametrize("n, cfg", [
        (7, {"scheme": "fc", "code": {"n": 7, "k": 4, "t": 1}}),
        (exact.EXACT_N_CAP + 1, {"scheme": "rot"}),   # candidate-set extremes
    ], ids=["fc7", "rot21"])
    def test_guess_is_the_extremal_witness(self, n, cfg):
        pop = generate_population(n, 16, 0.03, seed=1)
        scheme = build_scheme(cfg, n)
        s = RunSettings(tau=2, seed=5)
        al = build_adversary("blind", "al-irr", scheme, pop, s, LEAK_PI)
        pal = build_adversary("blind", "pal-irr", scheme, pop, s, LEAK_PI)
        assert al.guess == metrics.extremal_mr(pop, 2, s).witness
        assert pal.guess == metrics.extremal_rmr(scheme, pop, s).witness


class TestSamplerAdversary:
    def test_success_cannot_beat_blind_optimum(self, fc_scheme, default_pop):
        result = run_al_irr_game(fc_scheme, default_pop, LEAK_AD, 1,
                                 SamplerIrrAdversary(num_queries=16),
                                 RunSettings(trials=6000, seed=43, level=0.99))
        assert result.advantage.ci_low <= 0.0
        assert result.queries["adv_phase2"] == 6000 * 16

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            SamplerIrrAdversary(num_queries=0)

    @pytest.mark.parametrize("cfg, radius", [
        ({"scheme": "rot", "tau": 2}, 2), ({"scheme": "broken"}, 0)])
    def test_acceptance_game_scores_at_comparator_radius(self, default_pop,
                                                         cfg, radius):
        # the acceptance game has no threshold: the run's tau must not
        # reach the sampler's scores, the comparator's radius must
        scheme = build_scheme(cfg, 7)

        def guesses(tau):
            adv = build_adversary("sampler", "pal-irr", scheme, default_pop,
                                  RunSettings(tau=tau), LEAK_BOTH)
            return run_pal_irr_game(scheme, default_pop, LEAK_BOTH, adv,
                                    RunSettings(trials=1100, seed=7),
                                    record_transcripts=True).transcript_digests
        assert guesses(1) == guesses(radius) == guesses(radius + 3)

    @staticmethod
    def _same_guesses(scheme, pop, tau):
        """The sampler and its closed-form reference play the same chunk
        streams and give the same guesses, trial by trial: two chunks, the
        first in several of the sampler's blocks of captures."""
        got, want = (run_al_irr_game(scheme, pop, LEAK_AD, tau, adv,
                                     RunSettings(trials=metrics.CHUNK_TRIALS + 76,
                                                 seed=17),
                                     record_transcripts=True)
                     for adv in (SamplerIrrAdversary(16), UniqueSampler(16)))
        assert got.transcript_digests == want.transcript_digests
        assert got.queries == want.queries

    @pytest.mark.parametrize("tau", [0, 1])
    @pytest.mark.parametrize("p", [0.0, 0.03])
    @pytest.mark.parametrize("n", [7, 10])
    @pytest.mark.parametrize("scheme_name", ["fc", "rot", "plain"])
    def test_lookup_equals_closed_form_reference(self, scheme_name, n, p, tau):
        cfg = FC10 if (scheme_name, n) == ("fc", 10) else {"scheme": scheme_name}
        pop = generate_population(n, 16, p, seed=n)
        if p == 0.0:
            # every candidate is a center, scored (centers within tau) / U,
            # so distinct centers tie: the first in query order must win
            scores = exact.mr_vector(pop, tau)[pop.centers]
            assert (scores == scores.max()).sum() > 1
        self._same_guesses(build_scheme(cfg, n), pop, tau)

    def test_past_the_feature_scan_cap(self):
        # no vector is built past EXACT_N_CAP; the closed form scores there
        n = exact.EXACT_N_CAP + 4
        pop = generate_population(n, 16, 0.03, seed=3)
        with pytest.raises(ModeError):
            exact.mr_vector(pop, 1)
        self._same_guesses(build_scheme({"scheme": "rot"}, n), pop, 1)
