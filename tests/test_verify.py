"""Theorem checkers: pass paths, hypothesis gates, vacuous bounds, and the
one decision rule of the Monte Carlo verdicts."""

import math

import numpy as np
import pytest

from btpeval import adversaries, exact, metrics, verify
from btpeval.adversaries import (
    BlindArgmaxAdversary,
    PalSamplerConfig,
    ReadViewAdversary,
    SamplerIrrAdversary,
    build_adversary,
)
from btpeval.errors import VariationTooHighError
from btpeval.metrics import MatchRateStats, RunSettings
from btpeval.population import Population, generate_population
from btpeval.schemes import (LEAK_AD, LEAK_BOTH, LEAK_PI, PlaintextScheme, RotationScheme,
                             build_scheme)
from reference_results import passed, wilson_z3
from toy_schemes import (AlwaysMatchScheme, LotteryScheme, NeverMatchScheme,
                         RejectingRotation)

S = RunSettings


class TestT1:
    def test_fc_default_passes(self, fc_scheme, default_pop):
        v = verify.check_thm_irr_relations(fc_scheme, default_pop, LEAK_PI,
                                           S(tau=1, trials=3000, seed=1))
        assert v.status == verify.PASS
        assert v.tolerance == 0.0
        assert v.details["violations"] == {"fl_subset_al": 0, "al_subset_pal": 0}
        assert v.details["pal_part"] == "checked"

    def test_plaintext_read_pi_equality_case(self, default_pop):
        scheme = PlaintextScheme(7, tau=1)
        v = verify.check_thm_irr_relations(scheme, default_pop, LEAK_PI,
                                           S(tau=1, trials=1500, seed=2),
                                           adversary=ReadViewAdversary("pi"))
        assert v.status == verify.PASS
        # a perfect inverter wins every variant, so the full-leakage
        # advantage meets its bound with equality
        assert v.details["adv_fl"] == pytest.approx(
            v.details["adv_al_plus_gap"], abs=1e-12)

    def test_pal_part_skipped_when_not_threshold_compatible(self, fc_scheme,
                                                            default_pop):
        v = verify.check_thm_irr_relations(fc_scheme, default_pop, LEAK_PI,
                                           S(tau=2, trials=800, seed=3))
        assert v.status == verify.PASS
        assert v.details["pal_part"].startswith("skipped")


class TestT2:
    def test_fc_default_passes(self, fc_scheme, default_pop):
        v = verify.check_thm_pal_unachievable(fc_scheme, default_pop,
                                            S(trials=2500, seed=4))
        assert v.status == verify.PASS
        assert v.lhs > v.rhs - v.tolerance
        assert v.details["measured_c2"] < 0.16

    def test_weaker_gamma_easier(self, fc_scheme, default_pop):
        v = verify.check_thm_pal_unachievable(fc_scheme, default_pop,
                                            S(gamma=0.9, trials=1500, seed=5))
        assert v.status == verify.PASS

    def test_high_variation_not_applicable(self, default_pop):
        # Bernoulli per-template rates at w=0.2: C = 2 >= 1
        scheme = LotteryScheme(7, win_prob=0.2)
        v = verify.check_thm_pal_unachievable(scheme, default_pop,
                                            S(trials=500, seed=6))
        assert v.status == verify.NOT_APPLICABLE
        assert "C" in v.details["reason"]

    def test_delta_below_c2_not_applicable(self, fc_scheme, default_pop):
        v = verify.check_thm_pal_unachievable(fc_scheme, default_pop,
                                            S(delta=0.001, gamma=0.5,
                                              trials=500, seed=7))
        assert v.status == verify.NOT_APPLICABLE

    def test_zero_mean_not_applicable(self, default_pop):
        v = verify.check_thm_pal_unachievable(NeverMatchScheme(7), default_pop,
                                            S(trials=500, seed=8))
        assert v.status == verify.NOT_APPLICABLE
        # the exact statistics cannot size the sampler
        assert v.details["statistics"] == "exact"
        assert v.details["exact_mr"] == 0.0
        assert "positive" in v.details["reason"]

    def test_exact_statistics_beside_estimated(self, fc_scheme, default_pop):
        v = verify.check_thm_pal_unachievable(fc_scheme, default_pop,
                                            S(trials=500, seed=4))
        mean, sigma = exact.enumerator(fc_scheme, default_pop).pt_match_stats()
        d = v.details
        assert (d["exact_mr"], d["exact_sigma"]) == (mean, sigma)
        cfg = PalSamplerConfig.from_stats(MatchRateStats(mean, sigma), 0.16,
                                          0.5)
        assert d["n_delta"] == cfg.n_delta
        assert d["statistics"] == "exact"
        assert "tolerance_note" not in d

    def test_no_exact_statistics_beyond_enumeration(self):
        # plaintext's template statistics scan every feature, to EXACT_N_CAP
        pop = generate_population(exact.EXACT_N_CAP + 1, 16, 0.03, seed=1)
        scheme = PlaintextScheme(pop.n, tau=1)
        v = verify.check_thm_pal_unachievable(scheme, pop, S(
            trials=200, seed=9, stats_outer=50, stats_inner=40))
        assert "exact_mr" not in v.details
        assert "tolerance_note" in v.details
        assert v.details["statistics"] == "measured"

    def test_status_does_not_depend_on_seed(self):
        # rot at n = 18 meets C^2 < delta = 0.16, and at n = 20 does not
        # (exact C^2 0.137 and 0.169); the measured C^2 straddles both
        small = dict(trials=200, stats_outer=50, stats_inner=40)
        for n, status in ((18, verify.PASS), (20, verify.NOT_APPLICABLE)):
            pop = generate_population(n, 16, 0.03, seed=1)
            scheme = RotationScheme(n, tau=1)
            c2 = metrics.exact_pt_match_stats(scheme, pop).variation_coeff ** 2
            for seed in range(1, 6):
                v = verify.check_thm_pal_unachievable(
                    scheme, pop, S(seed=seed, **small))
                assert (v.status, v.details["statistics"]) == (status, "exact")
                if n == 18:
                    assert v.details["n_delta"] == 268
                else:
                    assert f"C^2 = {c2:.6f}" in v.details["reason"]


class TestT3:
    def test_fc_default_passes(self, fc_scheme, default_pop):
        v = verify.check_thm_unlink_unachievable(fc_scheme, default_pop,
                                           S(trials=8000, seed=9))
        assert v.status == verify.PASS
        assert abs(v.lhs - v.rhs) <= v.tolerance

    def test_rotation_passes(self, default_pop):
        v = verify.check_thm_unlink_unachievable(RotationScheme(7, tau=1),
                                           default_pop, S(trials=8000, seed=10))
        assert v.status == verify.PASS

    def test_always_match_degenerate_passes(self, default_pop):
        v = verify.check_thm_unlink_unachievable(AlwaysMatchScheme(7), default_pop,
                                           S(trials=3000, seed=11))
        assert v.status == verify.PASS
        assert v.rhs == pytest.approx(0.0)

    def test_broken_scheme_not_applicable(self, default_pop):
        broken = build_scheme({"scheme": "broken"}, 7)
        v = verify.check_thm_unlink_unachievable(broken, default_pop,
                                           S(trials=500, seed=12))
        assert v.status == verify.NOT_APPLICABLE
        assert "rejects" in v.details["reason"]

    def test_declared_law_with_a_rejecting_comparator_not_applicable(self):
        # the law's own-match hypothesis probes the comparator itself
        pop = Population.from_config({"n": 10})
        v = verify.check_thm_unlink_unachievable(RejectingRotation(10, tau=1),
                                                 pop, S(trials=500, seed=12))
        assert v.status == verify.NOT_APPLICABLE
        assert "rejects" in v.details["reason"]

    @pytest.mark.parametrize("name", ["rot", "plain"])
    @pytest.mark.parametrize("n", [22, 32, 64])
    def test_applies_and_passes_past_the_feature_scan(self, name, n):
        pop = Population.from_config({"n": n})
        scheme = build_scheme({"scheme": name}, n)
        mean = exact.enumerator(scheme, pop).mean_match_rate()
        for seed in (1, 2, 3):
            v = verify.check_thm_unlink_unachievable(scheme, pop, S(seed=seed))
            assert v.status == verify.PASS, seed
            assert v.rhs == 1.0 - mean


class TestT4:
    def test_plaintext_perfect_inverter_large_margin(self, default_pop):
        scheme = PlaintextScheme(7, tau=0)
        v = verify.check_thm_unlink_irr_bound(
            scheme, default_pop, LEAK_PI, S(tau=0, trials=4000, seed=13),
            inner_adversary=ReadViewAdversary("pi"))
        assert v.status == verify.PASS
        assert v.lhs > 0.9
        assert v.lhs >= v.rhs  # holds even without the tolerance

    def test_blind_inner_passes(self, fc_scheme, default_pop):
        v = verify.check_thm_unlink_irr_bound(
            fc_scheme, default_pop, LEAK_PI, S(tau=1, trials=3000, seed=14),
            inner_adversary=BlindArgmaxAdversary(
                metrics.extremal_mr(default_pop, 1).witness))
        assert v.status == verify.PASS

    def test_fc_ad_sampler_inner_passes(self, fc_scheme, default_pop):
        v = verify.check_thm_unlink_irr_bound(
            fc_scheme, default_pop, LEAK_AD, S(tau=1, trials=3000, seed=15),
            inner_adversary=SamplerIrrAdversary(num_queries=16))
        assert v.status == verify.PASS

    def test_vacuous_when_balls_always_intersect(self, fc_scheme, default_pop):
        v = verify.check_thm_unlink_irr_bound(fc_scheme, default_pop, LEAK_AD,
                                              S(tau=4, trials=100, seed=16))
        assert v.status == verify.VACUOUS

    def test_not_applicable_beyond_feature_scan(self):
        # the exact overlap rates scan every feature, up to EXACT_N_CAP
        pop = generate_population(exact.EXACT_N_CAP + 1, 4, 0.02, seed=2)
        v = verify.check_thm_unlink_irr_bound(RotationScheme(pop.n, tau=1),
                                              pop, LEAK_PI,
                                              S(tau=1, trials=100, seed=20))
        assert v.status == verify.NOT_APPLICABLE
        assert passed(v)
        assert f"n <= {exact.EXACT_N_CAP}" in v.details["reason"]


# rot at n = 12 over U = 256 users, the default p, tau and population seed:
# MR is 0.0065, so 1000 T3 trials lose about 3.3 times, and every trial wins
# with probability e^-3.3 = 3.8%
ROT12 = ({"n": 12, "U": 256}, {"scheme": "rot"})


def binomial_pmf(n: int, p: float) -> list:
    return [math.comb(n, k) * p ** k * (1.0 - p) ** (n - k) for k in range(n + 1)]


class TestDecisionRule:
    """T2, T3 and T4 decide by one rule, Wilson score bounds at z = 3
    combined by MOVER, and report the margin on the side facing rhs."""

    def test_margin_is_the_wilson_bound_of_each_rate(self):
        lo, hi = wilson_z3(991, 1000)
        assert metrics.verdict_margin([(2.0, 991, 1000)], upper=True) == (
            pytest.approx(2.0 * (hi - 0.991), rel=1e-12))
        assert metrics.verdict_margin([(2.0, 991, 1000)], upper=False) == (
            pytest.approx(2.0 * (0.991 - lo), rel=1e-12))
        # MOVER: a negative coefficient reads the other bound of its rate
        lo_a, hi_a = wilson_z3(30, 200)
        assert metrics.verdict_margin([(1.0, 991, 1000), (-0.5, 30, 200)],
                                      upper=True) == pytest.approx(
            math.hypot(hi - 0.991, 0.5 * (0.15 - lo_a)), rel=1e-12)
        # every trial won: no margin above, a positive one below
        assert metrics.verdict_margin([(1.0, 50, 50)], upper=True) == 0.0
        assert metrics.verdict_margin([(1.0, 50, 50)], upper=False) > 0.05

    @pytest.mark.parametrize("cfg", [
        ({}, {}), ({"n": 12}, {"scheme": "rot"}), ({"n": 12}, {"scheme": "plain"}),
        ({"n": 7}, {"scheme": "plain", "tau": 0}), ({}, {"scheme": "broken"})],
        ids=["fc", "rot12", "plain12", "plain7-tau0", "broken"])
    def test_no_verdict_has_a_zero_tolerance(self, cfg):
        # 50 trials: T2 on rot and plain n = 12 wins every trial at seed 1,
        # where a plug-in standard error is 0
        pop = Population.from_config(cfg[0])
        scheme = build_scheme(cfg[1], pop.n)
        for seed in (1, 6):
            for v in verify.verify_all(scheme, pop, S(trials=50, seed=seed)):
                if v.theorem == "T1" or v.tolerance is None:
                    continue
                assert v.tolerance > 0.0, (v.theorem, v.leak, seed)
                two_sided = v.relation == "~~"
                assert v.details["rule"] == verify.VERDICT_RULE
                assert v.details["nominal_false_fail"] == pytest.approx(
                    0.0027 if two_sided else 0.00135, rel=1e-3)

    def test_t3_false_fails_within_the_rules_rate(self):
        pop = Population.from_config(ROT12[0])
        scheme = build_scheme(ROT12[1], pop.n)
        verdicts = [verify.check_thm_unlink_unachievable(
            scheme, pop, S(trials=1000, seed=seed)) for seed in range(1, 201)]
        assert min(v.tolerance for v in verdicts) > 0.0
        fails = [v for v in verdicts if v.status == verify.FAIL]
        # the rule's exact false-fail probability per seed: every trial
        # wins with probability w = 1 - MR/2, and wins k fail the rule when
        # 1 - MR/2 lies outside k's Wilson interval at z = 3
        w = (1.0 + verdicts[0].rhs) / 2.0
        rate = sum(p for k, p in enumerate(binomial_pmf(1000, w))
                   if not wilson_z3(k, 1000)[0] <= w <= wilson_z3(k, 1000)[1])
        assert rate == pytest.approx(0.0064, abs=5e-5)
        # the 99% quantile of the fail count over 200 seeds
        cdf = np.cumsum(binomial_pmf(200, rate))
        bound = int(np.searchsorted(cdf, 0.99))
        assert bound == 4
        assert len(fails) <= bound
        # a plug-in tolerance failed 7 of these seeds, each at lhs 1
        assert all(v.lhs < v.rhs for v in fails)

    def test_match_test_advantage_a_twentieth_high_fails_t3(self, monkeypatch,
                                                            fc_scheme,
                                                            default_pop):
        run_unlink_game = verify.run_unlink_game

        def inflated(*args, **kwargs):
            # the mutation: a win rate 0.025 high, an advantage 0.05 high
            game = run_unlink_game(*args, **kwargs)
            wins = game.wins + round(0.025 * game.trials)
            win_rate = metrics.AdvantageEstimate.from_counts(wins, game.trials)
            return game.replace(wins=wins, win_rate=win_rate,
                                advantage=metrics.absolute_advantage(win_rate))

        for seed in range(1, 6):
            assert verify.check_thm_unlink_unachievable(
                fc_scheme, default_pop, S(seed=seed)).status == verify.PASS
        monkeypatch.setattr(verify, "run_unlink_game", inflated)
        for seed in range(1, 6):
            v = verify.check_thm_unlink_unachievable(fc_scheme, default_pop,
                                                     S(seed=seed))
            assert v.status == verify.FAIL, seed
            assert v.lhs > v.rhs


class TestReproducibility:
    def test_identical_verdicts_on_rerun(self, fc_scheme, default_pop):
        s = S(trials=1200, seed=17)
        a = verify.check_thm_unlink_unachievable(fc_scheme, default_pop, s)
        b = verify.check_thm_unlink_unachievable(fc_scheme, default_pop, s)
        assert a.lhs == b.lhs
        assert a.rhs == b.rhs
        assert a.tolerance == b.tolerance

    def test_verify_all_covers_relation_diagram(self, fc_scheme, default_pop):
        verdicts = verify.verify_all(fc_scheme, default_pop,
                                     S(trials=600, seed=18))
        labels = [(v.theorem, v.leak) for v in verdicts]
        assert labels == [
            ("T1", "pi"), ("T1", "ad"),
            ("T2", "pi+ad"), ("T3", "pi+ad"),
            ("T4", "pi"), ("T4", "ad"),
        ]
        assert all(passed(v) for v in verdicts)

    @pytest.mark.parametrize("scheme_cfg", [{"scheme": "rot", "tau": 1},
                                            {"scheme": "plain", "tau": 1}])
    def test_verify_all_other_schemes(self, default_pop, scheme_cfg):
        scheme = build_scheme(scheme_cfg, 7)
        verdicts = verify.verify_all(scheme, default_pop,
                                     S(trials=1500, seed=19))
        assert len(verdicts) == 6
        assert all(v.status != verify.FAIL for v in verdicts)


class TestCostGuard:
    """Counts calls, times nothing."""

    @pytest.mark.parametrize("scheme_cfg, n", [
        ({"scheme": "fc"}, 7), ({"scheme": "rot"}, 10)], ids=["fc7", "rot10"])
    def test_one_vector_per_tau_and_sampler_sorts_nothing(self, monkeypatch,
                                                          scheme_cfg, n):
        pop = generate_population(n, 16, 0.03, seed=1)
        scheme = build_scheme(scheme_cfg, n)
        sums, sorts, sampling = [], [], []
        cube_sum, unique = exact._cube_sum, np.unique
        phase2 = SamplerIrrAdversary.phase2_batch

        def counting_cube_sum(pop, table):
            sums.append(table)
            return cube_sum(pop, table)

        def counting_unique(*args, **kwargs):
            sorts.extend(sampling)
            return unique(*args, **kwargs)

        def watched_phase2(self, *args):
            sampling.append(self)
            try:
                return phase2(self, *args)
            finally:
                sampling.pop()

        monkeypatch.setattr(exact, "_cube_sum", counting_cube_sum)
        monkeypatch.setattr(np, "unique", counting_unique)
        monkeypatch.setattr(SamplerIrrAdversary, "phase2_batch", watched_phase2)
        verify.verify_all(scheme, pop, S(trials=600, seed=3, stats_outer=50,
                                         stats_inner=40))
        # the full-feature closed form runs once per distinct tau: 0 (T1's
        # m_0), 1 (m_tau, T4's sampler, the law radius) and 2 (overlap);
        # the one other full-feature sum is the capture pmf's
        taus = [tau for table in sums for tau in range(n + 1)
                if table is exact._ball_table(n, pop.flip_prob, tau)]
        assert sorted(taus) == [0, 1, 2]
        assert len(sums) == 4
        assert sorts == []


@pytest.fixture
def measurements(monkeypatch):
    """Records each `metrics.pt_match_stats` call, wherever it is bound."""
    calls = []
    measure = metrics.pt_match_stats

    def counted(*args, **kwargs):
        calls.append(args)
        return measure(*args, **kwargs)

    for module in (metrics, adversaries):
        monkeypatch.setattr(module, "pt_match_stats", counted)
    return calls


def _plain21():
    # plaintext's template statistics scan every feature, to EXACT_N_CAP
    pop = generate_population(exact.EXACT_N_CAP + 1, 16, 0.03, seed=1)
    return PlaintextScheme(pop.n, tau=1), pop


class TestInverterStatistics:
    """T2 and `build_adversary("pal-sampler")` size the inverter from one
    choice of statistics; counts calls, times nothing."""

    SMALL = S(trials=200, seed=5, stats_outer=50, stats_inner=40)

    def test_t2_measures_once(self, measurements, fc_scheme, default_pop):
        verify.verify_all(fc_scheme, default_pop, self.SMALL)
        assert len(measurements) == 1
        verify.check_thm_pal_unachievable(*_plain21(), self.SMALL)
        assert len(measurements) == 2

    def test_pal_sampler_measures_only_without_oracle(
            self, measurements, fc_scheme, default_pop):
        build_adversary("pal-sampler", "pal-irr", fc_scheme, default_pop, S(),
                        LEAK_BOTH)
        assert measurements == []
        scheme, pop = _plain21()
        adv = build_adversary("pal-sampler", "pal-irr", scheme, pop,
                              self.SMALL, LEAK_BOTH)
        assert len(measurements) == 1
        v = verify.check_thm_pal_unachievable(scheme, pop, self.SMALL)
        assert v.details["n_delta"] == adv.cfg.n_delta

    # rot at n = 10 has an exact C^2 of 0.169: delta 0.16 refuses it
    @pytest.mark.parametrize("scheme_cfg, n, delta, status", [
        ({"scheme": "fc"}, 7, 0.16, verify.PASS),
        ({"scheme": "rot"}, 10, 0.16, verify.NOT_APPLICABLE),
        ({"scheme": "rot"}, 10, 0.25, verify.PASS)],
        ids=["fc7", "rot10", "rot10-wide"])
    def test_t2_sizes_the_inverter_as_game_does(self, scheme_cfg, n, delta,
                                                status):
        pop = generate_population(n, 16, 0.03, seed=1)
        scheme = build_scheme(scheme_cfg, n)
        s = self.SMALL.replace(delta=delta)
        v = verify.check_thm_pal_unachievable(scheme, pop, s)
        assert (v.status, v.details["statistics"]) == (status, "exact")
        if status == verify.PASS:
            adv = build_adversary("pal-sampler", "pal-irr", scheme, pop, s,
                                  LEAK_BOTH)
            assert v.details["n_delta"] == adv.cfg.n_delta
        else:
            with pytest.raises(VariationTooHighError) as refusal:
                build_adversary("pal-sampler", "pal-irr", scheme, pop, s,
                                LEAK_BOTH)
            assert v.details["reason"] == str(refusal.value)
