"""Estimators against their enumeration twins and hand-built oracles.

The exact engine itself is validated here against plain-loop oracles at a
scale where quadruple loops are feasible; the samplers are then held to
the exact engine on the default configuration.
"""

import inspect
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btpeval import exact, games, metrics
from btpeval.errors import ConfigError, DimensionError
from btpeval.metrics import RunSettings
from btpeval.population import Population, generate_population
from btpeval.rng import substream
from btpeval.schemes import (
    BrokenScheme,
    LinearCode,
    FuzzyCommitmentScheme,
    PlaintextScheme,
    RotationScheme,
    build_scheme,
)
from reference_exact import closed_form_mr
from reference_population import feature_probability, hamming_distance
from reference_schemes import rotate
from toy_schemes import AlwaysMatchScheme, LotteryScheme, NeverMatchScheme


def pmf_by_feature_probability(pop, u):
    """Independent pmf construction: direct calls, no shared code path."""
    return np.array([
        feature_probability(pop, u, v)
        for v in range(1 << pop.n)
    ])


class TestIntervals:
    @given(st.integers(0, 500), st.integers(1, 500))
    @settings(max_examples=60)
    def test_wilson_contains_point(self, wins, trials):
        wins = min(wins, trials)
        lo, hi = metrics.wilson_interval(wins, trials, 0.95)
        assert 0.0 <= lo <= wins / trials <= hi <= 1.0

    def test_higher_level_is_wider(self):
        lo95, hi95 = metrics.wilson_interval(13, 100, 0.95)
        lo99, hi99 = metrics.wilson_interval(13, 100, 0.99)
        assert lo99 < lo95 and hi99 > hi95

    def test_estimate_invariant(self):
        with pytest.raises(ConfigError):
            metrics.AdvantageEstimate(point=0.5, trials=10, ci_low=0.6, ci_high=0.9)

    def test_absolute_advantage_straddling(self):
        est = metrics.AdvantageEstimate(point=0.5, trials=100, ci_low=0.45,
                                        ci_high=0.58)
        adv = metrics.absolute_advantage(est)
        assert adv.ci_low == 0.0
        assert adv.ci_high == pytest.approx(0.16)
        assert adv.point == 0.0

    def test_entropy(self):
        assert metrics.entropy_bits(1 / 16) == pytest.approx(4.0)
        assert metrics.entropy_bits(0.0) == float("inf")


class TestBaselineRates:
    def test_tau_n_extremes(self, default_pop):
        fnmr, fmr = metrics.est_baseline_rates(default_pop, 7,
                                               RunSettings(trials=2000, seed=0))
        assert fmr.point == 1.0 and fnmr.point == 0.0

    def test_noiseless_tau0_fnmr_zero(self, noiseless_pop):
        fnmr, _ = metrics.est_baseline_rates(noiseless_pop, 0,
                                             RunSettings(trials=2000, seed=0))
        assert fnmr.point == 0.0

    def test_exact_against_pair_sum_oracle(self, default_pop):
        # direct double sum over all 2^7 x 2^7 pairs, weighted by
        # feature_probability products
        pop = default_pop
        size = 1 << pop.n
        xs = np.arange(size, dtype=np.uint64)
        d = np.bitwise_count(xs[:, None] ^ xs[None, :])
        pmfs = [pmf_by_feature_probability(pop, u) for u in range(pop.num_users)]
        tau = 1
        inside = d <= tau
        fnmr_oracle = 1.0 - np.mean([p @ inside @ p for p in pmfs])
        fmr_terms = [pmfs[u] @ inside @ pmfs[v]
                     for u in range(pop.num_users)
                     for v in range(pop.num_users) if u != v]
        fmr_oracle = float(np.mean(fmr_terms))
        raw = exact.LawOracle(PlaintextScheme(pop.n, tau), pop)
        fnmr_exact, fmr_exact = raw.fnmr(), raw.fmr_bp()
        assert fnmr_exact == pytest.approx(fnmr_oracle, abs=1e-12)
        assert fmr_exact == pytest.approx(fmr_oracle, abs=1e-12)

    def test_estimates_within_ci_of_exact(self, default_pop):
        fnmr, fmr = metrics.est_baseline_rates(default_pop, 1,
                                               RunSettings(trials=20000, seed=11,
                                                           level=0.99))
        raw = exact.LawOracle(PlaintextScheme(default_pop.n, 1), default_pop)
        fnmr_exact, fmr_exact = raw.fnmr(), raw.fmr_bp()
        assert fnmr.ci_low <= fnmr_exact <= fnmr.ci_high
        assert fmr.ci_low <= fmr_exact <= fmr.ci_high


def pt_rates(scheme, pop, settings):
    """The per-template match rates `pt_match_stats` summarizes: its
    kernel's chunks on its label."""
    kernel = metrics._PtStatsKernel(scheme, pop, settings.stats_inner)
    return np.concatenate(metrics._run_kernel(
        kernel, settings.stats_outer, settings, "pt_stats"))


def outcomes(scheme, x):
    """(probability, pi, alpha) of each outcome of `pie_batch` on one
    packed capture x, from one batch call."""
    return zip(*(a.tolist() for a in scheme.pie_support_batch(np.uint64(x))))


def accepts(scheme, pi, alpha, x) -> bool:
    """The comparator's decision on template codes (pi, alpha) and one
    packed capture x, from one batch call of each stage."""
    return bool(scheme.pic_batch(np.uint64(pi), scheme.pir_batch(
        np.uint64(alpha), np.uint64(x))))


def loop_oracle_scheme_metric(scheme, pop, kind):
    """Plain-loop expectation over users, enrollments, encoder randomness,
    and probes, one capture and one template at a time; quadruple loop, so
    keep the space tiny."""
    size = 1 << pop.n
    U = pop.num_users
    pmfs = [pmf_by_feature_probability(pop, u) for u in range(U)]
    total = 0.0
    if kind == "fnmr":
        for u in range(U):
            for xe in range(size):
                for wp, pi, alpha in outcomes(scheme, xe):
                    for x in range(size):
                        if not accepts(scheme, pi, alpha, x):
                            total += pmfs[u][xe] * wp * pmfs[u][x] / U
        return total
    if kind == "bp":
        for u in range(U):
            for v in range(U):
                if u == v:
                    continue
                for xe in range(size):
                    for wp, pi, alpha in outcomes(scheme, xe):
                        for x in range(size):
                            if accepts(scheme, pi, alpha, x):
                                total += (pmfs[v][xe] * wp * pmfs[u][x]
                                          / (U * (U - 1)))
        return total
    raise ValueError(kind)


@pytest.fixture(scope="module")
def tiny_setup():
    # [5,2] code with minimum distance 3; 4 users over a 32-point cube
    code = LinearCode.from_bitstrings(["10110", "01011"], t=1)
    scheme = FuzzyCommitmentScheme(code)
    pop = generate_population(5, 4, 0.05, seed=3)
    return scheme, pop


class TestExactEngineAgainstLoops:
    def test_fnmr(self, tiny_setup):
        scheme, pop = tiny_setup
        en = exact.SchemeEnumerator(scheme, pop)
        assert en.fnmr() == pytest.approx(
            loop_oracle_scheme_metric(scheme, pop, "fnmr"), abs=1e-10)

    def test_fmr_bp(self, tiny_setup):
        scheme, pop = tiny_setup
        en = exact.SchemeEnumerator(scheme, pop)
        assert en.fmr_bp() == pytest.approx(
            loop_oracle_scheme_metric(scheme, pop, "bp"), abs=1e-10)

    def test_rmr_vector(self, tiny_setup):
        scheme, pop = tiny_setup
        en = exact.SchemeEnumerator(scheme, pop)
        size = 1 << pop.n
        pmfs = [pmf_by_feature_probability(pop, u) for u in range(pop.num_users)]
        got = en.rmr_vector()
        for x in (0, 7, 19, 31):
            total = 0.0
            for u in range(pop.num_users):
                for xe in range(size):
                    for wp, pi, alpha in outcomes(scheme, xe):
                        if accepts(scheme, pi, alpha, x):
                            total += pmfs[u][xe] * wp / pop.num_users
            assert got[x] == pytest.approx(total, abs=1e-10)

    def test_pt_stats(self, tiny_setup):
        scheme, pop = tiny_setup
        en = exact.SchemeEnumerator(scheme, pop)
        size = 1 << pop.n
        pmfs = [pmf_by_feature_probability(pop, u) for u in range(pop.num_users)]
        mix = np.mean(pmfs, axis=0)
        weights, rates = [], []
        for u in range(pop.num_users):
            for xe in range(size):
                for wp, pi, alpha in outcomes(scheme, xe):
                    weights.append(pmfs[u][xe] * wp / pop.num_users)
                    rates.append(sum(
                        mix[x] for x in range(size)
                        if accepts(scheme, pi, alpha, x)))
        weights, rates = np.array(weights), np.array(rates)
        mean_o = float(weights @ rates)
        sig_o = math.sqrt(float(weights @ (rates - mean_o) ** 2))
        mean, sigma = en.pt_match_stats()
        assert mean == pytest.approx(mean_o, abs=1e-10)
        assert sigma == pytest.approx(sig_o, abs=1e-10)


class TestExactEngineRandomTinyConfigs:
    @given(st.integers(0, 10**6), st.integers(2, 4), st.floats(0.0, 0.4),
           st.integers(0, 2))
    @settings(max_examples=10, deadline=None)
    def test_plaintext_agreement_with_loops(self, seed, users, p, tau):
        pop = generate_population(4, users, p, seed=seed)
        scheme = PlaintextScheme(4, tau=tau)
        en = exact.SchemeEnumerator(scheme, pop)
        assert en.fnmr() == pytest.approx(
            loop_oracle_scheme_metric(scheme, pop, "fnmr"), abs=1e-10)
        assert en.fmr_bp() == pytest.approx(
            loop_oracle_scheme_metric(scheme, pop, "bp"), abs=1e-10)


class TestSchemeFnmr:
    def test_fc_noiseless_is_zero(self, fc_scheme, noiseless_pop):
        est = metrics.est_scheme_fnmr(fc_scheme, noiseless_pop,
                                      RunSettings(trials=2000, seed=1))
        assert est.point == 0.0

    def test_plaintext_equals_baseline_exactly(self, default_pop):
        # the enumerated plaintext scheme against the raw comparator's law
        scheme = PlaintextScheme(7, tau=1)
        en = exact.SchemeEnumerator(scheme, default_pop)
        fnmr_exact = exact.LawOracle(scheme, default_pop).fnmr()
        assert en.fnmr() == pytest.approx(fnmr_exact, abs=1e-12)

    def test_fc_estimate_matches_exact(self, fc_scheme, default_pop):
        est = metrics.est_scheme_fnmr(fc_scheme, default_pop,
                                      RunSettings(trials=20000, seed=21, level=0.99))
        assert est.ci_low <= exact.enumerator(fc_scheme, default_pop).fnmr() \
            <= est.ci_high


class TestFmrVariants:
    def test_plaintext_tp_collapses(self, default_pop):
        # with an empty second factor the AD-factor comparison is the raw
        # impostor test, while the PI-factor comparison degenerates to the
        # mated test (the stored datum carries nothing from v); the
        # enumerated scheme is held to the raw comparator's law
        scheme = PlaintextScheme(7, tau=1)
        en = exact.SchemeEnumerator(scheme, default_pop)
        raw = exact.LawOracle(scheme, default_pop)
        fnmr_exact, fmr_exact = raw.fnmr(), raw.fmr_bp()
        assert en.fmr_tp("ad") == pytest.approx(fmr_exact, abs=1e-12)
        assert en.fmr_tp("pi") == pytest.approx(1.0 - fnmr_exact, abs=1e-12)
        assert en.fmr_bp() == pytest.approx(fmr_exact, abs=1e-12)

    def test_fc_tp_is_message_collision_rate(self, fc_scheme, default_pop):
        en = exact.enumerator(fc_scheme, default_pop)
        assert en.fmr_tp("ad") == pytest.approx(1 / 16, abs=1e-12)
        assert en.fmr_tp("pi") == pytest.approx(1 / 16, abs=1e-12)

    def test_fc_tp_below_bp_paired(self, fc_scheme, default_pop):
        tp = metrics.est_fmr_tp(fc_scheme, default_pop, "ad",
                                RunSettings(trials=20000, seed=31))
        bp = metrics.est_fmr_bp(fc_scheme, default_pop,
                                RunSettings(trials=20000, seed=31))
        assert tp.point <= bp.point
        en = exact.enumerator(fc_scheme, default_pop)
        assert en.fmr_tp("ad") <= en.fmr_bp()

    @pytest.mark.parametrize("scheme", [PlaintextScheme(7, tau=1),
                                        RotationScheme(7, tau=2)],
                             ids=["plain", "rot"])
    def test_tp_factors_match_enumeration(self, default_pop, scheme):
        # the two factors differ here (on fc both are 1/16), so taking pi
        # and alpha from the wrong enrollments shows
        en = exact.enumerator(scheme, default_pop)
        for factor in ("ad", "pi"):
            est = metrics.est_fmr_tp(scheme, default_pop, factor,
                                     RunSettings(trials=4000, seed=37, level=0.99))
            assert est.ci_low <= en.fmr_tp(factor) <= est.ci_high

    def test_rotation_full_threshold_matches_everything(self, default_pop):
        scheme = RotationScheme(7, tau=7)
        est = metrics.est_fmr_tp(scheme, default_pop, "ad",
                                 RunSettings(trials=500, seed=2))
        assert est.point == 1.0

    def test_fc_bp_estimate_matches_exact(self, fc_scheme, default_pop):
        est = metrics.est_fmr_bp(fc_scheme, default_pop,
                                 RunSettings(trials=20000, seed=41, level=0.99))
        assert est.ci_low <= exact.enumerator(fc_scheme, default_pop).fmr_bp() \
            <= est.ci_high

    def test_bp_zero_for_distant_centers_noiseless(self):
        centers = (0, 127)
        pop = Population(n=7, flip_prob=0.0, seed=0, centers=centers)
        code = FuzzyCommitmentScheme(
            LinearCode.from_bitstrings(
                ["1000110", "0100101", "0010011", "0001111"], t=1))
        est = metrics.est_fmr_bp(code, pop, RunSettings(trials=1000, seed=5))
        assert est.point == 0.0

    def test_div_plaintext_equals_mated_rate(self, default_pop):
        scheme = PlaintextScheme(7, tau=1)
        en = exact.enumerator(scheme, default_pop)
        assert en.fmr_div() == pytest.approx(1.0 - en.fnmr(), abs=1e-12)

    def test_div_fc_exact_and_entropy(self, fc_scheme, default_pop):
        en = exact.enumerator(fc_scheme, default_pop)
        assert en.fmr_div() == pytest.approx(1 / 16, abs=1e-12)
        est = metrics.est_fmr_div(fc_scheme, default_pop,
                                  RunSettings(trials=20000, seed=51, level=0.99))
        assert est.ci_low <= 1 / 16 <= est.ci_high
        assert metrics.entropy_bits(en.fmr_div()) == pytest.approx(4.0)

    def test_factor_validation(self, fc_scheme, default_pop):
        with pytest.raises(ConfigError):
            metrics.est_fmr_tp(fc_scheme, default_pop, "xx",
                               RunSettings(trials=100, seed=0))


class TestLawRatesPastFeatureScan:
    """Past n = 20 the ball-law oracle still gives the five recognition
    rates of a scheme: each lies in its estimate's 99% Wilson interval."""

    RATES = {
        "fnmr_scheme": (metrics.est_scheme_fnmr, lambda en: en.fnmr()),
        "fmr_tp_ad": (lambda s, p, rs: metrics.est_fmr_tp(s, p, "ad", rs),
                      lambda en: en.fmr_tp("ad")),
        "fmr_tp_pi": (lambda s, p, rs: metrics.est_fmr_tp(s, p, "pi", rs),
                      lambda en: en.fmr_tp("pi")),
        "fmr_bp": (metrics.est_fmr_bp, lambda en: en.fmr_bp()),
        "fmr_div": (metrics.est_fmr_div, lambda en: en.fmr_div()),
    }

    @pytest.mark.parametrize("make", [RotationScheme, PlaintextScheme],
                             ids=["rot", "plain"])
    @pytest.mark.parametrize("n", [22, 32, 64])
    def test_exact_within_interval(self, n, make):
        pop = generate_population(n, 16, 0.03, seed=1)
        scheme = make(n, tau=1)
        en = exact.enumerator(scheme, pop)
        settings = RunSettings(trials=200_000, seed=7, level=0.99)
        for name, (estimate, exact_rate) in self.RATES.items():
            est = estimate(scheme, pop, settings)
            assert est.ci_low <= exact_rate(en) <= est.ci_high, name


class TestMrOfFeature:
    def test_tau_n_is_one(self, default_pop):
        assert exact.mr_scores(default_pop, [0], 7)[0] == pytest.approx(1.0)

    def test_noiseless_counts_users_in_ball(self, noiseless_pop):
        x = noiseless_pop.centers[0]
        expect = sum(
            1 for u in range(noiseless_pop.num_users)
            if hamming_distance(noiseless_pop.centers[u], x) <= 1
        ) / noiseless_pop.num_users
        assert exact.mr_scores(noiseless_pop, [x], 1)[0] \
            == pytest.approx(expect)

    def test_against_weighted_sum_oracle(self, default_pop):
        # brute force over all 2^7 probe values weighted by feature_probability
        pop = default_pop
        x = pop.centers[0]
        tau = 1
        oracle = 0.0
        for u in range(pop.num_users):
            for v in range(1 << pop.n):
                if hamming_distance(v, x) <= tau:
                    oracle += feature_probability(pop, u, v)
        oracle /= pop.num_users
        assert exact.mr_scores(pop, [x], tau)[0] \
            == pytest.approx(oracle, abs=1e-12)
        assert exact.mr_of(pop, [x], tau)[0] \
            == pytest.approx(oracle, abs=1e-12)

    def test_large_n_by_closed_form(self):
        # past EXACT_N_CAP no vector is built, yet the exact rate is given
        pop = generate_population(22, 2, 0.01, seed=0)
        x = 0
        assert exact.mr_scores(pop, [x], 1).tolist() \
            == [closed_form_mr(pop, x, 1)]
        est = metrics.est_mr_of_feature(pop, x, 1,
                                        RunSettings(trials=500, seed=1))
        assert 0.0 <= est.point <= 1.0


class TestRmrOfFeature:
    def test_plaintext_equals_mr_exactly(self, default_pop):
        scheme = PlaintextScheme(7, tau=1)
        en = exact.enumerator(scheme, default_pop)
        assert np.allclose(en.rmr_vector(), exact.mr_vector(default_pop, 1),
                           atol=1e-12)

    def test_far_feature_never_accepted_noiseless(self, fc_scheme):
        pop = Population(n=7, flip_prob=0.0, seed=0, centers=(0, 3))
        x = 0b1111000  # distance >= 3 from both centers
        est = metrics.rmr_of_feature(fc_scheme, pop, x, RunSettings(trials=500, seed=3))
        assert est.point == 0.0

    def test_plaintext_counts_centers(self, noiseless_pop):
        # noiseless enrollments are the centers; tau = 0 accepts equal ones
        x = noiseless_pop.centers[0]
        est = metrics.rmr_of_feature(PlaintextScheme(7, tau=0), noiseless_pop,
                                     x, RunSettings(trials=4000, seed=7))
        same = sum(1 for c in noiseless_pop.centers if c == x)
        assert est.ci_low <= same / noiseless_pop.num_users <= est.ci_high

    def test_rotation_full_threshold(self, default_pop):
        est = metrics.rmr_of_feature(RotationScheme(7, tau=7), default_pop,
                                     5,
                                     RunSettings(trials=300, seed=7))
        assert est.point == 1.0

    def test_estimate_matches_enumeration(self, fc_scheme, default_pop):
        x = default_pop.centers[2]
        est = metrics.rmr_of_feature(fc_scheme, default_pop, x,
                                     RunSettings(trials=20000, seed=61, level=0.99))
        assert est.ci_low <= exact.enumerator(fc_scheme, default_pop) \
            .rmr_vector()[x] <= est.ci_high


class TestProbeDimension:
    @pytest.mark.parametrize("estimate", [
        lambda scheme, pop, x: metrics.est_mr_of_feature(pop, x, 1,
                                                         RunSettings(trials=100,
                                                                     seed=0)),
        lambda scheme, pop, x: metrics.rmr_of_feature(scheme, pop, x,
                                                      RunSettings(trials=100, seed=0)),
    ], ids=["est_mr_of_feature", "rmr_of_feature"])
    def test_probe_of_another_dimension_rejected(self, fc_scheme, default_pop,
                                                 estimate):
        with pytest.raises(DimensionError, match="probe 300 has more than 7 bits"):
            estimate(fc_scheme, default_pop, 300)


class TestExtremal:
    def test_degenerate_shared_center(self):
        c = 42
        pop = Population(n=7, flip_prob=0.0, seed=0, centers=(c, c))
        m = metrics.extremal_mr(pop, 0)
        assert m.value == pytest.approx(1.0)
        assert m.witness == c

    def test_monotone_in_tau(self, default_pop):
        values = [metrics.extremal_mr(default_pop, t).value for t in range(8)]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(1.0)

    def test_exact_agrees_with_feature_scan(self, default_pop):
        m = metrics.extremal_mr(default_pop, 1)
        scan = exact.mr_of(default_pop, np.arange(128), 1).max()
        assert m.value == pytest.approx(scan, abs=1e-12)
        assert m.mode == "exact"

    def test_lower_bound_mode_flagged(self):
        # the full feature scan stops at EXACT_N_CAP
        pop = generate_population(exact.EXACT_N_CAP + 1, 4, 0.02, seed=2)
        m = metrics.extremal_mr(pop, 1, RunSettings(seed=0))
        assert m.mode == "lower_bound"
        assert m.value <= 1.0

    def test_extremal_rmr_fc(self, fc_scheme, default_pop):
        m = metrics.extremal_rmr(fc_scheme, default_pop)
        vec = exact.enumerator(fc_scheme, default_pop).rmr_vector()
        assert m.value == pytest.approx(float(vec.max()), abs=1e-12)

    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1), (1, 2, 0)])
    def test_tied_extremes_take_the_lowest_feature(self, order):
        # rotating coordinates by 2 permutes the centers, so every rate
        # ties across each rotation orbit, summed in a different user order
        # at each member; reordering the users changes every sum again
        centers = [0b000011, 0b001100, 0b110000]
        pop = Population(n=6, flip_prob=0.05, seed=0,
                         centers=tuple(centers[i] for i in order))

        def lowest(vec, pick):
            return int(np.flatnonzero(np.abs(vec - pick(vec)) <= 1e-12)[0])

        mr = exact.mr_vector(pop, 1)
        assert metrics.extremal_mr(pop, 1).witness == lowest(mr, np.max)
        ov_vec = exact.mr_vector(pop, 2)
        ov = metrics.overlap_rates(pop, 1)
        assert ov.witness_max == lowest(ov_vec, np.max)
        assert ov.witness_min == lowest(ov_vec, np.min)
        scheme = RotationScheme(6, tau=1)
        rmr = exact.SchemeEnumerator(scheme, pop).rmr_vector()
        m = metrics.extremal_rmr(scheme, pop)
        assert m.witness == lowest(rmr, np.max)
        assert m.value == pytest.approx(float(rmr.max()), abs=1e-12)
        # the rotation orbit of each witness holds tied features
        for vec, w in ((mr, lowest(mr, np.max)), (ov_vec, lowest(ov_vec, np.min))):
            orbit = [rotate(6, w, 2 * k) for k in range(3)]
            assert np.ptp(vec[orbit]) <= 1e-12
            assert w == min(orbit)

    def test_each_feature_scan_is_made_once(self, monkeypatch, fc_scheme,
                                            default_pop):
        # the vector at radius 1 (MR, and rMR under fc's law) is scanned
        # for its max only, the one at radius 2 (the overlap rates at
        # tau = 1) for its max and its min
        want = (metrics.extremal_mr(default_pop, 1),
                metrics.extremal_rmr(fc_scheme, default_pop),
                metrics.overlap_rates(default_pop, 1))
        metrics._mr_scan.cache_clear()
        scans = []
        extreme = metrics._extreme
        monkeypatch.setattr(metrics, "_extreme",
                            lambda values, rates, lowest=False:
                            scans.append((len(rates), lowest))
                            or extreme(values, rates, lowest))
        for _ in range(3):
            assert (metrics.extremal_mr(default_pop, 1),
                    metrics.extremal_rmr(fc_scheme, default_pop),
                    metrics.overlap_rates(default_pop, 1)) == want
        assert sorted(scans) == [(128, False), (128, False), (128, True)]

    @pytest.mark.parametrize("cfg, n", [
        ({"scheme": "fc", "code": {"n": 7, "k": 4, "t": 1}}, 7),
        ({"scheme": "plain", "tau": 1}, 7), ({"scheme": "rot", "tau": 2}, 7),
        ({"scheme": "rot", "tau": 1}, 12)],
        ids=["fc7", "plain7", "rot7", "rot12"])
    def test_match_law_rmr_is_the_oracle_scan(self, cfg, n):
        # rMR of a match-law scheme is MR at the law's radius: the same
        # cached vector and the same scan as the oracle's rmr_vector
        pop = generate_population(n, 16, 0.03, seed=1)
        scheme = build_scheme(cfg, n)
        vec = exact.enumerator(scheme, pop).rmr_vector()
        want = metrics.MValue(*metrics._extreme(np.arange(len(vec)), vec),
                              "exact")
        assert metrics.extremal_rmr(scheme, pop) == want

    def test_rmr_scheme_of_another_dimension_rejected(self, default_pop):
        with pytest.raises(ConfigError, match="disagree on n"):
            metrics.extremal_rmr(RotationScheme(9, tau=1), default_pop)

    def test_match_law_rmr_beyond_the_scan_is_exact_per_candidate(self):
        pop = generate_population(24, 16, 0.03, seed=1)
        m = metrics.extremal_rmr(RotationScheme(24, tau=1), pop,
                                 RunSettings(seed=5))
        assert m.mode == "lower_bound"
        assert m.value == float(exact.mr_of(pop, [m.witness], 1)[0])
        assert m == metrics.extremal_mr(pop, 1, RunSettings(seed=5))


class TestPtMatchStats:
    def test_always_match_scheme(self, default_pop):
        st = metrics.pt_match_stats(AlwaysMatchScheme(7), default_pop,
                                    RunSettings(stats_outer=50, stats_inner=40, seed=1))
        assert st.stats.mean == pytest.approx(1.0)
        assert st.stats.std_dev == pytest.approx(0.0)
        assert st.stats.variation_coeff == pytest.approx(0.0)

    def test_zero_mean_variation_undefined(self, default_pop):
        st = metrics.pt_match_stats(NeverMatchScheme(7), default_pop,
                                    RunSettings(stats_outer=30, stats_inner=20, seed=1))
        with pytest.raises(ConfigError):
            _ = st.stats.variation_coeff

    def test_chebyshev_always_holds(self, fc_scheme, default_pop):
        settings = RunSettings(stats_outer=400, stats_inner=250, seed=9)
        st = metrics.pt_match_stats(fc_scheme, default_pop, settings)
        floor = st.stats.chebyshev_threshold(0.25)
        rates = pt_rates(fc_scheme, default_pop, settings)
        frac = float((rates > floor).mean())
        assert frac >= 0.75

    @pytest.mark.parametrize("outer", [0, 1])
    def test_fewer_than_two_templates_rejected(self, fc_scheme, default_pop,
                                               outer):
        with pytest.raises(ConfigError, match="stats_outer must be >= 2"):
            metrics.pt_match_stats(fc_scheme, default_pop,
                                   RunSettings(stats_outer=outer, stats_inner=40,
                                               seed=1))

    def test_matches_exact_enumeration(self, fc_scheme, default_pop):
        st = metrics.pt_match_stats(fc_scheme, default_pop,
                                    RunSettings(stats_outer=600, stats_inner=400,
                                                seed=13, level=0.99))
        stats = metrics.exact_pt_match_stats(fc_scheme, default_pop)
        assert st.mean_ci[0] <= stats.mean <= st.mean_ci[1]
        assert st.std_ci[0] <= stats.std_dev <= st.std_ci[1]


class TestOverlapRates:
    def test_everything_overlaps_at_large_tau(self, default_pop):
        ov = metrics.overlap_rates(default_pop, 4)  # 2*tau >= n
        assert ov.p_tau == pytest.approx(1.0)
        assert ov.q_tau == pytest.approx(1.0)

    def test_monotone_in_tau(self, default_pop):
        ps, qs = [], []
        for tau in range(5):
            ov = metrics.overlap_rates(default_pop, tau)
            ps.append(ov.p_tau)
            qs.append(ov.q_tau)
        assert ps == sorted(ps)
        assert qs == sorted(qs)

    def test_uniform_sandwich(self, default_pop):
        ov = metrics.overlap_rates(default_pop, 0)
        assert ov.q_tau <= 1 / 128 <= ov.p_tau

    @pytest.mark.parametrize("n", [9, 10])
    def test_uniform_sandwich_larger_spaces(self, n):
        pop = generate_population(n, 16, 0.03, seed=1)
        ov = metrics.overlap_rates(pop, 0)
        assert ov.q_tau <= 2.0 ** -n <= ov.p_tau

    def test_against_double_enumeration(self, default_pop):
        pop = default_pop
        pmfs = [pmf_by_feature_probability(pop, u) for u in range(pop.num_users)]
        mix = np.mean(pmfs, axis=0)
        xs = np.arange(128, dtype=np.uint64)
        d = np.bitwise_count(xs[:, None] ^ xs[None, :])
        vec = (d <= 2).astype(float) @ mix  # tau = 1
        ov = metrics.overlap_rates(pop, 1)
        assert ov.p_tau == pytest.approx(float(vec.max()), abs=1e-12)
        assert ov.q_tau == pytest.approx(float(vec.min()), abs=1e-12)

    def test_estimates_cover_exact(self, default_pop):
        # p_tau and q_tau are match rates at radius 2 tau
        ov = metrics.overlap_rates(default_pop, 1)
        settings = RunSettings(trials=30000, seed=17, level=0.99)
        p = metrics.est_mr_of_feature(default_pop, ov.witness_max, 2, settings)
        q = metrics.est_mr_of_feature(default_pop, ov.witness_min, 2, settings)
        assert p.ci_low <= ov.p_tau <= p.ci_high
        assert q.ci_low <= ov.q_tau <= q.ci_high

    def test_witnesses_are_exact_extremes_at_n10(self):
        # Witnesses picked from noisy counts missed q_tau here: 3/5000 hits
        # against an exact 5.9e-5.
        pop = generate_population(10, 16, 0.03, seed=1)
        vec = exact.mr_vector(pop, 2)
        ov = metrics.overlap_rates(pop, 1)
        settings = RunSettings(trials=10000, seed=1, level=0.99)
        p = metrics.est_mr_of_feature(pop, ov.witness_max, 2, settings)
        q = metrics.est_mr_of_feature(pop, ov.witness_min, 2, settings)
        assert ov.witness_min == int(np.argmin(vec))
        assert ov.witness_max == int(np.argmax(vec))
        assert q.ci_low <= ov.q_tau <= q.ci_high
        assert p.ci_low <= ov.p_tau <= p.ci_high
        assert q.queries_used == q.trials == 10000


def scalar_enumeration(scheme, pop):
    """(pt_pi, pt_alpha, W, match) from one capture and one template at a
    time: codes numbered in sorted order, templates in sorted order of
    their (pi, alpha) codes, each weight summed in the order of a scan
    over users, their possible captures and encoder outcomes."""
    size = 1 << pop.n
    P = [pmf_by_feature_probability(pop, u) for u in range(pop.num_users)]
    weights = {}
    for u in range(pop.num_users):
        for x in range(size):
            px = P[u][x]
            if px == 0.0:
                continue
            for wp, pi, alpha in outcomes(scheme, x):
                weights[u, pi, alpha] = weights.get((u, pi, alpha), 0.0) + px * wp
    templates = sorted({(pi, alpha) for _, pi, alpha in weights})
    pis = sorted({pi for pi, _ in templates})
    alphas = sorted({alpha for _, alpha in templates})
    W = np.zeros((pop.num_users, len(templates)))
    for (u, pi, alpha), w in weights.items():
        W[u, templates.index((pi, alpha))] = w
    match = np.array([[[accepts(scheme, pi, alpha, x) for x in range(size)]
                       for alpha in alphas] for pi in pis])
    return ([pis.index(pi) for pi, _ in templates],
            [alphas.index(alpha) for _, alpha in templates], W, match)


# The loops below call the batch methods on one capture or template at a
# time, the kernels and the enumerator on whole arrays
ENUMERATED_SCHEMES = {
    "fc": lambda: FuzzyCommitmentScheme(LinearCode.from_bitstrings(
        ["1000110", "0100101", "0010011", "0001111"], t=1)),
    "rot": lambda: RotationScheme(7, tau=1),
    "plain": lambda: PlaintextScheme(7, tau=2),
    "broken": lambda: BrokenScheme(7),
    "always-match": lambda: AlwaysMatchScheme(7),
    "never-match": lambda: NeverMatchScheme(7),
    "lottery": lambda: LotteryScheme(7, 0.3),
}


class TestEnumeratorTables:
    """The enumerator's batch-built tables equal a per-template scan."""

    @pytest.mark.parametrize("pop_name", ["default_pop", "noiseless_pop"])
    @pytest.mark.parametrize("name", list(ENUMERATED_SCHEMES))
    def test_tables_match_scalar_reference(self, request, name, pop_name):
        scheme = ENUMERATED_SCHEMES[name]()
        pop = request.getfixturevalue(pop_name)
        en = exact.SchemeEnumerator(scheme, pop)
        pt_pi, pt_alpha, W, match = scalar_enumeration(scheme, pop)
        assert en.pt_pi.tolist() == pt_pi
        assert en.pt_alpha.tolist() == pt_alpha
        assert np.array_equal(en.W, W)
        assert np.array_equal(en.match, match)
        own = all(accepts(scheme, pi, alpha, x) for x in range(128)
                  for _, pi, alpha in outcomes(scheme, x))
        assert en.hypothesis_own_match() == own
        mix = [np.mean([feature_probability(pop, u, v)
                        for u in range(pop.num_users)]) for v in range(128)]
        assert en.pmf_mix == pytest.approx(mix, abs=1e-15)


# Every count estimator, called as f(scheme, pop, settings), with the
# captures one of its trials draws.
COUNT_ESTIMATORS = {
    "fnmr_d": (lambda s, p, rs: metrics.est_baseline_rates(p, 1, rs)[0], 2),
    "fmr_d": (lambda s, p, rs: metrics.est_baseline_rates(p, 1, rs)[1], 2),
    "fnmr_scheme": (metrics.est_scheme_fnmr, 2),
    "fmr_tp_ad": (lambda s, p, rs: metrics.est_fmr_tp(s, p, "ad", rs), 3),
    "fmr_tp_pi": (lambda s, p, rs: metrics.est_fmr_tp(s, p, "pi", rs), 3),
    "fmr_bp": (metrics.est_fmr_bp, 2),
    "fmr_div": (metrics.est_fmr_div, 3),
    "mr": (lambda s, p, rs:
           metrics.est_mr_of_feature(p, p.centers[0], 1, rs), 1),
    "rmr": (lambda s, p, rs:
            metrics.rmr_of_feature(s, p, p.centers[0], rs), 1),
}


def loop_accepts(kernel, rng, m):
    """`_AcceptKernel`'s count by a per-trial loop of scheme calls on one
    capture each, on the same draws."""
    pop, scheme = kernel.pop, kernel.scheme
    users = {"u": rng.integers(pop.num_users, size=m)}
    if "v" in kernel.owners:
        vs = rng.integers(pop.num_users - 1, size=m)
        users["v"] = vs + (vs >= users["u"])
    probes = pop.sample_batch(users["u"], rng) if kernel.probe is None else None
    enrolls = [pop.sample_batch(users[o], rng) for o in kernel.owners]
    hits = 0
    for i in range(m):
        pts = [scheme.pie_batch(e[i], rng) for e in enrolls]
        x = probes[i] if kernel.probe is None else kernel.probe
        hits += accepts(scheme, pts[kernel.pi_from][0],
                        pts[kernel.alpha_from][1], x)
    return m - hits if kernel.count_rejects else hits


# _AcceptKernel fields of each count estimator, given the population
KERNEL_CONFIGS = {
    "fnmr": lambda p: dict(count_rejects=True),
    "fmr_tp_ad": lambda p: dict(owners=("u", "v"), pi_from=1),
    "fmr_tp_pi": lambda p: dict(owners=("u", "v"), alpha_from=1),
    "fmr_bp": lambda p: dict(owners=("v",)),
    "fmr_div": lambda p: dict(owners=("u", "u"), alpha_from=1),
    "rmr": lambda p: dict(probe=p.centers[2]),
}


class TestAcceptKernelAgainstLoop:
    """The array kernel counts what the scalar per-trial loop counts, and
    leaves the stream where the loop leaves it."""

    @pytest.mark.parametrize("config", list(KERNEL_CONFIGS))
    @pytest.mark.parametrize("name", ["fc", "rot", "broken", "lottery"])
    def test_counts_equal_scalar_loop(self, default_pop, name, config):
        scheme = ENUMERATED_SCHEMES[name]()
        fields = KERNEL_CONFIGS[config](default_pop)
        kernel = metrics._AcceptKernel(default_pop, scheme, **fields)
        batch_rng, loop_rng = substream(5, "kernel"), substream(5, "kernel")
        assert kernel(batch_rng, 700) == loop_accepts(kernel, loop_rng, 700)
        assert batch_rng.random() == loop_rng.random()


def raw_accepts(pop, tau, rng, m, owners=("u",), probe=None,
                count_rejects=False):
    """The raw comparator d(probe, enrollment 0) <= tau, counted on the
    draws of `_AcceptKernel`: the reference of the plaintext kernel."""
    users = {"u": rng.integers(pop.num_users, size=m)}
    if "v" in owners:
        vs = rng.integers(pop.num_users - 1, size=m)
        users["v"] = vs + (vs >= users["u"])
    x = (pop.sample_batch(users["u"], rng) if probe is None
         else np.full(m, probe, dtype=np.uint64))
    enrolls = [pop.sample_batch(users[o], rng) for o in owners]
    accepts = int((np.bitwise_count(x ^ enrolls[0]) <= tau).sum())
    return m - accepts if count_rejects else accepts


# _AcceptKernel fields of each raw-distance rate, given the population
RAW_CONFIGS = {
    "fnmr": lambda p: dict(count_rejects=True),
    "fmr": lambda p: dict(owners=("v",)),
    "fixed_probe": lambda p: dict(probe=p.centers[2]),
}


class TestPlaintextKernelIsTheRawComparator:
    """The plaintext scheme counts what the raw distance comparator counts,
    and leaves the stream where it leaves it."""

    @pytest.mark.parametrize("tau", [0, 1, 3])
    @pytest.mark.parametrize("n", [7, 10])
    @pytest.mark.parametrize("config", list(RAW_CONFIGS))
    def test_counts_equal_raw_comparator(self, config, n, tau):
        pop = generate_population(n, 16, 0.1, seed=n)
        fields = RAW_CONFIGS[config](pop)
        kernel = metrics._AcceptKernel(pop, PlaintextScheme(n, tau), **fields)
        kernel_rng, raw_rng = substream(8, "raw"), substream(8, "raw")
        assert kernel(kernel_rng, 700) == raw_accepts(pop, tau, raw_rng, 700,
                                                      **fields)
        assert kernel_rng.random() == raw_rng.random()

    @pytest.mark.parametrize("estimate", [
        lambda pop, s: metrics.est_baseline_rates(pop, -1, s),
        lambda pop, s: metrics.est_mr_of_feature(pop, pop.centers[0], -1, s),
    ], ids=["est_baseline_rates", "est_mr_of_feature"])
    def test_negative_tau_refused(self, default_pop, estimate):
        with pytest.raises(ConfigError, match="tau must be >= 0"):
            estimate(default_pop, RunSettings(trials=100, seed=0))


def loop_pt_rates(kernel, rng, m):
    """`_PtStatsKernel`'s rates by a per-template loop of scheme calls on
    one capture each, on the same block draws: a block's users, enrolled
    captures, one `pie_batch` per template in turn, probe users and
    probes."""
    pop, scheme, k = kernel.pop, kernel.scheme, kernel.trials_inner
    block = max(1, metrics.PT_BLOCK_PROBES // k)
    rates = []
    for lo in range(0, m, block):
        b = min(block, m - lo)
        enrolls = pop.sample_batch(rng.integers(pop.num_users, size=b), rng)
        pts = [scheme.pie_batch(x, rng) for x in enrolls]
        probes = pop.sample_batch(rng.integers(pop.num_users, size=(b, k)), rng)
        for (pi, alpha), row in zip(pts, probes):
            hits = sum(accepts(scheme, pi, alpha, x) for x in row)
            rates.append(hits / k)
    return np.array(rates)


class TestPtStatsKernelAgainstLoop:
    """The block kernel rates what the per-template scalar loop rates, bit
    for bit, and leaves the stream where the loop leaves it."""

    # (templates, captures per template, probes per block): a last block
    # shorter than the others, and templates of more captures than a block
    SHAPES = [(23, 10, 64), (5, 100, 64), (700, 7, metrics.PT_BLOCK_PROBES)]

    @pytest.mark.parametrize("m, k, block", SHAPES)
    @pytest.mark.parametrize("name", list(ENUMERATED_SCHEMES))
    def test_rates_equal_template_loop(self, monkeypatch, default_pop, name,
                                       m, k, block):
        monkeypatch.setattr(metrics, "PT_BLOCK_PROBES", block)
        kernel = metrics._PtStatsKernel(ENUMERATED_SCHEMES[name](),
                                        default_pop, k)
        batch_rng, loop_rng = substream(6, "pt"), substream(6, "pt")
        rates = kernel(batch_rng, m)
        assert rates.view(np.uint64).tolist() == \
            loop_pt_rates(kernel, loop_rng, m).view(np.uint64).tolist()
        assert batch_rng.random() == loop_rng.random()


class TestAcceptKernelCost:
    """Guards on what the kernel does, not on how long it takes: one
    `sample_batch` for the probe and every enrollment, and one call of
    each scheme stage, per kernel call."""

    @pytest.mark.parametrize("config", list(KERNEL_CONFIGS))
    @pytest.mark.parametrize("name", ["fc", "rot", "plain", "broken", "lottery"])
    def test_one_call_of_each_stage(self, batch_calls, default_pop, name,
                                    config):
        scheme = ENUMERATED_SCHEMES[name]()
        fields = KERNEL_CONFIGS[config](default_pop)
        kernel = metrics._AcceptKernel(default_pop, scheme, **fields)
        calls = batch_calls(scheme)
        rng = substream(5, "kernel-cost")
        for _ in range(3):
            kernel(rng, 300)
        assert calls == Counter(sample_batch=3, pie_batch=3, pir_batch=3,
                                pic_batch=3)


class TestPtStatsKernelCost:
    """Guards on what the kernel does, not on how long it takes."""

    def test_one_rating_call_per_block(self, batch_calls, default_pop):
        scheme = ENUMERATED_SCHEMES["fc"]()
        calls = batch_calls(scheme)
        metrics.pt_match_stats(scheme, default_pop,
                               RunSettings(stats_outer=600, stats_inner=400, seed=2))
        blocks = math.ceil(600 / (metrics.PT_BLOCK_PROBES // 400))
        assert calls["pir_batch"] == calls["pic_batch"] <= blocks
        assert calls["sample_batch"] <= 2 * blocks

    def test_peak_memory_bounded(self):
        # the (probes, words) arrays of one block dominate: about 0.5 MB here
        pop = generate_population(10, 16, 0.03, seed=1)
        scheme = RotationScheme(10, tau=1)
        metrics.pt_match_stats(scheme, pop,
                               RunSettings(stats_outer=20, stats_inner=400, seed=1))
        tracemalloc.start()
        try:
            metrics.pt_match_stats(scheme, pop,
                                   RunSettings(stats_outer=600, stats_inner=400,
                                               seed=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestParallelDeterminism:
    @pytest.mark.parametrize("name", list(COUNT_ESTIMATORS))
    def test_jobs_do_not_change_counts(self, fc_scheme, default_pop, name,
                                       chunk_runs):
        estimator, captures = COUNT_ESTIMATORS[name]
        trials = metrics.CHUNK_TRIALS + 176        # two chunks
        a = estimator(fc_scheme, default_pop,
                      RunSettings(trials=trials, seed=23, jobs=1))
        assert chunk_runs.pools == 0
        b = estimator(fc_scheme, default_pop,
                      RunSettings(trials=trials, seed=23, jobs=2))
        assert chunk_runs.pools == len(chunk_runs.trials) // 2 >= 1
        assert a == b
        assert a.queries_used == trials * captures

    def test_stats_jobs_identical(self, fc_scheme, default_pop, chunk_runs):
        outer = metrics.CHUNK_TRIALS + 76          # two chunks
        one, two = (RunSettings(stats_outer=outer, stats_inner=100, seed=3,
                                jobs=jobs) for jobs in (1, 2))
        a = metrics.pt_match_stats(fc_scheme, default_pop, one)
        b = metrics.pt_match_stats(fc_scheme, default_pop, two)
        assert chunk_runs.pools == 1
        assert a == b
        assert np.array_equal(pt_rates(fc_scheme, default_pop, one),
                              pt_rates(fc_scheme, default_pop, two))
        assert chunk_runs.pools == 2


@pytest.mark.parametrize("key, value, message", [
    ("jobs", 0, "jobs must be >= 1, got 0"),
    ("level", 1.5, r"confidence level must be in \(0,1\), got 1.5")])
def test_run_settings_refuse_jobs_and_level_before_any_work(key, value,
                                                             message):
    with pytest.raises(ConfigError, match=message):
        RunSettings(**{key: value})


# Public functions of `games` and `metrics` that draw nothing: interval
# arithmetic and the exact scans.
PURE_HELPERS = {"z_value", "wilson_interval", "verdict_margin",
                "absolute_advantage", "entropy_bits", "overlap_rates",
                "exact_pt_match_stats"}
SETTING_NAMES = {"seed", "budget", "level", "jobs", "trials",
                 "candidate_draws"}


@pytest.mark.parametrize("module", [games, metrics], ids=["games", "metrics"])
def test_trial_runners_take_one_settings_record(module):
    """Every public function that runs trials takes its run settings as one
    `RunSettings` record, and none of them one by one."""
    runners = {name: fn for name, fn in inspect.getmembers(module,
                                                            inspect.isfunction)
               if fn.__module__ == module.__name__
               and not name.startswith("_") and name not in PURE_HELPERS}
    assert runners
    for name, fn in runners.items():
        params = set(inspect.signature(fn).parameters)
        assert "settings" in params, name
        assert not params & SETTING_NAMES, name
