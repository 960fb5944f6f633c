"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the gate lines.
All tolerances are fixed here, not tuned at runtime: set-inclusion checks
are exact (zero tolerance), agreement checks use 3 combined standard
errors or the criterion's stated absolute bound, and coverage checks
demand 95 of 100 seeded runs inside the 99% interval.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from btpeval import cli, exact, metrics
from btpeval.adversaries import (
    BlindArgmaxAdversary,
    MatchTestUnlinkAdversary,
    PalSamplerConfig,
    PalSamplerAdversary,
    ReadViewAdversary,
    ReductionUnlinkAdversary,
    SamplerIrrAdversary,
    compute_n_delta,
)
from btpeval.games import (
    est_cross_match_rates,
    run_al_irr_game,
    run_coupled_irr_trials,
    run_pal_irr_game,
    run_unlink_game,
)
from btpeval.adversaries import CrossComparatorAdversary
from btpeval.metrics import RunSettings
from btpeval.population import bitstring, generate_population
from btpeval.schemes import (
    LEAK_AD,
    LEAK_BOTH,
    LEAK_PI,
    FuzzyCommitmentScheme,
    LinearCode,
    PlaintextScheme,
    ProtectedTemplate,
    leak_view,
)
from reference_results import half_width, plug_in_se
from reference_schemes import decisions_and_ball


def gate(number, label, ok, detail=""):
    print(f"ACCEPTANCE {number} [{label}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number} ({label}): {detail}"


class TestCriterion1TheoremThree:
    def test_unlink_unachievability_reproduction(self, fc_scheme, default_pop):
        start = time.monotonic()
        en = exact.enumerator(fc_scheme, default_pop)
        hypothesis = en.hypothesis_own_match()
        mr_exact, _ = en.pt_match_stats()
        game = run_unlink_game(fc_scheme, default_pop, LEAK_BOTH,
                               MatchTestUnlinkAdversary(),
                               RunSettings(trials=20000, seed=101, jobs=1))
        elapsed = time.monotonic() - start
        gap = abs(game.advantage.point - (1.0 - mr_exact))
        ok = hypothesis and gap <= 0.03 and elapsed <= 60.0
        gate(1, "theorem-3 reproduction", ok,
             f"hypothesis={hypothesis} adv={game.advantage.point:.4f} "
             f"target={1 - mr_exact:.4f} gap={gap:.4f} elapsed={elapsed:.1f}s")


class TestCriterion2TheoremTwo:
    def test_sampler_beats_target(self, fc_scheme, default_pop):
        st = metrics.pt_match_stats(fc_scheme, default_pop,
                                    RunSettings(stats_outer=600, stats_inner=400,
                                                seed=103))
        c2 = st.stats.variation_coeff ** 2
        assert c2 < 0.16, f"measured C^2 = {c2:.4f} violates the premise"
        cfg = PalSamplerConfig.from_stats(st.stats, delta=0.16, gamma=0.5)
        game = run_pal_irr_game(fc_scheme, default_pop, LEAK_BOTH,
                                PalSamplerAdversary(cfg),
                                RunSettings(trials=5000, seed=105))
        se = plug_in_se(game.win_rate)
        ok = game.win_rate.point > 0.5 - 3 * se
        gate(2, "theorem-2 sampler win rate", ok,
             f"C^2={c2:.4f} n_delta={cfg.n_delta} "
             f"win_rate={game.win_rate.point:.4f} target>{0.5 - 3 * se:.4f}")

    def test_n_delta_minimality_on_random_configs(self):
        rng = np.random.default_rng(107)
        checked = 0
        while checked < 1000:
            mean = float(rng.uniform(0.05, 0.95))
            c = float(rng.uniform(0.0, 0.99))
            sigma = c * mean
            delta = float(rng.uniform(c * c + 1e-9, 1.0))
            gamma = float(rng.uniform(delta + 1e-9, 1.0))
            if not (c * c < delta < gamma < 1.0):
                continue
            mu = mean - sigma / math.sqrt(delta)
            if not 0.0 < mu <= 1.0:
                continue
            n = compute_n_delta(mu, delta, gamma)
            big_l = math.log1p(-mu) if mu < 1.0 else float("-inf")
            big_t = math.log((gamma - delta) / (1.0 - delta))
            assert n >= 1
            assert n * big_l < big_t
            if n > 1:
                assert (n - 1) * big_l >= big_t
            checked += 1
        gate(2, "n_delta minimality x1000", checked == 1000,
             f"configs={checked}")


class TestCriterion3TheoremFour:
    def _check(self, scheme, pop, leak, tau, inner, trials, seed):
        ov = metrics.overlap_rates(pop, tau)
        m = metrics.extremal_mr(pop, tau)
        game_a = run_al_irr_game(scheme, pop, leak, tau, inner,
                                 RunSettings(trials=trials, seed=seed))
        game_b = run_unlink_game(scheme, pop, leak,
                                 ReductionUnlinkAdversary(inner, tau),
                                 RunSettings(trials=trials, seed=seed))
        rhs = ((1.0 - ov.p_tau) * game_a.advantage.point
               - (ov.p_tau - ov.q_tau) * m.value)
        tol = 3.0 * math.sqrt(
            (2.0 * plug_in_se(game_b.win_rate)) ** 2
            + ((1.0 - ov.p_tau) * plug_in_se(game_a.win_rate)) ** 2)
        return game_b.advantage.point, rhs, tol

    def test_plaintext_perfect_inverter(self, default_pop):
        lhs, rhs, tol = self._check(PlaintextScheme(7, tau=0), default_pop,
                                    LEAK_PI, 0, ReadViewAdversary("pi"),
                                    trials=6000, seed=109)
        gate(3, "theorem-4 plaintext perfect inverter", lhs >= rhs - tol,
             f"adv_B={lhs:.4f} >= bound={rhs:.4f} (tol {tol:.4f})")

    def test_fc_sampler_inner(self, fc_scheme, default_pop):
        inner = SamplerIrrAdversary(num_queries=16)
        lhs, rhs, tol = self._check(fc_scheme, default_pop, LEAK_AD, 1, inner,
                                    trials=6000, seed=111)
        gate(3, "theorem-4 fc sampler inner", lhs >= rhs - tol,
             f"adv_B={lhs:.4f} >= bound={rhs:.4f} (tol {tol:.4f})")


class TestCriterion4TheoremOneCouplings:
    def test_per_trial_inclusions(self, fc_scheme, default_pop):
        blind = BlindArgmaxAdversary(metrics.extremal_mr(default_pop, 1).witness)
        res = run_coupled_irr_trials(fc_scheme, default_pop, LEAK_PI, 1, blind,
                                     RunSettings(trials=10000, seed=113))
        v = res.inclusion_violations()
        ok = v["fl_subset_al"] == 0 and v["al_subset_pal"] == 0
        gate(4, "theorem-1 couplings 10000 trials", ok,
             f"violations={v} rates={{fl: {res.rates['fl']:.4f}, "
             f"al: {res.rates['al']:.4f}, pal: {res.rates['pal']:.4f}}}")

    def test_view_reading_adversary_couples_too(self, fc_scheme, default_pop):
        res = run_coupled_irr_trials(fc_scheme, default_pop, LEAK_AD, 1,
                                     ReadViewAdversary("alpha"),
                                     RunSettings(trials=2000, seed=115))
        v = res.inclusion_violations()
        assert v == {"fl_subset_al": 0, "al_subset_pal": 0}


class TestCriterion5EstimatorOracleAgreement:
    RUNS = 100
    NEEDED = 95

    def _coverage(self, run_one):
        hits = 0
        for s in range(self.RUNS):
            if run_one(7000 + s):
                hits += 1
        return hits

    def _report(self, name, hits):
        gate(5, f"estimator agreement: {name}", hits >= self.NEEDED,
             f"{hits}/{self.RUNS} runs inside the 99% interval")

    def test_baseline_rates(self, default_pop):
        raw = exact.LawOracle(PlaintextScheme(default_pop.n, 1), default_pop)
        fnmr_e, fmr_e = raw.fnmr(), raw.fmr_bp()

        def run_fnmr(seed):
            est, _ = metrics.est_baseline_rates(default_pop, 1,
                                                RunSettings(trials=4000, seed=seed,
                                                            level=0.99))
            return est.ci_low <= fnmr_e <= est.ci_high

        def run_fmr(seed):
            _, est = metrics.est_baseline_rates(default_pop, 1,
                                                RunSettings(trials=4000, seed=seed,
                                                            level=0.99))
            return est.ci_low <= fmr_e <= est.ci_high

        self._report("baseline FNMR", self._coverage(run_fnmr))
        self._report("baseline FMR", self._coverage(run_fmr))

    def test_scheme_rates(self, fc_scheme, default_pop):
        en = exact.enumerator(fc_scheme, default_pop)
        cases = {
            "scheme FNMR": (en.fnmr(),
                            lambda s: metrics.est_scheme_fnmr(
                                fc_scheme, default_pop,
                                RunSettings(trials=1500, seed=s, level=0.99))),
            "FMR TP (ad factor)": (en.fmr_tp("ad"),
                                   lambda s: metrics.est_fmr_tp(
                                       fc_scheme, default_pop, "ad",
                                       RunSettings(trials=1500, seed=s,
                                                   level=0.99))),
            "FMR TP (pi factor)": (en.fmr_tp("pi"),
                                   lambda s: metrics.est_fmr_tp(
                                       fc_scheme, default_pop, "pi",
                                       RunSettings(trials=1500, seed=s,
                                                   level=0.99))),
            "FMR BP": (en.fmr_bp(),
                       lambda s: metrics.est_fmr_bp(
                           fc_scheme, default_pop,
                           RunSettings(trials=1500, seed=s, level=0.99))),
            "FMR diversity": (en.fmr_div(),
                              lambda s: metrics.est_fmr_div(
                                  fc_scheme, default_pop,
                                  RunSettings(trials=1500, seed=s,
                                              level=0.99))),
        }
        for name, (target, estimator) in cases.items():
            hits = self._coverage(
                lambda s, est=estimator, t=target: (
                    lambda e: e.ci_low <= t <= e.ci_high)(est(s)))
            self._report(name, hits)

    def test_reverse_match_rate(self, fc_scheme, default_pop):
        vec = exact.enumerator(fc_scheme, default_pop).rmr_vector()
        witness = int(np.argmax(vec))
        target = float(vec[witness])

        def run_one(seed):
            est = metrics.rmr_of_feature(fc_scheme, default_pop, witness,
                                         RunSettings(trials=1500, seed=seed,
                                                     level=0.99))
            return est.ci_low <= target <= est.ci_high

        self._report("rMR at extremal feature", self._coverage(run_one))

    def test_pt_match_stats(self, fc_scheme, default_pop):
        mean_e, sig_e = exact.enumerator(fc_scheme, default_pop).pt_match_stats()
        hits_mean = hits_sig = 0
        for s in range(self.RUNS):
            st = metrics.pt_match_stats(fc_scheme, default_pop,
                                        RunSettings(stats_outer=220, stats_inner=130,
                                                    seed=8000 + s, level=0.99))
            hits_mean += st.mean_ci[0] <= mean_e <= st.mean_ci[1]
            hits_sig += st.std_ci[0] <= sig_e <= st.std_ci[1]
        self._report("template match-rate mean", hits_mean)
        self._report("template match-rate std dev", hits_sig)

    def test_overlap_extremes(self, default_pop):
        ov = metrics.overlap_rates(default_pop, 1)
        hits_p = hits_q = 0
        for s in range(self.RUNS):
            # p_tau and q_tau are match rates at radius 2 tau
            settings = RunSettings(trials=3000, seed=9000 + s, level=0.99)
            p = metrics.est_mr_of_feature(default_pop, ov.witness_max, 2,
                                          settings)
            q = metrics.est_mr_of_feature(default_pop, ov.witness_min, 2,
                                          settings)
            hits_p += p.ci_low <= ov.p_tau <= p.ci_high
            hits_q += q.ci_low <= ov.q_tau <= q.ci_high
        self._report("p_tau", hits_p)
        self._report("q_tau", hits_q)


class TestCriterion6StructuralLaws:
    # Every (x, template of x, probe) triple, decided in the batch
    # contract that the games and estimators call.

    def test_fc_match_law_exhaustive_n7(self, fc_scheme):
        accepts, within = decisions_and_ball(fc_scheme, 1)
        assert accepts.shape == (128, 16, 128)
        bad = np.argwhere(accepts != within)
        detail = ("2^7 x 16 x 2^7 checks" if not len(bad) else
                  f"x={bitstring(7, bad[0][0])} "
                  f"probe={bitstring(7, bad[0][2])}")
        gate(6, "fc match law n=7 (all pairs x codewords)", not len(bad), detail)

    def test_fc_match_law_exhaustive_n8(self):
        code = LinearCode.from_bitstrings(
            ["10001101", "01001011", "00100111", "00011110"], t=1)
        assert code.min_distance == 4
        accepts, within = decisions_and_ball(FuzzyCommitmentScheme(code), 1)
        assert accepts.shape == (256, 16, 256)
        bad = int((accepts != within).sum())
        gate(6, "fc match law n=8 (extended code)", bad == 0,
             f"violations={bad}")

    @pytest.mark.parametrize("n", [7, 8])
    def test_ball_overlap_law(self, n):
        size = 1 << n
        xs = np.arange(size, dtype=np.uint64)
        d = np.bitwise_count(xs[:, None] ^ xs[None, :])
        for tau in range(5):
            balls = (d <= tau).astype(np.uint8)
            midpoint = (balls @ balls) > 0
            if not np.array_equal(midpoint, d <= 2 * tau):
                gate(6, f"overlap law n={n}", False, f"tau={tau}")
        gate(6, f"overlap law n={n}", True, "tau=0..4 via midpoint search")

    @pytest.mark.parametrize("n", [7, 8])
    def test_uniform_sandwich_and_monotonicity(self, n):
        pop = generate_population(n, 16, 0.03, seed=1)
        ov0 = metrics.overlap_rates(pop, 0)
        sandwich = ov0.q_tau <= 2.0 ** -n <= ov0.p_tau
        ms, ps, qs = [], [], []
        for tau in range(n + 1):
            ms.append(metrics.extremal_mr(pop, tau).value)
            ov = metrics.overlap_rates(pop, tau)
            ps.append(ov.p_tau)
            qs.append(ov.q_tau)
        monotone = (ms == sorted(ms) and ps == sorted(ps) and qs == sorted(qs))
        gate(6, f"sandwich + monotonicity n={n}", sandwich and monotone,
             f"q0={ov0.q_tau:.2e} 2^-n={2.0**-n:.2e} p0={ov0.p_tau:.2e}")

    def test_leak_projection_equations(self):
        pt = ProtectedTemplate(pi=b"\xaa" * 16, alpha=5)
        both = leak_view(pt, LEAK_BOTH)
        only_pi = leak_view(pt, LEAK_PI)
        only_ad = leak_view(pt, LEAK_AD)
        ok = (
            (both.pi, both.alpha) == (pt.pi, pt.alpha)
            and only_pi.pi == pt.pi and only_pi.alpha is None
            and only_ad.alpha == pt.alpha and only_ad.pi is None
        )
        gate(6, "leak projection equations", ok)


class TestCriterion7CrossComparatorIdentity:
    def test_identity_matches_game_advantage(self, fc_scheme, default_pop):
        res = est_cross_match_rates(fc_scheme, default_pop, LEAK_BOTH,
                                    CrossComparatorAdversary(),
                                    RunSettings(trials=10000, seed=117))
        se_adv = half_width(res.unlink_advantage) / metrics.z_value(0.95)
        tol = 3.0 * math.sqrt(plug_in_se(res.fcmr) ** 2
                              + plug_in_se(res.fncmr) ** 2 + se_adv ** 2)
        ok = res.identity_gap <= tol
        gate(7, "FCMR/FNCMR advantage identity", ok,
             f"|1-(FCMR+FNCMR)|={res.identity_advantage:.4f} "
             f"game={res.unlink_advantage.point:.4f} "
             f"gap={res.identity_gap:.4f} tol={tol:.4f}")


class TestCriterion8Determinism:
    # Every chunked loop of this run spans several chunks: the games play
    # 5000 trials and T2 draws CHUNK_TRIALS + 76 templates, so a --jobs
    # run reaches the process pool in each of them.
    CONFIG = {"stats_outer": metrics.CHUNK_TRIALS + 76}

    def _args(self, tmp_path, out_path, extra):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CONFIG))
        return ["verify", "--theorem", "all", "--seed", "42", "--trials",
                "5000", "--config", str(cfg), "--out", str(out_path)] + extra

    def _run(self, tmp_path, out_path, extra, env):
        cmd = [sys.executable, "-m", "btpeval.cli"] + self._args(
            tmp_path, out_path, extra)
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        return out_path.read_text()

    def test_byte_identical_over_runs_and_jobs(self, tmp_path, subprocess_env,
                                               chunk_runs):
        texts = [
            self._run(tmp_path, tmp_path / "a.json", [], subprocess_env),
            self._run(tmp_path, tmp_path / "b.json", [], subprocess_env),
            self._run(tmp_path, tmp_path / "c.json", ["--jobs", "8"],
                      subprocess_env),
        ]
        # the in-process twin of the --jobs 8 run, whose pools are counted
        twin = tmp_path / "d.json"
        assert cli.main(self._args(tmp_path, twin, ["--jobs", "8"])) == 0
        texts.append(twin.read_text())

        def canonical(text):
            data = json.loads(text)
            data.pop("timings", None)
            return json.dumps(data, sort_keys=True, indent=2)

        a, b, c, d = (canonical(t) for t in texts)
        least = min(chunk_runs.trials)
        ok = (a == b == c == d and least > metrics.CHUNK_TRIALS
              and chunk_runs.pools == len(chunk_runs.trials))
        gate(8, "verify --theorem all determinism", ok,
             "run-to-run and jobs-1-vs-8 byte-identical (timings excluded); "
             f"{chunk_runs.pools} pools for {len(chunk_runs.trials)} chunked "
             f"loops of >= {least} trials")
