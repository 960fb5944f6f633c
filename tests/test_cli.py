"""Command-line contract: exit codes, formats, determinism, schema."""

import hashlib
import json
import subprocess
import sys
from functools import lru_cache, partial
from pathlib import Path

import pytest

from btpeval import adversaries, cli, exact, games, metrics, verify
from btpeval.adversaries import adversary_names, build_adversary
from btpeval.errors import ConfigError, ContractError, DimensionError
from btpeval.metrics import RunSettings
from btpeval.population import Population, generate_population
from btpeval.schemes import LeakSet, build_scheme
from reference_results import strip_timings

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "docs" / "report.schema.json"


def assert_reader_refuses(user, path):
    """The library reader of the one block `user` sets refuses it as the CLI
    does: a value rule lives in the reader alone, and the CLI names the
    block it read."""
    ((block, value),) = user.items()
    readers = {"population": Population.from_config,
               "scheme": lambda cfg: build_scheme(cfg, 7),
               "lambda": LeakSet.parse}
    if block in readers:
        call = partial(readers[block], value)
    elif block in cli.CONFIG_KEYS:
        call = partial(RunSettings.from_config, user)
    else:
        call = partial(cli.load_config, str(path), {})
    with pytest.raises((ConfigError, DimensionError)):
        call()


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def _refuse_constant(name):
    raise ValueError(f"report holds {name}, which is not JSON")


def load_json(text):
    """A report, parsed as strict JSON: NaN and +-Infinity are refused."""
    return json.loads(text, parse_constant=_refuse_constant)


@pytest.fixture(scope="module")
def schema():
    return json.loads(SCHEMA_PATH.read_text())


MEASUREMENTS = ("est_baseline_rates", "est_scheme_fnmr", "est_fmr_tp",
                "est_fmr_bp", "est_fmr_div", "est_mr_of_feature",
                "rmr_of_feature", "pt_match_stats",
                "extremal_mr", "extremal_rmr")


@pytest.fixture
def no_measurement(monkeypatch):
    """Every estimator raises, in every module that bound it: a refusal
    must come before any of them runs."""
    def measured(*args, **kwargs):
        raise AssertionError("measured before refusing")

    for name in MEASUREMENTS:
        original = getattr(metrics, name)
        for module in (metrics, adversaries, games, verify, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, measured)


class TestExitCodes:
    def test_verify_t3_success(self, capsys):
        code, out, _ = run_cli(["verify", "--theorem", "t3", "--trials", "800",
                                "--seed", "42"], capsys)
        assert code == 0
        report = load_json(out)
        assert report["theorems"][0]["status"] == "pass"

    def test_unknown_scheme_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scheme": {"scheme": "mystery"}}))
        code, _, err = run_cli(["metrics", "--config", str(cfg),
                                "--trials", "10"], capsys)
        assert code == 2
        assert "mystery" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(["metrics", "--config", "/nonexistent.json"],
                               capsys)
        assert code == 2

    def test_incompatible_adversary_leak(self, capsys):
        code, _, err = run_cli(["game", "pal-irr", "--lambda", "pi",
                                "--adversary", "pal-sampler",
                                "--trials", "10"], capsys)
        assert code == 2
        assert "pi+ad" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, fmt, where):
        out = tmp_path / "nowhere" / "x.json" if where == "missing-dir" else tmp_path
        code, stdout, err = run_cli(["metrics", "--trials", "50", "--format",
                                     fmt, "--out", str(out)], capsys)
        assert code == 2
        assert stdout == ""
        assert err.startswith(f"error: cannot write report {out}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    @pytest.mark.parametrize("cmd", [
        ["metrics"],
        ["game", "unlink", "--adversary", "coin"],
        ["verify", "--theorem", "t2"],
    ])
    def test_jobs_below_one_is_usage_error(self, capsys, cmd, jobs):
        code, out, err = run_cli(cmd + ["--jobs", jobs, "--trials", "10"],
                                 capsys)
        assert code == 2
        assert err == f"error: jobs must be >= 1, got {jobs}\n"
        assert out == ""

    def test_verification_failure_exits_one(self, capsys, monkeypatch):
        failing = verify.TheoremVerdict(
            theorem="T3", status=verify.FAIL, relation="~~",
            lhs=0.5, rhs=0.9, tolerance=0.01, leak="pi+ad",
            details={"trials": 10})
        monkeypatch.setattr(cli.verify, "check_thm_unlink_unachievable",
                            lambda *a, **k: failing)
        code, out, _ = run_cli(["verify", "--theorem", "t3", "--trials", "10"],
                               capsys)
        assert code == 1
        assert load_json(out)["theorems"][0]["status"] == "fail"

    def test_broken_scheme_not_applicable_exits_zero(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scheme": {"scheme": "broken"}}))
        code, out, _ = run_cli(["verify", "--theorem", "t3", "--config",
                                str(cfg), "--trials", "50"], capsys)
        assert code == 0
        verdict = load_json(out)["theorems"][0]
        assert verdict["status"] == "not-applicable"
        assert "reason" in verdict["details"]

    def test_budget_cut_adversary_not_applicable_exits_zero(self, tmp_path,
                                                            capsys):
        """A query budget that cuts trials of the adversary T2, T3 or T4
        posits breaks that check's hypothesis; T1's inclusions hold on cut
        trials."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"query_budget": 1}))
        code, out, _ = run_cli(["verify", "--theorem", "all", "--config",
                                str(cfg)], capsys)
        assert code == 0
        verdicts = load_json(out)["theorems"]
        assert [(v["id"], v["status"]) for v in verdicts] == [
            ("T1", "pass"), ("T1", "pass"), ("T2", "not-applicable"),
            ("T3", "not-applicable"), ("T4", "not-applicable"),
            ("T4", "not-applicable")]
        for v in verdicts[2:]:
            assert v["details"]["flagged"] > 0
            assert v["details"]["reason"].startswith(
                f"query_budget = 1 cut {v['details']['flagged']} of ")


    @pytest.mark.parametrize("n", [exact.EXACT_N_CAP + 1, 32])
    def test_t4_beyond_feature_scan_not_applicable(self, tmp_path, capsys, n):
        # the scan refuses before it allocates a 2^n array
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "population": {"n": n, "U": 4},
            "scheme": {"scheme": "rot"}}))
        code, out, _ = run_cli(["verify", "--theorem", "t4", "--config",
                                str(cfg), "--trials", "50"], capsys)
        assert code == 0
        verdicts = load_json(out)["theorems"]
        assert [v["lambda"] for v in verdicts] == ["pi", "ad"]
        for verdict in verdicts:
            assert verdict["status"] == "not-applicable"
            assert "no exact overlap rates" in verdict["details"]["reason"]

    def test_t3_past_feature_scan_passes(self, tmp_path, capsys):
        # T3 reads the mean template match rate, the mean of the ball-law
        # oracle's pair table, which needs no scan of the features
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"population": {"n": 22},
                                   "scheme": {"scheme": "rot"}}))
        code, out, _ = run_cli(["verify", "--theorem", "t3", "--config",
                                str(cfg)], capsys)
        assert code == 0
        [verdict] = load_json(out)["theorems"]
        assert verdict["status"] == "pass"
        assert verdict["details"]["trials"] == 10000
        assert verdict["tolerance"] > 0.0


    @pytest.mark.parametrize("outer", [0, 1])
    @pytest.mark.parametrize("argv", [
        ["metrics"], ["game", "pal-irr", "--adversary", "pal-sampler"],
        ["verify", "--theorem", "t2"]], ids=["metrics", "game", "verify"])
    def test_stats_outer_below_two_is_usage_error(self, tmp_path, capsys,
                                                  argv, outer, no_measurement):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stats_outer": outer}))
        code, out, err = run_cli(argv + ["--config", str(cfg), "--trials",
                                         "20"], capsys)
        assert code == 2
        assert "stats_outer must be >= 2" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["metrics"], ["game", "al-irr", "--adversary", "blind"],
        ["verify", "--theorem", "t1"]], ids=["metrics", "game", "verify"])
    def test_stats_inner_below_two_refused_when_read(self, tmp_path, capsys,
                                                     argv, no_measurement):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stats_inner": 1}))
        code, out, err = run_cli(argv + ["--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert "stats_inner must be >= 2, got 1" in err
        with pytest.raises(ConfigError, match="stats_inner must be >= 2"):
            RunSettings(stats_inner=1)

    @pytest.mark.parametrize("argv, key", [
        (["verify", "--theorem", "all"], "sampler_queries"),
        (["verify", "--theorem", "t2"], "trials"),
        (["game", "pal-irr", "--adversary", "pal-sampler"], "query_budget"),
        (["metrics"], "query_budget"),
        (["metrics"], "sampler_queries")],
        ids=["verify-all", "verify-t2", "game", "metrics-budget",
             "metrics-sampler"])
    def test_setting_below_one_refused_before_measuring(
            self, tmp_path, capsys, argv, key, no_measurement):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 0}))
        code, out, err = run_cli(argv + ["--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert f"{key} must be >= 1, got 0" in err
        with pytest.raises(ConfigError, match=f"{key} must be >= 1, got 0"):
            RunSettings(**{key: 0})

    @pytest.mark.parametrize("argv", [
        ["metrics"], ["game", "pal-irr", "--adversary", "pal-sampler"],
        ["verify", "--theorem", "all"]], ids=["metrics", "game", "verify"])
    @pytest.mark.parametrize("setting", [
        {"delta": -0.5}, {"delta": 0}, {"delta": 0.7}, {"gamma": 1.5},
        {"delta": 0.3, "gamma": 0.3}])
    def test_delta_gamma_out_of_range_refused_before_measuring(
            self, tmp_path, capsys, argv, setting, no_measurement):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(setting))
        code, out, err = run_cli(argv + ["--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert "need 0 < delta < gamma < 1" in err
        with pytest.raises(ConfigError, match="need 0 < delta < gamma < 1"):
            RunSettings(**setting)

    @pytest.mark.parametrize("game, name, leak", [
        ("pal-irr", "pal-sampler", "pi"), ("al-irr", "pal-sampler", "ad"),
        ("unlink", "reduction(inner=pal-sampler)", "ad")])
    def test_pal_sampler_refuses_leak_before_measuring(
            self, capsys, fc_scheme, default_pop, game, name, leak,
            no_measurement):
        code, out, err = run_cli(["game", game, "--adversary", name,
                                  "--lambda", leak], capsys)
        assert (code, out) == (2, "")
        assert f"pal-sampler needs lambda pi+ad, got {leak}" in err
        with pytest.raises(ContractError, match="needs lambda pi\\+ad"):
            build_adversary(name, game, fc_scheme, default_pop,
                            RunSettings(), LeakSet.parse(leak))


# Template parts each built-in adversary needs; every other one runs on
# any leak set.  A reduction needs what its inner adversary needs.
NEEDS = {"pal-sampler": "pi+ad", "match-test": "pi+ad", "appendix-b": "pi+ad",
         "read-pi": "pi", "read-alpha": "ad"}


def _needs(name):
    inner = name.removeprefix("reduction(inner=").removesuffix(")")
    return NEEDS.get(inner)


class TestAdversaryFactory:
    @pytest.mark.parametrize("leak", ["pi", "ad", "pi+ad"])
    @pytest.mark.parametrize("game, name", [
        (game, name) for game in ("al-irr", "pal-irr", "unlink")
        for name in adversary_names(game)])
    def test_every_name_on_every_leak_set(self, tmp_path, capsys, game, name,
                                          leak):
        # read-pi reads a feature-valued pi, which rot has and fc has not
        argv = ["game", game, "--adversary", name, "--lambda", leak,
                "--trials", "20"]
        if "read-pi" in name:
            cfg = tmp_path / "rot.json"
            cfg.write_text(json.dumps({"scheme": {"scheme": "rot"}}))
            argv += ["--config", str(cfg)]
        code, out, err = run_cli(argv, capsys)
        needs = _needs(name)
        if needs is None or set(needs.split("+")) <= set(leak.split("+")):
            assert code == 0, err
            assert load_json(out)["game_result"]["trials"] == 20
        else:
            assert code == 2
            assert out == ""
            message = ("needs lambda pi+ad" if needs == "pi+ad"
                       else f"needs {needs} in lambda")
            assert f"{message}, got {leak}" in err

    @pytest.mark.parametrize("game", ["al-irr", "pal-irr", "unlink"])
    def test_every_name_builds_the_game_kind(self, fc_scheme, default_pop,
                                             game):
        kind = games.UnlinkAdversary if game == "unlink" else games.IrrAdversary
        for name in adversary_names(game):
            adversary = build_adversary(name, game, fc_scheme, default_pop,
                                        RunSettings(), LeakSet.parse("pi+ad"))
            assert isinstance(adversary, kind), name

    @pytest.mark.parametrize("game", ["al-irr", "pal-irr", "unlink"])
    def test_unknown_name_lists_the_names(self, capsys, game):
        code, _, err = run_cli(["game", game, "--adversary", "oracle",
                                "--trials", "20"], capsys)
        assert code == 2
        assert "unknown adversary 'oracle'" in err
        assert all(name in err for name in adversary_names(game))

    def test_help_lists_every_name(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["game", "--help"])
        help_text = "".join(capsys.readouterr().out.split())  # unwrapped
        for name in adversary_names("al-irr") + adversary_names("unlink"):
            assert name in help_text

    def test_default_config_gives_the_default_settings(self):
        assert RunSettings.from_config(cli.DEFAULT_CONFIG) == RunSettings()

    def test_t4_inner_sampler_reads_sampler_queries(self, tmp_path, capsys):
        # T4's inner adversary is the sampler `game` builds from the config
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sampler_queries": 2}))
        common = ["--lambda", "pi", "--trials", "500", "--seed", "1"]

        def t4(*extra):
            code, out, err = run_cli(["verify", "--theorem", "t4", *common,
                                      *extra], capsys)
            assert code == 0, err
            (verdict,) = load_json(out)["theorems"]
            return verdict

        default, two = t4(), t4("--config", str(cfg))
        assert two["lhs"] != default["lhs"]
        code, out, err = run_cli(["game", "al-irr", "--adversary", "sampler",
                                  "--config", str(cfg), *common], capsys)
        assert code == 0, err
        game = load_json(out)["game_result"]
        assert two["details"]["adv_inner"] == game["advantage"]["estimate"]
        assert two["details"]["inner"] == game["adversary"] == "sampler"


class TestGameCommand:
    def test_unlink_with_match_test(self, capsys):
        code, out, _ = run_cli(["game", "unlink", "--lambda", "pi+ad",
                                "--adversary", "appendix-b",
                                "--trials", "400", "--seed", "5"], capsys)
        assert code == 0
        g = load_json(out)["game_result"]
        assert g["game"] == "unlink"
        assert "estimate" in g["advantage"]

    def test_reduction_adversary_parsing(self, capsys):
        code, out, _ = run_cli(["game", "unlink", "--lambda", "pi",
                                "--adversary", "reduction(inner=blind)",
                                "--trials", "200", "--seed", "5"], capsys)
        assert code == 0
        assert load_json(out)["game_result"]["adversary"] == "reduction[blind]"

    def test_cross_rates_flag(self, capsys):
        code, out, _ = run_cli(["game", "unlink", "--lambda", "pi+ad",
                                "--adversary", "cross-comparator",
                                "--cross-rates", "--trials", "300",
                                "--seed", "5"], capsys)
        assert code == 0
        report = load_json(out)
        assert {"fcmr", "fncmr", "identity_advantage"} <= set(report["cross_match"])

    def test_cross_rates_csv_rows(self, capsys):
        args = ["game", "unlink", "--lambda", "pi+ad", "--adversary",
                "cross-comparator", "--cross-rates", "--trials", "300",
                "--seed", "5"]
        _, out, _ = run_cli(args, capsys)
        cross = load_json(out)["cross_match"]
        code, out, _ = run_cli(args + ["--format", "csv"], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()]
        assert [row[0] for row in rows[1:]] == [
            "unlink.win_rate", "unlink.advantage", "cross_match.fcmr",
            "cross_match.fncmr", "cross_match.unlink_advantage"]
        for row in rows[3:]:
            e = cross[row[0].removeprefix("cross_match.")]
            assert row[1:] == [str(e["estimate"]), str(e["ci"][0]),
                               str(e["ci"][1]), str(e["trials"])]

    @pytest.mark.parametrize("game", ["al-irr", "pal-irr"])
    def test_cross_rates_on_inversion_game_is_usage_error(self, capsys, game):
        code, out, err = run_cli(["game", game, "--adversary", "blind",
                                  "--cross-rates", "--trials", "10"], capsys)
        assert code == 2
        assert "--cross-rates" in err
        assert out == ""

    def test_al_game_with_read_pi_on_plaintext(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scheme": {"scheme": "plain"}, "tau": 0}))
        code, out, _ = run_cli(["game", "al-irr", "--lambda", "pi",
                                "--adversary", "read-pi", "--config", str(cfg),
                                "--trials", "200", "--seed", "5"], capsys)
        assert code == 0
        assert load_json(out)["game_result"]["win_rate"]["estimate"] == 1.0


class TestMetricsCommand:
    def test_report_has_all_entries_with_intervals(self, capsys):
        code, out, _ = run_cli(["metrics", "--trials", "300", "--seed", "3"],
                               capsys)
        assert code == 0
        report = load_json(out)
        names = [m["metric"] for m in report["metrics"]]
        assert len(names) >= 10
        for m in report["metrics"]:
            assert "ci" in m or "stats" in m
        assert "fmr_bp" in names and "mr_pi_stats" in names

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(["metrics", "--trials", "200", "--seed", "3",
                                "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "name,estimate,ci_low,ci_high,trials"
        assert len(lines) >= 11
        for line in lines[1:]:
            assert len(line.split(",")) == 5

    def test_exact_values_attached(self, capsys):
        code, out, _ = run_cli(["metrics", "--trials", "200", "--seed", "3"],
                               capsys)
        report = load_json(out)
        by_name = {m["metric"]: m for m in report["metrics"]}
        assert by_name["fmr_tp_ad"]["exact"] == pytest.approx(1 / 16)


    def test_unbounded_entropy_is_null(self, tmp_path, capsys, schema):
        # broken never matches: fmr_div is 0, so -log2 is unbounded
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scheme": {"scheme": "broken"}}))
        code, out, _ = run_cli(["metrics", "--config", str(cfg), "--trials",
                                "200", "--seed", "3"], capsys)
        assert code == 0
        report = load_json(out)
        div = next(m for m in report["metrics"] if m["metric"] == "fmr_div")
        assert (div["estimate"], div["exact"]) == (0.0, 0.0)
        assert div["entropy_bits"] is None
        assert div["entropy_bits_exact"] is None
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(report, schema)

    def test_overlap_vector_scanned_once(self, capsys, monkeypatch):
        # the overlap rates at tau = 1 are the match rates at radius 2,
        # built once however many scans read them: `calls` records the
        # builds of a fresh cache around the same function
        calls = []
        build = exact.mr_vector.__wrapped__
        monkeypatch.setattr(exact, "mr_vector", lru_cache(maxsize=8)(
            lambda *a: calls.append(a) or build(*a)))
        code, _, _ = run_cli(["metrics", "--trials", "200", "--seed", "3"],
                             capsys)
        assert code == 0
        assert [tau for _, tau in calls].count(2) == 1

    def test_every_rate_row_runs_the_trials(self, capsys):
        # a fixed-probe row draws one capture per trial
        code, out, _ = run_cli(["metrics", "--trials", "401", "--seed", "3"],
                               capsys)
        assert code == 0
        rows = [m for m in load_json(out)["metrics"] if "trials" in m]
        assert {m["metric"] for m in rows} >= {"p_tau1", "q_tau1", "fnmr_d<=1"}
        for m in rows:
            assert m["trials"] == 401, m["metric"]
            if "witness" in m:
                assert m["queries"] == 401, m["metric"]


def _rot_metrics(n, tmp_path, capsys, *args) -> dict:
    cfg = tmp_path / "rot.json"
    cfg.write_text(json.dumps({"population": {"n": n},
                               "scheme": {"scheme": "rot"}}))
    code, out, _ = run_cli(["metrics", "--config", str(cfg), *args], capsys)
    assert code == 0
    return {m["metric"]: m for m in load_json(out)["metrics"]}


class TestClosedFormOracles:
    def test_rot_metrics_build_no_enumerator(self, tmp_path, capsys,
                                             monkeypatch):
        def refuse(self, scheme, pop):
            raise AssertionError("SchemeEnumerator built")
        monkeypatch.setattr(exact.SchemeEnumerator, "__init__", refuse)
        by_name = _rot_metrics(10, tmp_path, capsys, "--trials", "500")
        assert all("exact" in m for m in by_name.values())

    def test_rot14_exact_values_in_99_intervals(self, tmp_path, capsys):
        by_name = _rot_metrics(14, tmp_path, capsys, "--trials", "10000",
                               "--seed", "1")
        stats = by_name.pop("mr_pi_stats")
        for name, m in by_name.items():
            wins = round(m["estimate"] * m["trials"])
            lo, hi = metrics.wilson_interval(wins, m["trials"], 0.99)
            assert lo <= m["exact"] <= hi, name
        assert {m.get("mode") for m in by_name.values()} == {None, "exact"}
        # the report's mean interval is at 95%; widen it to 99%
        lo95, hi95 = stats["stats"]["mean_ci"]
        half = (hi95 - lo95) / 2 * metrics.z_value(0.99) / metrics.z_value(0.95)
        mean = (lo95 + hi95) / 2
        assert mean - half <= stats["exact"]["mean"] <= mean + half

    def test_rot24_m_rmr_is_the_blind_pal_baseline(self, tmp_path, capsys):
        # past the feature scan both are candidate-set extremes, drawn from
        # --seed by `metrics` and `game` alike
        args = ("--trials", "200", "--seed", "5")
        m_rmr = _rot_metrics(24, tmp_path, capsys, *args)["m_rmr"]
        code, out, err = run_cli(["game", "pal-irr", "--adversary", "blind",
                                  "--config", str(tmp_path / "rot.json"),
                                  *args], capsys)
        assert code == 0, err
        game = load_json(out)["game_result"]
        assert (m_rmr["exact"], m_rmr["mode"]) == (game["baseline"],
                                                   game["baseline_mode"])
        assert game["baseline_mode"] == "lower_bound"


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path, capsys, chunk_runs):
        paths = [tmp_path / f"r{i}.json" for i in range(3)]
        base = ["verify", "--theorem", "t1", "--trials", "5000", "--seed", "42"]
        assert cli.main(base + ["--out", str(paths[0])]) == 0
        assert cli.main(base + ["--out", str(paths[1])]) == 0
        assert chunk_runs.pools == 0
        chunk_runs.trials.clear()
        assert cli.main(base + ["--jobs", "2", "--out", str(paths[2])]) == 0
        # every call spans several chunks, so each opens its pool
        assert min(chunk_runs.trials) > metrics.CHUNK_TRIALS
        assert chunk_runs.pools == len(chunk_runs.trials) > 0
        capsys.readouterr()
        texts = [
            json.dumps(strip_timings(json.loads(p.read_text())),
                       sort_keys=True, indent=2)
            for p in paths
        ]
        assert texts[0] == texts[1] == texts[2]

    FC_5_2 = {"population": {"n": 5},
              "scheme": {"scheme": "fc", "code": {
                  "t": 1, "generator": ["10110", "01011"]}}}
    BROKEN_12 = {"population": {"n": 12}, "scheme": {"scheme": "broken"}}
    # Digests of stripped reports whose every chunked loop fits in 1024
    # trials, taken at a chunk size of 1024: such a run is chunk 0 alone
    # at either chunk size, so these hold at 4096 too.
    SINGLE_CHUNK_DIGESTS = {
        "metrics": (["metrics"], None, "d12133f5c152a8ed"),
        "verify": (["verify", "--theorem", "all"], None, "ab7cd88af4b010a3"),
        "al-irr sampler": (["game", "al-irr", "--adversary", "sampler"],
                           None, "5eb0b52507e6ad93"),
        "pal-irr pal-sampler": (["game", "pal-irr", "--adversary",
                                 "pal-sampler"], None, "21eef4e4865b5543"),
        "unlink reduction": (["game", "unlink", "--adversary",
                              "reduction(inner=sampler)"],
                             None, "4ca7a6c59b5c7e0d"),
        "unlink cross-rates": (["game", "unlink", "--adversary",
                                "cross-comparator", "--cross-rates"],
                               None, "a62ca7575be78177"),
        "metrics rot10": (["metrics"], {"population": {"n": 10},
                                        "scheme": {"scheme": "rot"}},
                          "c6488288a2f3101d"),
        # broken n = 7 is the one CLI path through `SchemeEnumerator`;
        # at n = 12 no exact oracle serves it
        "verify broken": (["verify", "--theorem", "all"],
                          {"scheme": {"scheme": "broken"}}, "f681aca1e92960ea"),
        "metrics broken": (["metrics"], {"scheme": {"scheme": "broken"}},
                           "7c813ddca664dcbb"),
        "verify broken12": (["verify", "--theorem", "all"], BROKEN_12,
                            "0558c05a8e08a36b"),
        "metrics broken12": (["metrics"], BROKEN_12, "0df0ea6c153b6768"),
        "unlink match-test broken": (["game", "unlink", "--adversary",
                                      "match-test"],
                                     {"scheme": {"scheme": "broken"}},
                                     "29f049d644becd2a"),
        # the candidate-set witness of `lower_bound` extremes past n = 20,
        # beside the exact ball-law rates of the scheme rows
        "metrics rot22": (["metrics"], {"population": {"n": 22},
                                        "scheme": {"scheme": "rot"}},
                          "50005ed84603a067"),
        # listed centers, parsed from the config and echoed in the report
        "verify listed centers": (["verify", "--theorem", "all"],
                                  {"population": {"centers": [
                                      "1010000", "0110011", "1111111"],
                                      "p": 0.05},
                                   "scheme": {"scheme": "plain"}},
                                  "06f9b86391cc5512"),
        # the scan witness as the blind guess
        "pal-irr blind rot10": (["game", "pal-irr", "--adversary", "blind"],
                                {"population": {"n": 10},
                                 "scheme": {"scheme": "rot"}},
                                "23e0fc487dc91478"),
        # a ball law on a code that is not perfect, and on a scheme tau
        "metrics fc[5,2]": (["metrics"], FC_5_2, "4703a3fc23987a9d"),
        "verify fc[5,2]": (["verify", "--theorem", "all"], FC_5_2,
                           "fbbcd386a51a9d43"),
        "metrics plain10 tau2": (["metrics"], {"population": {"n": 10},
                                               "scheme": {"scheme": "plain",
                                                          "tau": 2}},
                                 "a753bc78f110da31"),
        "verify rot10": (["verify", "--theorem", "all"],
                         {"population": {"n": 10}, "scheme": {"scheme": "rot"}},
                         "0d98de726624e312"),
    }

    @pytest.mark.parametrize("command", SINGLE_CHUNK_DIGESTS)
    def test_single_chunk_reports_keep_their_digest(self, tmp_path, capsys,
                                                    command):
        args, config, digest = self.SINGLE_CHUNK_DIGESTS[command]
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            args = args + ["--config", str(path)]
        code, out, _ = run_cli(args + ["--trials", "1000", "--seed", "3"],
                               capsys)
        assert code == 0
        text = json.dumps(strip_timings(load_json(out)), sort_keys=True)
        assert hashlib.blake2b(text.encode(), digest_size=8).hexdigest() == digest


class TestBatchOnlyEngine:
    """Every engine path calls the batch methods of a scheme alone: with
    scalar methods set on the scheme's class to raise, as a custom scheme
    might keep them, each command runs and none of them is called."""

    @pytest.mark.parametrize("scheme", ["fc", "rot", "plain", "broken"])
    def test_commands_call_no_scalar_method(self, tmp_path, capsys,
                                            monkeypatch, scheme):
        calls = []

        def refuse(name):
            def method(self, *args):
                calls.append(name)
                raise AssertionError(f"scalar {name} called")
            return method

        config = {"scheme": {"scheme": scheme}}
        cls = type(build_scheme(config["scheme"], 7))
        for name in ("pie", "pir", "pic", "pie_support", "template_codes",
                     "template_of_codes"):
            monkeypatch.setattr(cls, name, refuse(name), raising=False)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        # a view reader runs where its field is declared, else exits 2
        readers = [(["game", "al-irr", "--lambda", "pi+ad", "--adversary",
                     f"read-{field}"], 0 if field in cls.feature_fields else 2)
                   for field in ("pi", "alpha")]
        for args, expected in [(["metrics"], 0),
                               (["verify", "--theorem", "all"], 0), *readers]:
            code, _, _ = run_cli(args + ["--config", str(cfg), "--trials",
                                         "200", "--seed", "1"], capsys)
            assert code == expected
        assert calls == []


class TestSchema:
    def test_reports_validate(self, tmp_path, capsys, schema):
        jsonschema = pytest.importorskip("jsonschema")
        for args in (
            ["metrics", "--trials", "150", "--seed", "2"],
            ["game", "unlink", "--lambda", "pi+ad", "--adversary",
             "appendix-b", "--trials", "150", "--seed", "2"],
            ["verify", "--theorem", "all", "--trials", "300", "--seed", "2"],
        ):
            code, out, _ = run_cli(args, capsys)
            assert code == 0
            jsonschema.validate(load_json(out), schema)

    def test_verify_all_emits_six_verdicts(self, capsys):
        code, out, _ = run_cli(["verify", "--theorem", "all", "--trials",
                                "300", "--seed", "2"], capsys)
        assert code == 0
        ts = load_json(out)["theorems"]
        assert [t["id"] for t in ts] == ["T1", "T1", "T2", "T3", "T4", "T4"]
        assert [t.get("lambda") for t in ts] == [
            "pi", "ad", "pi+ad", "pi+ad", "pi", "ad"]


class TestVerifyCsv:
    def test_one_row_per_verdict(self, tmp_path, capsys):
        # broken: T2 and T3 do not apply at n = 7, T1 and T4 do
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scheme": {"scheme": "broken"}}))
        args = ["verify", "--config", str(cfg), "--trials", "300", "--seed",
                "3"]
        _, out, _ = run_cli(args, capsys)
        verdicts = load_json(out)["theorems"]
        code, out, _ = run_cli(args + ["--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "name,estimate,ci_low,ci_high,trials"
        rows = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in rows] == ["T1[pi]", "T1[ad]", "T2[pi+ad]",
                                            "T3[pi+ad]", "T4[pi]", "T4[ad]"]
        assert [t["status"] for t in verdicts] == [
            verify.PASS, verify.PASS, verify.NOT_APPLICABLE,
            verify.NOT_APPLICABLE, verify.PASS, verify.PASS]
        for row, t in zip(rows, verdicts):
            assert row[4] == str(t["details"].get("trials", ""))
            if t["status"] == verify.NOT_APPLICABLE:
                # no game ran, so no trials are reported
                assert row[1:5] == ["", "", "", ""]
            else:
                assert [float(c) for c in row[1:4]] == [
                    t["lhs"], t["rhs"] - t["tolerance"],
                    t["rhs"] + t["tolerance"]]


class TestSingleDispatch:
    """`verify --theorem all` runs the same checks, with the same settings,
    as the single theorems it is made of."""

    @pytest.mark.parametrize("theorem", ["t2", "all"])
    def test_stats_config_reaches_t2(self, tmp_path, capsys, theorem):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stats_outer": 50, "stats_inner": 40}))
        code, out, _ = run_cli(["verify", "--theorem", theorem, "--config",
                                str(cfg), "--trials", "200", "--seed", "2"],
                               capsys)
        assert code == 0
        t2 = [t["details"] for t in load_json(out)["theorems"] if t["id"] == "T2"]
        assert [(d["stats_outer"], d["stats_inner"]) for d in t2] == [(50, 40)]

    @pytest.mark.parametrize("theorem, expected", [
        ("t1", [("T1", "pi")]),
        ("t4", [("T4", "pi")]),
        ("all", [("T1", "pi"), ("T2", "pi+ad"), ("T3", "pi+ad"), ("T4", "pi")]),
    ])
    def test_lambda_selects_single_part_leak(self, capsys, theorem, expected):
        code, out, _ = run_cli(["verify", "--theorem", theorem, "--lambda",
                                "pi", "--trials", "200", "--seed", "2"], capsys)
        assert code == 0
        ts = load_json(out)["theorems"]
        assert [(t["id"], t.get("lambda")) for t in ts] == expected

    def test_lambda_from_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda": "pi"}))
        code, out, _ = run_cli(["verify", "--theorem", "t1", "--config",
                                str(cfg), "--trials", "50", "--seed", "2"],
                               capsys)
        assert code == 0
        report = load_json(out)
        assert report["config"]["lambda"] == "pi"
        assert [t["lambda"] for t in report["theorems"]] == ["pi"]

    def test_lambda_echoed_in_config(self, capsys):
        code, out, _ = run_cli(["verify", "--theorem", "t1", "--lambda", "pi",
                                "--trials", "50", "--seed", "2"], capsys)
        assert code == 0
        report = load_json(out)
        assert report["config"]["lambda"] == "pi"
        assert [t["lambda"] for t in report["theorems"]] == ["pi"]


class TestImportCost:
    def test_cli_import_leaves_scipy_out(self, subprocess_env):
        probe = ("import sys, btpeval.cli; print('scipy' in sys.modules, "
                 "'concurrent.futures.process' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], env=subprocess_env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False False"

    def test_cli_import_leaves_dataclasses_out(self, subprocess_env):
        """The package's records generate no code at import."""
        probe = "import sys, btpeval.cli; print('dataclasses' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], env=subprocess_env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestConfigHandling:
    def test_population_centers_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "population": {"n": 7, "U": 2, "p": 0.0, "seed": 9,
                           "centers": ["0000000", "1111111"]},
            "trials": 50,
        }))
        code, out, _ = run_cli(["metrics", "--config", str(cfg), "--seed", "4"],
                               capsys)
        assert code == 0
        echo = load_json(out)["config"]["population"]
        assert echo["centers"] == ["0000000", "1111111"]

    def test_center_count_mismatch_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "population": {"n": 7, "U": 3, "p": 0.0,
                           "centers": ["0000000", "1111111"]},
        }))
        code, _, err = run_cli(["metrics", "--config", str(cfg)], capsys)
        assert code == 2

    def test_centers_without_user_count(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "population": {"n": 7, "p": 0.0,
                           "centers": ["0000000", "1111111", "1010101"]},
            "trials": 50,
        }))
        code, out, err = run_cli(["metrics", "--config", str(cfg)], capsys)
        assert code == 0, err
        assert load_json(out)["config"]["population"]["U"] == 3

    def test_centers_without_dimension(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "population": {"p": 0.0, "centers": ["0000000000", "1111111111",
                                                 "1010101010"]},
            "scheme": {"scheme": "plain"},
            "trials": 50,
        }))
        code, out, err = run_cli(["metrics", "--config", str(cfg)], capsys)
        assert code == 0, err
        echo = load_json(out)["config"]["population"]
        assert (echo["n"], echo["U"]) == (10, 3)

    def test_dimension_disagreeing_with_centers_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "population": {"n": 7, "centers": ["0000000000", "1111111111"]},
            "scheme": {"scheme": "plain"},
        }))
        code, _, err = run_cli(["metrics", "--config", str(cfg)], capsys)
        assert code == 2
        assert "10 bits" in err

    @pytest.mark.parametrize("user, where", [
        ({"trails": 50}, "unknown key(s) ['trails'] in config"),
        ({"population": {"n": 7, "UU": 3}},
         "config.population: unknown key(s) ['UU']"),
        ({"scheme": {"scheme": "fc", "code": {"t": 1, "kk": 4}}},
         "config.scheme: unknown key(s) ['kk'] in code"),
    ], ids=["top-level", "population", "scheme-code"])
    def test_unknown_key_is_usage_error(self, tmp_path, capsys, user, where):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(user))
        code, _, err = run_cli(["metrics", "--config", str(cfg),
                                "--trials", "10"], capsys)
        assert code == 2
        assert where in err
        assert_reader_refuses(user, cfg)

    def test_default_config_file_loads(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cli.DEFAULT_CONFIG))
        assert cli.load_config(str(cfg), {}) == cli.DEFAULT_CONFIG

    def test_readers_own_the_default_blocks(self):
        # the CLI's default blocks are empty: the readers hold the defaults
        scheme, pop = cli._build(cli.load_config(None, {}))
        assert Population.from_config({}) == pop == generate_population(
            7, 16, 0.03, seed=1)
        assert build_scheme({"tau": 1}, 7).describe() == scheme.describe() == {
            "scheme": "fc", "n": 7, "code": {"n": 7, "k": 4, "t": 1}}

    @pytest.mark.parametrize("budget", [0, -3])
    def test_query_budget_below_one_is_usage_error(self, tmp_path, capsys,
                                                   budget):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"query_budget": budget}))
        code, out, err = run_cli(["game", "al-irr", "--adversary", "sampler",
                                  "--config", str(cfg)], capsys)
        assert code == 2
        assert "query_budget" in err
        assert out == ""

    @pytest.mark.parametrize("user, where", [
        ({"trials": "100"}, "config: trials"),
        ({"trials": 2.5}, "config: trials"),
        ({"trials": True}, "config: trials"),
        ({"seed": "x"}, "config: seed"),
        ({"tau": 1.0}, "config: tau"),
        ({"query_budget": 1e6}, "config: query_budget"),
        ({"stats_outer": None}, "config: stats_outer"),
        ({"sampler_queries": "16"}, "config: sampler_queries"),
        ({"delta": "0.2"}, "config: delta"),
        ({"gamma": False}, "config: gamma"),
        ({"population": {"n": 7.0}}, "config.population: n"),
        ({"population": {"U": "16"}}, "config.population: U"),
        ({"population": {"seed": [1]}}, "config.population: seed"),
        ({"population": {"p": "0.03"}}, "config.population: p"),
        ({"scheme": {"scheme": "rot", "tau": "x"}}, "config.scheme: tau"),
        ({"scheme": {"scheme": "rot", "tau": 1.5}}, "config.scheme: tau"),
        ({"scheme": {"scheme": "rot", "tau": True}}, "config.scheme: tau"),
        ({"scheme": {"code": {"n": "7"}}}, "config.scheme: code.n"),
        ({"scheme": {"code": {"k": 4.0}}}, "config.scheme: code.k"),
        ({"scheme": {"code": {"t": "x"}}}, "config.scheme: code.t"),
        ({"scheme": {"code": {"generator": []}}},
         "config.scheme: code.generator"),
        ({"scheme": {"code": {"generator": "1000110"}}},
         "config.scheme: code.generator"),
        ({"population": {"centers": [5, 6]}}, "config.population: centers"),
        ({"population": {"centers": "0101"}}, "config.population: centers"),
        ({"population": {"centers": ["0101", "01x1"]}},
         "config.population: centers"),
        ({"lambda": 5}, "config.lambda: a leak set must be a string"),
        ({"lambda": ["pi"]}, "config.lambda: a leak set must be a string"),
        ({"lambda": True}, "config.lambda: a leak set must be a string"),
        ({"lambda": "pix"}, "config.lambda: cannot parse leak set 'pix'"),
        ({"lambda": ""}, "config.lambda: cannot parse leak set ''"),
    ])
    def test_wrong_value_type_is_usage_error(self, tmp_path, capsys, user,
                                             where):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(user))
        code, _, err = run_cli(["metrics", "--config", str(cfg),
                                "--trials", "10"], capsys)
        assert code == 2
        assert where in err
        assert_reader_refuses(user, cfg)

    @pytest.mark.parametrize("argv", [
        ["metrics"], ["game", "al-irr", "--adversary", "sampler"],
        ["verify", "--theorem", "t1"]], ids=["metrics", "game", "verify"])
    @pytest.mark.parametrize("leak, message", [
        (5, "config.lambda"), (["pi"], "config.lambda"),
        ("", "cannot parse leak set ''"), (None, "cannot parse leak set ''"),
    ], ids=["int", "list", "empty", "empty-flag"])
    def test_bad_lambda_is_usage_error(self, tmp_path, capsys, argv, leak,
                                       message):
        if leak is None:            # the empty string given on the command line
            argv = argv + ["--lambda", ""]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"lambda": leak}))
            argv = argv + ["--config", str(cfg)]
        code, out, err = run_cli(argv + ["--trials", "10"], capsys)
        assert code == 2
        assert message in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["metrics"], ["game", "al-irr", "--adversary", "sampler"],
        ["verify", "--theorem", "t1"]], ids=["metrics", "game", "verify"])
    def test_negative_tau_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(argv + ["--tau", "-1", "--trials", "10"],
                                 capsys)
        assert code == 2
        assert "tau must be >= 0" in err
        assert out == ""
        with pytest.raises(ConfigError, match="tau must be >= 0, got -1"):
            RunSettings(tau=-1)

    @pytest.mark.parametrize("dims", [{"n": 9}, {"k": 2}, {"n": 9, "k": 2}])
    def test_code_dimensions_disagreeing_with_generator_rejected(
            self, tmp_path, capsys, dims):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scheme": {"scheme": "fc", "code": {
            "t": 1, **dims,
            "generator": ["1000110", "0100101", "0010011", "0001111"]}}}))
        code, out, err = run_cli(["metrics", "--config", str(cfg),
                                  "--trials", "50"], capsys)
        assert code == 2
        assert "generator gives" in err
        assert out == ""

    def test_code_dimensions_agreeing_with_generator_accepted(
            self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scheme": {"scheme": "fc", "code": {
            "n": 7, "k": 4, "t": 1,
            "generator": ["1000110", "0100101", "0010011", "0001111"]}}}))
        code, out, err = run_cli(["metrics", "--config", str(cfg),
                                  "--trials", "50"], capsys)
        assert code == 0, err
        assert load_json(out)["config"]["scheme"]["code"] == {"n": 7, "k": 4,
                                                              "t": 1}

    def test_negative_decoding_radius_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scheme": {"scheme": "fc",
                                              "code": {"t": -1}}}))
        code, out, err = run_cli(["metrics", "--config", str(cfg),
                                  "--trials", "10"], capsys)
        assert code == 2
        assert "t must be >= 0" in err
        assert out == ""

    def test_numbers_accept_integers(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 0, "population": {"p": 0}}))
        # an integer delta passes its type check and meets its range check
        with pytest.raises(ConfigError, match=r"^config: need 0 < delta"):
            cli.load_config(str(cfg), {})
        cfg.write_text(json.dumps({"population": {"p": 0}}))
        loaded = cli.load_config(str(cfg), {})
        assert loaded["population"]["p"] == 0
        assert Population.from_config(loaded["population"]).flip_prob == 0.0

    def test_dimension_over_64_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"population": {"n": 70},
                                   "scheme": {"scheme": "plain"}}))
        code, _, err = run_cli(["metrics", "--config", str(cfg),
                                "--trials", "10"], capsys)
        assert code == 2
        assert "64" in err
