"""Command-line entry point: metrics sweeps, single games, theorem checks.

    btpeval metrics [--config cfg.json] [--seed N] [--trials N] ...
    btpeval game {al-irr,pal-irr,unlink} --adversary NAME [--lambda pi+ad] ...
    btpeval verify --theorem {t1,t2,t3,t4,all} ...

Exit codes: 0 success, 1 a theorem check failed, 2 configuration or usage
error.  Reports are deterministic given --seed and independent of --jobs.
"""

from __future__ import annotations

import argparse
import copy
import json
import re
import sys
import time

from . import exact, metrics, verify
from .adversaries import (
    CoinFlipUnlinkAdversary,
    CrossComparatorAdversary,
    MatchTestUnlinkAdversary,
    PalSamplerAdversary,
    PalSamplerConfig,
    ReadViewAdversary,
    ReductionUnlinkAdversary,
    SamplerIrrAdversary,
    blind_al_adversary,
    blind_pal_adversary,
)
from .errors import BtpEvalError, ConfigError, ModeError
from .games import est_cross_match_rates, run_al_irr_game, run_pal_irr_game, run_unlink_game
from .population import Population
from .report import make_report, write_report
from .schemes import LEAK_BOTH, LeakSet, build_scheme

DEFAULT_CONFIG = {
    "population": {"n": 7, "U": 16, "p": 0.03, "seed": 1},
    "scheme": {"scheme": "fc", "code": {"n": 7, "k": 4, "t": 1}},
    "tau": 1,
    "lambda": None,  # games use pi+ad; verify runs T1/T4 on pi, then on ad
    "trials": 10000,
    "query_budget": 10**6,
    "seed": 1,
    "delta": 0.16,
    "gamma": 0.5,
    "stats_outer": 600,
    "stats_inner": 400,
}


# Every key some code path reads; a nested dict lists a block's keys.
# `int` marks an integer value, `float` any number (neither a bool), `list`
# a non-empty list of bitstrings, None a value checked elsewhere (`lambda`
# in `load_config`, the scheme name in `build_scheme`).
CONFIG_KEYS = {
    "population": {"n": int, "U": int, "p": float, "seed": int,
                   "centers": list},
    "scheme": {"scheme": None, "tau": int,
               "code": {"n": int, "k": int, "t": int, "generator": list}},
    **dict.fromkeys(("tau", "trials", "query_budget", "seed", "stats_outer",
                     "stats_inner", "sampler_queries"), int),
    **dict.fromkeys(("delta", "gamma"), float),
    "lambda": None,
}


def _check_keys(block, allowed: dict, where: str):
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}; "
                          f"allowed: {sorted(allowed)}")
    for key, sub in allowed.items():
        if key not in block or sub is None:
            continue
        if isinstance(sub, dict):
            _check_keys(block[key], sub, f"{where}.{key}")
            continue
        value = block[key]
        if sub is list:
            if not (isinstance(value, list) and value and all(
                    isinstance(s, str) and re.fullmatch("[01]+", s)
                    for s in value)):
                raise ConfigError(f"{where}.{key} must be a non-empty list "
                                  f"of bitstrings, got {value!r}")
            continue
        types = int if sub is int else (int, float)
        if isinstance(value, bool) or not isinstance(value, types):
            kind = "an integer" if sub is int else "a number"
            raise ConfigError(f"{where}.{key} must be {kind}, got {value!r}")


def load_config(path: str | None, overrides: dict) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path:
        try:
            with open(path, encoding="utf-8") as f:
                user = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        _check_keys(user, CONFIG_KEYS, "config")
        for key, value in user.items():
            if isinstance(value, dict) and isinstance(cfg.get(key), dict):
                cfg[key].update(value)
            else:
                cfg[key] = value
        # Listed centers fix U and n; only values the user gave are checked.
        user_pop = user.get("population", {})
        if user_pop.get("centers") is not None:
            for key in ("U", "n"):
                if key not in user_pop:
                    del cfg["population"][key]
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    if cfg["tau"] < 0:
        raise ConfigError(f"tau must be >= 0, got {cfg['tau']}")
    if cfg["lambda"] is not None:
        if not isinstance(cfg["lambda"], str):
            raise ConfigError("config.lambda must be a string such as "
                              f"'pi+ad', got {cfg['lambda']!r}")
        LeakSet.parse(cfg["lambda"])
    return cfg


def _build(cfg):
    pop = Population.from_config(cfg["population"])
    scheme_cfg = dict(cfg["scheme"])
    scheme_cfg.setdefault("tau", cfg.get("tau", 1))
    scheme = build_scheme(scheme_cfg, pop.n)
    return scheme, pop


def _config_echo(cfg, scheme, pop) -> dict:
    echo = dict(cfg)
    echo["lambda"] = cfg["lambda"] or str(LEAK_BOTH)
    echo["population"] = pop.to_config()
    echo["scheme"] = scheme.describe()
    return echo


_IRR_ADVERSARIES = ("blind", "pal-sampler", "sampler", "read-pi", "read-alpha")
_UNLINK_ADVERSARIES = ("appendix-b", "match-test", "cross-comparator", "coin")


def _measure_sampler_config(scheme, pop, cfg) -> PalSamplerConfig:
    st = metrics.pt_match_stats(scheme, pop, cfg["stats_outer"],
                                cfg["stats_inner"], seed=cfg["seed"])
    return PalSamplerConfig.from_stats(st.stats, cfg["delta"], cfg["gamma"])


def make_irr_adversary(name: str, scheme, pop, leak: LeakSet, tau: int,
                       game: str, cfg: dict):
    if name == "blind":
        if game == "pal-irr":
            return blind_pal_adversary(scheme, pop)
        return blind_al_adversary(pop, tau)
    if name == "pal-sampler":
        if leak != LEAK_BOTH:
            raise ConfigError("pal-sampler needs --lambda pi+ad")
        return PalSamplerAdversary(_measure_sampler_config(scheme, pop, cfg))
    if name == "sampler":
        return SamplerIrrAdversary(num_queries=int(cfg.get("sampler_queries", 16)),
                                   fallback_tau=tau)
    if name == "read-pi":
        if not leak.pi:
            raise ConfigError("read-pi needs a leak set containing pi")
        return ReadViewAdversary("pi")
    if name == "read-alpha":
        if not leak.ad:
            raise ConfigError("read-alpha needs a leak set containing ad")
        return ReadViewAdversary("alpha")
    raise ConfigError(
        f"unknown inversion adversary {name!r}; choose from {_IRR_ADVERSARIES}"
    )


def make_unlink_adversary(name: str, scheme, pop, leak: LeakSet, tau: int,
                          cfg: dict):
    reduction = re.fullmatch(r"reduction\(inner=([a-z-]+)\)", name)
    if reduction:
        inner = make_irr_adversary(reduction.group(1), scheme, pop, leak, tau,
                                   "al-irr", cfg)
        return ReductionUnlinkAdversary(inner, tau)
    if name in ("appendix-b", "match-test"):
        if leak != LEAK_BOTH:
            raise ConfigError(f"{name} needs --lambda pi+ad")
        return MatchTestUnlinkAdversary()
    comparator = re.fullmatch(r"cross-comparator(?:\[([a-z0-9-]+)\])?", name)
    if comparator:
        return CrossComparatorAdversary(comparator.group(1) or "match-test")
    if name == "coin":
        return CoinFlipUnlinkAdversary()
    raise ConfigError(
        f"unknown distinguishing adversary {name!r}; choose from "
        f"{_UNLINK_ADVERSARIES} or reduction(inner=...)"
    )


# --------------------------------------------------------------------------
# subcommands


def cmd_metrics(cfg: dict, scheme, pop, jobs: int) -> tuple:
    trials = cfg["trials"]
    seed = cfg["seed"]
    tau = cfg["tau"]
    budgeted = dict(seed=seed, jobs=jobs)
    try:
        en = exact.enumerator(scheme, pop)
    except ModeError:
        en = None

    entries = []

    def add(name, est, exact_value=None, extra=None):
        entry = {"metric": name}
        entry.update(est.to_dict())
        if exact_value is not None:
            entry["exact"] = exact_value
        if extra:
            entry.update(extra)
        entries.append(entry)

    fnmr_b, fmr_b = metrics.est_baseline_rates(pop, tau, trials, **budgeted)
    fnmr_e, fmr_e = exact.baseline_rates(pop, tau)
    add(f"fnmr_d<={tau}", fnmr_b, fnmr_e)
    add(f"fmr_d<={tau}", fmr_b, fmr_e)
    add("fnmr_scheme", metrics.est_scheme_fnmr(scheme, pop, trials, **budgeted),
        en.fnmr() if en else None)
    add("fmr_tp_ad", metrics.est_fmr_tp(scheme, pop, "ad", trials, **budgeted),
        en.fmr_tp("ad") if en else None)
    add("fmr_tp_pi", metrics.est_fmr_tp(scheme, pop, "pi", trials, **budgeted),
        en.fmr_tp("pi") if en else None)
    add("fmr_bp", metrics.est_fmr_bp(scheme, pop, trials, **budgeted),
        en.fmr_bp() if en else None)
    div = metrics.est_fmr_div(scheme, pop, trials, **budgeted)
    div_exact = en.fmr_div() if en else None
    add("fmr_div", div, div_exact,
        extra={"entropy_bits": metrics.entropy_bits(div.point),
               "entropy_bits_exact": metrics.entropy_bits(div_exact)
               if div_exact is not None else None})

    m_mr = metrics.extremal_mr(pop, tau, seed=seed)
    add(f"m_d<={tau}", metrics.est_mr_of_feature(pop, m_mr.witness, tau, trials,
                                                 **budgeted),
        m_mr.value, extra={"witness": str(m_mr.witness), "mode": m_mr.mode})
    m_rmr = metrics.extremal_rmr(scheme, pop, seed=seed)
    add("m_rmr", metrics.rmr_of_feature(scheme, pop, m_rmr.witness, trials,
                                        **budgeted),
        m_rmr.value, extra={"witness": str(m_rmr.witness), "mode": m_rmr.mode})

    if pop.n <= exact.EXACT_N_CAP:
        ov_est = metrics.est_overlap_rates(pop, tau, trials, seed=seed)
        ov = metrics.overlap_rates(pop, tau)
        add(f"p_tau{tau}", ov_est.p_tau, ov.p_tau,
            extra={"witness": str(ov_est.witness_max)})
        add(f"q_tau{tau}", ov_est.q_tau, ov.q_tau,
            extra={"witness": str(ov_est.witness_min)})

    st = metrics.pt_match_stats(scheme, pop, cfg["stats_outer"],
                                cfg["stats_inner"], seed=seed, jobs=jobs)
    stats_entry = {"metric": "mr_pi_stats", "stats": st.to_dict()}
    if en:
        mean, sigma = en.pt_match_stats()
        stats_entry["exact"] = {"mean": mean, "std_dev": sigma}
    entries.append(stats_entry)

    return {"metrics": entries}, 0


def cmd_game(cfg: dict, scheme, pop, game: str, adversary_name: str, jobs: int,
             cross_rates: bool = False) -> tuple:
    leak = LeakSet.parse(cfg["lambda"] or str(LEAK_BOTH))
    tau = cfg["tau"]
    trials = cfg["trials"]
    seed = cfg["seed"]
    budget = cfg["query_budget"]
    if cross_rates and game != "unlink":
        raise ConfigError(f"--cross-rates applies to the unlink game, not {game}")
    if game in ("al-irr", "pal-irr"):
        adv = make_irr_adversary(adversary_name, scheme, pop, leak, tau,
                                 game, cfg)
        if game == "al-irr":
            result = run_al_irr_game(scheme, pop, leak, tau, adv, trials,
                                     seed=seed, budget=budget, jobs=jobs)
        else:
            result = run_pal_irr_game(scheme, pop, leak, adv, trials,
                                      seed=seed, budget=budget, jobs=jobs)
        return {"game_result": result.to_dict()}, 0
    if game == "unlink":
        adv = make_unlink_adversary(adversary_name, scheme, pop, leak, tau, cfg)
        result = run_unlink_game(scheme, pop, leak, adv, trials, seed=seed,
                                 budget=budget, jobs=jobs)
        body = {"game_result": result.to_dict()}
        if cross_rates:
            cm = est_cross_match_rates(scheme, pop, leak, adv, trials,
                                       seed=seed, budget=budget, jobs=jobs)
            body["cross_match"] = cm.to_dict()
        return body, 0
    raise ConfigError(f"unknown game {game!r}")


_THEOREMS = (*verify.THEOREMS, "all")


def cmd_verify(cfg: dict, scheme, pop, theorem: str, jobs: int) -> tuple:
    if theorem not in _THEOREMS:
        raise ConfigError(f"unknown theorem {theorem!r}; choose from {_THEOREMS}")
    checks = (verify.THEOREMS.values() if theorem == "all"
              else [verify.THEOREMS[theorem]])
    leaks = ([LeakSet.parse(cfg["lambda"])] if cfg["lambda"]
             else verify.SINGLE_PART_LEAKS)
    settings = verify.VerifySettings(
        tau=cfg["tau"], delta=cfg["delta"], gamma=cfg["gamma"],
        trials=cfg["trials"], seed=cfg["seed"], budget=cfg["query_budget"],
        jobs=jobs, stats_outer=cfg["stats_outer"], stats_inner=cfg["stats_inner"])
    verdicts = [v for check in checks for v in check(scheme, pop, leaks, settings)]
    body = {"theorems": [v.to_dict() for v in verdicts]}
    code = 0 if all(v.status != verify.FAIL for v in verdicts) else 1
    return body, code


# --------------------------------------------------------------------------
# argument parsing


def _common_flags(parser):
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument("--seed", type=int, help="master random seed")
    parser.add_argument("--trials", type=int, help="Monte Carlo trials")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    parser.add_argument("--out", metavar="PATH", help="report path (default stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--tau", type=int, help="decision threshold")
    parser.add_argument("--lambda", dest="leak", metavar="LAMBDA",
                        help="leaked template parts: pi, ad, or pi+ad")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="btpeval",
        description="Security-game evaluation for biometric template protection",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_metrics = sub.add_parser("metrics", help="estimate all metrics")
    _common_flags(p_metrics)

    p_game = sub.add_parser("game", help="run one game")
    p_game.add_argument("game", choices=("al-irr", "pal-irr", "unlink"))
    p_game.add_argument("--adversary", required=True)
    p_game.add_argument("--cross-rates", action="store_true",
                        help="also estimate FCMR/FNCMR (unlink only)")
    _common_flags(p_game)

    p_verify = sub.add_parser("verify", help="check the relation theorems")
    p_verify.add_argument("--theorem", choices=_THEOREMS, default="all")
    _common_flags(p_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.time()
    try:
        overrides = {"seed": args.seed, "trials": args.trials}
        if args.tau is not None:
            overrides["tau"] = args.tau
        if args.leak is not None:
            overrides["lambda"] = args.leak
        cfg = load_config(args.config, overrides)
        jobs = args.jobs
        if jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {jobs}")
        scheme, pop = _build(cfg)
        if args.cmd == "metrics":
            body, code = cmd_metrics(cfg, scheme, pop, jobs)
        elif args.cmd == "game":
            body, code = cmd_game(cfg, scheme, pop, args.game, args.adversary,
                                  jobs, cross_rates=args.cross_rates)
        else:
            body, code = cmd_verify(cfg, scheme, pop, args.theorem, jobs)
        report = make_report(args.cmd, _config_echo(cfg, scheme, pop), body,
                             timings={"wall_s": round(time.time() - t0, 3)})
        write_report(report, args.out, args.format)
        return code
    except BtpEvalError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
