"""Command-line entry point: metrics sweeps, single games, theorem checks.

    btpeval metrics [--config cfg.json] [--seed N] [--trials N] ...
    btpeval game {al-irr,pal-irr,unlink} --adversary NAME [--lambda pi+ad] ...
    btpeval verify --theorem {t1,t2,t3,t4,all} ...

Every subcommand reads its run settings from one `RunSettings` record;
`game` builds its adversary with `build_adversary`, `verify` runs
`verify_all`.

Exit codes: 0 success, 1 a theorem check failed, 2 configuration or usage
error.  Reports are deterministic given --seed and independent of --jobs.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
import time
from contextlib import suppress

from . import exact, metrics, verify
from .adversaries import adversary_names, build_adversary
from .errors import BtpEvalError, ConfigError, DimensionError, ModeError, require_keys
from .games import est_cross_match_rates, run_al_irr_game, run_pal_irr_game, run_unlink_game
from .metrics import RunSettings
from .population import Population, bitstring
from .report import make_report, write_report
from .schemes import LEAK_BOTH, LeakSet, PlaintextScheme, build_scheme

# The run settings and their defaults are the fields of `RunSettings`: all
# but `jobs` (a flag) and `level` are config keys, and all but
# `sampler_queries` (echoed only when a config sets it) have a default here.
# The population and scheme blocks take their defaults from their readers.
DEFAULT_CONFIG = {
    "population": {},
    "scheme": {},
    "lambda": None,  # games use pi+ad; verify runs T1/T4 on pi, then on ad
    **{name: getattr(RunSettings, name) for name in RunSettings._fields
       if name not in ("jobs", "level", "sampler_queries")},
}

# The top-level keys; each block's reader owns the keys and values in it.
CONFIG_KEYS = (*DEFAULT_CONFIG, "sampler_queries")


def _read(where: str, reader, *args):
    """`reader(*args)`, whose refusal names the config block `where` it read."""
    try:
        return reader(*args)
    except (ConfigError, DimensionError) as e:
        raise type(e)(f"{where}: {e}") from None


def load_config(path: str | None, overrides: dict) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path:
        try:
            with open(path, encoding="utf-8") as f:
                user = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        # the file's own values are read here, so a flag cannot hide them
        require_keys(user, CONFIG_KEYS, "config")
        _read("config", RunSettings.from_config, user)
        if user.get("lambda") is not None:
            _read("config.lambda", LeakSet.parse, user["lambda"])
        cfg.update(user)
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    return cfg


def _build(cfg):
    pop = _read("config.population", Population.from_config, cfg["population"])
    scheme_cfg = cfg["scheme"]
    if isinstance(scheme_cfg, dict):    # any other is build_scheme's to refuse
        scheme_cfg = {"tau": cfg["tau"], **scheme_cfg}
    scheme = _read("config.scheme", build_scheme, scheme_cfg, pop.n)
    return scheme, pop


def _config_echo(cfg, scheme, pop) -> dict:
    echo = dict(cfg)
    echo["lambda"] = cfg["lambda"] or str(LEAK_BOTH)
    echo["population"] = pop.to_config()
    echo["scheme"] = scheme.describe()
    return echo


def _entropy_bits(rate):
    """`metrics.entropy_bits`, or None (strict JSON) for a zero or unknown rate."""
    return metrics.entropy_bits(rate) if rate else None


# --------------------------------------------------------------------------
# subcommands


def cmd_metrics(s: RunSettings, scheme, pop) -> tuple:
    tau = s.tau
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

    fnmr_b, fmr_b = metrics.est_baseline_rates(pop, tau, s)
    raw = exact.LawOracle(PlaintextScheme(pop.n, tau), pop)
    add(f"fnmr_d<={tau}", fnmr_b, raw.fnmr())
    add(f"fmr_d<={tau}", fmr_b, raw.fmr_bp())
    add("fnmr_scheme", metrics.est_scheme_fnmr(scheme, pop, s),
        en.fnmr() if en else None)
    add("fmr_tp_ad", metrics.est_fmr_tp(scheme, pop, "ad", s),
        en.fmr_tp("ad") if en else None)
    add("fmr_tp_pi", metrics.est_fmr_tp(scheme, pop, "pi", s),
        en.fmr_tp("pi") if en else None)
    add("fmr_bp", metrics.est_fmr_bp(scheme, pop, s),
        en.fmr_bp() if en else None)
    div = metrics.est_fmr_div(scheme, pop, s)
    div_exact = en.fmr_div() if en else None
    add("fmr_div", div, div_exact,
        extra={"entropy_bits": _entropy_bits(div.point),
               "entropy_bits_exact": _entropy_bits(div_exact)})

    m_mr = metrics.extremal_mr(pop, tau, s)
    add(f"m_d<={tau}", metrics.est_mr_of_feature(pop, m_mr.witness, tau, s),
        m_mr.value, extra={"witness": bitstring(pop.n, m_mr.witness),
                           "mode": m_mr.mode})
    m_rmr = metrics.extremal_rmr(scheme, pop, s)
    add("m_rmr", metrics.rmr_of_feature(scheme, pop, m_rmr.witness, s),
        m_rmr.value, extra={"witness": bitstring(pop.n, m_rmr.witness),
                            "mode": m_rmr.mode})

    if pop.n <= exact.EXACT_N_CAP:
        # the tau-balls of x and a capture meet iff they lie within 2 tau
        ov = metrics.overlap_rates(pop, tau)
        for name, rate, witness in ((f"p_tau{tau}", ov.p_tau, ov.witness_max),
                                    (f"q_tau{tau}", ov.q_tau, ov.witness_min)):
            add(name, metrics.est_mr_of_feature(pop, witness, 2 * tau, s),
                rate, extra={"witness": bitstring(pop.n, witness)})

    st = metrics.pt_match_stats(scheme, pop, s)
    stats_entry = {"metric": "mr_pi_stats", "stats": st.to_dict()}
    if en:
        with suppress(ModeError):   # the statistics scan every feature
            mean, sigma = en.pt_match_stats()
            stats_entry["exact"] = {"mean": mean, "std_dev": sigma}
    entries.append(stats_entry)

    return {"metrics": entries}, 0


def cmd_game(s: RunSettings, scheme, pop, game: str, adversary_name: str,
             leak: LeakSet, cross_rates: bool = False) -> tuple:
    if cross_rates and game != "unlink":
        raise ConfigError(f"--cross-rates applies to the unlink game, not {game}")
    adv = build_adversary(adversary_name, game, scheme, pop, s, leak)
    if game == "al-irr":
        result = run_al_irr_game(scheme, pop, leak, s.tau, adv, s)
    elif game == "pal-irr":
        result = run_pal_irr_game(scheme, pop, leak, adv, s)
    else:
        result = run_unlink_game(scheme, pop, leak, adv, s)
    body = {"game_result": result.to_dict()}
    if cross_rates:
        body["cross_match"] = est_cross_match_rates(scheme, pop, leak, adv,
                                                    s).to_dict()
    return body, 0


def cmd_verify(s: RunSettings, scheme, pop, theorem: str,
               leak: LeakSet | None) -> tuple:
    verdicts = verify.verify_all(scheme, pop, s, theorem, leak)
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
    p_game.add_argument(
        "--adversary", required=True,
        help=f"al-irr, pal-irr: {', '.join(adversary_names('al-irr'))}; "
             f"unlink: {', '.join(adversary_names('unlink'))}")
    p_game.add_argument("--cross-rates", action="store_true",
                        help="also estimate FCMR/FNCMR (unlink only)")
    _common_flags(p_game)

    p_verify = sub.add_parser("verify", help="check the relation theorems")
    p_verify.add_argument("--theorem", choices=(*verify.THEOREMS, "all"),
                          default="all")
    _common_flags(p_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        overrides = {"seed": args.seed, "trials": args.trials, "tau": args.tau,
                     "lambda": args.leak}
        cfg = load_config(args.config, overrides)
        settings = RunSettings.from_config(cfg, args.jobs)
        leak = LeakSet.parse(cfg["lambda"]) if cfg["lambda"] is not None else None
        scheme, pop = _build(cfg)
        if args.cmd == "metrics":
            body, code = cmd_metrics(settings, scheme, pop)
        elif args.cmd == "game":
            body, code = cmd_game(settings, scheme, pop, args.game,
                                  args.adversary, leak or LEAK_BOTH,
                                  cross_rates=args.cross_rates)
        else:
            body, code = cmd_verify(settings, scheme, pop, args.theorem, leak)
        report = make_report(args.cmd, _config_echo(cfg, scheme, pop), body,
                             timings={"wall_s": round(time.perf_counter() - t0, 3)})
        write_report(report, args.out, args.format)
        return code
    except BtpEvalError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
