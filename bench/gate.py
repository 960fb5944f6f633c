"""Correctness gate and trial accounting for btpeval CLI reports.

Every report a benchmark run produces goes through `check_report`; reports
of one seed go through `check_same_body`.  A check is *statistical* when a
correct program can miss it by chance (an oracle value outside a
confidence interval); all other checks hold for every seed.

Standard library only: the 99% Wilson interval is recomputed here from
`statistics.NormalDist` instead of being taken from `btpeval.metrics`, so
the gate does not trust the code it checks.

    python3 bench/gate.py      # self-test: one synthetic fault per check
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import sys
from statistics import NormalDist
from typing import NamedTuple

OK_STATUSES = ("pass", "not-applicable", "vacuous")
LEVEL = 0.99
_Z = NormalDist().inv_cdf(0.5 + LEVEL / 2.0)
_EPS = 1e-12


class Check(NamedTuple):
    name: str
    ok: bool
    statistical: bool
    detail: str


def wilson(wins: int, trials: int, z: float = _Z) -> tuple:
    """Wilson score interval, closed at 0 and 1 when no trial or every
    trial counted."""
    phat = wins / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials
                         + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if wins == 0 else max(0.0, center - half)
    hi = 1.0 if wins == trials else min(1.0, center + half)
    return lo, hi


def body_digest(report: dict) -> str:
    """Digest of the report without its volatile `timings` block."""
    body = {k: v for k, v in report.items() if k != "timings"}
    text = json.dumps(body, sort_keys=True, indent=2)
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def _verdict_name(t: dict) -> str:
    return t["id"] + (f"[{t['lambda']}]" if "lambda" in t else "")


def check_report(report: dict | None, exit_code: int) -> list:
    """All per-report checks of one CLI run."""
    failed_verdict = report is not None and any(
        t["status"] == "fail" for t in report.get("theorems", []))
    expected = 1 if failed_verdict else 0
    checks = [Check("exit_code", report is not None and exit_code == expected,
                    False, f"exit {exit_code}, report "
                    f"{'missing' if report is None else 'written'}")]
    if report is None:
        return checks
    for t in report.get("theorems", []):
        name = _verdict_name(t)
        checks.append(Check(f"verdict:{name}", t["status"] in OK_STATUSES,
                            False, t["status"]))
        if "flagged" in t["details"]:
            flagged = t["details"]["flagged"]
            checks.append(Check(f"flagged:{name}", flagged == 0, False,
                                f"{flagged} trials flagged"))
    if "game_result" in report:
        flagged = report["game_result"]["flagged"]
        checks.append(Check("flagged:game", flagged == 0, False,
                            f"{flagged} trials flagged"))
    for m in report.get("metrics", []):
        exact = m.get("exact")
        if exact is None:
            continue
        if "stats" in m:
            lo, hi = m["stats"]["mean_ci"]
            ok = lo - _EPS <= exact["mean"] <= hi + _EPS
            checks.append(Check(f"oracle:{m['metric']}.mean", ok, True,
                                f"exact {exact['mean']:.6g} vs mean_ci "
                                f"[{lo:.6g}, {hi:.6g}]"))
            continue
        trials = m["trials"]
        wins = round(m["estimate"] * trials)
        lo, hi = wilson(wins, trials)
        ok = lo - _EPS <= exact <= hi + _EPS
        checks.append(Check(f"oracle:{m['metric']}", ok, True,
                            f"exact {exact:.6g} vs 99% Wilson [{lo:.6g}, "
                            f"{hi:.6g}] of {wins}/{trials}"))
    return checks


def merge_checks(checks) -> list:
    """One check per name, failed when any of its instances failed.

    The reports of one seed are byte-identical, so a check made on each of
    them repeats one outcome; counted per name, a benchmark run of a seed
    makes the same number of checks however many CLI runs fit its window.
    """
    by_name = {}
    for c in checks:
        by_name.setdefault(c.name, []).append(c)
    merged = []
    for name, group in by_name.items():
        bad = [c for c in group if not c.ok]
        first = bad[0] if bad else group[0]
        merged.append(Check(name, not bad, first.statistical,
                            f"{first.detail} ({len(bad)} of {len(group)} "
                            "instances failed)"))
    return merged


def check_same_body(name: str, reports: list) -> Check:
    """The stripped reports of one seed must be byte-identical."""
    digests = sorted({body_digest(r) for r in reports})
    return Check(name, len(digests) == 1, False,
                 f"{len(reports)} reports, digests {', '.join(digests)}")


# --------------------------------------------------------------------------
# trial accounting: how many Monte Carlo trials a report declares


def game_trials(report: dict) -> int:
    """Game trials run for a verify or game report."""
    total = 0
    for t in report.get("theorems", []):
        d = t["details"]
        if t["id"] == "T1":
            total += d["trials"]
        elif t["id"] in ("T2", "T3") and "win_rate" in d:
            total += d["trials"]
        elif t["id"] == "T4" and "adv_inner" in d:
            total += 2 * d["trials"]          # inner inversion game + reduction game
    if "game_result" in report:
        total += report["game_result"]["trials"]
    return total


def declared_trials(report: dict) -> int:
    """Game trials, estimator trials, and outer x inner probes of the
    per-template match-rate statistics."""
    total = game_trials(report)
    for t in report.get("theorems", []):
        if t["id"] == "T2":
            total += t["details"]["stats_outer"] * t["details"]["stats_inner"]
    for m in report.get("metrics", []):
        if "stats" in m:
            total += m["stats"]["trials_outer"] * m["stats"]["trials_inner"]
        else:
            total += m["trials"]
    return total


def flagged_trials(report: dict) -> int:
    total = sum(t["details"].get("flagged", 0)
                for t in report.get("theorems", []))
    if "game_result" in report:
        total += report["game_result"]["flagged"]
    return total


# --------------------------------------------------------------------------
# self-test


def _verdict(tid, leak, status="pass"):
    return {"id": tid, "lambda": leak, "status": status, "pass": status == "pass",
            "relation": ">=", "lhs": 0.5, "rhs": 0.4, "tolerance": 0.01,
            "details": {"trials": 100, "flagged": 0, "win_rate": 0.5,
                        "adv_inner": 0.1, "stats_outer": 6, "stats_inner": 4}}


def _clean_reports() -> tuple:
    verify_report = {
        "command": "verify",
        "theorems": [_verdict("T1", "pi"), _verdict("T2", "pi+ad"),
                     _verdict("T3", "pi+ad"), _verdict("T4", "ad")],
        "timings": {"wall_s": 1.0},
    }
    metrics_report = {
        "command": "metrics",
        "metrics": [
            {"metric": "fmr", "estimate": 0.1, "ci": [0.08, 0.12],
             "trials": 1000, "exact": 0.1},
            {"metric": "q", "estimate": 0.0, "ci": [0.0, 0.004],
             "trials": 1000, "exact": 0.0},
            {"metric": "mr_pi_stats", "exact": {"mean": 0.5, "std_dev": 0.1},
             "stats": {"mean": 0.5, "mean_ci": [0.45, 0.55],
                       "trials_outer": 10, "trials_inner": 20}},
        ],
        "timings": {"wall_s": 2.0},
    }
    return verify_report, metrics_report


def _failures(checks) -> int:
    return sum(not c.ok for c in checks)


def self_test() -> list:
    """Run the gate on synthetic reports; return the problems found."""
    problems = []

    def expect(label, checks, want):
        got = _failures(checks)
        if got != want:
            problems.append(f"{label}: {got} failures, expected {want}")

    verify_report, metrics_report = _clean_reports()
    expect("clean verify", check_report(verify_report, 0), 0)
    expect("clean metrics", check_report(metrics_report, 0), 0)
    retimed = copy.deepcopy(verify_report)
    retimed["timings"]["wall_s"] = 9.0
    expect("digest ignores timings",
           [check_same_body("digest", [verify_report, retimed])], 0)

    fail = copy.deepcopy(verify_report)
    fail["theorems"][2]["status"] = "fail"
    expect("FAIL verdict", check_report(fail, 1), 1)

    moved = copy.deepcopy(metrics_report)
    moved["metrics"][0]["exact"] = 0.2
    expect("exact outside its interval", check_report(moved, 0), 1)

    moved_mean = copy.deepcopy(metrics_report)
    moved_mean["metrics"][2]["exact"]["mean"] = 0.6
    expect("exact mean outside mean_ci", check_report(moved_mean, 0), 1)

    changed = copy.deepcopy(verify_report)
    changed["theorems"][0]["lhs"] = 0.51
    expect("digest mismatch",
           [check_same_body("digest", [verify_report, changed])], 1)

    flagged = copy.deepcopy(verify_report)
    flagged["theorems"][3]["details"]["flagged"] = 3
    expect("non-zero flagged", check_report(flagged, 0), 1)

    expect("missing report", check_report(None, 2), 1)

    expect("repeated clean reports",
           merge_checks(check_report(metrics_report, 0) * 3), 0)
    expect("one fault repeated in three reports",
           merge_checks(check_report(moved, 0) * 3), 1)
    expect("one fault in one of three reports",
           merge_checks(check_report(metrics_report, 0) * 2
                        + check_report(moved, 0)), 1)

    if declared_trials(verify_report) != 100 + 100 + 6 * 4 + 100 + 200:
        problems.append("declared trials of the verify report miscounted")
    if declared_trials(metrics_report) != 1000 + 1000 + 10 * 20:
        problems.append("declared trials of the metrics report miscounted")
    return problems


if __name__ == "__main__":
    found = self_test()
    for p in found:
        print(f"gate self-test: {p}", file=sys.stderr)
    print("gate self-test:", "FAIL" if found else "ok")
    sys.exit(1 if found else 0)
