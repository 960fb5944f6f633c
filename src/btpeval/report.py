"""Experiment report assembly and serialization.

Reports are plain dicts rendered as canonical JSON (sorted keys, fixed
indentation), so two runs with the same seed produce byte-identical files
once the volatile "timings" block is dropped.  A versioned JSON schema for
the report shape ships in docs/report.schema.json.
"""

from __future__ import annotations

import json
import sys

from . import __version__
from .errors import ConfigError

REPORT_VERSION = 1


def make_report(command: str, config_echo: dict, body: dict,
                timings: dict | None = None) -> dict:
    report = {
        "version": REPORT_VERSION,
        "tool": f"btpeval {__version__}",
        "command": command,
        "config": config_echo,
    }
    report.update(body)
    if timings is not None:
        report["timings"] = timings
    return report


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _estimate_row(name: str, e: dict) -> tuple:
    return (name, e["estimate"], e["ci"][0], e["ci"][1], e["trials"])


def _csv_rows(report: dict):
    rows = [("name", "estimate", "ci_low", "ci_high", "trials")]
    for m in report.get("metrics", []):
        name = m["metric"]
        if "stats" in m:
            s = m["stats"]
            rows.append((f"{name}.mean", s["mean"], s["mean_ci"][0],
                         s["mean_ci"][1], s["trials_outer"]))
            rows.append((f"{name}.std_dev", s["std_dev"], s["std_ci"][0],
                         s["std_ci"][1], s["trials_outer"]))
        else:
            rows.append(_estimate_row(name, m))
    if "game_result" in report:
        g = report["game_result"]
        for key in ("win_rate", "advantage"):
            rows.append(_estimate_row(f"{g['game']}.{key}", g[key]))
    if "cross_match" in report:
        c = report["cross_match"]
        for key in ("fcmr", "fncmr", "unlink_advantage"):
            rows.append(_estimate_row(f"cross_match.{key}", c[key]))
    for t in report.get("theorems", []):
        name = t["id"] + (f"[{t['lambda']}]" if "lambda" in t else "")
        lhs = t["lhs"] if t["lhs"] is not None else ""
        rhs = t["rhs"] if t["rhs"] is not None else ""
        tol = t["tolerance"] if t["tolerance"] is not None else 0
        lo = rhs - tol if rhs != "" else ""
        hi = rhs + tol if rhs != "" else ""
        rows.append((name, lhs, lo, hi, t["details"].get("trials", "")))
    return rows


def report_csv(report: dict) -> str:
    lines = [",".join(str(c) for c in row) for row in _csv_rows(report)]
    return "\n".join(lines) + "\n"


def write_report(report: dict, out_path: str | None, fmt: str = "json") -> None:
    text = report_json(report) if fmt == "json" else report_csv(report)
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as e:
        raise ConfigError(f"cannot write report {out_path}: {e}") from e
