"""The benchmark's correctness gate holds on the package: its self-test
passes, and the `metrics` and `verify --theorem t3` reports past the
n <= 20 feature scan, where the ball-law oracle gives the scheme rows their
exact values and T3 its exact mean match rate, pass every per-report check
it makes, the 99% oracle checks included.

These tests only read `bench/`.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from btpeval import cli

ROOT = Path(__file__).resolve().parent.parent
GATE = ROOT / "bench" / "gate.py"


def load_gate():
    spec = importlib.util.spec_from_file_location("bench_gate", GATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gate_self_test_passes(tmp_path):
    proc = subprocess.run([sys.executable, str(GATE)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "gate self-test: ok" in proc.stdout


@pytest.mark.parametrize("scheme", ["rot", "plain"])
@pytest.mark.parametrize("n", [22, 64])
def test_metrics_past_feature_scan_pass_the_gate(tmp_path, n, scheme):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"population": {"n": n},
                               "scheme": {"scheme": scheme}}))
    out = tmp_path / "report.json"
    code = cli.main(["metrics", "--config", str(cfg), "--out", str(out)])
    report = json.loads(out.read_text())
    scheme_rows = [m for m in report["metrics"] if m["metric"] in (
        "fnmr_scheme", "fmr_tp_ad", "fmr_tp_pi", "fmr_bp", "fmr_div")]
    assert len(scheme_rows) == 5 and all("exact" in m for m in scheme_rows)
    checks = load_gate().check_report(report, code)
    assert [c for c in checks if not c.ok] == []
    assert sum(c.name.startswith("oracle:") for c in checks) >= 5


@pytest.mark.parametrize("scheme", ["rot", "plain"])
@pytest.mark.parametrize("n", [22, 64])
def test_t3_past_feature_scan_passes_the_gate(tmp_path, n, scheme):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"population": {"n": n},
                               "scheme": {"scheme": scheme}}))
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--theorem", "t3", "--config", str(cfg),
                     "--out", str(out)])
    report = json.loads(out.read_text())
    [verdict] = report["theorems"]
    assert verdict["status"] == "pass"
    checks = load_gate().check_report(report, code)
    assert [c for c in checks if not c.ok] == []
    assert {c.name for c in checks} >= {"exit_code", "verdict:T3[pi+ad]",
                                        "flagged:T3[pi+ad]"}
