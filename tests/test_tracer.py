"""The benchmark's tracer still runs on the package: a traced CLI run exits
cleanly and its trace yields every per-layer metric BENCHMARK.json names.

The tracer wraps package names it reads when it installs, so renaming or
deleting one of them fails a traced benchmark run; these tests make such
a failure a test failure.  They only read `bench/`.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("command", [
    ["verify", "--theorem", "all", "--trials", "300"],
    ["metrics", "--trials", "300"],
], ids=["verify", "metrics"])
def test_traced_run_yields_every_per_layer_metric(tmp_path, subprocess_env,
                                                  command):
    trace_path = tmp_path / "t.json"
    proc = subprocess.run([sys.executable, str(TRACER), str(trace_path),
                           *command], cwd=tmp_path, env=subprocess_env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(trace_path, encoding="utf-8") as f:
        trace = json.load(f)
    assert trace["exit_code"] == 0
    layers = load_tracer().layer_metrics(trace)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        names = {m["name"] for m in json.load(f)["per_layer"]}
    # the benchmark measures the tracer's own overhead from wall times
    assert names - set(layers) == {"trace.overhead_s"}
    if command[0] == "verify":
        assert layers["population.oracle.queries"] > 0
