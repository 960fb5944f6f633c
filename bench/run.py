"""btpeval benchmark: the real CLI, one fresh process per run, from outside.

    python3 bench/run.py --workload verify-fc7 --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50 --trace 0

`--trace 0` measures the end-to-end metrics: for `--seconds` (at least
three times), a set-up probe in a fresh process and then a CLI run,
reporting medians of times in reference seconds (host seconds corrected
by the host's speed, probed while each process runs).  `--trace 1` runs
the CLI three times untraced and twice under bench/tracer.py (twice more
at the workload's pool `--jobs`, if it has one), and reports the
per-layer metrics of the traced runs.  Every report passes the
correctness gate of bench/gate.py.

The last line of stdout is one JSON object: correct, attempted and failed
(correctness checks made and failed, each named check counted once), and
the metrics BENCHMARK.json names for the mode.  The lines before it print
the environment, every metric with its unit and quartiles, and each
failed check.  A full record of the run goes to .bench_build/results/.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import gate
import tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build"
BUDGET_S = 170.0            # a run must end within 180 s
MIN_RUNS = 3
# The host's speed is probed while each measured process runs: a thread
# of the benchmark runs a fixed chunk of Python every PROBE_PAUSE_S, on
# the measured process's CPU.  End-to-end times are given in reference
# seconds, as they would read on a host that runs the chunk in
# PROBE_CHUNK_S of CPU time.  See bench/README.md.
PROBE_ITERATIONS = 8000
PROBE_PAUSE_S = 0.03
PROBE_CHUNK_S = 0.0016
# The chunk slows down more than btpeval does when the host is busy: over
# 91 rounds of both workloads, btpeval's time went as the chunk's speed to
# the power -0.66 (verify-fc7) and -0.83 (metrics-rot10).  See bench/README.md.
SPEED_EXPONENT = 0.75
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
JOBS = 1                    # --jobs of every run but the pool layer's traced runs
TRACED_RUNS = 2


@dataclass(frozen=True)
class Workload:
    argv: tuple
    trials: int
    config: dict = field(default_factory=dict)
    pool_jobs: int | None = None   # --jobs of the traced runs of the pool layer


# Why each workload exists is in bench/README.md.
WORKLOADS = {
    "verify-fc7": Workload(("verify", "--theorem", "all"), trials=3000,
                           pool_jobs=2),
    "metrics-rot10": Workload(("metrics",), trials=10000,
                              config={"population": {"n": 10},
                                      "scheme": {"scheme": "rot"}}),
}
POOL_METRICS = ("pool.executors", "pool.tasks", "pool.wait_s")
TIME_UNITS = ("s", "trials/s")

# Fresh interpreter to the CLI imported and its scheme and population
# built, the way `btpeval.cli` builds them.
SETUP_PROBE = """\
import sys
from btpeval import cli
from btpeval.population import Population
from btpeval.schemes import build_scheme
cfg = cli.load_config(sys.argv[1], {})
pop = Population.from_config(cfg["population"])
scheme_cfg = dict(cfg["scheme"])
scheme_cfg.setdefault("tau", cfg["tau"])
build_scheme(scheme_cfg, pop.n)
"""


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class CliRun:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    report: dict | None
    span: tuple             # (start, end) on the time.perf_counter clock


def _probe_chunk() -> float:
    counts = {}
    acc = 0.0
    for i in range(PROBE_ITERATIONS):
        k = i & 255
        counts[k] = counts.get(k, 0) + 1
        acc += (i * 0.5) % 7.0
    return acc


class HostProbe:
    """Times a fixed chunk of work, again and again, in a thread of its
    own on the CPU the measured processes are pinned to.

    The host is shared: the speed of a CPU swings by a third within
    seconds and drifts over minutes, and the two CPUs of one VM do not
    always swing together.  The chunks share the measured process's CPU,
    so they run at its speed; their CPU time (not wall time, which would
    count the measured process's turns) gives that speed.
    """

    def __init__(self, cpu: int):
        self.cpu = cpu
        self.chunks = []    # (start, end on time.perf_counter, CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self):
        os.sched_setaffinity(0, {self.cpu})     # this thread only
        while not self._stop.is_set():
            t0, c0 = time.perf_counter(), time.thread_time()
            _probe_chunk()
            self.chunks.append((t0, time.perf_counter(), time.thread_time() - c0))
            self._stop.wait(PROBE_PAUSE_S)

    def _inside(self, span: tuple) -> list:
        inside = [cpu for start, end, cpu in self.chunks
                  if span[0] <= start and end <= span[1]]
        if not inside:
            raise BenchError("no speed probe ran inside a measured process")
        return inside

    def speed(self, span: tuple) -> float:
        """Mean speed of the chunks inside `span`, 1 at PROBE_CHUNK_S per
        chunk: the mean of speeds, because a process's time is its work
        over its mean speed."""
        return statistics.fmean(PROBE_CHUNK_S / d for d in self._inside(span))

    def scale(self, span: tuple) -> float:
        """Reference seconds per host second over `span`."""
        return self.speed(span) ** SPEED_EXPONENT

    def reference_s(self, span: tuple) -> float:
        """The length of `span` less the CPU time the chunks took from the
        measured process, in reference seconds."""
        busy = sum(self._inside(span))
        return (span[1] - span[0] - busy) * self.scale(span)


class Runner:
    """Starts child processes inside the checkout, each with a deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        # Left alone, OpenBLAS runs a thread per CPU; in a process pinned
        # to one CPU (HostProbe) they would only take turns on it.
        self.env.update({v: "1" for v in BLAS_THREAD_VARS})
        self.count = 0
        self.pin = None     # CPU the children are pinned to, if any

    def spawn(self, cmd) -> tuple:
        """Run `cmd`; return (wall seconds, exit code, rusage, span)."""
        self.count += 1
        log_path = WORK / "logs" / f"{self.count:03d}.log"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget spent before the run ended")
        timed_out = threading.Event()
        with open(log_path, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=WORK, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=log,
                                    stderr=subprocess.STDOUT,
                                    start_new_session=True)
            timer = threading.Timer(remaining, _kill_group,
                                    (proc.pid, timed_out))
            timer.start()
            try:
                if self.pin is not None:
                    os.sched_setaffinity(proc.pid, {self.pin})
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid, timed_out)
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            t1 = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        if timed_out.is_set():
            raise BenchError(f"killed at the time budget: {' '.join(cmd)}")
        return t1 - t0, proc.returncode, usage, (t0, t1)

    def cli(self, args, out: Path, trace: Path | None = None) -> CliRun:
        out.unlink(missing_ok=True)
        if trace is None:
            cmd = [sys.executable, "-m", "btpeval.cli"]
        else:
            cmd = [sys.executable, str(Path(tracer.__file__)), str(trace)]
        wall, code, usage, span = self.spawn(cmd + list(args) + ["--out", str(out)])
        report = None
        if out.exists():
            with open(out, encoding="utf-8") as f:
                report = json.load(f)
        return CliRun(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                      peak_rss_mb=usage.ru_maxrss / 1024.0, exit_code=code,
                      report=report, span=span)


def _kill_group(pid: int, flag: threading.Event):
    flag.set()
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def write_config(name: str, wl: Workload, seed: int) -> Path:
    cfg = json.loads(json.dumps(wl.config))
    cfg.update(seed=seed, trials=wl.trials)
    path = WORK / f"{name}-seed{seed}.json"
    path.write_text(json.dumps(cfg, sort_keys=True), encoding="utf-8")
    return path


def cli_args(wl: Workload, config: Path, jobs: int) -> list:
    return list(wl.argv) + ["--jobs", str(jobs), "--config", str(config)]


def environment(name: str, wl: Workload, seed: int) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.exists() else None
        commit = ref
    nproc = os.cpu_count()
    return {
        "workload": name, "seed": seed, "jobs": JOBS,
        "pool_jobs": wl.pool_jobs, "trials": wl.trials,
        "nproc": nproc, "cpu_model": cpu,
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "git_commit": commit,
        "scaling_note": (f"{nproc} CPUs: no scaling beyond --jobs {nproc} is "
                         "measured or extrapolated"),
    }


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


class Run:
    """One benchmark run of one workload: CLI runs, checks, metrics."""

    def __init__(self, name: str, seed: int, runner: Runner):
        self.name = name
        self.wl = WORKLOADS[name]
        self.runner = runner
        self.config = write_config(name, self.wl, seed)
        self.checks = []
        self.outputs = 0

    def out_path(self) -> Path:
        self.outputs += 1
        return WORK / "reports" / f"{self.name}-{self.outputs:03d}.json"

    def cli(self, jobs: int = JOBS, trace: Path | None = None) -> CliRun:
        args = cli_args(self.wl, self.config, jobs)
        run = self.runner.cli(args, self.out_path(), trace)
        self.checks += gate.check_report(run.report, run.exit_code)
        return run

    def same_body(self, label, runs):
        reports = [r.report for r in runs if r.report is not None]
        if len(reports) > 1:
            self.checks.append(gate.check_same_body(label, reports))

    def setup_probe(self) -> tuple:
        cmd = [sys.executable, "-c", SETUP_PROBE, str(self.config)]
        wall, code, _, span = self.runner.spawn(cmd)
        if code != 0:
            raise BenchError(f"set-up probe exited with {code}")
        return wall, span

    def measure(self, seconds: float) -> tuple:
        """Rounds of a set-up probe and a CLI run for `seconds` (at least
        MIN_RUNS), with the host's speed probed all along."""
        runs, setup = [], []
        cpu = min(os.sched_getaffinity(0))
        with HostProbe(cpu) as probe:
            self.runner.pin = cpu
            try:
                t0 = time.monotonic()
                last = 0.0
                # Start no round that would end past the window.
                while len(runs) < MIN_RUNS or time.monotonic() - t0 + last < seconds:
                    t = time.monotonic()
                    setup.append(self.setup_probe())
                    runs.append(self.cli())
                    last = time.monotonic() - t
            finally:
                self.runner.pin = None
        return runs, setup, probe

    def end_to_end(self, seconds: float) -> tuple:
        """End-to-end samples, every time in reference seconds."""
        runs, setup, probe = self.measure(seconds)
        self.same_body(f"digest:same-seed:{self.name}", runs)
        setup_ref = [probe.reference_s(span) for _, span in setup]
        setup_med = statistics.median(setup_ref)
        ok = [r for r in runs if r.report is not None]
        flagged = sum(gate.flagged_trials(r.report) for r in ok)
        game_trials = sum(gate.game_trials(r.report) for r in ok)
        samples = {
            "wall_s": [probe.reference_s(r.span) for r in runs],
            "setup_s": setup_ref,
            "trials_per_s": [gate.declared_trials(r.report)
                             / (probe.reference_s(r.span) - setup_med) for r in ok],
            "cpu_s": [r.cpu_s * probe.scale(r.span) for r in runs],
            "peak_rss_mb": [r.peak_rss_mb for r in runs],
        }
        measured = {
            "wall_s": [r.wall_s for r in runs],
            "setup_s": [wall for wall, _ in setup],
            "cpu_s": [r.cpu_s for r in runs],
            "host_speed": [probe.speed(r.span) for r in runs],
        }
        extra = {"flagged_frac": flagged / game_trials if game_trials else 0.0}
        return samples, measured, extra

    def traced(self, jobs: int) -> tuple:
        runs, traces = [], []
        for i in range(TRACED_RUNS):
            path = WORK / "traces" / f"{self.name}-jobs{jobs}-{i}.json"
            path.unlink(missing_ok=True)
            runs.append(self.cli(jobs, trace=path))
            if not path.exists():
                raise BenchError(f"the traced run wrote no trace; see {WORK / 'logs'}")
            with open(path, encoding="utf-8") as f:
                traces.append(tracer.layer_metrics(json.load(f)))
        return runs, traces

    def per_layer(self) -> tuple:
        """Untraced runs, traced runs and their per-layer metrics; with a
        pool `--jobs`, the pool layer comes from traced runs at it."""
        untraced = [self.cli() for _ in range(MIN_RUNS)]
        traced, traces = self.traced(JOBS)
        if self.wl.pool_jobs:
            pool_runs, pool_traces = self.traced(self.wl.pool_jobs)
            for trace, pool_trace in zip(traces, pool_traces):
                trace.update({n: pool_trace[n] for n in POOL_METRICS})
            self.same_body(f"digest:jobs{JOBS}==jobs{self.wl.pool_jobs}",
                           untraced[:1] + pool_runs)
        self.same_body(f"digest:traced==untraced:{self.name}", untraced + traced)
        return untraced, traced, traces

    def merged_checks(self):
        return gate.merge_checks(self.checks)

    def failed_checks(self):
        return [c for c in self.merged_checks() if not c.ok]


def run_end_to_end(run: Run, seconds: float, spec: dict) -> tuple:
    samples, measured, extra = run.end_to_end(seconds)
    attempted = len(run.merged_checks())
    failed = len(run.failed_checks())
    extra["checks_failed_frac"] = failed / attempted
    metrics = {}
    lines = []
    for m in spec["end_to_end"]:
        values = samples[m["name"]]
        if not values:
            raise BenchError(f"no sample of {m['name']}")
        med = statistics.median(values)
        q1, q3 = quartiles(values)
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
        lines.append(f"  {m['name']:<20} {med:>14.6g} {m['unit']:<9} "
                     f"quartiles [{q1:.6g}, {q3:.6g}]  n={len(values)}")
    for name in ("checks_failed_frac", "flagged_frac"):
        lines.append(f"  {name:<20} {extra[name]:>14.6g} {'ratio':<9}")
    lines.append("  as measured, in host seconds:")
    for name, values in measured.items():
        q1, q3 = quartiles(values)
        unit = "ratio" if name == "host_speed" else "s"
        lines.append(f"  {name:<20} {statistics.median(values):>14.6g} {unit:<9} "
                     f"quartiles [{q1:.6g}, {q3:.6g}]  n={len(values)}")
    return metrics, lines, {"samples": samples, "measured": measured}


def run_per_layer(run: Run, spec: dict) -> tuple:
    untraced, traced, traces = run.per_layer()
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    missing = set(units) - set(traces[0]) - {"trace.overhead_s"}
    if missing:
        raise BenchError(f"trace lacks per-layer metrics {sorted(missing)}")
    # Everything but a time is a count or a ratio of counts: it must repeat.
    counts = [n for n in traces[0] if units.get(n) not in TIME_UNITS]
    differing = [n for n in counts if len({t[n] for t in traces}) > 1]
    run.checks.append(gate.Check(
        "trace:counts-repeat", not differing, False,
        f"counts differing between traced runs: {differing}" if differing
        else f"{len(counts)} counts and ratios repeat exactly"))
    layer = {n: traces[0][n] if n in counts else statistics.median(t[n] for t in traces)
             for n in traces[0]}
    layer["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                 - statistics.median(r.wall_s for r in untraced))
    metrics = {n: {"value": layer[n], "unit": u} for n, u in units.items()}
    lines = [f"  {n:<44} {layer[n]:>14{'' if isinstance(layer[n], int) else '.6g'}} {u}"
             for n, u in units.items()]
    return metrics, lines, layer


def bench_workload(name, seed, seconds, trace, spec, runner, problems) -> dict:
    run = Run(name, seed, runner)
    env = environment(name, run.wl, seed)
    print("env " + json.dumps(env, sort_keys=True))
    if trace:
        metrics, lines, raw = run_per_layer(run, spec)
    else:
        metrics, lines, raw = run_end_to_end(run, seconds, spec)
    failed = run.failed_checks()
    print(f"{name} seed={seed} jobs={JOBS} trials={run.wl.trials} "
          f"{'traced' if trace else 'end-to-end'}:")
    print("\n".join(lines))
    attempted = len(run.merged_checks())
    print(f"  checks: {attempted - len(failed)}/{attempted} passed "
          f"({len(run.checks)} made on the reports of the run)")
    for c in failed:
        kind = "statistical" if c.statistical else "FAILED"
        print(f"  check {kind}: {c.name}: {c.detail}")
    correct = not problems and not any(not c.statistical for c in failed)
    record = {"env": env, "trace": trace, "metrics": metrics, "raw": raw,
              "checks": [c._asdict() for c in run.merged_checks()],
              "check_instances": [c._asdict() for c in run.checks],
              "gate_self_test": problems}
    results = WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    results.write_text(json.dumps(record, indent=1, sort_keys=True),
                       encoding="utf-8")
    return {"correct": correct, "attempted": attempted,
            "failed": len(failed), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()
    # Turn SIGTERM into SystemExit so the running child's group is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "btpeval" / "cli.py").is_file():
        print(f"error: no btpeval sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    for sub in ("logs", "reports", "traces", "results"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)

    problems = gate.self_test()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    budget = BUDGET_S * len(names)
    runner = Runner(start + budget)
    try:
        results = [bench_workload(n, args.seed, args.seconds, bool(args.trace),
                                  spec, runner, problems) for n in names]
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = results[0]
    else:
        result = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}/{k}": v for n, r in zip(names, results)
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
