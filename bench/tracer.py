"""Traced btpeval CLI run, and the per-layer metrics read from its trace.

    python3 bench/tracer.py TRACE.json <btpeval cli arguments>

runs `btpeval.cli.main` with wrappers around the calls into each module,
then writes the spans and counters it kept in memory to TRACE.json.
Coarse boundaries (theorem checkers, game runners, estimators, the
enumerator build, process pools) get spans: name, start, end, parent.
Hot scalar calls (pie/pir/pic, captures, stream derivation, adversary
phases) get a call counter and accumulated time only.

Names a module bound with `from ... import` are rebound in every btpeval
module that holds them, so `games.substream` is traced as well as
`rng.substream`.  Pool workers inherit the wrappers but report nothing
back: below a pool only the parent's share is counted, so layer counts
are complete only at --jobs 1.
"""

from __future__ import annotations

import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor

GAME_RUNNERS = ("run_coupled_irr_trials", "run_al_irr_game",
                "run_pal_irr_game", "run_unlink_game")
ESTIMATORS = ("est_baseline_rates", "est_scheme_fnmr", "est_fmr_tp",
              "est_fmr_bp", "est_fmr_div", "est_mr_of_feature",
              "rmr_of_feature", "est_overlap_rates", "pt_match_stats",
              "extremal_mr", "extremal_rmr")
CHECKERS = {"check_thm_irr_relations": "T1", "check_thm_pal_unachievable": "T2",
            "check_thm_unlink_unachievable": "T3",
            "check_thm_unlink_irr_bound": "T4"}
QUERY_ROLES = ("adv_phase1", "adv_phase2", "challenger")


class Recorder:
    """Spans and counters of one process, kept in memory until it exits."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, info]
        self.stack = []
        self.counters = {}       # name -> [calls, seconds, extra]
        self.adversary_depth = 0

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else None, {}])
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def slot(self, name: str) -> list:
        return self.counters.setdefault(name, [0, 0.0, 0])

    def span(self, name, fn, info=None):
        """Wrap `fn` in a span; `info(args, result)` annotates it."""
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    self.spans[idx][4] = info(args, result)
                return result
            finally:
                self.close(idx)
        return wrapper

    def counted(self, name, fn, items=None):
        """Wrap a hot call: count it and accumulate its time."""
        slot = self.slot(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                slot[1] += clock() - t
                slot[0] += 1
                if items is not None:
                    slot[2] += items(args)
        return wrapper

    def counted_pic(self, fn):
        """Like `counted`; the extra field counts accepts."""
        slot = self.slot("schemes.pic")
        clock = time.perf_counter

        def wrapper(scheme, pi, pi_prime):
            t = clock()
            accepted = fn(scheme, pi, pi_prime)
            slot[1] += clock() - t
            slot[0] += 1
            if accepted:
                slot[2] += 1
            return accepted
        return wrapper

    def adversary_phase(self, name, fn):
        """Count only the outermost phase call, so a reduction adversary's
        inner phases are not counted twice."""
        slot = self.slot(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self.adversary_depth:
                return fn(*args, **kwargs)
            self.adversary_depth += 1
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.adversary_depth -= 1
                slot[1] += clock() - t
                slot[0] += 1
        return wrapper

    def pool_class(self):
        rec = self
        executors = rec.slot("pool.executors")
        tasks = rec.slot("pool.tasks")

        class TracedPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                executors[0] += 1
                self._span = None

            def __enter__(self):
                self._span = rec.open("pool")
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    rec.close(self._span)

            def map(self, fn, *iterables, **kwargs):
                iterables = [list(it) for it in iterables]
                tasks[0] += len(iterables[0]) if iterables else 0
                return super().map(fn, *iterables, **kwargs)

        return TracedPool


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _game_info(args, result):
    info = {"trials": result.trials, "flagged": result.flagged}
    if hasattr(result, "queries"):
        info["queries"] = dict(result.queries)
    return info


def _estimator_info(args, result):
    if isinstance(result, tuple):
        trials = sum(r.trials for r in result)
    elif hasattr(result, "trials_outer"):
        trials = result.trials_outer * result.trials_inner
    elif hasattr(result, "p_tau"):
        trials = result.p_tau.trials
    else:
        trials = getattr(result, "trials", 0)
    return {"trials": trials}


def _enumerator_info(args, result):
    import numpy as np
    en = args[0]
    nbytes = sum(v.nbytes for v in vars(en).values() if isinstance(v, np.ndarray))
    match = getattr(en, "match", None)
    return {"match_cells": int(match.size) if match is not None else 0,
            "bytes": int(nbytes)}


def install(rec: Recorder) -> float:
    """Import the CLI, wrap every traced call; return the import time."""
    t0 = time.perf_counter()
    import btpeval.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    from btpeval import (adversaries, exact, games, metrics, population,
                         report, rng, schemes, verify)

    modules = [m for name, m in sys.modules.items()
               if name == "btpeval" or name.startswith("btpeval.")]

    # A name the program no longer has is skipped: its metrics read 0.
    def rebind(module, name, make):
        original = getattr(module, name, None)
        if original is None:
            return
        wrapped = make(original)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapped)

    def rewrap(cls, name, make):
        if name in cls.__dict__:
            setattr(cls, name, make(cls.__dict__[name]))

    for fn, theorem in CHECKERS.items():
        rebind(verify, fn, lambda f, t=theorem: rec.span(f"verify.{t}", f))
    for fn in GAME_RUNNERS:
        rebind(games, fn, lambda f, n=fn: rec.span(f"games.{n}", f, _game_info))
    for fn in ESTIMATORS:
        rebind(metrics, fn,
               lambda f, n=fn: rec.span(f"metrics.{n}", f, _estimator_info))
    rewrap(exact.SchemeEnumerator, "__init__",
           lambda f: rec.span("exact.enumerator.build", f, _enumerator_info))
    for fn in ("mr_vector", "overlap_vector"):
        rebind(exact, fn, lambda f, n=fn: rec.span(f"exact.{n}", f))
    rebind(exact, "mr_of_feature",
           lambda f: rec.counted("exact.mr_of_feature", f))
    rebind(report, "write_report", lambda f: rec.span("report.write", f))
    rewrap(population.Population, "from_config", lambda f: classmethod(
        rec.span("population.from_config", f.__func__)))
    rebind(schemes, "build_scheme",
           lambda f: rec.counted("schemes.build_scheme", f))
    rebind(rng, "substream", lambda f: rec.counted("rng.substream", f))
    for module in modules:
        if getattr(module, "ProcessPoolExecutor", None) is ProcessPoolExecutor:
            module.ProcessPoolExecutor = rec.pool_class()

    for cls in _subclasses(schemes.BtpScheme):
        for name in ("pie", "pir", "pie_support"):
            rewrap(cls, name, lambda f, n=name: rec.counted(f"schemes.{n}", f))
        rewrap(cls, "pic", rec.counted_pic)
    rewrap(schemes.LinearCode, "decode_int",
           lambda f: rec.counted("schemes.decode", f))

    pop_cls = population.Population
    rewrap(pop_cls, "sample", lambda f: rec.counted("population.sample", f))
    rewrap(pop_cls, "sample_batch", lambda f: rec.counted(
        "population.sample_batch", f, items=lambda a: len(a[1])))
    rewrap(population.SamplingOracle, "sample",
           lambda f: rec.counted("population.oracle", f))

    rewrap(adversaries.PalSamplerAdversary, "phase2",
           lambda f: _pal_sampler_phase2(rec, f))
    rewrap(adversaries.SamplerIrrAdversary, "phase2",
           lambda f: _sampler_phase2(rec, f))
    for base in (games.IrrAdversary, games.UnlinkAdversary):
        for cls in _subclasses(base):
            for name in ("phase1", "phase2"):
                rewrap(cls, name, lambda f, n=name:
                       rec.adversary_phase(f"adversaries.{n}", f))
    return import_s


def _pal_sampler_phase2(rec, phase2):
    """Count the sampling inverter's phase-2 oracle queries and accepts."""
    pic = rec.slot("schemes.pic")
    pal = rec.slot("adversaries.pal_sampler")         # queries, -, accepts

    def wrapper(self, state, view, oracle, rng):
        q0, a0 = oracle.query_count, pic[2]
        try:
            return phase2(self, state, view, oracle, rng)
        finally:
            pal[0] += oracle.query_count - q0
            pal[2] += pic[2] - a0
    return wrapper


def _sampler_phase2(rec, phase2):
    """Count the oracle-driven sampler's candidates and score-cache misses."""
    sampler = rec.slot("adversaries.sampler")         # lookups, -, misses

    def wrapper(self, state, view, oracle, rng):
        n0 = len(getattr(self, "_scores", ()))
        result = phase2(self, state, view, oracle, rng)
        sampler[0] += self.num_queries
        sampler[2] += len(getattr(self, "_scores", ())) - n0
        return result
    return wrapper


def main(argv) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    import_s = install(rec)
    from btpeval import cli, exact
    code = None
    try:
        code = cli.main(cli_args)
    finally:
        cache = exact.enumerator.cache_info()
        with open(trace_path, "w", encoding="utf-8") as f:
            json.dump({"import_s": import_s, "exit_code": code,
                       "spans": rec.spans, "counters": rec.counters,
                       "enumerator_cache": {"hits": cache.hits,
                                            "misses": cache.misses}}, f)
    return code


# --------------------------------------------------------------------------
# per-layer metrics of one trace


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics, by the names BENCHMARK.json lists, of one trace."""
    spans = trace["spans"]
    counters = trace["counters"]
    duration = [end - start for _, start, end, _, _ in spans]
    self_time = list(duration)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            self_time[parent] -= duration[i]

    def spans_named(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def total_s(name):
        return sum(duration[i] for i in spans_named(name))

    def info_sum(name, key):
        return sum(spans[i][4].get(key, 0) for i in spans_named(name))

    def layer_self(layer):
        return sum(self_time[i] for i, s in enumerate(spans)
                   if s[0].startswith(layer + "."))

    def count(name, field=0):
        return counters.get(name, [0, 0.0, 0])[field]

    out = {
        "cli.import_s": trace["import_s"],
        "schemes.build_scheme.calls": count("schemes.build_scheme"),
        "population.from_config_s": total_s("population.from_config"),
        "report.write_s": total_s("report.write"),
    }
    for theorem in CHECKERS.values():
        out[f"verify.{theorem}.s"] = total_s(f"verify.{theorem}")
    out["verify.self_s"] = layer_self("verify")

    queries = dict.fromkeys(QUERY_ROLES, 0)
    query_trials = 0
    for runner in GAME_RUNNERS:
        name = f"games.{runner}"
        seconds, trials = total_s(name), info_sum(name, "trials")
        out[f"{name}.s"] = seconds
        out[f"{name}.trials"] = trials
        out[f"{name}.trials_per_s"] = _ratio(trials, seconds)
        for i in spans_named(name):
            if "queries" in spans[i][4]:
                query_trials += spans[i][4]["trials"]
                for role in QUERY_ROLES:
                    queries[role] += spans[i][4]["queries"].get(role, 0)
    out["games.self_s"] = layer_self("games")
    for role in QUERY_ROLES:
        out[f"games.queries.{role}"] = _ratio(queries[role], query_trials)
    out["games.flagged"] = sum(info_sum(f"games.{r}", "flagged")
                               for r in GAME_RUNNERS)

    for phase in ("phase1", "phase2"):
        out[f"adversaries.{phase}.calls"] = count(f"adversaries.{phase}")
        out[f"adversaries.{phase}.s"] = count(f"adversaries.{phase}", 1)
    out["adversaries.pal_sampler.accept_ratio"] = _ratio(
        count("adversaries.pal_sampler", 2), count("adversaries.pal_sampler"))
    lookups = count("adversaries.sampler")
    out["adversaries.sampler.score_hit_ratio"] = _ratio(
        lookups - count("adversaries.sampler", 2), lookups)

    for est in ESTIMATORS:
        out[f"metrics.{est}.s"] = total_s(f"metrics.{est}")
        out[f"metrics.{est}.trials"] = info_sum(f"metrics.{est}", "trials")
    out["metrics.self_s"] = layer_self("metrics")

    builds = spans_named("exact.enumerator.build")
    out["exact.enumerator.builds"] = len(builds)
    out["exact.enumerator.cache_hits"] = trace["enumerator_cache"]["hits"]
    out["exact.enumerator.build_s"] = total_s("exact.enumerator.build")
    out["exact.enumerator.match_cells"] = max(
        (spans[i][4].get("match_cells", 0) for i in builds), default=0)
    out["exact.enumerator.bytes"] = max(
        (spans[i][4].get("bytes", 0) for i in builds), default=0)
    out["exact.mr_of_feature.calls"] = count("exact.mr_of_feature")
    out["exact.mr_of_feature.s"] = count("exact.mr_of_feature", 1)
    out["exact.mr_vector.s"] = total_s("exact.mr_vector")
    out["exact.overlap_vector.s"] = total_s("exact.overlap_vector")

    for call in ("pie", "pir", "pic"):
        out[f"schemes.{call}.calls"] = count(f"schemes.{call}")
        out[f"schemes.{call}.s"] = count(f"schemes.{call}", 1)
    out["schemes.pic.accept_ratio"] = _ratio(count("schemes.pic", 2),
                                             count("schemes.pic"))
    out["schemes.pie_support.calls"] = count("schemes.pie_support")
    out["schemes.decode.calls"] = count("schemes.decode")

    out["population.sample.calls"] = count("population.sample")
    out["population.sample.s"] = count("population.sample", 1)
    out["population.sample_batch.calls"] = count("population.sample_batch")
    out["population.sample_batch.items"] = count("population.sample_batch", 2)
    out["population.sample_batch.s"] = count("population.sample_batch", 1)
    out["population.oracle.queries"] = count("population.oracle")
    out["rng.substream.calls"] = count("rng.substream")
    out["rng.substream.s"] = count("rng.substream", 1)

    out["pool.executors"] = count("pool.executors")
    out["pool.tasks"] = count("pool.tasks")
    out["pool.wait_s"] = total_s("pool")
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
