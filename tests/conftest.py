import os
from collections import Counter
from concurrent import futures
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import btpeval
from btpeval import exact, games, metrics
from btpeval.population import Population, generate_population
from btpeval.schemes import build_scheme


@pytest.fixture(autouse=True)
def fresh_exact_caches():
    """Each test starts with empty exact-oracle caches, so a test that
    counts builds does not depend on the tests run before it."""
    for cached in (exact.enumerator, exact.mr_vector, exact._ball_table,
                   metrics._mr_scan):
        cached.cache_clear()


@pytest.fixture(scope="session")
def default_pop():
    return generate_population(7, 16, 0.03, seed=1)


@pytest.fixture(scope="session")
def fc_scheme():
    return build_scheme({"scheme": "fc", "code": {"n": 7, "k": 4, "t": 1}}, 7)


@pytest.fixture(scope="session")
def noiseless_pop():
    return generate_population(7, 16, 0.0, seed=1)


@pytest.fixture(scope="session")
def subprocess_env():
    """Environment for a child Python that imports btpeval from this tree."""
    src = str(Path(btpeval.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture
def chunk_runs(monkeypatch):
    """Watches the chunk runner in this process: `trials` records the
    trial count of each `_run_chunks` call, `pools` counts the process
    pools they open."""
    seen = SimpleNamespace(trials=[], pools=0)
    run_chunks = metrics._run_chunks

    class CountingPool(futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            seen.pools += 1
            super().__init__(*args, **kwargs)

    def recorded(work, trials, jobs):
        seen.trials.append(trials)
        return run_chunks(work, trials, jobs)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", CountingPool)
    for module in (metrics, games):
        monkeypatch.setattr(module, "_run_chunks", recorded)
    return seen


@pytest.fixture
def batch_calls(monkeypatch):
    """Counts batch calls in this process, by method name, in one
    `Counter`: every population's `sample_batch` at once, and a scheme's
    `pie_batch`, `pir_batch` and `pic_batch` once the test calls
    `batch_calls(scheme)`, which returns the counter.
    `batch_calls.captures` lists the captures asked of each `sample_batch`
    call, in call order."""
    calls = Counter()

    def counted(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "sample_batch":
                watch.captures.append(np.size(args[1]))
            return method(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Population, "sample_batch",
                        counted("sample_batch", Population.sample_batch))

    def watch(scheme):
        for name in ("pie_batch", "pir_batch", "pic_batch"):
            monkeypatch.setattr(scheme, name, counted(name, getattr(scheme, name)))
        return calls
    watch.captures = []
    return watch
