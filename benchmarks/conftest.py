"""Shared fixtures for the paper-reproduction benchmarks.

Every benchmark runs its scenario **once** (``benchmark.pedantic`` with a
single round — a scenario is a deterministic simulation, so repetition
only measures host noise), prints the paper-style rows, and attaches the
measured values to ``benchmark.extra_info`` for machine consumption.
Results are cached per scenario key so multiple benchmarks can assert
against one expensive sweep.
"""

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

_CACHE: dict = {}


@pytest.fixture(scope="session")
def scenario_cache():
    """Session-wide memo: key → ScenarioResult (or any computed value)."""

    def get(key, thunk):
        if key not in _CACHE:
            _CACHE[key] = thunk()
        return _CACHE[key]

    return get


@pytest.fixture(scope="session")
def run_spec():
    """Execute a SweepSpec once per session, through the result cache.

    The canonical way a benchmark declares its scenarios: build a
    :class:`repro.exp.SweepSpec`, hand it here, and get the
    :class:`repro.exp.SweepOutcome` back (memoized by spec name).
    ``REPRO_BENCH_JOBS=N`` fans points out over a process pool —
    results are bit-identical to serial.  ``REPRO_BENCH_NO_CACHE=1``
    bypasses the content-addressed disk cache.  Benchmarks that inspect
    cluster internals call :func:`repro.api.run` per spec instead, which
    keeps the cluster handle in ``result.extra``.
    """
    from repro.exp import ResultCache, run_sweep

    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    cache = (
        None if os.environ.get("REPRO_BENCH_NO_CACHE") else ResultCache()
    )

    def run(spec):
        key = ("sweep", spec.name)
        if key not in _CACHE:
            _CACHE[key] = run_sweep(spec, jobs=jobs, cache=cache)
        return _CACHE[key]

    return run


@pytest.fixture
def run_once(benchmark):
    """Run a thunk exactly once under pytest-benchmark timing."""

    def run(thunk):
        return benchmark.pedantic(thunk, rounds=1, iterations=1)

    return run


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay every reproduced paper figure after capture has ended, so
    `pytest benchmarks/ --benchmark-only | tee` keeps them."""
    from repro.bench.reporting import get_buffer

    lines = get_buffer()
    if not lines:
        return
    terminalreporter.write_sep("=", "reproduced paper figures")
    for line in lines:
        terminalreporter.write_line(line)
