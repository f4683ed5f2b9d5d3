"""Sweep execution: serial, multiprocess, cached — always bit-identical.

Each sweep point is a declarative :class:`repro.api.DeploymentSpec`
that names everything its run depends on, and the DES is deterministic,
so a point's result is a pure function of (descriptor, code version).
That gives three interchangeable execution paths — run it here, run it
in a pool worker, or read it from the content-addressed cache — all
yielding the same :class:`~repro.bench.scenarios.ScenarioResult` bit for
bit.  The serial path deliberately round-trips results through the same
dict form the pool and the cache use, so switching ``--jobs`` or
enabling the cache can never change a figure.  Callers that need the
in-process result (cluster handle in ``extra``) call
:func:`repro.api.run` directly.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro import api
from repro.bench.scenarios import ScenarioResult
from repro.errors import BenchmarkError
from repro.exp.cache import ResultCache, code_version, point_key
from repro.exp.spec import SweepSpec

__all__ = [
    "PointOutcome",
    "SweepOutcome",
    "execute_point",
    "run_sweep",
]


def execute_point(point: api.DeploymentSpec) -> dict:
    """Run a point and return its serialized payload (pool-safe).

    This is the unit of work shipped to pool workers and stored in the
    cache: ``{"result": <ScenarioResult dict>, "wall_seconds": float}``.
    """
    start = time.perf_counter()
    result = api.run(point)
    wall = time.perf_counter() - start
    return {"result": result.to_dict(), "wall_seconds": wall}


@dataclass
class PointOutcome:
    """One executed (or cache-served) point."""

    point: api.DeploymentSpec
    result: ScenarioResult
    wall_seconds: float  # compute time when the result was produced
    cached: bool


@dataclass
class SweepOutcome:
    """A completed sweep: per-point outcomes plus provenance."""

    spec: SweepSpec
    code_version: str
    jobs: int
    wall_seconds: float  # this invocation's wall clock
    outcomes: list[PointOutcome]

    @property
    def results(self) -> list[ScenarioResult]:
        return [o.result for o in self.outcomes]

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    def by(self, key: Callable[[api.DeploymentSpec], object] = None) -> dict:
        """Results keyed by ``key(point)`` (default: ``(system, n)``)."""
        if key is None:
            key = lambda p: (p.system, p.n)  # noqa: E731
        return {key(o.point): o.result for o in self.outcomes}


def _pool(jobs: int):
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else None
    )
    return ctx.Pool(processes=jobs)


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> SweepOutcome:
    """Execute every point of ``spec``; results are independent of
    ``jobs`` and of cache state.

    Points already in ``cache`` (same descriptor, same code version) are
    served from it; the rest run serially (``jobs=1``) or on a
    ``multiprocessing`` pool, in either case producing the same payloads.
    Every point must target the deterministic DES backend: a live run's
    result depends on the wall clock, so caching it would be unsound.
    """
    if jobs < 1:
        raise BenchmarkError(f"jobs must be >=1, got {jobs}")
    live = [p.label or p.system for p in spec.points if p.backend != "des"]
    if live:
        raise BenchmarkError(
            f"run_sweep caches deterministic DES runs only; points "
            f"{live} use backend='live' — run them with repro.api.run"
        )
    start = time.perf_counter()
    version = code_version()
    keys = [point_key(p.descriptor(), version) for p in spec.points]
    payloads: dict[int, tuple[dict, bool]] = {}
    todo: list[int] = []
    for i, key in enumerate(keys):
        hit = cache.get(key) if cache is not None else None
        if hit is not None:
            payloads[i] = (hit, True)
        else:
            todo.append(i)

    if todo:
        pending = [spec.points[i] for i in todo]
        if jobs > 1 and len(pending) > 1:
            with _pool(min(jobs, len(pending))) as pool:
                fresh = pool.map(execute_point, pending)
        else:
            fresh = [execute_point(p) for p in pending]
        for i, payload in zip(todo, fresh):
            payloads[i] = (payload, False)
            if cache is not None:
                cache.put(keys[i], payload)

    outcomes = [
        PointOutcome(
            point=spec.points[i],
            result=ScenarioResult.from_dict(payloads[i][0]["result"]),
            wall_seconds=payloads[i][0]["wall_seconds"],
            cached=payloads[i][1],
        )
        for i in range(len(spec.points))
    ]
    return SweepOutcome(
        spec=spec,
        code_version=version,
        jobs=jobs,
        wall_seconds=time.perf_counter() - start,
        outcomes=outcomes,
    )
