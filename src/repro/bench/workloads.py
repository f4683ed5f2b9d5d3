"""Calibrated workload factories for the paper's experiments.

Each factory returns a :class:`BenchWorkload` — an app plus a lazy
:class:`TaskSource` — positioned on the CPU-cost × output-volume plane
of Sec 7.2.  Graph sizes are simulation-scale substitutes for Orkut /
Amazon-Products; the simulated per-step costs are calibrated so the
three anomaly workloads land in the paper's regimes at n=32 with the
harness's scaled-down OP link:

* **HL** — 6-cliques: executor CPU ≈ 95%, OP link far from saturated;
* **MM** — dense size-6: CPU ≈ 80%, OP link near saturation;
* **LH** — 3-hop paths: cheap CPU, OP link saturated.

Closed-loop workloads are *bursts* by default (tasks submitted far
faster than they complete) so throughput measures capacity — the
quantity whose scaling the paper's figures plot — without per-run rate
calibration.  The ``open_loop`` factory instead replaces burst submit
times with a deterministic arrival process (Poisson, diurnal,
burst-on-idle) so behaviour under *offered load* — admission, queueing,
tail latency — becomes measurable.

Task streams are lazy end to end: a source yields ``(time, Task)``
pairs on demand and never materializes the stream, matching
``InputProcess``'s contract that huge workloads never sit in memory.
"""

from __future__ import annotations

import inspect
import math
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

from repro.apps.anomaly import AnomalyApp, anomaly_workload, link_update_stream
from repro.apps.planning import PlanningApp, instance_suite, make_planning_task
from repro.apps.synthetic import SyntheticApp, make_compute_task, make_update_task
from repro.apps.video import VideoApp, frame_stream, make_cluster_task, make_frame_task
from repro.core.api import VerifiableApplication
from repro.core.tasks import Task
from repro.errors import BenchmarkError

__all__ = [
    "ArrivalProcess",
    "BenchWorkload",
    "BurstSource",
    "OpenLoopSource",
    "TaskSource",
    "TenantTaggedSource",
    "anomaly_bench",
    "open_loop_bench",
    "planning_bench",
    "video_bench",
    "synthetic_bench",
    "two_phase_bench",
    "update_only_bench",
    "ANOMALY_PROFILES",
    "ARRIVAL_KINDS",
    "WORKLOADS",
]


# ------------------------------------------------------------------ sources
class TaskSource:
    """A lazy, re-iterable stream of ``(submit_time, Task)`` pairs.

    Every iteration starts a fresh pass over the same deterministic
    sequence; nothing is materialized, so million-task sources cost the
    same memory as ten-task ones.
    """

    def __iter__(self) -> Iterator[tuple[float, Task]]:  # pragma: no cover
        raise NotImplementedError


class BurstSource(TaskSource):
    """The closed-loop burst shape: a generator factory called per pass.

    All the classic bench factories are this one implementation with a
    different ``make`` closure; ``make`` must return a fresh iterator
    (and re-seed any private RNG) each call so repeated passes are
    identical.
    """

    def __init__(self, make: Callable[[], Iterator[tuple[float, Task]]]):
        self._make = make

    def __iter__(self) -> Iterator[tuple[float, Task]]:
        return iter(self._make())


#: Arrival process kinds understood by :class:`ArrivalProcess`.
ARRIVAL_KINDS = ("poisson", "diurnal", "burst_idle")


@dataclass(frozen=True)
class ArrivalProcess:
    """Deterministic open-loop arrival-time generator.

    ``times()`` yields an unbounded, strictly reproducible sequence of
    arrival instants drawn from a private ``random.Random`` seeded by a
    stable string (so streams match across processes and platforms):

    * ``poisson`` — exponential inter-arrivals at ``rate``/s;
    * ``diurnal`` — inhomogeneous Poisson with intensity
      ``rate * (1 + amplitude * sin(2πt / period))`` via thinning;
    * ``burst_idle`` — ``burst_size`` simultaneous arrivals, then an
      exponential idle gap with mean ``burst_size / rate`` (long-run
      average rate stays ``rate``).
    """

    kind: str
    rate: float
    seed: int = 0
    period: float = 60.0
    amplitude: float = 0.8
    burst_size: int = 8

    def __post_init__(self) -> None:
        if self.kind not in ARRIVAL_KINDS:
            raise BenchmarkError(
                f"unknown arrival process {self.kind!r}; "
                f"expected one of {ARRIVAL_KINDS}"
            )
        if self.rate <= 0:
            raise BenchmarkError(f"arrival rate must be positive, got {self.rate}")
        if not 0.0 <= self.amplitude <= 1.0:
            raise BenchmarkError(
                f"diurnal amplitude must be in [0, 1], got {self.amplitude}"
            )
        if self.period <= 0:
            raise BenchmarkError(f"period must be positive, got {self.period}")
        if self.burst_size < 1:
            raise BenchmarkError(
                f"burst_size must be >= 1, got {self.burst_size}"
            )

    def times(self) -> Iterator[float]:
        """Fresh, unbounded arrival-time stream (same seed → same times)."""
        # string seeds hash via SHA-512 in CPython — stable across
        # processes regardless of PYTHONHASHSEED
        rng = random.Random(f"arrivals:{self.kind}:{self.seed}")
        if self.kind == "poisson":
            t = 0.0
            while True:
                t += rng.expovariate(self.rate)
                yield t
        elif self.kind == "diurnal":
            peak = self.rate * (1.0 + self.amplitude)
            omega = 2.0 * math.pi / self.period
            t = 0.0
            while True:
                t += rng.expovariate(peak)
                intensity = self.rate * (
                    1.0 + self.amplitude * math.sin(omega * t)
                )
                if rng.random() * peak <= intensity:
                    yield t
        else:  # burst_idle
            t = 0.0
            while True:
                for _ in range(self.burst_size):
                    yield t
                t += rng.expovariate(self.rate / self.burst_size)


class OpenLoopSource(TaskSource):
    """Replace a base source's submit times with open-loop arrivals.

    The base stream's tasks keep their identity and order; only the
    submit instants change, so the same application work arrives under a
    controlled offered load.  Consumption stays lazy — one base task is
    pulled per arrival drawn.
    """

    def __init__(self, base: TaskSource, arrivals: ArrivalProcess):
        self.base = base
        self.arrivals = arrivals

    def __iter__(self) -> Iterator[tuple[float, Task]]:
        times = self.arrivals.times()
        for (_, task), when in zip(iter(self.base), times):
            yield (when, task)


class TenantTaggedSource(TaskSource):
    """Round-robin tenant tags (``t0``..``t{k-1}``) over a base source.

    Tasks that already carry a tenant keep it; only untagged tasks are
    assigned.  With ``tenants == 1`` everything lands on ``t0``.
    """

    def __init__(self, base: TaskSource, tenants: int):
        if tenants < 1:
            raise BenchmarkError(f"tenants must be >= 1, got {tenants}")
        self.base = base
        self.tenants = tenants

    def __iter__(self) -> Iterator[tuple[float, Task]]:
        for i, (when, task) in enumerate(iter(self.base)):
            if not task.tenant:
                task = replace(task, tenant=f"t{i % self.tenants}")
            yield (when, task)


@dataclass
class BenchWorkload:
    """An app plus its lazy task source, ready for a scenario runner."""

    app: VerifiableApplication
    source: TaskSource
    n_compute_tasks: int
    chunk_bytes: int = 1_000_000
    _tasks: list[tuple[float, Task]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def stream(self) -> Iterator[tuple[float, Task]]:
        """A fresh pass over the task source."""
        return iter(self.source)

    @property
    def tasks(self) -> list[tuple[float, Task]]:
        """Materialized view of the stream (cached; avoid for huge runs)."""
        if self._tasks is None:
            self._tasks = list(self.source)
        return self._tasks


#: Per-workload calibration: graph size, attachment, stream bias,
#: simulated step/verify costs, record size.  Calibrated so that with
#: one aggregate app core per node and the harness's 60 MB/s app-level
#: OP link, tasks cost ~0.15-1.0 simulated seconds and LH/MM saturate
#: the OP link at n=32 while HL stays CPU-bound (Sec 7.2's regimes).
ANOMALY_PROFILES = {
    "MM": dict(
        n_vertices=150, attach=6, dense_bias=0.95,
        step_cost=6e-3, record_bytes=262144, count_discount=0.05,
        verify_step_cost=1e-3, max_degree=40,
    ),
    "LH": dict(
        n_vertices=150, attach=3, dense_bias=0.7,
        step_cost=4.3e-4, record_bytes=2048, count_discount=0.05,
        verify_step_cost=3e-5, max_degree=None,
    ),
    "HL": dict(
        n_vertices=100, attach=12, dense_bias=0.95,
        step_cost=3.5e-2, record_bytes=600, count_discount=0.05,
        verify_step_cost=1e-3, max_degree=35,
    ),
    "fig5b": dict(
        n_vertices=150, attach=6, dense_bias=0.95,
        step_cost=6e-3, record_bytes=8192, count_discount=0.05,
        verify_step_cost=1e-3, max_degree=40,
    ),
}


def anomaly_bench(
    workload: str,
    n_tasks: int,
    rate: float = 2000.0,
    seed: int = 0,
) -> BenchWorkload:
    """Anomaly Detection bench workload (MM / LH / HL / fig5b)."""
    if workload not in ANOMALY_PROFILES:
        raise BenchmarkError(f"unknown anomaly workload {workload!r}")
    profile = ANOMALY_PROFILES[workload]
    base, pattern = anomaly_workload(
        workload,
        n_vertices=profile["n_vertices"],
        attach=profile["attach"],
        seed=seed,
    )
    app = AnomalyApp(
        base,
        pattern,
        step_cost=profile["step_cost"],
        count_discount=profile["count_discount"],
        record_bytes=profile["record_bytes"],
        verify_step_cost=profile["verify_step_cost"],
    )
    source = BurstSource(
        lambda: link_update_stream(
            base,
            n_tasks=n_tasks,
            rate=rate,
            seed=seed + 1,
            dense_bias=profile["dense_bias"],
            max_degree=profile["max_degree"],
        )
    )
    return BenchWorkload(app=app, source=source, n_compute_tasks=n_tasks)


def planning_bench(
    n_tasks: int,
    rate: float = 2000.0,
    seed: int = 0,
    node_cost: float = 2e-2,
) -> BenchWorkload:
    """Motion Planning bench: tasks cycle through the 107-instance suite."""
    suite = instance_suite(count=107, seed=seed)
    app = PlanningApp(instances=suite, node_cost=node_cost)

    def gen() -> Iterator[tuple[float, Task]]:
        for i in range(n_tasks):
            yield (i / rate, make_planning_task(i, i % len(suite)))

    return BenchWorkload(
        app=app,
        source=BurstSource(gen),
        n_compute_tasks=n_tasks,
        chunk_bytes=65536,
    )


def video_bench(
    n_compute: int,
    frames_per_compute: int = 4,
    rate: float = 500.0,
    seed: int = 0,
    k: int = 8,
    window: int = 4,
    points_per_frame: int = 400,
    eval_cost: float = 2.6e-6,
) -> BenchWorkload:
    """Video Analysis bench: frame updates interleaved with clustering
    tasks at the paper's update:compute ratio shape."""
    app = VideoApp(eval_cost=eval_cost)
    n_frames = n_compute * frames_per_compute + window

    def gen() -> Iterator[tuple[float, Task]]:
        frames = frame_stream(
            n_frames, points_per_frame=points_per_frame, seed=seed
        )
        t = 0.0
        made = 0
        for i, frame in enumerate(frames):
            yield (t, make_frame_task(i, frame))
            t += 1.0 / rate
            if (
                i >= window
                and (i - window) % frames_per_compute == 0
                and made < n_compute
            ):
                yield (t, make_cluster_task(made, k=k, window=window))
                t += 1.0 / rate
                made += 1

    # with n_frames = n_compute * frames_per_compute + window frames the
    # interleave loop emits exactly n_compute cluster tasks
    return BenchWorkload(
        app=app,
        source=BurstSource(gen),
        n_compute_tasks=n_compute,
        chunk_bytes=16384,
    )


def synthetic_bench(
    n_tasks: int,
    records_per_task: int = 10,
    compute_cost: float = 50e-3,
    record_bytes: int = 1024,
    rate: float = 2000.0,
    verify_cost_ratio: float = 0.1,
) -> BenchWorkload:
    """Protocol-level bench with exact knobs (used by ablations)."""
    app = SyntheticApp(
        records_per_task=records_per_task,
        compute_cost=compute_cost,
        record_bytes=record_bytes,
        verify_cost_ratio=verify_cost_ratio,
    )

    def gen() -> Iterator[tuple[float, Task]]:
        for i in range(n_tasks):
            yield (i / rate, make_compute_task(i))

    return BenchWorkload(
        app=app, source=BurstSource(gen), n_compute_tasks=n_tasks
    )


def two_phase_bench(
    n_tasks: int = 400,
    records_light: int = 2,
    records_heavy: int = 40,
    compute_cost: float = 120e-3,
    record_bytes: int = 2048,
    verify_cost_ratio: float = 0.4,
    rate: float = 2000.0,
    phase_gap: float = 10.0,
) -> BenchWorkload:
    """Two-phase synthetic workload for the role-switching bench (Fig 6d).

    Phase A tasks emit few records (verification-light), phase B tasks
    emit many (verification-heavy), with a quiet ``phase_gap`` between —
    no static verifier/executor split is right for both phases, which is
    the regime where dynamic role-switching earns its keep.
    """
    app = SyntheticApp(
        records_per_task=12,
        compute_cost=compute_cost,
        record_bytes=record_bytes,
        verify_cost_ratio=verify_cost_ratio,
    )
    half = n_tasks // 2

    def gen() -> Iterator[tuple[float, Task]]:
        for i in range(half):
            yield (i / rate, make_compute_task(i, n=records_light))
        for i in range(half, n_tasks):
            yield (
                phase_gap + (i - half) / rate,
                make_compute_task(i, n=records_heavy),
            )

    return BenchWorkload(
        app=app, source=BurstSource(gen), n_compute_tasks=n_tasks
    )


def update_only_bench(n_updates: int, rate: float = 20_000.0) -> BenchWorkload:
    """Write-only workload for the Fig 5a state-update comparison."""
    app = SyntheticApp()

    def gen() -> Iterator[tuple[float, Task]]:
        for i in range(n_updates):
            yield (i / rate, make_update_task(i, key=f"k{i % 64}", value=i))

    return BenchWorkload(app=app, source=BurstSource(gen), n_compute_tasks=0)


def open_loop_bench(
    n_tasks: int,
    rate: float = 200.0,
    process: str = "poisson",
    base: str = "synthetic",
    seed: int = 0,
    period: float = 60.0,
    amplitude: float = 0.8,
    burst_size: int = 8,
    **base_params,
) -> BenchWorkload:
    """Open-loop traffic over any base workload's task stream.

    The ``base`` factory supplies the application and the task sequence;
    its burst submit times are replaced with arrivals from an
    :class:`ArrivalProcess` (``process`` ∈ {poisson, diurnal,
    burst_idle}) at offered load ``rate`` tasks/s.  Remaining keyword
    params pass through to the base factory, whose own ``rate`` default
    is irrelevant (its times are discarded).
    """
    if base == "open_loop":
        raise BenchmarkError("open_loop cannot wrap itself")
    if base not in WORKLOADS:
        raise BenchmarkError(f"unknown base workload {base!r}")
    factory = WORKLOADS[base]
    sig = inspect.signature(factory)
    accepts_any = any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in sig.parameters.values()
    )
    names = set(sig.parameters)
    params = dict(base_params)
    # base factories name their task-count knob differently
    if "n_tasks" in names or accepts_any:
        params["n_tasks"] = n_tasks
    elif "n_compute" in names:
        params["n_compute"] = n_tasks
    elif "n_updates" in names:
        params["n_updates"] = n_tasks
    else:  # pragma: no cover - all registered factories match above
        raise BenchmarkError(f"cannot size base workload {base!r}")
    if ("seed" in names or accepts_any) and "seed" not in params:
        params["seed"] = seed
    base_wl = factory(**params)
    arrivals = ArrivalProcess(
        kind=process,
        rate=rate,
        seed=seed,
        period=period,
        amplitude=amplitude,
        burst_size=burst_size,
    )
    return BenchWorkload(
        app=base_wl.app,
        source=OpenLoopSource(base_wl.source, arrivals),
        n_compute_tasks=base_wl.n_compute_tasks,
        chunk_bytes=base_wl.chunk_bytes,
    )


def _anomaly_factory(profile: str, **params) -> BenchWorkload:
    return anomaly_bench(profile, **params)


#: Workload factories addressable by name — the registry behind
#: :class:`repro.api.DeploymentSpec`'s named workloads (the anomaly
#: factory takes the profile name under ``profile``).
WORKLOADS = {
    "anomaly": _anomaly_factory,
    "planning": planning_bench,
    "video": video_bench,
    "synthetic": synthetic_bench,
    "two_phase": two_phase_bench,
    "update_only": update_only_bench,
}
WORKLOADS["open_loop"] = open_loop_bench
