"""Workload shapes, seeded inputs and deployment specs for the ledger.

Every input the system sees is generated here from ``--seed``: the
deployment seed, the task ids and per-task record counts, the anomaly
graphs' vertex labelling, and the Poisson arrival times.  The system
under test receives only these generated inputs, through
:class:`repro.api.DeploymentSpec`.

Sizes are per *repetition* (DES) or per *measured task* (live/served):
a run measures for a fixed wall time, so how many repetitions or tasks
fit is the result, not a parameter.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, replace
from typing import Iterator

from repro import api
from repro.apps.synthetic import SyntheticApp
from repro.bench.scenarios import BENCH_BANDWIDTH
from repro.apps.anomaly import (
    AnomalyApp,
    anomaly_workload,
    link_update_stream,
    make_link_task,
)
from repro.bench.workloads import (
    ANOMALY_PROFILES,
    ArrivalProcess,
    BenchWorkload,
    BurstSource,
)
from repro.core.api import ComputeResult, CountResult, VerifiableApplication
from repro.core.tasks import Opcode, Record, Task
from repro.store.state_machine import KVState

#: Protocol timers for the wall-clock workloads.  The 50 ms default view
#: timeout fires spuriously on a 2-vCPU host running 6 node processes
#: (README "Relaxed timers"); view changes are still counted.
LIVE_TIMERS = (
    ("consensus_view_timeout", 2.0),
    ("op_timeout", 10.0),
    ("suspect_timeout", 600.0),
)

#: Emulated CPU seconds per task on the wall-clock workloads: small, so
#: Python, transport and codec costs dominate the measurement.
LIVE_COMPUTE_COST = 1e-3
#: Simulated CPU seconds per synthetic DES task (the calibration of
#: ``repro.bench.workloads.synthetic_bench``).
DES_COMPUTE_COST = 50e-3


@dataclass(frozen=True)
class Shape:
    """One workload's fixed sizes (``BENCHMARK.json`` names them)."""

    name: str
    kind: str  # "des" | "live" | "serve"
    n: int
    #: DES: tasks per scenario repetition
    tasks: int = 0
    #: mean records per task / declared (DES) or real (live) record size
    records: int = 10
    record_bytes: int = 1024
    #: closed loop: tasks in flight
    window: int = 0
    #: open loop: offered tasks per second
    rate: float = 0.0
    #: simulated time at which every executor turns Byzantine (0 = never)
    fault_at: float = 0.0

    def smoke(self) -> "Shape":
        """One tenth the size: shorter repetitions, lighter offered load
        and smaller bulk payloads (deployment size ``n`` is kept — it
        decides which code paths run)."""
        return replace(
            self,
            tasks=max(20, self.tasks // 10),
            records=max(4, self.records // 4) if self.records > 20 else self.records,
            rate=self.rate / 2,
            fault_at=self.fault_at / 4,
        )


SHAPES = {
    s.name: s
    for s in (
        Shape("des-proto", "des", n=32, tasks=200),
        Shape("des-app", "des", n=16, tasks=30),
        Shape("des-faulty", "des", n=16, tasks=100, fault_at=0.2),
        Shape("live-burst", "live", n=4, window=16),
        Shape("live-bulk", "live", n=4, records=200, record_bytes=4096, window=8),
        Shape("serve-open", "serve", n=4, rate=60.0),
    )
}


def shape_for(name: str, smoke: bool = False) -> Shape:
    shape = SHAPES[name]
    return shape.smoke() if smoke else shape


# ------------------------------------------------------------------ the app
def _payload(task_id: str, i: int, nbytes: int) -> str:
    h = hashlib.sha256(f"{task_id}:{i}".encode()).hexdigest()
    return (h * (-(-nbytes // 64)))[:nbytes]


class PayloadApp(VerifiableApplication):
    """A verifiable application whose records carry *real* payload bytes.

    ``SyntheticApp`` declares a record size for the DES link model but
    ships an 8-byte integer; on the live backend that makes every
    workload message-count-bound.  This app (the benchmark's own user
    program, plugged in through the public application API) emits
    ``record_bytes`` of text per record, derived from the task id, so
    codec, queue and digest costs scale with the bytes a task moves.
    """

    name = "ledger-payload"

    def __init__(self, record_bytes: int, compute_cost: float) -> None:
        self.record_bytes = record_bytes
        self.compute_cost = compute_cost

    def initial_state(self) -> KVState:
        return KVState()

    def valid_task(self, task: Task) -> bool:
        payload = task.compute_payload
        return isinstance(payload, dict) and payload.get("n", 0) > 0

    def _record(self, task: Task, i: int) -> Record:
        return Record(
            key=(i,),
            data=_payload(task.task_id, i, self.record_bytes),
            size_bytes=self.record_bytes,
        )

    def compute(self, view, task: Task) -> ComputeResult:
        n = task.compute_payload["n"]
        return ComputeResult(
            records=tuple(self._record(task, i) for i in range(n)),
            cost=self.compute_cost,
        )

    def is_valid(self, view, record: Record, task: Task) -> bool:
        if len(record.key) != 1 or not isinstance(record.key[0], int):
            return False
        i = record.key[0]
        if not 0 <= i < task.compute_payload["n"]:
            return False
        return record == self._record(task, i)

    def output_size(self, view, task: Task) -> CountResult:
        return CountResult(
            count=task.compute_payload["n"], cost=self.compute_cost * 0.05
        )

    def verify_record_cost(self, record: Record) -> float:
        return self.compute_cost * 0.01


# ------------------------------------------------------------------- inputs
def task_stream(shape: Shape, seed: int) -> Iterator[Task]:
    """Unbounded deterministic compute-task stream for one seed.

    Task ids embed the seed (record contents derive from the id) and the
    per-task record count varies ±20 % around the shape's mean, so two
    seeds differ in ids, contents and sizes.  Served tasks alternate
    between two tenants.
    """
    rng = random.Random(f"ledger:{shape.name}:{seed}")
    spread = max(1, shape.records // 5)
    for i in itertools.count():
        yield Task(
            task_id=f"s{seed}-{i}",
            opcode=Opcode.COMPUTE,
            compute_payload={
                "n": shape.records + rng.randint(-spread, spread)
            },
            tenant=f"t{i % 2}" if shape.kind == "serve" else "",
        )


def arrival_times(shape: Shape, seed: int) -> Iterator[float]:
    """Poisson arrival instants (seconds from the start of offering)."""
    return ArrivalProcess("poisson", shape.rate, seed=seed).times()


def burst_workload(app, tasks: list[Task], spacing: float = 5e-4) -> BenchWorkload:
    """A burst of pre-generated tasks as a re-iterable workload."""
    items = [(i * spacing, t) for i, t in enumerate(tasks)]
    return BenchWorkload(
        app=app,
        source=BurstSource(lambda: iter(items)),
        n_compute_tasks=len(items),
    )


def _app_for(shape: Shape) -> VerifiableApplication:
    if shape.kind == "des":
        return SyntheticApp(
            records_per_task=shape.records,
            compute_cost=DES_COMPUTE_COST,
            record_bytes=shape.record_bytes,
        )
    return PayloadApp(shape.record_bytes, LIVE_COMPUTE_COST)


#: inputs a DES run generates and its repetitions cycle through
DES_INPUTS = 4


def _anomaly_input(shape: Shape, seed: int, k: int) -> BenchWorkload:
    """Anomaly scenario ``k`` (profile ``LH``: graph ``k``, its update
    stream, the calibration of ``anomaly_bench``) with every vertex id
    permuted by ``seed``.

    A fresh power-law graph per seed costs ±15 % more or less than the
    next (heavy-tailed match counts), which would drown any change in
    the spread across seeds.  So the four scenarios are fixed and the
    seed relabels them: ids, adjacency order and record keys differ from
    seed to seed, the match structure — the work — does not.
    """
    profile = ANOMALY_PROFILES["LH"]
    base, pattern = anomaly_workload(
        "LH", n_vertices=profile["n_vertices"], attach=profile["attach"], seed=k
    )
    ids = list(range(profile["n_vertices"]))
    random.Random(f"ledger:relabel:{seed}").shuffle(ids)
    app = AnomalyApp(
        [(ids[u], ids[v]) for u, v in base],
        pattern,
        step_cost=profile["step_cost"],
        count_discount=profile["count_discount"],
        record_bytes=profile["record_bytes"],
        verify_step_cost=profile["verify_step_cost"],
    )
    items = [
        (when, make_link_task(i, ids[task.update_payload[1]],
                              ids[task.update_payload[2]]))
        for i, (when, task) in enumerate(
            link_update_stream(
                base,
                n_tasks=shape.tasks,
                rate=2000.0,
                seed=k + 1,
                dense_bias=profile["dense_bias"],
                max_degree=profile["max_degree"],
            )
        )
    ]
    return BenchWorkload(
        app=app,
        source=BurstSource(lambda: iter(items)),
        n_compute_tasks=len(items),
    )


def des_workload(shape: Shape, seed: int, k: int) -> BenchWorkload:
    """Input ``k`` (of :data:`DES_INPUTS`) of a DES run, from ``seed``."""
    if shape.name == "des-app":
        return _anomaly_input(shape, seed, k)
    tasks = list(
        itertools.islice(task_stream(shape, seed * DES_INPUTS + k), shape.tasks)
    )
    return burst_workload(_app_for(shape), tasks)


def des_spec(
    shape: Shape,
    seed: int,
    workload: BenchWorkload,
    *,
    system: str = "osiris",
    faulty: bool = True,
    sinks: tuple = (),
    sanitize: bool = False,
) -> api.DeploymentSpec:
    """Spec of one DES repetition; ``faulty=False`` gives the clean twin
    of ``des-faulty`` (same inputs, no campaign)."""
    from repro.adversary import library

    config: tuple = ()
    faults = None
    if shape.fault_at > 0 and system == "osiris":
        config = (("suspect_timeout", 2.0),)
        if faulty:
            faults = library.fig7a(at=shape.fault_at)
    return api.DeploymentSpec(
        workload=workload,
        n=shape.n,
        system=system,
        seed=seed,
        deadline=3000.0,
        config=config,
        faults=faults,
        sinks=sinks,
        sanitize=sanitize,
    )


def live_spec(
    shape: Shape, seed: int, *, sinks: tuple = (), sanitize: bool = False
) -> api.DeploymentSpec:
    """Spec of the live n=4 deployment (6 OS processes).  The workload
    carries only the application: tasks arrive through ``submit``."""
    config = LIVE_TIMERS
    if shape.kind == "serve":
        config += (("admission_queue", 256), ("admission_rate", 240.0))
    return api.DeploymentSpec(
        workload=burst_workload(_app_for(shape), []),
        n=shape.n,
        seed=seed,
        backend="live",
        config=config,
        sinks=sinks,
        sanitize=sanitize,
    )


def twin_spec(shape: Shape, seed: int, tasks: list[Task]) -> api.DeploymentSpec:
    """DES twin of a live/served run: the same application, deployment
    and task list, simulated.  No admission knobs: the twin must commit
    every task the live side was offered, and default protocol timers:
    commit outcomes do not depend on timing, and with all three of
    ``LIVE_TIMERS`` set the n=4 DES reports itself drained at t=10.0
    with the input process 160 tasks short (README, findings).  Tasks
    are paced below the simulated deployment's capacity (one executor,
    a 60 MB/s output link): a 2000-task burst into the n=4 DES sets off
    a reassignment storm that takes minutes of host time to simulate."""
    spacing = 4e-3 + 4 * shape.records * shape.record_bytes / BENCH_BANDWIDTH
    return api.DeploymentSpec(
        workload=burst_workload(_app_for(shape), tasks, spacing=spacing),
        n=shape.n,
        seed=seed,
        deadline=3000.0,
    )
