"""ZFT — the zero-fault-tolerance baseline (Sec 7, "Baselines").

"IP sends tasks to a coordinator worker in WP, which distributes the
tasks to other workers who execute A and simply forward the results."
No signatures, no replication, no verification: the performance ceiling
every BFT system is measured against.  The coordinator participates in
execution too, so computation scalability is |WP| (Table 1).

Roles are :class:`~repro.runtime.core.ProtocolCore` state machines;
:func:`plan_zft_cluster` lays them out as a
:class:`~repro.runtime.plan.ClusterPlan`, which any backend instantiates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.config import OsirisConfig
from repro.core.tasks import Chunk, Task, chunk_records
from repro.errors import ProtocolError
from repro.net.message import Message
from repro.net.topology import SubCluster, Topology
from repro.obs.events import (
    CATEGORY_TASK,
    RecordsAccepted,
    TaskCompleted,
    TaskSubmitted,
)
from repro.runtime.core import ProtocolCore
from repro.runtime.plan import ClusterPlan, plan_topology
from repro.store.mvstore import MultiVersionStore

__all__ = [
    "ZftSubmit",
    "ZftUpdate",
    "ZftAssign",
    "ZftRecords",
    "ZftWorker",
    "ZftCoordinator",
    "ZftInput",
    "ZftOutput",
    "plan_zft_cluster",
]


@dataclass
class ZftSubmit(Message):
    task: Optional[Task] = None

    def payload_bytes(self) -> int:
        return self.task.size_bytes


@dataclass
class ZftUpdate(Message):
    task: Optional[Task] = None

    def payload_bytes(self) -> int:
        return self.task.size_bytes


@dataclass
class ZftAssign(Message):
    task: Optional[Task] = None

    def payload_bytes(self) -> int:
        return self.task.size_bytes


@dataclass
class ZftRecords(Message):
    chunk: Optional[Chunk] = None

    def payload_bytes(self) -> int:
        return self.chunk.payload_bytes()


def _noop() -> None:
    return None


class ZftWorker(ProtocolCore):
    """Executes tasks on its state replica and forwards records to OP."""

    def __init__(self, pid, app, output_pids, chunk_bytes):
        super().__init__(pid)
        self.app = app
        self.output_pids = output_pids
        self.chunk_bytes = chunk_bytes
        self.store = MultiVersionStore(app.initial_state())
        self.tasks_executed = 0

    def on_ZftUpdate(self, msg: ZftUpdate) -> None:
        cost = self.store.submit(msg.task.timestamp, msg.task.update_payload)
        if cost > 0:
            self.run_job(cost, _noop)

    def on_ZftAssign(self, msg: ZftAssign) -> None:
        task = msg.task
        self.store.when_ready(task.timestamp, lambda: self._execute(task))

    def _execute(self, task: Task) -> None:
        if self.crashed:
            return
        view = self.store.view(task.timestamp)
        result = self.app.compute(view, task)
        self.tasks_executed += 1
        chunks = chunk_records(
            task.task_id, list(result.records), self.chunk_bytes
        )
        k = len(chunks)
        self.run_raw_job(
            result.cost,
            _noop,
            milestones=tuple(
                (result.cost * (i + 1) / k, self._emit, (chunk,))
                for i, chunk in enumerate(chunks)
            ),
        )

    def _emit(self, chunk: Chunk) -> None:
        if self.crashed:
            return
        for op in self.output_pids:
            self.send(op, ZftRecords(chunk=chunk))


class ZftCoordinator(ZftWorker):
    """Linearizes tasks and distributes them round-robin (itself included)."""

    def __init__(self, *args, worker_pids=(), **kwargs):
        super().__init__(*args, **kwargs)
        self.worker_pids = list(worker_pids)
        self._ts = 0
        self._rr = 0

    def on_ZftSubmit(self, msg: ZftSubmit) -> None:
        task = msg.task
        if not self.app.valid_task(task):
            return
        if task.opcode.has_update:
            self._ts += 1
        stamped = task.with_timestamp(self._ts)
        if task.opcode.has_update:
            for pid in self.worker_pids:
                if pid == self.pid:
                    self.on_ZftUpdate(ZftUpdate(task=stamped))
                else:
                    self.send(pid, ZftUpdate(task=stamped))
        if task.opcode.has_compute:
            target = self.worker_pids[self._rr % len(self.worker_pids)]
            self._rr += 1
            if target == self.pid:
                self.on_ZftAssign(ZftAssign(task=stamped))
            else:
                self.send(target, ZftAssign(task=stamped))


class ZftInput(ProtocolCore):
    """Streams the workload's tasks to ``coordinator``, each at its
    submit time.  RCP's input reuses the loop and overrides only
    :meth:`_submit`."""

    def __init__(self, pid, coordinator, workload):
        super().__init__(pid)
        self.coordinator = coordinator
        self._workload = iter(workload)

    def start(self) -> None:
        self._next()

    def _next(self) -> None:
        try:
            at, task = next(self._workload)
        except StopIteration:
            return
        self.schedule(max(0.0, at - self.now), self._fire, task)

    def _fire(self, task: Task) -> None:
        if not self.crashed:
            if self.wants(CATEGORY_TASK):
                self.emit(
                    TaskSubmitted(
                        time=self.now, pid=self.pid, task_id=task.task_id
                    )
                )
            self._submit(task)
        self._next()

    def _submit(self, task: Task) -> None:
        self.send(self.coordinator, ZftSubmit(task=task))


class ZftOutput(ProtocolCore):
    def __init__(self, pid):
        super().__init__(pid)
        self.records_accepted = 0

    def on_ZftRecords(self, msg: ZftRecords) -> None:
        chunk = msg.chunk
        self.records_accepted += len(chunk.records)
        if self.wants(CATEGORY_TASK):
            self.emit(
                RecordsAccepted(
                    time=self.now,
                    pid=self.pid,
                    task_id=chunk.task_id,
                    count=len(chunk.records),
                )
            )
            if chunk.final:
                self.emit(
                    TaskCompleted(
                        time=self.now, pid=self.pid, task_id=chunk.task_id
                    )
                )


def plan_zft_cluster(
    n_workers: int = 8, config: Optional[OsirisConfig] = None, **plan
) -> ClusterPlan:
    """Lay out a ZFT deployment: ``w0`` (the coordinator, a sub-cluster
    of one with f=0), then the plain workers ``w1``…, ``ip0`` and
    ``op0``.  Every worker executes; ``config`` gives the chunk size and
    the cores per worker, its ``f`` is not read.  ``plan`` passes the
    remaining plan fields (seed, bandwidth, …) to
    :func:`~repro.runtime.plan.plan_topology`."""
    if n_workers < 1:
        raise ProtocolError("ZFT needs at least one worker")
    topo = Topology(
        input_pids=("ip0",),
        output_pids=("op0",),
        executor_pids=tuple(f"w{i}" for i in range(1, n_workers)),
        verifier_clusters=(SubCluster(index=0, members=("w0",), f=0),),
        f=0,
    )
    return plan_topology("zft", topo, config or OsirisConfig(), **plan)
