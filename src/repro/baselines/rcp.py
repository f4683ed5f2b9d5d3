"""RCP — the replicated-computation baseline (Sec 7, "Baselines").

The RSM philosophy applied to task-parallel processing: WP is divided
into sub-clusters of 2f+1 workers; a designated coordinator sub-cluster
WP_CO linearizes tasks (same consensus algorithm as OsirisBFT, for a
fair comparison) and distributes each computation task to one
sub-cluster, where **every member executes it**.  OP accepts output
only with f+1 matching copies from the same sub-cluster.

Computation scalability is therefore ⌊n/(2f+1)⌋ (Fig 2a) — the
bottleneck OsirisBFT removes.

Roles are :class:`~repro.runtime.core.ProtocolCore` state machines;
:func:`plan_rcp_cluster` lays them out as a
:class:`~repro.runtime.plan.ClusterPlan`, which any backend instantiates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.baselines.zft import ZftInput
from repro.consensus.fast_robust import ConsensusClient, ConsensusMember
from repro.core.config import OsirisConfig
from repro.core.tasks import Chunk, Task, chunk_records
from repro.crypto.signatures import KeyRegistry, Signer, sign_cost
from repro.errors import ProtocolError
from repro.net.message import Message
from repro.net.topology import SubCluster, Topology
from repro.obs.events import (
    CATEGORY_TASK,
    RecordsAccepted,
    TaskCompleted,
)
from repro.runtime.core import ProtocolCore
from repro.runtime.plan import ClusterPlan, plan_topology
from repro.store.mvstore import MultiVersionStore

__all__ = [
    "RcpUpdate",
    "RcpAssign",
    "RcpRecords",
    "RcpDigest",
    "RcpWorker",
    "RcpCoordinator",
    "RcpInput",
    "RcpOutput",
    "plan_rcp_cluster",
    "rcp_parallel_tasks",
]


def rcp_parallel_tasks(n: int, f: int) -> int:
    """Fig 2a's analytic limit: parallel tasks under RSM replication."""
    if f == 0:
        return n
    return n // (2 * f + 1)


@dataclass
class RcpUpdate(Message):
    task: Optional[Task] = None
    sig: object = None

    def payload_bytes(self) -> int:
        return self.task.size_bytes + 64

    def signed_payload(self) -> list:
        return ["rcp-update", self.task.task_id, self.task.timestamp]


@dataclass
class RcpAssign(Message):
    task: Optional[Task] = None
    cluster_index: int = 0
    sig: object = None

    def payload_bytes(self) -> int:
        return self.task.size_bytes + 96

    def signed_payload(self) -> list:
        return [
            "rcp-assign",
            self.task.task_id,
            self.task.timestamp,
            self.cluster_index,
        ]


@dataclass
class RcpRecords(Message):
    cluster_index: int = 0
    chunk: Optional[Chunk] = None
    digest_bytes: bytes = b""

    def payload_bytes(self) -> int:
        return self.chunk.payload_bytes() + 96


@dataclass
class RcpDigest(Message):
    cluster_index: int = 0
    task_id: str = ""
    index: int = 0
    final: bool = False
    digest_bytes: bytes = b""

    def payload_bytes(self) -> int:
        return 96


def _noop() -> None:
    return None


class RcpWorker(ProtocolCore):
    """A sub-cluster member: replicated state + replicated execution."""

    def __init__(
        self,
        pid,
        registry: KeyRegistry,
        signer: Signer,
        app,
        cluster: SubCluster,
        coordinator: SubCluster,
        output_pids,
        chunk_bytes,
    ):
        super().__init__(pid)
        self.registry = registry
        self.signer = signer
        self.app = app
        self.cluster = cluster
        self.coordinator_cluster = coordinator
        self.output_pids = output_pids
        self.chunk_bytes = chunk_bytes
        self.store = MultiVersionStore(app.initial_state())
        self._update_votes: dict[tuple[str, int], set[str]] = {}
        self._assign_votes: dict[str, set[str]] = {}
        self._started: set[str] = set()
        self.tasks_executed = 0

    @property
    def is_primary(self) -> bool:
        """The member that ships full record data to OP (others send
        digests) — same communication optimization as OsirisBFT's leader,
        for a fair comparison."""
        return self.pid == self.cluster.members[0]

    # ---------------------------------------------------------------- state
    def on_RcpUpdate(self, msg: RcpUpdate) -> None:
        if msg.sender not in self.coordinator_cluster.members:
            return
        if msg.sig is None or not self.registry.verify(
            msg.signed_payload(), msg.sig
        ):
            return
        key = (msg.task.task_id, msg.task.timestamp)
        votes = self._update_votes.setdefault(key, set())
        votes.add(msg.sender)
        if len(votes) == self.coordinator_cluster.quorum:
            cost = self.store.submit(
                msg.task.timestamp, msg.task.update_payload
            )
            if cost > 0:
                self.run_job(cost, _noop)

    def apply_update_locally(self, task: Task) -> None:
        cost = self.store.submit(task.timestamp, task.update_payload)
        if cost > 0:
            self.run_job(cost, _noop)

    # -------------------------------------------------------------- compute
    def on_RcpAssign(self, msg: RcpAssign) -> None:
        if msg.cluster_index != self.cluster.index:
            return
        if msg.sender not in self.coordinator_cluster.members:
            return
        if msg.sig is None or not self.registry.verify(
            msg.signed_payload(), msg.sig
        ):
            return
        votes = self._assign_votes.setdefault(msg.task.task_id, set())
        votes.add(msg.sender)
        if (
            len(votes) >= self.coordinator_cluster.quorum
            and msg.task.task_id not in self._started
        ):
            self._started.add(msg.task.task_id)
            task = msg.task
            self.store.when_ready(task.timestamp, lambda: self._execute(task))

    def start_task(self, task: Task) -> None:
        """Local dispatch used by coordinator members for their own
        cluster's assignments."""
        if task.task_id in self._started:
            return
        self._started.add(task.task_id)
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
        sigma = chunk.sigma
        for op in self.output_pids:
            if self.is_primary:
                self.send(
                    op,
                    RcpRecords(
                        cluster_index=self.cluster.index,
                        chunk=chunk,
                        digest_bytes=sigma,
                    ),
                )
            else:
                self.send(
                    op,
                    RcpDigest(
                        cluster_index=self.cluster.index,
                        task_id=chunk.task_id,
                        index=chunk.index,
                        final=chunk.final,
                        digest_bytes=sigma,
                    ),
                )


class RcpCoordinator(RcpWorker):
    """WP_CO member: consensus + assignment (and execution, when its own
    sub-cluster is the assignment target)."""

    def __init__(self, *args, clusters: list[SubCluster], **kwargs):
        super().__init__(*args, **kwargs)
        self.clusters = clusters
        self._ts = 0
        self._rr = 0
        self.consensus = ConsensusMember(
            host=self,
            registry=self.registry,
            signer=self.signer,
            group=self.coordinator_cluster,
            on_commit=self._on_commit,
            validate=lambda payload: isinstance(payload, Task)
            and self.app.valid_task(payload),
        )

    def _on_commit(self, seq: int, batch: tuple) -> None:
        for _rid, task, _size in batch:
            if task.opcode.has_update:
                self._ts += 1
            stamped = task.with_timestamp(self._ts)
            if task.opcode.has_update:
                msg = RcpUpdate(task=stamped)
                msg.sig = self.signer.sign(msg.signed_payload())
                targets = [
                    m
                    for c in self.clusters
                    for m in c.members
                    if m not in self.coordinator_cluster.members
                ]
                self.apply_update_locally(stamped)
                if targets:
                    self.run_job(
                        sign_cost(1),
                        lambda m=msg, t=tuple(targets): self.multicast(t, m),
                    )
            if task.opcode.has_compute:
                target = self.clusters[self._rr % len(self.clusters)]
                self._rr += 1
                if target.index == self.cluster.index:
                    self.start_task(stamped)
                else:
                    msg = RcpAssign(task=stamped, cluster_index=target.index)
                    msg.sig = self.signer.sign(msg.signed_payload())
                    self.run_job(
                        sign_cost(1),
                        lambda m=msg, t=target.members: self.multicast(t, m),
                    )


@dataclass
class _OutSlot:
    endorsers: dict[bytes, set[str]] = field(default_factory=dict)
    data: dict[bytes, Chunk] = field(default_factory=dict)
    accepted: bool = False


class RcpOutput(ProtocolCore):
    """Accepts a chunk once f+1 members of one sub-cluster agree on it."""

    def __init__(self, pid, clusters: list[SubCluster]):
        super().__init__(pid)
        self.clusters = {c.index: c for c in clusters}
        self._slots: dict[tuple[str, int], _OutSlot] = {}
        self._final: dict[str, int] = {}
        self._accepted: dict[str, set[int]] = {}
        self._completed: set[str] = set()
        self.records_accepted = 0

    def _note(self, msg, task_id, index, final, sigma, chunk=None):
        cluster = self.clusters.get(msg.cluster_index)
        if cluster is None or msg.sender not in cluster.members:
            return
        if task_id in self._completed:
            return
        slot = self._slots.setdefault((task_id, index), _OutSlot())
        if slot.accepted:
            return
        slot.endorsers.setdefault(sigma, set()).add(msg.sender)
        if chunk is not None:
            slot.data[chunk.sigma] = chunk
        if final:
            self._final[task_id] = index
        for sig, who in slot.endorsers.items():
            if len(who) >= cluster.quorum and sig in slot.data:
                slot.accepted = True
                accepted_chunk = slot.data[sig]
                self.records_accepted += len(accepted_chunk.records)
                if self.wants(CATEGORY_TASK):
                    self.emit(
                        RecordsAccepted(
                            time=self.now,
                            pid=self.pid,
                            task_id=task_id,
                            count=len(accepted_chunk.records),
                        )
                    )
                done = self._accepted.setdefault(task_id, set())
                done.add(index)
                fin = self._final.get(task_id)
                if fin is not None and all(
                    i in done for i in range(fin + 1)
                ):
                    self._completed.add(task_id)
                    if self.wants(CATEGORY_TASK):
                        self.emit(
                            TaskCompleted(
                                time=self.now,
                                pid=self.pid,
                                task_id=task_id,
                            )
                        )
                return

    def on_RcpRecords(self, msg: RcpRecords) -> None:
        if msg.chunk is None:
            return
        self._note(
            msg,
            msg.chunk.task_id,
            msg.chunk.index,
            msg.chunk.final,
            msg.digest_bytes,
            chunk=msg.chunk,
        )

    def on_RcpDigest(self, msg: RcpDigest) -> None:
        self._note(
            msg, msg.task_id, msg.index, msg.final, msg.digest_bytes
        )


class RcpInput(ZftInput):
    """ZFT's workload stream, submitted through consensus to the
    coordinator sub-cluster."""

    def __init__(self, pid, coordinator: SubCluster, workload):
        super().__init__(pid, coordinator, workload)
        self.client = ConsensusClient(self, coordinator)

    def _submit(self, task: Task) -> None:
        self.client.submit(task, size=task.size_bytes)


def plan_rcp_cluster(
    n_workers: int = 9, config: Optional[OsirisConfig] = None, **plan
) -> ClusterPlan:
    """Lay out an RCP deployment: ⌊n/(2f+1)⌋ sub-clusters of 2f+1
    workers, ``w0``… by sub-cluster (sub-cluster 0 coordinates), then
    ``ip0`` and ``op0``; the leftover workers stay idle and get no node.
    ``config`` gives f, the chunk size and the cores per worker; ``plan``
    passes the remaining plan fields (seed, bandwidth, …) to
    :func:`~repro.runtime.plan.plan_topology`."""
    config = config or OsirisConfig()
    f = config.f
    size = 2 * f + 1
    k = n_workers // size
    if k < 1:
        raise ProtocolError(
            f"RCP needs at least {size} workers for f={f}, got {n_workers}"
        )
    topo = Topology(
        input_pids=("ip0",),
        output_pids=("op0",),
        executor_pids=(),
        verifier_clusters=tuple(
            SubCluster(
                index=i,
                members=tuple(f"w{i * size + j}" for j in range(size)),
                f=f,
            )
            for i in range(k)
        ),
        f=f,
    )
    return plan_topology("rcp", topo, config, **plan)
