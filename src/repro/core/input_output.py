"""Input and output processes (the pipeline's endpoints).

IP submits task batches to VP_CO through the consensus client ([P1]);
OP accepts a record chunk only after f+1 matching digests from one
verifier sub-cluster ([P4]), acknowledges each completed task to that
sub-cluster so its verifiers can drop the output, and runs the
negligent-leader / equivocation-report machinery of Sec 5.2.2.  The paper makes *no*
assumption about failures in IP or OP — Byzantine variants are expressed
through :class:`~repro.core.faults.OutputFault` and by submitting
invalid tasks.

Both endpoints are pure :class:`~repro.runtime.core.ProtocolCore` state
machines; scheduling and transmission happen through typed effects.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

from repro.consensus.fast_robust import ConsensusClient
from repro.core.admission import ADMITTED, DEFERRED, Admission
from repro.core.config import OsirisConfig
from repro.core.faults import OutputFault
from repro.core.messages import (
    EquivocationReport,
    NegligentLeaderReport,
    OutputAckMsg,
    VerifiedChunkMsg,
    VerifiedDigestMsg,
)
from repro.core.tasks import Chunk, Task
from repro.obs.events import (
    CATEGORY_CHUNK,
    CATEGORY_TASK,
    ChunkAccepted,
    RecordsAccepted,
    TaskAdmitted,
    TaskCompleted,
    TaskDeferred,
    TaskOutcome,
    TaskRejected,
    TaskSubmitted,
)
from repro.net.topology import Topology
from repro.runtime.core import ProtocolCore

__all__ = ["InputProcess", "OutputProcess"]


class InputProcess(ProtocolCore):
    """Streams a task workload into the coordinator.

    ``workload`` is a lazy iterator of ``(submit_time, Task)`` pairs in
    non-decreasing time order; tasks are scheduled one ahead so huge
    workloads never materialize in memory.

    Every arrival is offered to ``admission``
    (:class:`~repro.core.admission.Admission`, from ``config``'s knobs),
    which this process drives on simulated time.  With both knobs unset
    every arrival is forwarded at once, with no admission events.
    """

    def __init__(
        self,
        pid: str,
        topo: Topology,
        workload: Iterator[tuple[float, Task]],
        config: Optional[OsirisConfig] = None,
    ) -> None:
        super().__init__(pid)
        self.topo = topo
        self.config = config
        self._workload = iter(workload)
        self.client = ConsensusClient(self, topo.coordinator)
        self.tasks_submitted = 0
        knobs = (config.admission_queue, config.admission_rate) if config else ()
        self.admission = Admission(*knobs)

    def start(self) -> None:
        """Begin streaming tasks (call once after deployment wiring)."""
        self._schedule_next()

    def _schedule_next(self) -> None:
        try:
            at, task = next(self._workload)
        except StopIteration:
            return
        self.schedule(max(0.0, at - self.now), self._arrive, task)

    def _arrive(self, task: Task) -> None:
        self.inject(task)
        self._schedule_next()

    def _forward(self, task: Task) -> None:
        stamped = replace(task, submitted_at=self.now)
        if self.wants(CATEGORY_TASK):
            self.emit(
                TaskSubmitted(
                    time=self.now, pid=self.pid, task_id=task.task_id
                )
            )
        self.client.submit(stamped, size=task.size_bytes)
        self.tasks_submitted += 1

    def _about(self, task: Task) -> dict:
        """The fields every admission event carries."""
        return dict(
            time=self.now, pid=self.pid, task_id=task.task_id, tenant=task.tenant
        )

    def inject(self, task: Task) -> None:
        """One arrival, from the workload or from outside (the live
        gateway path, which needs no pre-planned stream at all)."""
        if self.crashed:
            return
        status, depth = self.admission.offer(task)
        if not self.admission.enforcing:
            self._forward(task)
        elif status == ADMITTED:
            self._drain()
        elif self.wants(CATEGORY_TASK):
            about = self._about(task)
            self.emit(
                TaskDeferred(**about, queue_depth=depth)
                if status == DEFERRED
                else TaskRejected(**about)
            )

    def _drain(self) -> None:
        task = None if self.crashed else self.admission.pop()
        if task is None:
            return
        self._forward(task)
        if self.wants(CATEGORY_TASK):
            self.emit(TaskAdmitted(**self._about(task)))
        if self.admission.busy:
            self.schedule(self.admission.gap, self._drain)


@dataclass
class _ChunkSlot:
    """One ``(task, index)`` position of a task's output at the OP.

    Chunk data is held in ``pending`` only until the slot is accepted;
    from then on the slot keeps the winning σ and its record count.
    ``arrived`` remembers every σ whose data came, before and after
    acceptance, so "a quorum *and* the data" stays checkable.
    """

    endorsements: dict[bytes, set[str]] = field(default_factory=dict)
    pending: dict[bytes, Chunk] = field(default_factory=dict)
    arrived: set[bytes] = field(default_factory=set)
    winner: Optional[bytes] = None
    records: int = 0
    reports: int = 0

    @property
    def accepted(self) -> bool:
        return self.winner is not None


@dataclass
class _OutTask:
    slots: dict[int, _ChunkSlot] = field(default_factory=dict)
    final_index: Optional[int] = None
    accepted: set[int] = field(default_factory=set)
    vp_index: int = -1
    completed: bool = False
    neg_terms: int = 0
    tenant: str = ""
    submitted_at: float = 0.0


class OutputProcess(ProtocolCore):
    """Receives verified chunks; the downstream consumer of Fig 3."""

    def __init__(
        self,
        pid: str,
        topo: Topology,
        config: OsirisConfig,
    ) -> None:
        super().__init__(pid)
        self.topo = topo
        self.config = config
        #: Byzantine strategy, installed by ``repro.runtime.plan.install_fault``
        self.fault: Optional[OutputFault] = None
        self._tasks: dict[str, _OutTask] = {}
        self.chunks_accepted = 0
        self.records_accepted = 0

    # ------------------------------------------------------------- receive
    def _slot(self, msg) -> Optional[tuple[_OutTask, _ChunkSlot]]:
        cluster = self.topo.cluster_of(msg.sender)
        if cluster is None or cluster.index != msg.vp_index:
            return None
        ot = self._tasks.setdefault(msg.task_id, _OutTask())
        if ot.completed:
            return None
        if ot.vp_index < 0:
            ot.vp_index = msg.vp_index
        elif ot.vp_index != msg.vp_index:
            return None  # a task's output comes from one sub-cluster
        if msg.tenant and not ot.tenant:
            ot.tenant = msg.tenant
            ot.submitted_at = msg.submitted_at
        if msg.final:
            ot.final_index = msg.index
        return ot, ot.slots.setdefault(msg.index, _ChunkSlot())

    def on_VerifiedChunkMsg(self, msg: VerifiedChunkMsg) -> None:
        got = self._slot(msg)
        if got is None or msg.chunk is None:
            return
        ot, slot = got
        sigma = msg.chunk.sigma
        slot.arrived.add(sigma)
        if not slot.accepted:
            slot.pending[sigma] = msg.chunk
        slot.endorsements.setdefault(msg.digest, set()).add(msg.sender)
        self._try_accept(msg.task_id, ot, msg.index, slot)

    def on_VerifiedDigestMsg(self, msg: VerifiedDigestMsg) -> None:
        got = self._slot(msg)
        if got is None:
            return
        ot, slot = got
        slot.endorsements.setdefault(msg.digest, set()).add(msg.sender)
        self._try_accept(msg.task_id, ot, msg.index, slot)

    # -------------------------------------------------------------- accept
    def _winner(self, ot: _OutTask, slot: _ChunkSlot) -> Optional[bytes]:
        """The acceptance rule: the first quorum-endorsed digest with data."""
        quorum = self.topo.cluster(ot.vp_index).quorum
        for sigma, endorsers in slot.endorsements.items():
            if len(endorsers) >= quorum and sigma in slot.arrived:
                return sigma
        return None

    def _try_accept(
        self, task_id: str, ot: _OutTask, index: int, slot: _ChunkSlot
    ) -> None:
        if slot.accepted:
            return
        sigma = self._winner(ot, slot)
        if sigma is None:
            # not acceptable yet: something is late or someone is lying
            self._arm_wait_timer(task_id, index)
            return
        count = len(slot.pending[sigma].records)
        # from here on the slot is its σ and count: no chunk is kept
        slot.winner, slot.records = sigma, count
        slot.pending.clear()
        ot.accepted.add(index)
        self.cancel_timer(f"op-wait-{task_id}-{index}")
        self.chunks_accepted += 1
        self.records_accepted += count
        if self.wants(CATEGORY_TASK):
            self.emit(
                RecordsAccepted(
                    time=self.now,
                    pid=self.pid,
                    task_id=task_id,
                    count=count,
                )
            )
        if self.wants(CATEGORY_CHUNK):
            self.emit(
                ChunkAccepted(
                    time=self.now,
                    pid=self.pid,
                    task_id=task_id,
                    index=index,
                    records=count,
                )
            )
        self._check_complete(task_id, ot)

    def commit_record(self) -> dict:
        """What this OP committed: ``completed`` task ids, and per
        accepted slot ``"task:index"`` the accepted digest (hex, in
        ``chunks``) and its record count (``records``)."""
        chunks: dict[str, str] = {}
        records: dict[str, int] = {}
        for task_id, ot in self._tasks.items():
            for index, slot in ot.slots.items():
                if slot.accepted:
                    chunks[f"{task_id}:{index}"] = slot.winner.hex()
                    records[f"{task_id}:{index}"] = slot.records
        completed = sorted(t for t, ot in self._tasks.items() if ot.completed)
        return {"completed": completed, "chunks": chunks, "records": records}

    def _check_complete(self, task_id: str, ot: _OutTask) -> None:
        if ot.completed or ot.final_index is None:
            return
        if all(i in ot.accepted for i in range(ot.final_index + 1)):
            ot.completed = True
            for index in list(ot.slots):
                self.cancel_timer(f"op-wait-{task_id}-{index}")
            # the verifiers may now drop this task's output
            self.multicast(
                self.topo.cluster(ot.vp_index).members,
                OutputAckMsg(vp_index=ot.vp_index, task_id=task_id),
            )
            if self.wants(CATEGORY_TASK):
                self.emit(
                    TaskCompleted(
                        time=self.now, pid=self.pid, task_id=task_id
                    )
                )
                if ot.tenant:
                    # tenant-tagged runs additionally get the SLO record;
                    # untenanted traces never see it (byte-identity)
                    self.emit(
                        TaskOutcome(
                            time=self.now,
                            pid=self.pid,
                            task_id=task_id,
                            tenant=ot.tenant,
                            submitted_at=ot.submitted_at,
                        )
                    )

    # ----------------------------------------------------------- timeouts
    def _arm_wait_timer(self, task_id: str, index: int) -> None:
        name = f"op-wait-{task_id}-{index}"
        if self.timer_armed(name):
            return
        ot = self._tasks[task_id]
        slot = ot.slots[index]
        timeout = self.config.op_timeout * (2 ** min(slot.reports, 8))
        self.set_timer(name, timeout, self._on_wait_timeout, task_id, index)

    def _on_wait_timeout(self, task_id: str, index: int) -> None:
        ot = self._tasks.get(task_id)
        if ot is None or ot.completed:
            return
        slot = ot.slots.get(index)
        if slot is None or slot.accepted:
            return
        quorum = self.topo.cluster(ot.vp_index).quorum
        members = self.topo.cluster(ot.vp_index).members
        best = max(slot.endorsements.items(), key=lambda kv: len(kv[1]))
        sigma, endorsers = best
        slot.reports += 1
        if len(endorsers) >= quorum:
            # enough digests, no data: the leader is withholding C
            report = NegligentLeaderReport(
                vp_index=ot.vp_index,
                term=ot.neg_terms,
                task_id=task_id,
                index=index,
            )
            ot.neg_terms += 1
            self.multicast(members, report)
        else:
            # at least one but fewer than f+1 digests: equivocation path
            report = EquivocationReport(
                vp_index=ot.vp_index,
                task_id=task_id,
                index=index,
                digest=sigma,
            )
            self.multicast(members, report)
        self._arm_wait_timer(task_id, index)  # exponential backoff re-arm

    # ------------------------------------------------------- Byzantine OP
    def start_spurious_reports(self, vp_index: int, period: float = 0.2) -> None:
        """Fault injection: flood a sub-cluster with fake negligence
        reports (verifiers must eventually ignore this OP)."""
        if self.fault is None or not self.fault.spurious_reports:
            return
        term = [0]

        def fire() -> None:
            if self.crashed:
                return
            report = NegligentLeaderReport(
                vp_index=vp_index,
                term=term[0],
                task_id="bogus-task",
                index=0,
            )
            term[0] += 1
            self.multicast(self.topo.cluster(vp_index).members, report)
            self.set_timer("spurious", period, fire)

        self.set_timer("spurious", period, fire)
