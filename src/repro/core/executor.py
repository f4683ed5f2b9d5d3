"""Task execution: the EP role and the shared execution engine.

Executors are the untrusted muscle of OsirisBFT: they execute each
computation task exactly once (no replication) and stream record chunks
to the task's assigned verifier sub-cluster ([P3] of Fig 4, lines 23-31
of Algorithm 3).  Safety never depends on them — Sec 3: "safety is not
compromised even if all processes in EP are faulty" — so this code path
is also where Byzantine behaviour is injected.

The actual execution logic lives in :class:`ExecutionEngine`, a
component shared by three hosts: plain executors, verifiers that
switched roles (Sec 5.3), and verifiers running the liveness fallback
(Lemma 6.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.faults import ExecutorFault
from repro.core.messages import AssignmentMsg, ChunkDigestMsg, ChunkMsg
from repro.core.tasks import Assignment, Chunk, Record, chunk_records
from repro.core.worker import WorkerBase
from repro.crypto.signatures import Signature, verify_cost
from repro.obs.events import CATEGORY_CHUNK, ChunkEmitted

__all__ = ["ExecutionEngine", "Executor"]


@dataclass
class _PendingAssignment:
    assignment: Optional[Assignment] = None
    sigs: dict[str, Signature] = field(default_factory=dict)
    started: bool = False


class ExecutionEngine:
    """Collects signed assignments, executes tasks, streams chunks.

    An executor acts on a task only after f+1 matching signed assignment
    messages from distinct VP_CO members (coordination-free assignment,
    Sec 5.1.1); those signatures are prepended to every outgoing chunk so
    verifiers can authenticate the assignment without waiting for their
    own copies.

    Ready tasks queue locally and claim a core one at a time, so a task
    that VP_CO reassigned elsewhere can still be **cancelled** while
    queued (observing f+1 copies of the superseding assignment) — without
    this, speculative reassignment would duplicate whole backlogs instead
    of individual in-flight tasks.
    """

    def __init__(self, host: WorkerBase) -> None:
        self.host = host
        #: Byzantine strategy, installed by ``repro.runtime.plan.install_fault``
        self.fault: Optional[ExecutorFault] = None
        self._pending: dict[tuple[str, int], _PendingAssignment] = {}
        self._foreign: dict[tuple[str, int], set[str]] = {}
        self._completed: set[tuple[str, int]] = set()
        self._ready: list[tuple[Assignment, tuple[Signature, ...]]] = []
        self._in_flight = 0
        self.tasks_executed = 0
        self.tasks_cancelled = 0

    # ------------------------------------------------------------ assignment
    def handle_assignment(self, msg: AssignmentMsg) -> None:
        """Process one VP_CO member's signed ⟨t, E, i⟩ (Algorithm 3 l.24)."""
        host = self.host
        a = msg.assignment
        if a is None or not a.task.opcode.has_compute:
            return
        if msg.sender not in host.topo.coordinator.members:
            return
        if msg.sig is None or msg.sig.signer != msg.sender:
            return
        if not host.registry.verify(a.signed_payload(), msg.sig):
            return
        quorum = host.topo.coordinator.quorum
        if a.executor != host.pid:
            # f+1 copies of a superseding assignment prove VP_CO moved the
            # task away: drop any queued (not yet started) older attempt
            voters = self._foreign.setdefault(a.key, set())
            voters.add(msg.sender)
            if len(voters) >= quorum:
                self._cancel_older(a.task.task_id, a.attempt)
            return
        entry = self._pending.setdefault(a.key, _PendingAssignment())
        if entry.assignment is None:
            entry.assignment = a
        elif entry.assignment.signed_payload() != a.signed_payload():
            return  # conflicting copy; only identical tuples accumulate
        entry.sigs[msg.sig.signer] = msg.sig
        if len(entry.sigs) >= quorum and not entry.started:
            entry.started = True
            sigs = tuple(entry.sigs.values())[:quorum]
            ts = a.task.timestamp
            host.store.when_ready(ts, lambda: self._enqueue(a, sigs))

    def _cancel_older(self, task_id: str, attempt: int) -> None:
        before = len(self._ready)
        self._ready = [
            (a, s)
            for a, s in self._ready
            if not (a.task.task_id == task_id and a.attempt < attempt)
        ]
        self.tasks_cancelled += before - len(self._ready)

    # -------------------------------------------------------------- execute
    def _enqueue(self, a: Assignment, sigs: tuple[Signature, ...]) -> None:
        host = self.host
        if host.crashed or a.key in self._completed:
            return
        self._ready.append((a, sigs))
        self._try_start()

    def _try_start(self) -> None:
        host = self.host
        while self._in_flight < host.cpu.cores and self._ready:
            a, sigs = self._ready.pop(0)
            if a.key in self._completed:
                continue
            self._completed.add(a.key)
            self._in_flight += 1
            self._run(a, sigs)

    def _run(self, a: Assignment, sigs: tuple[Signature, ...]) -> None:
        host = self.host
        fault = self.fault if self._fault_active() else None
        if fault is not None and fault.silent(a.task):
            # accepts the assignment, never outputs: omission (the core is
            # released — a silent process isn't even doing the work)
            self._in_flight -= 1
            return
        view = host.store.view(a.task.timestamp)
        result = host.app.compute(view, a.task)
        self.tasks_executed += 1
        records = list(result.records)
        cost = result.cost + verify_cost(len(sigs))
        if fault is not None:
            records = fault.transform_records(a.task, records)
            cost += fault.extra_delay(a.task)
        chunks = chunk_records(a.task.task_id, records, host.config.chunk_bytes)
        if fault is not None:
            chunks = fault.transform_chunks(a.task, chunks)
        # Occupy a core for the full compute duration; stream chunk i at the
        # (i+1)/k fraction of the job so verification overlaps execution.
        # The completion callback is *unguarded* — slot accounting must run
        # even on a crashed host — and the milestone callbacks re-check
        # ``crashed`` themselves, exactly like the raw pre-refactor path.
        k = len(chunks)
        host.run_raw_job(
            cost,
            self._task_done,
            milestones=tuple(
                (cost * (i + 1) / k, self._emit, (a, sigs, chunk, fault))
                for i, chunk in enumerate(chunks)
            ),
        )

    def _task_done(self) -> None:
        self._in_flight -= 1
        self._try_start()

    def _fault_active(self) -> bool:
        return self.fault is not None and self.fault.active(self.host.now)

    # ----------------------------------------------------------------- emit
    def _emit(
        self,
        a: Assignment,
        sigs: tuple[Signature, ...],
        chunk: Chunk,
        fault: Optional[ExecutorFault],
    ) -> None:
        host = self.host
        if host.crashed:
            return
        if fault is not None and chunk.final and fault.suppress_final_chunk(a.task):
            return
        members = host.topo.cluster(a.vp_index).members
        sigma = chunk.sigma
        if host.wants(CATEGORY_CHUNK):
            host.emit(
                ChunkEmitted(
                    time=host.now,
                    pid=host.pid,
                    task_id=chunk.task_id,
                    index=chunk.index,
                    records=len(chunk.records),
                    nbytes=chunk.payload_bytes(),
                    final=chunk.final,
                )
            )
        if fault is not None and fault.equivocate(a.task):
            # plain-channel equivocation: different verifiers see different
            # contents; the digest below still travels via the primitive
            # and exposes the lie.
            for j, pid in enumerate(members):
                variant = chunk
                if j >= host.topo.coordinator.quorum:
                    tampered = tuple(
                        Record(r.key, "<equivocated>", r.size_bytes)
                        for r in chunk.records
                    )
                    variant = Chunk(chunk.task_id, chunk.index, tampered, chunk.final)
                host.send(
                    pid,
                    ChunkMsg(chunk=variant, assignment=a, assignment_sigs=sigs),
                )
        else:
            msg = ChunkMsg(chunk=chunk, assignment=a, assignment_sigs=sigs)
            host.multicast(members, msg)
        host.neq_multicast(
            members,
            ChunkDigestMsg(
                task_id=a.task.task_id,
                attempt=a.attempt,
                index=chunk.index,
                digest=sigma,
            ),
        )


class Executor(WorkerBase):
    """A plain EP member: state replica + execution engine."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.engine = ExecutionEngine(self)

    def on_AssignmentMsg(self, msg: AssignmentMsg) -> None:
        self.engine.handle_assignment(msg)
