"""Tasks, records, chunks and assignments — the data plane vocabulary.

Sec 4.1: applications operate on states S, records R and tasks T with a
pair of functions ⟨U, A⟩.  A :class:`Task` carries an opcode saying
whether it triggers U (state update), A (computation), or both.  VP_CO's
consensus assigns each task a monotonically increasing logical timestamp;
computation-only tasks inherit the timestamp of the latest state update
(Sec 5.1.1), pinning them to a store snapshot.

Records are ordered by an application-defined ``key`` (the basis of the
default ``happens_before``); executors stream them to verifiers in
*chunks* — disjoint subsequences of the task's output (Sec 5, "Task
Batches & Record Chunks").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Any

from repro.crypto.digest import digest
from repro.errors import ProtocolError

__all__ = ["Opcode", "Task", "Record", "Assignment", "Chunk", "chunk_records"]


class Opcode(enum.Enum):
    """What a task asks for: U, A, or both (Sec 4.1's four use cases)."""

    UPDATE = "update"
    COMPUTE = "compute"
    BOTH = "both"

    @property
    def has_update(self) -> bool:
        return self in (Opcode.UPDATE, Opcode.BOTH)

    @property
    def has_compute(self) -> bool:
        return self in (Opcode.COMPUTE, Opcode.BOTH)


@dataclass(frozen=True)
class Task:
    """An input task.

    ``timestamp`` is -1 until VP_CO linearizes the task; the coordinator
    then re-issues the task with its logical timestamp filled in.
    """

    task_id: str
    opcode: Opcode
    update_payload: Any = None
    compute_payload: Any = None
    timestamp: int = -1
    submitted_at: float = 0.0
    size_bytes: int = 64
    #: Owning tenant in multi-tenant deployments; "" means untenanted
    #: (the single-pipeline legacy shape).  Deliberately excluded from
    #: ``canonical()`` so tenancy metadata never perturbs digests or
    #: coordinator signatures.
    tenant: str = ""

    def canonical(self) -> list:
        return [self.task_id, self.opcode.value, self.timestamp]

    def with_timestamp(self, ts: int) -> "Task":
        """Copy of the task pinned at logical timestamp ``ts``."""
        return Task(
            task_id=self.task_id,
            opcode=self.opcode,
            update_payload=self.update_payload,
            compute_payload=self.compute_payload,
            timestamp=ts,
            submitted_at=self.submitted_at,
            size_bytes=self.size_bytes,
            tenant=self.tenant,
        )


@dataclass(frozen=True)
class Record:
    """One output record.

    ``key`` must be a tuple of orderable scalars; the executing worker's
    process-local program order (Task-Ordered property) is the
    lexicographic order of keys, and duplicate keys within one task's
    output are illegal (A(s, t) is totally ordered, Sec 4.3).
    """

    key: tuple
    data: Any = None
    size_bytes: int = 64

    def canonical(self) -> list:
        return [list(self.key), self.data, self.size_bytes]


@dataclass(frozen=True)
class Assignment:
    """⟨t, E, i⟩ — task ``t`` executed by ``executor``, verified by VP_i.

    ``attempt`` distinguishes speculative reassignments of the same task;
    executors and verifiers require f+1 coordinator signatures over the
    exact tuple before acting on it (coordination-free task assignment,
    Sec 5.1.1).
    """

    task: Task
    executor: str
    vp_index: int
    attempt: int = 0

    @property
    def key(self) -> tuple[str, int]:
        return (self.task.task_id, self.attempt)

    def signed_payload(self) -> list:
        return [
            "assign",
            self.task.task_id,
            self.task.timestamp,
            self.executor,
            self.vp_index,
            self.attempt,
        ]


@dataclass(frozen=True)
class Chunk:
    """A disjoint subsequence of one task's output records."""

    task_id: str
    index: int
    records: tuple[Record, ...]
    final: bool

    @cached_property
    def sigma(self) -> bytes:
        """σ(C), computed once per chunk object.

        In one process the executor, every verifier and the OP hold the
        same object, so they share one digest.  The memo lives in the
        instance ``__dict__``, outside the dataclass fields, so ``==``,
        ``hash``, ``replace`` and the codec never see it.  A tampered
        chunk is a new object and gets its own digest.
        """
        return digest(self)

    def payload_bytes(self) -> int:
        return sum(r.size_bytes for r in self.records)

    def canonical(self) -> list:
        return [
            self.task_id,
            self.index,
            [r.canonical() for r in self.records],
            self.final,
        ]


def chunk_records(
    task_id: str, records: list[Record], max_bytes: int
) -> list[Chunk]:
    """Split a record sequence into chunks of at most ``max_bytes`` payload.

    Always returns at least one chunk (a final, possibly empty one) so
    that the "final chunk" completion signal exists even for empty
    outputs.
    """
    if max_bytes <= 0:
        raise ProtocolError(f"max_bytes must be positive, got {max_bytes}")
    chunks: list[Chunk] = []
    current: list[Record] = []
    size = 0
    for rec in records:
        if current and size + rec.size_bytes > max_bytes:
            chunks.append(
                Chunk(task_id, len(chunks), tuple(current), final=False)
            )
            current, size = [], 0
        current.append(rec)
        size += rec.size_bytes
    chunks.append(Chunk(task_id, len(chunks), tuple(current), final=True))
    return chunks
