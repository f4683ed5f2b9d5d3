"""Wire messages of the OsirisBFT data and control planes.

Message flow (Fig 4): IP → VP_CO (task submission via consensus) →
{EP, WP} (assignments, state updates) → VP_i (record chunks + digests) →
OP (verified chunks).  Control messages cover speculative reassignment,
negligent-leader reports/elections, equivocation recovery, and dynamic
role-switching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.tasks import Assignment, Chunk, Task
from repro.crypto.signatures import Signature
from repro.net.message import Message

__all__ = [
    "StateUpdateMsg",
    "AssignmentMsg",
    "ChunkMsg",
    "ChunkDigestMsg",
    "VerifiedChunkMsg",
    "VerifiedDigestMsg",
    "OutputAckMsg",
    "OutputSizeReport",
    "VerifierLoadReport",
    "SuspectExecutorMsg",
    "TaskCompleteMsg",
    "NegligentLeaderReport",
    "LeaderElectMsg",
    "EquivocationReport",
    "ChunkShareMsg",
    "RoleSwitchMsg",
    "FallbackExecuteMsg",
]


# --------------------------------------------------------------------- [P2]
@dataclass
class StateUpdateMsg(Message):
    """VP_CO member → all WP: a linearized state update.

    Receivers apply after f+1 copies with identical (timestamp, task_id)
    from distinct VP_CO members.
    """

    task: Optional[Task] = None
    sig: Optional[Signature] = None

    def payload_bytes(self) -> int:
        return self.task.size_bytes + 64

    def signed_payload(self) -> list:
        return ["state-update", self.task.task_id, self.task.timestamp]


@dataclass
class AssignmentMsg(Message):
    """VP_CO member → executor and VP_i members: signed ⟨t, E, i⟩."""

    assignment: Optional[Assignment] = None
    sig: Optional[Signature] = None

    def payload_bytes(self) -> int:
        return self.assignment.task.size_bytes + 96


# --------------------------------------------------------------------- [P3]
@dataclass
class ChunkMsg(Message):
    """Executor → 2f+1 verifiers of VP_i: a record chunk.

    Carries the assignment and its f+1 VP_CO signatures prepended
    (coordination-free task assignment, Sec 5.1.1) so verifiers can act
    even before their own copies of the assignment arrive.
    """

    chunk: Optional[Chunk] = None
    assignment: Optional[Assignment] = None
    assignment_sigs: tuple[Signature, ...] = ()

    def payload_bytes(self) -> int:
        return self.chunk.payload_bytes() + 96 * len(self.assignment_sigs)


@dataclass
class ChunkDigestMsg(Message):
    """Executor → VP_i via non-equivocating multicast: σ(C)."""

    task_id: str = ""
    attempt: int = 0
    index: int = 0
    digest: bytes = b""

    def payload_bytes(self) -> int:
        return 96


# --------------------------------------------------------------------- [P4]
@dataclass
class VerifiedChunkMsg(Message):
    """VP_i leader → OP: verified chunk with its digest."""

    vp_index: int = 0
    task_id: str = ""
    index: int = 0
    final: bool = False
    chunk: Optional[Chunk] = None
    digest: bytes = b""
    total_records: int = 0
    #: tenant metadata for the OP's SLO accounting; "" on legacy
    #: (untenanted) traffic.  Deliberately excluded from payload_bytes —
    #: it rides in the 96-byte header allowance.
    tenant: str = ""
    submitted_at: float = 0.0

    def payload_bytes(self) -> int:
        return self.chunk.payload_bytes() + 96


@dataclass
class VerifiedDigestMsg(Message):
    """VP_i non-leader → OP: digest-only endorsement of a chunk."""

    vp_index: int = 0
    task_id: str = ""
    index: int = 0
    final: bool = False
    digest: bytes = b""
    total_records: int = 0
    tenant: str = ""
    submitted_at: float = 0.0

    def payload_bytes(self) -> int:
        return 96


@dataclass
class OutputAckMsg(Message):
    """OP → VP_i members: every chunk of the task is accepted.

    Unsigned: the link authenticates the sender, and an ack only lets
    verifiers drop output bound for the OP that sent it.
    """

    vp_index: int = 0
    task_id: str = ""

    def payload_bytes(self) -> int:
        return 64


# ----------------------------------------------------------------- control
@dataclass
class OutputSizeReport(Message):
    """VP_i member → VP_CO: ⟨t.id, numRecords⟩ for workload balancing."""

    task_id: str = ""
    count: int = 0

    def payload_bytes(self) -> int:
        return 72


@dataclass
class VerifierLoadReport(Message):
    """Verifier → VP_CO: recent CPU utilization, the role-switching
    signal (Sec 5.3: "when verifier resource utilization is low...")."""

    vp_index: int = 0
    utilization: float = 0.0
    pending_chunks: int = 0

    def payload_bytes(self) -> int:
        return 64


@dataclass
class SuspectExecutorMsg(Message):
    """VP_i member → VP_CO members: executor suspected faulty for a task.

    Sent on reassignment timeout or on detected output failure; VP_CO
    reassigns on f+1 distinct reports from the task's assigned VP_i.
    """

    task_id: str = ""
    attempt: int = 0
    executor: str = ""
    byzantine: bool = False  # True: proven fault; False: timeout suspicion
    sig: Optional[Signature] = None

    def payload_bytes(self) -> int:
        return 128

    def signed_payload(self) -> list:
        return [
            "suspect",
            self.task_id,
            self.attempt,
            self.executor,
            self.byzantine,
        ]


@dataclass
class TaskCompleteMsg(Message):
    """VP_i member → VP_CO members: a task's output fully verified."""

    task_id: str = ""
    attempt: int = 0
    count: int = 0
    sig: Optional[Signature] = None

    def payload_bytes(self) -> int:
        return 96

    def signed_payload(self) -> list:
        return ["complete", self.task_id, self.attempt, self.count]


@dataclass
class NegligentLeaderReport(Message):
    """OP → VP_i members: digests arrived but the leader withheld data."""

    vp_index: int = 0
    term: int = 0
    task_id: str = ""
    index: int = 0

    def payload_bytes(self) -> int:
        return 96


@dataclass
class LeaderElectMsg(Message):
    """VP_i member → VP_i members: vote to advance the leadership term."""

    vp_index: int = 0
    new_term: int = 0
    sig: Optional[Signature] = None

    def payload_bytes(self) -> int:
        return 80

    def signed_payload(self) -> list:
        return ["elect", self.vp_index, self.new_term]


@dataclass
class EquivocationReport(Message):
    """OP → VP_i members: some but fewer than f+1 digests for a chunk.

    Verifiers holding the matching chunk re-share it within the
    sub-cluster (Sec 5.2.2, "Limited Equivocation").
    """

    vp_index: int = 0
    task_id: str = ""
    index: int = 0
    digest: bytes = b""

    def payload_bytes(self) -> int:
        return 112


@dataclass
class ChunkShareMsg(Message):
    """VP_i member → VP_i members: re-share of a chunk after an
    equivocation report."""

    task_id: str = ""
    attempt: int = 0
    index: int = 0
    chunk: Optional[Chunk] = None
    assignment: Optional[Assignment] = None
    assignment_sigs: tuple[Signature, ...] = ()

    def payload_bytes(self) -> int:
        return self.chunk.payload_bytes() + 96


@dataclass
class RoleSwitchMsg(Message):
    """VP_CO member → VP_i member: switch between verifier/executor modes.

    Receivers act on f+1 copies with the same epoch from distinct VP_CO
    members.
    """

    vp_index: int = 0
    epoch: int = 0
    to_executor: bool = False
    sig: Optional[Signature] = None

    def payload_bytes(self) -> int:
        return 96

    def signed_payload(self) -> list:
        return ["role-switch", self.vp_index, self.epoch, self.to_executor]


@dataclass
class FallbackExecuteMsg(Message):
    """VP_CO member → VP_j members: liveness fallback (Lemma 6.4).

    After exhausting executor reassignments, the task is executed by the
    verifier sub-cluster itself: each member runs A locally and sends
    results straight to OP ([P4]).
    """

    task: Optional[Task] = None
    vp_index: int = 0
    sig: Optional[Signature] = None

    def payload_bytes(self) -> int:
        return self.task.size_bytes + 96

    def signed_payload(self) -> list:
        return ["fallback", self.task.task_id, self.vp_index]
