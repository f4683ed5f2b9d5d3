"""Typed trace events for the observability bus.

Every event carries the simulated ``time`` it happened at and the ``pid``
of the emitting process ("kernel" for kernel-level events).  Events are
grouped into *categories* — the unit of sink subscription and of the
cheap :meth:`~repro.obs.bus.EventBus.wants` check that guards hot paths:

========== ==================================================================
category   events
========== ==================================================================
task       TaskSubmitted, TaskLinearized, TaskAssigned, TaskReassigned,
           TaskFallback, TaskCompleted, TaskOutcome, RecordsAccepted,
           TaskAdmitted, TaskDeferred, TaskRejected
chunk      ChunkEmitted, ChunkVerified, ChunkAccepted
consensus  ConsensusCommit, ViewChange
fault      FaultDetected, RoleSwitch, LeaderElection, EquivocationReported
cpu        CpuSpan, CpuCancel
net        LinkTransfer
kernel     KernelEventFired
replay     ReplayInput, ReplayEffect
adversary  AdversaryPhase, AdversaryAction, AdversaryTrigger
gateway    GatewayConnected, GatewayClosed, GatewayAdmission
========== ==================================================================

Events are plain frozen dataclasses of JSON-serializable primitives, so
any sink can persist them without custom encoders (:meth:`as_dict`).
Emission sites never schedule simulator events or consume RNG — tracing
is behavior-neutral by construction.  The ``adversary`` category is the
one deliberate exception to *observational* neutrality: those events
record the campaign engine's own interventions (which perturb the run,
by design), but emitting them still consumes no RNG and the events
themselves schedule nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar

__all__ = [
    "CATEGORY_TASK",
    "CATEGORY_CHUNK",
    "CATEGORY_CONSENSUS",
    "CATEGORY_FAULT",
    "CATEGORY_CPU",
    "CATEGORY_NET",
    "CATEGORY_KERNEL",
    "CATEGORY_REPLAY",
    "CATEGORY_ADVERSARY",
    "CATEGORY_GATEWAY",
    "ALL_CATEGORIES",
    "TraceEvent",
    "TaskSubmitted",
    "TaskLinearized",
    "TaskAssigned",
    "TaskReassigned",
    "TaskFallback",
    "TaskCompleted",
    "TaskOutcome",
    "TaskAdmitted",
    "TaskDeferred",
    "TaskRejected",
    "RecordsAccepted",
    "ChunkEmitted",
    "ChunkVerified",
    "ChunkAccepted",
    "ConsensusCommit",
    "ViewChange",
    "FaultDetected",
    "RoleSwitch",
    "LeaderElection",
    "EquivocationReported",
    "CpuSpan",
    "CpuCancel",
    "LinkTransfer",
    "KernelEventFired",
    "ReplayInput",
    "ReplayEffect",
    "AdversaryPhase",
    "AdversaryAction",
    "AdversaryTrigger",
    "GatewayConnected",
    "GatewayClosed",
    "GatewayAdmission",
]

CATEGORY_TASK = "task"
CATEGORY_CHUNK = "chunk"
CATEGORY_CONSENSUS = "consensus"
CATEGORY_FAULT = "fault"
CATEGORY_CPU = "cpu"
CATEGORY_NET = "net"
CATEGORY_KERNEL = "kernel"
CATEGORY_REPLAY = "replay"
CATEGORY_ADVERSARY = "adversary"
CATEGORY_GATEWAY = "gateway"

ALL_CATEGORIES = frozenset(
    {
        CATEGORY_TASK,
        CATEGORY_CHUNK,
        CATEGORY_CONSENSUS,
        CATEGORY_FAULT,
        CATEGORY_CPU,
        CATEGORY_NET,
        CATEGORY_KERNEL,
        CATEGORY_REPLAY,
        CATEGORY_ADVERSARY,
        CATEGORY_GATEWAY,
    }
)


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """Base trace event: simulated timestamp plus emitting process id."""

    category: ClassVar[str] = ""
    kind: ClassVar[str] = ""

    time: float
    pid: str

    def as_dict(self) -> dict[str, Any]:
        """Flat JSON-serializable view, with ``kind``/``cat`` discriminators."""
        d: dict[str, Any] = {"kind": self.kind, "cat": self.category}
        for f in fields(self):
            d[f.name] = getattr(self, f.name)
        return d


# ------------------------------------------------------------------ task
@dataclass(frozen=True, slots=True)
class TaskSubmitted(TraceEvent):
    """IP handed a task to the coordinator cluster."""

    category: ClassVar[str] = CATEGORY_TASK
    kind: ClassVar[str] = "task-submitted"

    task_id: str


@dataclass(frozen=True, slots=True)
class TaskLinearized(TraceEvent):
    """VP_CO consensus assigned the task its linearization timestamp."""

    category: ClassVar[str] = CATEGORY_TASK
    kind: ClassVar[str] = "task-linearized"

    task_id: str
    timestamp: int


@dataclass(frozen=True, slots=True)
class TaskAssigned(TraceEvent):
    """Coordinator dispatched a task to an executor."""

    category: ClassVar[str] = CATEGORY_TASK
    kind: ClassVar[str] = "task-assigned"

    task_id: str
    executor: str
    attempt: int


@dataclass(frozen=True, slots=True)
class TaskReassigned(TraceEvent):
    """VP_CO speculatively reassigned a task (timeout or blacklist)."""

    category: ClassVar[str] = CATEGORY_TASK
    kind: ClassVar[str] = "task-reassigned"

    task_id: str
    attempt: int


@dataclass(frozen=True, slots=True)
class TaskFallback(TraceEvent):
    """A task fell back to execution by a verifier sub-cluster."""

    category: ClassVar[str] = CATEGORY_TASK
    kind: ClassVar[str] = "task-fallback"

    task_id: str


@dataclass(frozen=True, slots=True)
class TaskCompleted(TraceEvent):
    """An OP saw the final verified chunk of a task."""

    category: ClassVar[str] = CATEGORY_TASK
    kind: ClassVar[str] = "task-completed"

    task_id: str


@dataclass(frozen=True, slots=True)
class TaskOutcome(TraceEvent):
    """Tenant-tagged completion: OP-side SLO record for one task.

    Emitted *in addition to* :class:`TaskCompleted`, and only for tasks
    carrying a tenant (i.e. multi-tenant/open-loop runs) — legacy traces
    never contain it, keeping golden fixtures byte-identical.
    """

    category: ClassVar[str] = CATEGORY_TASK
    kind: ClassVar[str] = "task-outcome"

    task_id: str
    tenant: str
    submitted_at: float


@dataclass(frozen=True, slots=True)
class TaskAdmitted(TraceEvent):
    """IP admission control forwarded a task into the pipeline.

    Counts *forwards*, not ADMITTED verdicts: a task deferred at its
    verdict still yields one ``TaskAdmitted`` when it is forwarded (the
    gateway's ``gate.admitted``, by contrast, counts ADMITTED verdicts).
    Only emitted when admission control is configured
    (``OsirisConfig.admission_queue`` / ``admission_rate``).
    """

    category: ClassVar[str] = CATEGORY_TASK
    kind: ClassVar[str] = "task-admitted"

    task_id: str
    tenant: str


@dataclass(frozen=True, slots=True)
class TaskDeferred(TraceEvent):
    """IP admission control queued a task behind the drain rate."""

    category: ClassVar[str] = CATEGORY_TASK
    kind: ClassVar[str] = "task-deferred"

    task_id: str
    tenant: str
    queue_depth: int


@dataclass(frozen=True, slots=True)
class TaskRejected(TraceEvent):
    """IP admission control shed a task (ingress queue full)."""

    category: ClassVar[str] = CATEGORY_TASK
    kind: ClassVar[str] = "task-rejected"

    task_id: str
    tenant: str


@dataclass(frozen=True, slots=True)
class RecordsAccepted(TraceEvent):
    """An OP accepted ``count`` verified output records."""

    category: ClassVar[str] = CATEGORY_TASK
    kind: ClassVar[str] = "records-accepted"

    task_id: str
    count: int


# ----------------------------------------------------------------- chunk
@dataclass(frozen=True, slots=True)
class ChunkEmitted(TraceEvent):
    """An execution engine streamed out one output chunk."""

    category: ClassVar[str] = CATEGORY_CHUNK
    kind: ClassVar[str] = "chunk-emitted"

    task_id: str
    index: int
    records: int
    nbytes: int
    final: bool


@dataclass(frozen=True, slots=True)
class ChunkVerified(TraceEvent):
    """A verifier judged a chunk correct and voted for acceptance."""

    category: ClassVar[str] = CATEGORY_CHUNK
    kind: ClassVar[str] = "chunk-verified"

    task_id: str
    index: int
    records: int


@dataclass(frozen=True, slots=True)
class ChunkAccepted(TraceEvent):
    """An OP collected an acceptance quorum for a chunk."""

    category: ClassVar[str] = CATEGORY_CHUNK
    kind: ClassVar[str] = "chunk-accepted"

    task_id: str
    index: int
    records: int


# ------------------------------------------------------------- consensus
@dataclass(frozen=True, slots=True)
class ConsensusCommit(TraceEvent):
    """A consensus member committed entries up to ``seq``."""

    category: ClassVar[str] = CATEGORY_CONSENSUS
    kind: ClassVar[str] = "consensus-commit"

    seq: int
    batch: int


@dataclass(frozen=True, slots=True)
class ViewChange(TraceEvent):
    """A consensus member entered a new view."""

    category: ClassVar[str] = CATEGORY_CONSENSUS
    kind: ClassVar[str] = "view-change"

    view: int


# ----------------------------------------------------------------- fault
@dataclass(frozen=True, slots=True)
class FaultDetected(TraceEvent):
    """A verifier proved a process faulty (``reason`` names the check)."""

    category: ClassVar[str] = CATEGORY_FAULT
    kind: ClassVar[str] = "fault-detected"

    reason: str
    culprit: str


@dataclass(frozen=True, slots=True)
class RoleSwitch(TraceEvent):
    """A verifier sub-cluster switched between verifier/executor roles."""

    category: ClassVar[str] = CATEGORY_FAULT
    kind: ClassVar[str] = "role-switch"

    vp_index: int
    to_executor: bool


@dataclass(frozen=True, slots=True)
class LeaderElection(TraceEvent):
    """A sub-cluster elected a new leader after a negligence report."""

    category: ClassVar[str] = CATEGORY_FAULT
    kind: ClassVar[str] = "leader-election"

    vp_index: int
    term: int


@dataclass(frozen=True, slots=True)
class EquivocationReported(TraceEvent):
    """An OP reported a partially-delivered chunk digest set."""

    category: ClassVar[str] = CATEGORY_FAULT
    kind: ClassVar[str] = "equivocation-reported"

    task_id: str
    index: int


# ------------------------------------------------------------------- cpu
@dataclass(frozen=True, slots=True)
class CpuSpan(TraceEvent):
    """One job occupying one core of a CPU bank from ``time`` to ``end``."""

    category: ClassVar[str] = CATEGORY_CPU
    kind: ClassVar[str] = "cpu-span"

    bank: str
    core: int
    end: float


@dataclass(frozen=True, slots=True)
class CpuCancel(TraceEvent):
    """A pending job was cancelled; its span's unrun tail (``reclaimed``
    seconds before ``end``) was released back to the core."""

    category: ClassVar[str] = CATEGORY_CPU
    kind: ClassVar[str] = "cpu-cancel"

    bank: str
    core: int
    end: float
    reclaimed: float


# ------------------------------------------------------------------- net
@dataclass(frozen=True, slots=True)
class LinkTransfer(TraceEvent):
    """One message crossing a link; ``pid`` is the sender."""

    category: ClassVar[str] = CATEGORY_NET
    kind: ClassVar[str] = "link-transfer"

    dst: str
    nbytes: int
    msg_type: str
    deliver_at: float
    neq: bool


# ---------------------------------------------------------------- kernel
@dataclass(frozen=True, slots=True)
class KernelEventFired(TraceEvent):
    """The DES kernel fired its ``count``-th event."""

    category: ClassVar[str] = CATEGORY_KERNEL
    kind: ClassVar[str] = "kernel-event-fired"

    count: int


# ------------------------------------------------------------- adversary
@dataclass(frozen=True, slots=True)
class AdversaryPhase(TraceEvent):
    """A campaign phase became active (its actions follow immediately)."""

    category: ClassVar[str] = CATEGORY_ADVERSARY
    kind: ClassVar[str] = "adversary-phase"

    campaign: str
    phase: str


@dataclass(frozen=True, slots=True)
class AdversaryAction(TraceEvent):
    """The campaign engine set/cleared a fault strategy on ``target``."""

    category: ClassVar[str] = CATEGORY_ADVERSARY
    kind: ClassVar[str] = "adversary-action"

    campaign: str
    op: str
    target: str
    role: str
    fault: str


@dataclass(frozen=True, slots=True)
class AdversaryTrigger(TraceEvent):
    """An adaptive trigger matched a protocol event and fired."""

    category: ClassVar[str] = CATEGORY_ADVERSARY
    kind: ClassVar[str] = "adversary-trigger"

    campaign: str
    trigger: str
    on: str


# --------------------------------------------------------------- gateway
@dataclass(frozen=True, slots=True)
class GatewayConnected(TraceEvent):
    """A client connection was accepted by the serve gateway.

    ``pid`` is the gateway's own id; ``conn`` is the gateway-assigned
    connection id the client's tasks are tracked under.
    """

    category: ClassVar[str] = CATEGORY_GATEWAY
    kind: ClassVar[str] = "gateway-connected"

    conn: str
    peer: str


@dataclass(frozen=True, slots=True)
class GatewayClosed(TraceEvent):
    """A client connection ended; ``submitted`` tasks were sent on it."""

    category: ClassVar[str] = CATEGORY_GATEWAY
    kind: ClassVar[str] = "gateway-closed"

    conn: str
    submitted: int


@dataclass(frozen=True, slots=True)
class GatewayAdmission(TraceEvent):
    """The gateway's admission control decided one submitted task.

    ``status`` is the backpressure reply sent to the client —
    ``admitted``, ``deferred`` (queued behind the drain rate) or
    ``rejected`` (ingress queue full, task shed).
    """

    category: ClassVar[str] = CATEGORY_GATEWAY
    kind: ClassVar[str] = "gateway-admission"

    task_id: str
    tenant: str
    status: str
    queue_depth: int


# ---------------------------------------------------------------- replay
@dataclass(frozen=True, slots=True)
class ReplayInput(TraceEvent):
    """One input consumed by a capture-enabled core (see
    :mod:`repro.runtime.replay`): a delivered message (``ref`` holds the
    codec-encoded wire form), a timer fire (``ref`` is the timer name),
    a job/ctrl-job completion (``ref`` is the core-assigned job id), a
    streaming milestone (``"jobid:index"``) or a raw scheduled callback
    (``ref`` is the sched id)."""

    category: ClassVar[str] = CATEGORY_REPLAY
    kind: ClassVar[str] = "replay-input"

    input_kind: str
    ref: str


@dataclass(frozen=True, slots=True)
class ReplayEffect(TraceEvent):
    """Signature of one effect a capture-enabled core performed."""

    category: ClassVar[str] = CATEGORY_REPLAY
    kind: ClassVar[str] = "replay-effect"

    signature: str
