"""Structured observability: typed trace events, bus, and sinks.

This package is the instrumentation spine of the reproduction.  The DES
kernel owns one :class:`EventBus` per deployment (``sim.bus``); every
layer emits typed :mod:`~repro.obs.events` through it, guarded by the
O(1) :meth:`EventBus.wants` check so untraced runs pay (almost) nothing.
The JSONL and Chrome ``trace_event`` exporters consume the stream as
sinks, as does :class:`repro.obs.metrics.MetricsHub`, the one metrics
sink of every backend.  The hub is not imported here: a live child
loads this package for its events and never needs the hub.
"""

from repro.obs.bus import EventBus, Sink
from repro.obs.events import (
    ALL_CATEGORIES,
    CATEGORY_CHUNK,
    CATEGORY_CONSENSUS,
    CATEGORY_CPU,
    CATEGORY_FAULT,
    CATEGORY_KERNEL,
    CATEGORY_NET,
    CATEGORY_REPLAY,
    CATEGORY_TASK,
    ChunkAccepted,
    ChunkEmitted,
    ChunkVerified,
    ConsensusCommit,
    CpuSpan,
    EquivocationReported,
    FaultDetected,
    KernelEventFired,
    LeaderElection,
    LinkTransfer,
    RecordsAccepted,
    ReplayEffect,
    ReplayInput,
    RoleSwitch,
    TaskAdmitted,
    TaskAssigned,
    TaskCompleted,
    TaskDeferred,
    TaskFallback,
    TaskLinearized,
    TaskOutcome,
    TaskReassigned,
    TaskRejected,
    TaskSubmitted,
    TraceEvent,
    ViewChange,
)
from repro.obs.sinks import ChromeTraceSink, CollectorSink, JsonlTraceSink

__all__ = [
    "EventBus",
    "Sink",
    "CollectorSink",
    "JsonlTraceSink",
    "ChromeTraceSink",
    "TraceEvent",
    "ALL_CATEGORIES",
    "CATEGORY_TASK",
    "CATEGORY_CHUNK",
    "CATEGORY_CONSENSUS",
    "CATEGORY_FAULT",
    "CATEGORY_CPU",
    "CATEGORY_NET",
    "CATEGORY_KERNEL",
    "CATEGORY_REPLAY",
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
    "LinkTransfer",
    "KernelEventFired",
    "ReplayInput",
    "ReplayEffect",
]
