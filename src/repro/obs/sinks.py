"""Concrete sinks for the observability bus.

* :class:`CollectorSink` — in-memory list, mostly for tests and ad hoc
  analysis.
* :class:`JsonlTraceSink` — one JSON object per line, in emission order.
  Byte-identical across same-seed runs (the determinism contract of the
  bus), so traces can be diffed directly.
* :class:`ChromeTraceSink` — Chrome ``trace_event`` JSON loadable in
  Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``: CPU spans
  as complete ("X") slices on one track per (process, bank, core), link
  transfers as async ("b"/"e") pairs, everything else as instant ("i")
  markers.  Timestamps are microseconds of simulated time.

``MetricsHub`` (:mod:`repro.obs.metrics`) is the fourth sink: the
deployment's throughput, latency and fault counters and the source of a
campaign's recovery report.
"""

from __future__ import annotations

import json
from typing import IO, Optional, Union

from repro.errors import ObservabilityError
from repro.obs.bus import Sink
from repro.obs.events import (
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
    RoleSwitch,
    TaskAssigned,
    TaskCompleted,
    TaskFallback,
    TaskLinearized,
    TaskReassigned,
    TaskSubmitted,
    TraceEvent,
    ViewChange,
)

__all__ = ["CollectorSink", "JsonlTraceSink", "ChromeTraceSink"]


class CollectorSink(Sink):
    """Collects events into :attr:`events`, optionally category-filtered."""

    def __init__(self, categories: Optional[frozenset[str]] = None) -> None:
        self.categories = categories
        self.events: list[TraceEvent] = []

    def handle(self, event: TraceEvent) -> None:
        self.events.append(event)

    def of(self, event_type: type) -> list[TraceEvent]:
        """Collected events of one concrete type, in emission order."""
        return [e for e in self.events if type(e) is event_type]


class JsonlTraceSink(Sink):
    """Writes every event as one JSON line, in emission order.

    ``json.dumps`` with sorted keys and ``repr``-based float formatting
    makes the output a pure function of the event stream, so two
    same-seed runs produce byte-identical files.
    """

    def __init__(
        self,
        target: Union[str, IO[str]],
        categories: Optional[frozenset[str]] = None,
    ) -> None:
        self.categories = categories
        if isinstance(target, str):
            self._fh: IO[str] = open(target, "w", encoding="utf-8")
            self._owns_fh = True
        else:
            self._fh = target
            self._owns_fh = False
        self.event_count = 0

    def handle(self, event: TraceEvent) -> None:
        self._fh.write(
            json.dumps(event.as_dict(), sort_keys=True, separators=(",", ":"))
        )
        self._fh.write("\n")
        self.event_count += 1

    def close(self) -> None:
        if self._owns_fh and not self._fh.closed:
            self._fh.close()


def _us(t: float) -> float:
    """Simulated seconds → trace_event microseconds (µs granularity)."""
    return round(t * 1e6, 3)


class ChromeTraceSink(Sink):
    """Exports a Chrome ``trace_event`` JSON timeline.

    The trace groups tracks into synthetic "processes": each simulated
    process gets a trace-pid with one thread per (CPU bank, core); links
    and cluster-level markers get trace-pids of their own.  Buffered in
    memory; the file is written on :meth:`close` (or :meth:`write`).
    """

    #: Synthetic trace-process for link transfers.
    LINKS = "links"
    #: Synthetic trace-process for cluster-level instant markers.
    CLUSTER = "cluster"

    def __init__(self, path: str) -> None:
        self.path = path
        self._events: list[dict] = []
        self._meta: list[dict] = []
        self._pids: dict[str, int] = {}
        self._tids: dict[tuple[str, str], int] = {}
        self._async_id = 0
        self._written = False

    # ------------------------------------------------------------- id pools
    def _pid(self, name: str) -> int:
        """Integer trace-pid for a named group, assigned first-seen."""
        if name not in self._pids:
            pid = len(self._pids) + 1
            self._pids[name] = pid
            self._meta.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": name},
                }
            )
        return self._pids[name]

    def _tid(self, group: str, thread: str) -> int:
        """Integer trace-tid within ``group``, assigned first-seen."""
        key = (group, thread)
        if key not in self._tids:
            tid = sum(1 for g, _ in self._tids if g == group) + 1
            self._tids[key] = tid
            self._meta.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": self._pid(group),
                    "tid": tid,
                    "args": {"name": thread},
                }
            )
        return self._tids[key]

    # -------------------------------------------------------------- helpers
    def _complete(
        self, group: str, thread: str, name: str, start: float, end: float, args: dict
    ) -> None:
        self._events.append(
            {
                "ph": "X",
                "name": name,
                "cat": "cpu",
                "ts": _us(start),
                "dur": _us(end - start),
                "pid": self._pid(group),
                "tid": self._tid(group, thread),
                "args": args,
            }
        )

    def _async_span(
        self, name: str, cat: str, start: float, end: float, args: dict
    ) -> None:
        self._async_id += 1
        base = {
            "name": name,
            "cat": cat,
            "id": self._async_id,
            "pid": self._pid(self.LINKS),
            "tid": self._tid(self.LINKS, "transfers"),
        }
        self._events.append({**base, "ph": "b", "ts": _us(start), "args": args})
        self._events.append({**base, "ph": "e", "ts": _us(end)})

    def _instant(
        self, group: str, thread: str, name: str, cat: str, time: float, args: dict
    ) -> None:
        self._events.append(
            {
                "ph": "i",
                "s": "t",
                "name": name,
                "cat": cat,
                "ts": _us(time),
                "pid": self._pid(group),
                "tid": self._tid(group, thread),
                "args": args,
            }
        )

    # --------------------------------------------------------------- handle
    def handle(self, event: TraceEvent) -> None:
        args = event.as_dict()
        if isinstance(event, CpuSpan):
            self._complete(
                event.pid or "?",
                f"{event.bank}{event.core}",
                event.bank,
                event.time,
                event.end,
                args,
            )
        elif isinstance(event, LinkTransfer):
            self._async_span(
                f"{event.pid}→{event.dst} {event.msg_type}",
                "net",
                event.time,
                event.deliver_at,
                args,
            )
        elif isinstance(event, KernelEventFired):
            pass  # far too dense for a timeline; JSONL keeps them
        else:
            group, thread, name = self._locate(event)
            self._instant(group, thread, name, event.category, event.time, args)

    def _locate(self, event: TraceEvent) -> tuple[str, str, str]:
        """(group, thread, display name) for an instant marker."""
        kind = event.kind
        if isinstance(event, FaultDetected):
            return self.CLUSTER, "faults", f"{kind}:{event.culprit}"
        if isinstance(event, (RoleSwitch, LeaderElection)):
            return self.CLUSTER, "faults", f"{kind}:vp{event.vp_index}"
        if isinstance(event, EquivocationReported):
            return self.CLUSTER, "faults", f"{kind}:{event.task_id}"
        if isinstance(event, (ConsensusCommit, ViewChange)):
            return event.pid, "consensus", kind
        if isinstance(
            event,
            (
                TaskSubmitted,
                TaskLinearized,
                TaskAssigned,
                TaskReassigned,
                TaskFallback,
                TaskCompleted,
            ),
        ):
            return self.CLUSTER, "tasks", f"{kind}:{event.task_id}"
        if isinstance(event, RecordsAccepted):
            return event.pid, "output", kind
        if isinstance(event, (ChunkEmitted, ChunkVerified, ChunkAccepted)):
            return event.pid, "chunks", f"{kind}:{event.task_id}#{event.index}"
        return event.pid or self.CLUSTER, "misc", kind

    # ---------------------------------------------------------------- output
    def trace_dict(self) -> dict:
        """The full trace document (metadata first, then events)."""
        return {
            "traceEvents": self._meta + self._events,
            "displayTimeUnit": "ms",
            "otherData": {"generator": "repro.obs.ChromeTraceSink"},
        }

    def write(self) -> None:
        """Write the trace file now (idempotent)."""
        if self._written:
            return
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(self.trace_dict(), fh, sort_keys=True)
        self._written = True

    def close(self) -> None:
        try:
            self.write()
        except OSError as exc:  # pragma: no cover - disk failure path
            raise ObservabilityError(f"cannot write trace: {exc}") from exc
