"""Record conservation executor→verifier→OP, and equivocation audits.

The paper's safety claim (Theorem 6.3) is that whatever Byzantine
workers do, the *committed* output equals ``A(s, t)`` — every record of
the correct output delivered exactly once, nothing fabricated, nothing
duplicated, nothing dropped.  This checker enforces that end to end:

* live (sink): no chunk slot is accepted twice, no task completes twice
  at one OP, and the two acceptance event streams (``ChunkAccepted`` /
  ``RecordsAccepted``) agree record for record;
* post-run (auditor): each accepted slot has exactly one quorum-endorsed
  digest whose chunk data arrived, and it is the accepted one (≥2
  would be *committed equivocation* within a sub-cluster; none means
  the OP accepted without a derivable quorum), accepted digests agree
  across output processes, OP counters match the trace, and — the
  strongest check — for every completed compute task A(s, t) is
  recomputed from the coordinator's replica at the task's snapshot,
  cut along the committed record counts, and every piece's σ must be
  the committed one, with the counts summing to ``len(A(s, t))`` (on
  honest *and* faulty runs: committed output is correct or the
  protocol is broken).  The OP keeps only σ and a count per accepted
  chunk, so no record is needed for this.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.check.invariants import audit_safety
from repro.obs.bus import Sink
from repro.obs.events import (
    CATEGORY_CHUNK,
    CATEGORY_TASK,
    ChunkAccepted,
    RecordsAccepted,
    TaskCompleted,
    TraceEvent,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.check.report import SanitizerReport

__all__ = ["ConservationSink"]


class ConservationSink(Sink):
    """Tracks acceptance events live; see module docstring."""

    categories = frozenset({CATEGORY_TASK, CATEGORY_CHUNK})

    def __init__(self, report: "SanitizerReport") -> None:
        self.report = report
        self._accepted_slots: set[tuple[str, str, int]] = set()
        self._completed: set[tuple[str, str]] = set()
        # per-OP record totals from the two event streams
        self._chunk_records: dict[str, int] = {}
        self._accept_records: dict[str, int] = {}
        self._chunk_events: dict[str, int] = {}

    # ----------------------------------------------------------- live checks
    def handle(self, event: TraceEvent) -> None:
        if isinstance(event, ChunkAccepted):
            key = (event.pid, event.task_id, event.index)
            if key in self._accepted_slots:
                self.report.add(
                    "double-accept",
                    event.pid,
                    event.time,
                    f"chunk {event.task_id}#{event.index} accepted twice",
                )
            self._accepted_slots.add(key)
            self._chunk_records[event.pid] = (
                self._chunk_records.get(event.pid, 0) + event.records
            )
            self._chunk_events[event.pid] = (
                self._chunk_events.get(event.pid, 0) + 1
            )
        elif isinstance(event, RecordsAccepted):
            self._accept_records[event.pid] = (
                self._accept_records.get(event.pid, 0) + event.count
            )
        elif isinstance(event, TaskCompleted):
            key = (event.pid, event.task_id)
            if key in self._completed:
                self.report.add(
                    "double-complete",
                    event.pid,
                    event.time,
                    f"task {event.task_id} completed twice",
                )
            self._completed.add(key)

    # -------------------------------------------------------- post-run audit
    def audit_cluster(self, cluster) -> None:
        """Audit an OsirisBFT deployment's output processes end to end.

        ``cluster`` is an :class:`~repro.runtime.deploy.OsirisCluster`;
        baseline clusters (no verifier quorum machinery) get only the
        live checks.  The counter-vs-trace cross-checks below need the
        event streams only this sink sees; the trace-free safety
        invariants (quorum endorsement, cross-OP agreement, committed
        output against A(s, t)) are shared with the :mod:`repro.mc` explorer
        via :func:`repro.check.invariants.audit_safety`.
        """
        report = self.report
        for op in cluster.outputs:
            if op.records_accepted != self._accept_records.get(op.pid, 0):
                report.add(
                    "records-counter",
                    op.pid,
                    -1.0,
                    f"counter records_accepted={op.records_accepted} but "
                    f"trace sums {self._accept_records.get(op.pid, 0)}",
                )
            if op.chunks_accepted != self._chunk_events.get(op.pid, 0):
                report.add(
                    "chunks-counter",
                    op.pid,
                    -1.0,
                    f"counter chunks_accepted={op.chunks_accepted} but "
                    f"trace has {self._chunk_events.get(op.pid, 0)} "
                    f"ChunkAccepted events",
                )
            if self._chunk_records.get(op.pid, 0) != self._accept_records.get(
                op.pid, 0
            ):
                report.add(
                    "records-counter",
                    op.pid,
                    -1.0,
                    f"ChunkAccepted records sum "
                    f"{self._chunk_records.get(op.pid, 0)} != "
                    f"RecordsAccepted sum "
                    f"{self._accept_records.get(op.pid, 0)}",
                )

        audit_safety(cluster, report)
