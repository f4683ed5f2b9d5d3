"""Cluster-wide metrics collection.

One :class:`MetricsHub` per deployment records everything the paper's
evaluation section measures: output-record throughput (records/sec over a
measurement window, Fig 5/6/7), task latency (Fig 6e), per-second
throughput traces (Figs 6d, 7a), OP-link bandwidth (Sec 7.2), executor
CPU utilization (Sec 7.2), detected faults, reassignments and
role-switch events, and a campaign's injection time, from which
:meth:`repro.adversary.recovery.RecoveryReport.from_metrics` derives
the Fig 7a robustness figures.

The hub is a :class:`~repro.obs.bus.Sink` over the observability bus:
the DES, live and served deployments attach it to their bus, and
protocol roles emit typed events instead of calling the hub directly.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.errors import BenchmarkError
from repro.obs.bus import Sink
from repro.obs.events import (
    CATEGORY_ADVERSARY,
    CATEGORY_FAULT,
    CATEGORY_TASK,
    AdversaryAction,
    EquivocationReported,
    FaultDetected,
    LeaderElection,
    RecordsAccepted,
    RoleSwitch,
    TaskAdmitted,
    TaskCompleted,
    TaskDeferred,
    TaskFallback,
    TaskOutcome,
    TaskReassigned,
    TaskRejected,
    TaskSubmitted,
    TraceEvent,
)
from repro.obs.stats import StreamingPercentiles

__all__ = ["MetricsHub"]


class MetricsHub(Sink):
    """Accumulates deployment-wide observations keyed by simulated time."""

    categories = frozenset({CATEGORY_TASK, CATEGORY_FAULT, CATEGORY_ADVERSARY})

    def __init__(self, bin_seconds: float = 1.0) -> None:
        if bin_seconds <= 0:
            raise BenchmarkError("bin_seconds must be positive")
        self.bin_seconds = bin_seconds
        self.records_accepted = 0
        self._record_bins: dict[int, int] = {}
        self._accept_events: list[tuple[float, int]] = []
        self._task_submit: dict[str, float] = {}
        self.task_latencies: list[float] = []
        #: streaming accumulator behind the p50/p99/p999 SLO fields —
        #: O(log range) memory even for million-task open-loop runs
        self.slo_latency = StreamingPercentiles()
        self.tasks_completed = 0
        self._completed_ids: set[str] = set()
        self._outcome_ids: set[str] = set()
        self._tenant_latency: dict[str, StreamingPercentiles] = {}
        self._shard_completions: dict[str, int] = {}
        self.tasks_admitted = 0
        self.tasks_deferred = 0
        self.tasks_rejected = 0
        self.completion_times: list[float] = []
        self.faults_detected: list[tuple[float, str, str]] = []
        self.reassignments: list[tuple[float, str, int]] = []
        self.role_switches: list[tuple[float, int, bool]] = []
        self.fallbacks: list[tuple[float, str]] = []
        self.leader_elections: list[tuple[float, int, int]] = []
        self.equivocation_reports: list[tuple[float, str, int]] = []
        #: campaign runs: time of the first fault ``set``, the actions
        #: applied, and the first detection and reassignment at or after
        #: that injection (what the recovery report measures)
        self.injected_at: Optional[float] = None
        self.actions_applied = 0
        self.first_detection: Optional[float] = None
        self.first_reassignment: Optional[float] = None

    # ----------------------------------------------------------------- sink
    def handle(self, event: TraceEvent) -> None:
        """Bus entry point: dispatch a typed event to its accumulator."""
        fn = self._DISPATCH.get(type(event))
        if fn is not None:
            fn(self, event)

    # --------------------------------------------------------------- events
    def _task_submitted(self, e: TaskSubmitted) -> None:
        self._task_submit.setdefault(e.task_id, e.time)

    def _records_accepted(self, e: RecordsAccepted) -> None:
        self.records_accepted += e.count
        idx = int(e.time // self.bin_seconds)
        self._record_bins[idx] = self._record_bins.get(idx, 0) + e.count
        self._accept_events.append((e.time, e.count))

    def _task_completed(self, e: TaskCompleted) -> None:
        """Deduplicated by task id: with multiple output processes, the
        first acceptance defines completion (records_accepted, by
        contrast, sums over all OPs since each received its own copy)."""
        if e.task_id in self._completed_ids:
            return
        self._completed_ids.add(e.task_id)
        self.tasks_completed += 1
        self.completion_times.append(e.time)
        if e.pid:
            self._shard_completions[e.pid] = (
                self._shard_completions.get(e.pid, 0) + 1
            )
        start = self._task_submit.get(e.task_id)
        if start is not None:
            self.task_latencies.append(e.time - start)
            self.slo_latency.add(e.time - start)

    def _task_outcome(self, e: TaskOutcome) -> None:
        """Tenant-tagged completion (multi-tenant runs only), dedup'd
        like completions."""
        if e.task_id in self._outcome_ids:
            return
        self._outcome_ids.add(e.task_id)
        acc = self._tenant_latency.get(e.tenant)
        if acc is None:
            acc = self._tenant_latency[e.tenant] = StreamingPercentiles()
        acc.add(e.time - e.submitted_at)

    def _task_admitted(self, e: TaskAdmitted) -> None:
        """IP admission forwarded a task (a forward, not a verdict)."""
        self.tasks_admitted += 1

    def _task_deferred(self, e: TaskDeferred) -> None:
        self.tasks_deferred += 1

    def _task_rejected(self, e: TaskRejected) -> None:
        self.tasks_rejected += 1

    def _fault_detected(self, e: FaultDetected) -> None:
        self.faults_detected.append((e.time, e.reason, e.culprit))
        t0 = self.injected_at
        if t0 is not None and e.time >= t0 and self.first_detection is None:
            self.first_detection = e.time

    def _task_reassigned(self, e: TaskReassigned) -> None:
        self.reassignments.append((e.time, e.task_id, e.attempt))
        t0 = self.injected_at
        if t0 is not None and e.time >= t0 and self.first_reassignment is None:
            self.first_reassignment = e.time

    def _role_switch(self, e: RoleSwitch) -> None:
        self.role_switches.append((e.time, e.vp_index, e.to_executor))

    def _task_fallback(self, e: TaskFallback) -> None:
        self.fallbacks.append((e.time, e.task_id))

    def _leader_election(self, e: LeaderElection) -> None:
        self.leader_elections.append((e.time, e.vp_index, e.term))

    def _equivocation_reported(self, e: EquivocationReported) -> None:
        self.equivocation_reports.append((e.time, e.task_id, e.index))

    def _adversary_action(self, e: AdversaryAction) -> None:
        """The campaign engine set or cleared a fault; the first ``set``
        is the injection the recovery report measures from."""
        self.actions_applied += 1
        if e.op == "set" and self.injected_at is None:
            self.injected_at = e.time

    #: Event type → accumulator, resolved once at class-definition time.
    _DISPATCH: dict[type, Callable[["MetricsHub", TraceEvent], None]] = {
        TaskSubmitted: _task_submitted,
        RecordsAccepted: _records_accepted,
        TaskCompleted: _task_completed,
        TaskOutcome: _task_outcome,
        TaskAdmitted: _task_admitted,
        TaskDeferred: _task_deferred,
        TaskRejected: _task_rejected,
        FaultDetected: _fault_detected,
        TaskReassigned: _task_reassigned,
        RoleSwitch: _role_switch,
        TaskFallback: _task_fallback,
        LeaderElection: _leader_election,
        EquivocationReported: _equivocation_reported,
        AdversaryAction: _adversary_action,
    }

    # -------------------------------------------------------------- queries
    def throughput(self, start: float, end: float) -> float:
        """Mean accepted records/second over [start, end)."""
        if end <= start:
            raise BenchmarkError("empty throughput window")
        lo = int(start // self.bin_seconds)
        hi = int(math.ceil(end / self.bin_seconds))
        if hi - lo > len(self._record_bins):
            # sparse bins: a long window over a short burst should cost
            # O(populated bins), not O(window/bin_seconds)
            total = sum(
                c for i, c in self._record_bins.items() if lo <= i < hi
            )
        else:
            total = sum(self._record_bins.get(i, 0) for i in range(lo, hi))
        return total / (end - start)

    def throughput_series(self) -> list[tuple[float, float]]:
        """Per-bin (time, records/sec) trace, sorted by time."""
        return [
            (idx * self.bin_seconds, count / self.bin_seconds)
            for idx, count in sorted(self._record_bins.items())
        ]

    def time_to_fraction(self, frac: float) -> float:
        """Exact earliest time by which ``frac`` of all accepted records
        had arrived.  Basis of tail-insensitive throughput: burst
        workloads with heavy-tailed task costs should not have their
        capacity measurement dominated by the single slowest task."""
        if not 0 < frac <= 1:
            raise BenchmarkError("frac must be in (0, 1]")
        target = frac * self.records_accepted
        if target <= 0:
            return 0.0
        acc = 0
        for time, count in self._accept_events:  # already time-ordered
            acc += count
            if acc >= target:
                return time
        return self._accept_events[-1][0]

    def p90_throughput(self) -> float:
        """0.9 × records / time-to-90% — the headline throughput metric."""
        t = self.time_to_fraction(0.9)
        if t <= 0:
            return 0.0
        return 0.9 * self.records_accepted / t

    def peak_throughput(self) -> float:
        """Highest per-bin records/sec observed."""
        if not self._record_bins:
            return 0.0
        return max(self._record_bins.values()) / self.bin_seconds

    def mean_latency(self) -> float:
        """Mean task latency over completed tasks (0 when none)."""
        if not self.task_latencies:
            return 0.0
        return sum(self.task_latencies) / len(self.task_latencies)

    def latency_percentile(self, q: float) -> float:
        """Latency percentile in [0, 100] (0 when no tasks completed).

        Nearest-rank over the exact latency list — the ``p99_latency``
        field.  The SLO fields use :meth:`slo_percentile` (linear
        interpolation, streaming).
        """
        if not 0 <= q <= 100:
            raise BenchmarkError("percentile must be in [0, 100]")
        if not self.task_latencies:
            return 0.0
        data = sorted(self.task_latencies)
        idx = min(len(data) - 1, int(round(q / 100 * (len(data) - 1))))
        return data[idx]

    def slo_percentile(self, q: float) -> float:
        """Streaming latency percentile (numpy-linear semantics)."""
        return self.slo_latency.percentile(q)

    def per_tenant(self) -> dict[str, dict[str, float]]:
        """Per-tenant completion count + latency percentiles, sorted
        by tenant key (empty for untenanted runs)."""
        return {
            tenant: acc.summary()
            for tenant, acc in sorted(self._tenant_latency.items())
        }

    def per_shard(self) -> dict[str, int]:
        """Completed-task count per output process, sorted by pid.

        Only meaningful under sharded routing: with the unsharded
        broadcast layout the first OP to accept claims every completion."""
        return dict(sorted(self._shard_completions.items()))
