"""Cluster-wide metrics collection.

One :class:`MetricsHub` per deployment records everything the paper's
evaluation section measures: output-record throughput (records/sec over a
measurement window, Fig 5/6/7), task latency (Fig 6e), per-second
throughput traces (Figs 6d, 7a), OP-link bandwidth (Sec 7.2), executor
CPU utilization (Sec 7.2), detected faults, reassignments and
role-switch events.

The hub is a :class:`~repro.obs.bus.Sink` over the observability bus:
deployments attach it to ``sim.bus`` and protocol roles emit typed
events instead of calling the hub directly.  The ``on_*`` methods remain
the accumulation API (and stay directly callable, e.g. from tests); the
query API is unchanged.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.core.stats import StreamingPercentiles
from repro.errors import BenchmarkError
from repro.obs.bus import Sink
from repro.obs.events import (
    CATEGORY_FAULT,
    CATEGORY_TASK,
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

__all__ = ["MetricsHub"]


class MetricsHub(Sink):
    """Accumulates deployment-wide observations keyed by simulated time."""

    categories = frozenset({CATEGORY_TASK, CATEGORY_FAULT})

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

    # ----------------------------------------------------------------- sink
    def handle(self, event: TraceEvent) -> None:
        """Bus entry point: dispatch a typed event to its ``on_*`` method."""
        fn = self._DISPATCH.get(type(event))
        if fn is not None:
            fn(self, event)

    # --------------------------------------------------------------- events
    def on_task_submitted(self, task_id: str, time: float) -> None:
        """IP handed a task to the coordinator."""
        self._task_submit.setdefault(task_id, time)

    def on_records_accepted(self, count: int, time: float) -> None:
        """OP accepted ``count`` verified records at ``time``."""
        self.records_accepted += count
        idx = int(time // self.bin_seconds)
        self._record_bins[idx] = self._record_bins.get(idx, 0) + count
        self._accept_events.append((time, count))

    def on_task_output_complete(
        self, task_id: str, time: float, pid: str = ""
    ) -> None:
        """OP saw the final verified chunk of a task.  Deduplicated by
        task id: with multiple output processes, the first acceptance
        defines completion (records_accepted, by contrast, sums over all
        OPs since each received its own copy)."""
        if task_id in self._completed_ids:
            return
        self._completed_ids.add(task_id)
        self.tasks_completed += 1
        self.completion_times.append(time)
        if pid:
            self._shard_completions[pid] = (
                self._shard_completions.get(pid, 0) + 1
            )
        start = self._task_submit.get(task_id)
        if start is not None:
            self.task_latencies.append(time - start)
            self.slo_latency.add(time - start)

    def on_task_outcome(
        self, task_id: str, tenant: str, submitted_at: float, time: float
    ) -> None:
        """Tenant-tagged completion (multi-tenant runs only), dedup'd
        like completions."""
        if task_id in self._outcome_ids:
            return
        self._outcome_ids.add(task_id)
        acc = self._tenant_latency.get(tenant)
        if acc is None:
            acc = self._tenant_latency[tenant] = StreamingPercentiles()
        acc.add(time - submitted_at)

    def on_task_admitted(self) -> None:
        """IP admission forwarded a task (a forward, not a verdict)."""
        self.tasks_admitted += 1

    def on_task_deferred(self) -> None:
        self.tasks_deferred += 1

    def on_task_rejected(self) -> None:
        self.tasks_rejected += 1

    def on_fault_detected(self, time: float, kind: str, culprit: str) -> None:
        """A verifier proved a process faulty (``kind`` names the check)."""
        self.faults_detected.append((time, kind, culprit))

    def on_reassignment(self, time: float, task_id: str, attempt: int) -> None:
        """VP_CO speculatively reassigned a task."""
        self.reassignments.append((time, task_id, attempt))

    def on_role_switch(self, time: float, vp_index: int, to_executor: bool) -> None:
        """A verifier sub-cluster switched between roles."""
        self.role_switches.append((time, vp_index, to_executor))

    def on_fallback(self, time: float, task_id: str) -> None:
        """A task fell back to execution by a verifier sub-cluster."""
        self.fallbacks.append((time, task_id))

    def on_leader_election(self, time: float, vp_index: int, term: int) -> None:
        """A sub-cluster elected a new leader after a negligence report."""
        self.leader_elections.append((time, vp_index, term))

    def on_equivocation_report(self, time: float, task_id: str, index: int) -> None:
        """OP reported a partially-delivered chunk digest set."""
        self.equivocation_reports.append((time, task_id, index))

    #: Event-type → accumulator, resolved once at class-definition time.
    _DISPATCH: dict[type, Callable[["MetricsHub", TraceEvent], None]] = {
        TaskSubmitted: lambda m, e: m.on_task_submitted(e.task_id, e.time),
        RecordsAccepted: lambda m, e: m.on_records_accepted(e.count, e.time),
        TaskCompleted: lambda m, e: m.on_task_output_complete(
            e.task_id, e.time, e.pid
        ),
        TaskOutcome: lambda m, e: m.on_task_outcome(
            e.task_id, e.tenant, e.submitted_at, e.time
        ),
        TaskAdmitted: lambda m, e: m.on_task_admitted(),
        TaskDeferred: lambda m, e: m.on_task_deferred(),
        TaskRejected: lambda m, e: m.on_task_rejected(),
        FaultDetected: lambda m, e: m.on_fault_detected(e.time, e.reason, e.culprit),
        TaskReassigned: lambda m, e: m.on_reassignment(e.time, e.task_id, e.attempt),
        RoleSwitch: lambda m, e: m.on_role_switch(e.time, e.vp_index, e.to_executor),
        TaskFallback: lambda m, e: m.on_fallback(e.time, e.task_id),
        LeaderElection: lambda m, e: m.on_leader_election(e.time, e.vp_index, e.term),
        EquivocationReported: lambda m, e: m.on_equivocation_report(
            e.time, e.task_id, e.index
        ),
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

        Nearest-rank over the exact latency list — the legacy
        ``p99_latency`` field.  The SLO fields use
        :meth:`slo_percentile` (linear interpolation, streaming).
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
        by tenant key (empty for untenanted/legacy runs)."""
        return {
            tenant: acc.summary()
            for tenant, acc in sorted(self._tenant_latency.items())
        }

    def per_shard(self) -> dict[str, int]:
        """Completed-task count per output process, sorted by pid.

        Only meaningful under sharded routing: with the legacy broadcast
        layout the first OP to accept claims every completion."""
        return dict(sorted(self._shard_completions.items()))
