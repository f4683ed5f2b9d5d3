"""Tests for the metrics hub, fed through its bus entry point."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BenchmarkError
from repro.obs.events import (
    EquivocationReported,
    FaultDetected,
    LeaderElection,
    RecordsAccepted,
    RoleSwitch,
    TaskCompleted,
    TaskFallback,
    TaskReassigned,
    TaskSubmitted,
)
from repro.obs.metrics import MetricsHub


def accept(m, count, time):
    m.handle(RecordsAccepted(time=time, pid="op0", task_id="t", count=count))


def submit(m, task_id, time):
    m.handle(TaskSubmitted(time=time, pid="ip0", task_id=task_id))


def complete(m, task_id, time):
    m.handle(TaskCompleted(time=time, pid="op0", task_id=task_id))


class TestThroughput:
    def test_throughput_over_window(self):
        m = MetricsHub()
        accept(m, 100, 0.5)
        accept(m, 100, 1.5)
        assert m.throughput(0.0, 2.0) == pytest.approx(100.0)

    def test_throughput_window_excludes_outside(self):
        m = MetricsHub()
        accept(m, 100, 0.5)
        accept(m, 100, 5.5)
        assert m.throughput(0.0, 1.0) == pytest.approx(100.0)

    def test_empty_window_rejected(self):
        with pytest.raises(BenchmarkError):
            MetricsHub().throughput(1.0, 1.0)

    def test_series_sorted(self):
        m = MetricsHub()
        accept(m, 10, 3.5)
        accept(m, 10, 1.5)
        times = [t for t, _ in m.throughput_series()]
        assert times == sorted(times)

    def test_peak(self):
        m = MetricsHub()
        accept(m, 10, 0.5)
        accept(m, 90, 1.5)
        assert m.peak_throughput() == pytest.approx(90.0)
        assert MetricsHub().peak_throughput() == 0.0


class TestTimeToFraction:
    def test_exact_fraction_time(self):
        m = MetricsHub()
        for i in range(10):
            accept(m, 10, float(i))
        assert m.time_to_fraction(0.5) == pytest.approx(4.0)
        assert m.time_to_fraction(1.0) == pytest.approx(9.0)

    def test_p90_throughput(self):
        m = MetricsHub()
        for i in range(1, 11):
            accept(m, 10, float(i))
        # 90 records by t=9 → 10/s
        assert m.p90_throughput() == pytest.approx(10.0)

    def test_no_records(self):
        assert MetricsHub().p90_throughput() == 0.0
        assert MetricsHub().time_to_fraction(0.9) == 0.0

    def test_invalid_fraction(self):
        with pytest.raises(BenchmarkError):
            MetricsHub().time_to_fraction(0.0)
        with pytest.raises(BenchmarkError):
            MetricsHub().time_to_fraction(1.5)

    @given(
        counts=st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=30)
    )
    @settings(max_examples=50, deadline=None)
    def test_fraction_monotone_in_frac(self, counts):
        m = MetricsHub()
        for i, c in enumerate(counts):
            accept(m, c, float(i))
        assert m.time_to_fraction(0.3) <= m.time_to_fraction(0.9)


class TestLatency:
    def test_latency_from_submission_to_completion(self):
        m = MetricsHub()
        submit(m, "t1", 1.0)
        complete(m, "t1", 3.5)
        assert m.task_latencies == [2.5]
        assert m.mean_latency() == pytest.approx(2.5)

    def test_completion_deduplicated(self):
        m = MetricsHub()
        submit(m, "t1", 1.0)
        complete(m, "t1", 3.0)
        complete(m, "t1", 4.0)
        assert m.tasks_completed == 1
        assert len(m.task_latencies) == 1

    def test_unknown_task_completion_counts_without_latency(self):
        m = MetricsHub()
        complete(m, "ghost", 3.0)
        assert m.tasks_completed == 1
        assert m.task_latencies == []

    def test_resubmission_keeps_first_time(self):
        m = MetricsHub()
        submit(m, "t1", 1.0)
        submit(m, "t1", 2.0)
        complete(m, "t1", 3.0)
        assert m.task_latencies == [2.0]

    def test_percentiles(self):
        m = MetricsHub()
        for i in range(100):
            submit(m, f"t{i}", 0.0)
            complete(m, f"t{i}", float(i + 1))
        assert m.latency_percentile(50) == pytest.approx(51.0, abs=2)
        assert m.latency_percentile(99) == pytest.approx(99.0, abs=2)

    def test_percentile_bounds(self):
        with pytest.raises(BenchmarkError):
            MetricsHub().latency_percentile(101)

    def test_empty_latency(self):
        m = MetricsHub()
        assert m.mean_latency() == 0.0
        assert m.latency_percentile(99) == 0.0


class TestEventLogs:
    def test_event_records(self):
        m = MetricsHub()
        for event in (
            FaultDetected(
                time=1.0, pid="v0", reason="invalid-record", culprit="e0"
            ),
            TaskReassigned(time=2.0, pid="v0", task_id="t1", attempt=1),
            RoleSwitch(time=3.0, pid="v6", vp_index=2, to_executor=True),
            TaskFallback(time=4.0, pid="v3", task_id="t2"),
            LeaderElection(time=5.0, pid="v3", vp_index=1, term=1),
            EquivocationReported(time=6.0, pid="op0", task_id="t3", index=0),
        ):
            m.handle(event)
        assert m.faults_detected == [(1.0, "invalid-record", "e0")]
        assert m.reassignments == [(2.0, "t1", 1)]
        assert m.role_switches == [(3.0, 2, True)]
        assert m.fallbacks == [(4.0, "t2")]
        assert m.leader_elections == [(5.0, 1, 1)]
        assert m.equivocation_reports == [(6.0, "t3", 0)]

    def test_invalid_bin_seconds(self):
        with pytest.raises(BenchmarkError):
            MetricsHub(bin_seconds=0)
