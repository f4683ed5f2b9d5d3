"""End-to-end record conservation: honest runs classify clean, and the
auditor notices doctored OP state (equivocation, dropped records, counter
drift)."""

from dataclasses import replace

from repro import api
from repro.bench.workloads import synthetic_bench
from repro.check.conservation import ConservationSink
from repro.check.report import SanitizerReport
from repro.core.config import OsirisConfig
from repro.runtime.deploy import build_osiris_cluster
from repro.obs.events import ChunkAccepted, TaskCompleted


def sanitized_cluster(n_tasks=6, n=5, seed=3):
    wl = synthetic_bench(n_tasks)
    cluster = build_osiris_cluster(
        wl.app,
        workload=wl.stream,
        n_workers=n,
        seed=seed,
        config=OsirisConfig(
            f=1, chunk_bytes=wl.chunk_bytes, suspect_timeout=60.0,
            cores_per_node=1,
        ),
        sanitize=True,
    )
    cluster.start()
    cluster.run(until=600.0)
    assert cluster.metrics.tasks_completed == n_tasks
    return cluster


def committed_slot(cluster):
    """Some accepted slot of a completed compute task, with its quorum."""
    op = cluster.outputs[0]
    for task_id, ot in op._tasks.items():
        if ot.vp_index >= 0 and ot.completed and ot.accepted:
            index = min(ot.accepted)
            quorum = cluster.topo.cluster(ot.vp_index).quorum
            return op, task_id, ot, ot.slots[index], quorum
    raise AssertionError("no committed slot in the run")


class TestHonestRuns:
    def test_zero_violations_and_every_output_recomputed(self):
        result = api.run(
            api.DeploymentSpec(
                workload=synthetic_bench(8), n=5, seed=4, sanitize=True
            )
        )
        report = result.extra["sanitizer_report"]
        assert report.ok, report.summary()
        assert report.outputs_recomputed == 8
        assert result.sanitizer_violations == 0


class TestLiveChecks:
    def test_double_accept_fires(self):
        report = SanitizerReport()
        sink = ConservationSink(report)
        ev = ChunkAccepted(time=1.0, pid="op0", task_id="t1", index=0, records=5)
        sink.handle(ev)
        sink.handle(ev)
        assert "double-accept" in report.invariants_hit()

    def test_double_complete_fires(self):
        report = SanitizerReport()
        sink = ConservationSink(report)
        ev = TaskCompleted(time=1.0, pid="op0", task_id="t1")
        sink.handle(ev)
        sink.handle(ev)
        assert "double-complete" in report.invariants_hit()


class TestAuditedState:
    def test_counter_drift_fires(self):
        cluster = sanitized_cluster()
        cluster.outputs[0].records_accepted += 1
        report = cluster.sanitizer.audit(cluster)
        assert "records-counter" in report.invariants_hit()

    def test_second_quorum_digest_is_committed_equivocation(self):
        cluster = sanitized_cluster()
        op, task_id, ot, slot, quorum = committed_slot(cluster)
        fake = b"\x00" * 32
        slot.endorsements[fake] = {f"v{i}" for i in range(quorum)}
        slot.data[fake] = next(iter(slot.data.values()))
        report = cluster.sanitizer.audit(cluster)
        assert "committed-equivocation" in report.invariants_hit()

    def test_dropped_record_classifies_as_output_failure(self):
        cluster = sanitized_cluster()
        op, task_id, ot, slot, quorum = committed_slot(cluster)
        sigma, chunk = next(
            (s, c)
            for s, c in slot.data.items()
            if len(slot.endorsements.get(s, ())) >= quorum
        )
        assert chunk.records, "winning chunk should carry records"
        slot.data[sigma] = replace(chunk, records=chunk.records[:-1])
        report = cluster.sanitizer.audit(cluster)
        assert "output-failure" in report.invariants_hit()
