"""End-to-end record conservation: honest runs classify clean, and the
auditor notices doctored OP state (equivocation, dropped records, counter
drift)."""

from dataclasses import replace

from repro import api
from repro.bench.workloads import synthetic_bench
from repro.check.conservation import ConservationSink
from repro.check.report import SanitizerReport
from repro.core.config import OsirisConfig
from repro.core.tasks import chunk_records
from repro.runtime.deploy import build_osiris_cluster
from repro.obs.events import ChunkAccepted, TaskCompleted


def sanitized_cluster(n_tasks=6, n=5, seed=3, chunk_bytes=None):
    wl = synthetic_bench(n_tasks)
    cluster = build_osiris_cluster(
        wl.app,
        workload=wl.stream,
        n_workers=n,
        seed=seed,
        config=OsirisConfig(
            f=1, chunk_bytes=chunk_bytes or wl.chunk_bytes,
            suspect_timeout=60.0, cores_per_node=1,
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


def committed_chunk(cluster, task_id, index):
    """The chunk the OP committed at ``task_id#index``, rebuilt from
    A(s, t): the OP keeps only its σ and record count."""
    coordinator = cluster.coordinators[0]
    task = coordinator.outstanding[task_id].task
    view = coordinator.store.view(task.timestamp)
    records = list(cluster.app.compute(view, task).records)
    chunk = chunk_records(task_id, records, cluster.config.chunk_bytes)[index]
    slot = cluster.outputs[0]._tasks[task_id].slots[index]
    assert chunk.sigma == slot.winner and len(chunk.records) == slot.records
    return chunk


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
        slot.arrived.add(fake)
        report = cluster.sanitizer.audit(cluster)
        assert "committed-equivocation" in report.invariants_hit()

    def test_dropped_record_classifies_as_output_failure(self):
        cluster = sanitized_cluster()
        op, task_id, ot, slot, quorum = committed_slot(cluster)
        chunk = committed_chunk(cluster, task_id, min(ot.accepted))
        assert chunk.records, "winning chunk should carry records"
        # the quorum endorsed, and the OP committed, the chunk less its
        # last record
        short = replace(chunk, records=chunk.records[:-1])
        slot.endorsements[short.sigma] = slot.endorsements.pop(chunk.sigma)
        slot.arrived = {short.sigma}
        slot.winner, slot.records = short.sigma, len(short.records)
        report = cluster.sanitizer.audit(cluster)
        assert "output-failure" in report.invariants_hit()

    def test_record_shifted_between_chunks_is_output_failure(self):
        # 10 records of 1 KiB in chunks of 4 KiB: counts 4, 4, 2
        cluster = sanitized_cluster(chunk_bytes=4096)
        op, task_id, ot, slot, quorum = committed_slot(cluster)
        first, second = ot.slots[0], ot.slots[1]
        assert (first.records, second.records) == (4, 4)
        # one record moves from chunk 0's count to chunk 1's: every σ,
        # every counter and the task's total are unchanged
        first.records -= 1
        second.records += 1
        report = cluster.sanitizer.audit(cluster)
        assert report.invariants_hit() == {"output-failure"}
        (violation,) = report.violations
        assert f"task {task_id} " in violation.detail
        assert "at chunk #0 (10 observed vs 10 expected" in violation.detail
