"""Anomaly Detection as a verifiable application, unit + cluster tests."""

import pytest

from repro.apps.anomaly import (
    AnomalyApp,
    anomaly_workload,
    clique,
    link_update_stream,
    make_link_task,
    power_law_graph,
)
from repro.core import Opcode, Task, build_osiris_cluster
from repro.core.faults import OmitRecordFault
from tests.core.helpers import fast_config


@pytest.fixture
def app():
    base = power_law_graph(60, 4, seed=1)
    return AnomalyApp(base, clique(3))


class TestOperators:
    def test_valid_task_accepts_link_task(self, app):
        assert app.valid_task(make_link_task(0, 1, 2))

    def test_valid_task_rejects_self_loop(self, app):
        bad = Task(
            task_id="x",
            opcode=Opcode.BOTH,
            update_payload=("add", 1, 1),
            compute_payload={"edge": [1, 1]},
        )
        assert not app.valid_task(bad)

    def test_valid_task_rejects_malformed_update(self, app):
        bad = Task(task_id="x", opcode=Opcode.UPDATE, update_payload=("grow", 1))
        assert not app.valid_task(bad)

    def test_compute_is_sorted_and_valid(self, app):
        state = app.initial_state()
        state.apply(1, ("add", 0, 1))
        view = state.snapshot(1)
        task = make_link_task(0, 0, 1).with_timestamp(1)
        result = app.compute(view, task)
        keys = [r.key for r in result.records]
        assert keys == sorted(keys)
        for rec in result.records:
            assert app.is_valid(view, rec, task)
        assert result.cost > 0

    def test_output_size_matches_compute(self, app):
        state = app.initial_state()
        state.apply(1, ("add", 0, 1))
        view = state.snapshot(1)
        task = make_link_task(0, 0, 1).with_timestamp(1)
        result = app.compute(view, task)
        count = app.output_size(view, task)
        assert count.count == len(result.records)
        assert count.cost <= result.cost

    def test_is_valid_rejects_foreign_record(self, app):
        from repro.core import Record

        state = app.initial_state()
        state.apply(1, ("add", 0, 1))
        view = state.snapshot(1)
        task = make_link_task(0, 0, 1).with_timestamp(1)
        # a triangle that exists but does not contain the updated link
        assert not app.is_valid(view, Record(key=(9, 10, 11)), task)
        assert not app.is_valid(view, Record(key=("a", "b", "c")), task)

    def test_update_only_task(self, app):
        t = make_link_task(0, 3, 4, compute=False)
        assert t.opcode == Opcode.UPDATE
        assert app.valid_task(t)


class TestWorkloadGenerators:
    def test_power_law_graph_shape(self):
        edges = power_law_graph(100, 3, seed=0)
        assert len(edges) >= 3 * (100 - 4)
        assert all(u != v for u, v in edges)

    def test_power_law_rejects_small_n(self):
        from repro.errors import BenchmarkError

        with pytest.raises(BenchmarkError):
            power_law_graph(3, 5)

    def test_power_law_deterministic(self):
        assert power_law_graph(50, 3, seed=7) == power_law_graph(50, 3, seed=7)

    def test_link_stream_fresh_links_at_rate(self):
        base = power_law_graph(50, 3, seed=0)
        existing = {(min(u, v), max(u, v)) for u, v in base}
        stream = list(link_update_stream(base, n_tasks=20, rate=100, seed=1))
        assert len(stream) == 20
        times = [t for t, _ in stream]
        assert times == sorted(times)
        assert times[1] - times[0] == pytest.approx(0.01)
        for _, task in stream:
            _, u, v = task.update_payload
            assert (min(u, v), max(u, v)) not in existing

    def test_named_workloads(self):
        for name in ("MM", "LH", "HL", "fig5b"):
            base, pattern = anomaly_workload(name, n_vertices=60, attach=4)
            assert len(base) > 0 and pattern.size >= 4

    def test_unknown_workload_rejected(self):
        from repro.errors import BenchmarkError

        with pytest.raises(BenchmarkError):
            anomaly_workload("XX")


class TestAnomalyOnCluster:
    def _cluster(self, n_tasks=15, seed=42, **kwargs):
        base = power_law_graph(80, 4, seed=2)
        app = AnomalyApp(base, clique(3), step_cost=1e-5)
        workload = link_update_stream(base, n_tasks=n_tasks, rate=100, seed=3)
        cluster = build_osiris_cluster(
            app,
            workload=workload,
            n_workers=10,
            k=2,
            seed=seed,
            config=fast_config(chunk_bytes=4096),
            **kwargs,
        )
        cluster.start()
        return cluster

    def test_end_to_end_anomaly_detection(self):
        cluster = self._cluster()
        cluster.run(until=30.0)
        assert cluster.metrics.tasks_completed == 15
        assert cluster.metrics.faults_detected == []

    def test_all_replicas_converge_to_same_graph_version(self):
        cluster = self._cluster()
        cluster.run(until=30.0)
        versions = {
            p.store.applied_ts
            for p in cluster.executors + cluster.all_verifiers
        }
        assert versions == {15}

    def test_corrupt_match_detected(self):
        # fabrication works even for tasks whose true output is empty
        from repro.core.faults import FabricateRecordFault

        cluster = self._cluster(
            faults={"e0": FabricateRecordFault()}
        )
        cluster.run(until=60.0)
        assert cluster.metrics.tasks_completed == 15
        reasons = {k for _, k, _ in cluster.metrics.faults_detected}
        assert reasons & {"invalid-record", "digest-mismatch", "count-mismatch"}

    def test_omitted_match_detected(self):
        cluster = self._cluster(faults={"e0": OmitRecordFault()})
        cluster.run(until=60.0)
        assert cluster.metrics.tasks_completed == 15
