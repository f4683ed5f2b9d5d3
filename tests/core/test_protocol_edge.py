"""Edge-case protocol tests: role switching, fallback, partial synchrony,
equivocation recovery, and liveness under adversarial timing."""


from repro.apps.synthetic import SyntheticApp
from repro.core import build_osiris_cluster
from repro.core.faults import EquivocateChunksFault, SilentFault
from repro.net import SynchronyModel
from tests.core.helpers import compute_workload, fast_config, run_cluster


class TestRoleSwitching:
    def test_idle_verifiers_switch_to_executors_under_backlog(self):
        """Many outstanding cheap-verification tasks: a cluster lends out."""
        app = SyntheticApp(records_per_task=2, compute_cost=300e-3)
        config = fast_config(
            role_switching=True,
            role_switch_interval=0.2,
            switch_out_backlog=2.0,
            switch_patience=2,
            switch_cooldown=2,
            min_verifier_clusters=1,
            cores_per_node=1,
        )
        # 2 executors, 3 clusters: heavy compute backlog
        workload = compute_workload(60, period=0.001)
        cluster = run_cluster(
            app=app,
            workload=workload,
            n_workers=11,
            k=3,
            seed=31,
            config=config,
            until=120.0,
        )
        assert cluster.metrics.tasks_completed == 60
        switches = [s for s in cluster.metrics.role_switches if s[2]]
        assert len(switches) >= 1
        # the switched cluster actually executed tasks
        switched_idx = switches[0][1]
        members = cluster.topo.cluster(switched_idx).members
        executed = sum(
            cluster.worker(pid).engine.tasks_executed for pid in members
        )
        assert executed > 0

    def test_switched_cluster_recalled_when_verification_grows(self):
        # verification costs ~3x the computation: lent clusters must be
        # recalled once the active clusters drown
        app = SyntheticApp(
            records_per_task=50,
            compute_cost=100e-3,
            record_bytes=64,
            verify_cost_ratio=3.0,
        )
        config = fast_config(
            role_switching=True,
            role_switch_interval=0.2,
            switch_out_backlog=2.0,
            switch_in_util=0.6,
            switch_patience=2,
            switch_cooldown=2,
            cores_per_node=1,
            chunk_bytes=64 * 256,
        )
        workload = compute_workload(60, period=0.001)
        cluster = run_cluster(
            app=app,
            workload=workload,
            n_workers=11,
            k=3,
            seed=32,
            config=config,
            until=240.0,
        )
        back = [s for s in cluster.metrics.role_switches if not s[2]]
        out = [s for s in cluster.metrics.role_switches if s[2]]
        # with verification heavy, any lent cluster must come back
        if out:
            assert back
        assert cluster.metrics.tasks_completed == 60

    def test_role_switching_disabled_stays_static(self):
        cluster = run_cluster(
            n_tasks=20,
            seed=33,
            config=fast_config(role_switching=False),
        )
        assert cluster.metrics.role_switches == []

    def test_min_verifier_clusters_respected(self):
        app = SyntheticApp(records_per_task=2, compute_cost=50e-3)
        config = fast_config(
            role_switching=True,
            role_switch_interval=0.2,
            switch_out_backlog=1.0,
            min_verifier_clusters=2,
        )
        cluster = run_cluster(
            app=app,
            workload=compute_workload(60, period=0.001),
            n_workers=14,
            k=3,
            seed=34,
            config=config,
            until=60.0,
        )
        for coord in cluster.coordinators:
            assert len(coord._verifier_pool()) >= 2


class TestFallbackExecution:
    def test_task_falls_back_after_max_attempts(self):
        """Every executor silent: tasks exhaust reassignment attempts and
        verifier sub-clusters execute them directly (Lemma 6.4)."""
        faults = {f"e{i}": SilentFault() for i in range(4)}
        cluster = run_cluster(
            n_tasks=3,
            n_workers=10,
            k=2,
            seed=35,
            until=240.0,
            config=fast_config(max_attempts=2),
            faults=faults,
        )
        assert cluster.metrics.tasks_completed == 3
        assert len(cluster.metrics.fallbacks) == 3

    def test_fallback_records_are_correct(self):
        faults = {f"e{i}": SilentFault() for i in range(4)}
        cluster = run_cluster(
            n_tasks=3,
            n_workers=10,
            k=2,
            seed=36,
            until=240.0,
            config=fast_config(max_attempts=2),
            faults=faults,
        )
        assert cluster.metrics.records_accepted == 15


class TestEquivocationRecovery:
    def test_minority_deprived_verifier_recovers_chunk(self):
        """Plain-channel equivocation leaves a minority verifier with a
        mismatching chunk; OP still accepts via the honest majority."""
        cluster = run_cluster(
            n_tasks=10,
            n_workers=10,
            k=2,
            seed=37,
            until=60.0,
            faults={"e0": EquivocateChunksFault()},
        )
        assert cluster.metrics.tasks_completed == 10
        assert cluster.metrics.records_accepted == 50


class TestPartialSynchrony:
    def test_liveness_after_gst(self):
        """Pre-GST delays cause timeouts and spurious reassignment, but
        after GST every task completes and safety never broke."""
        app = SyntheticApp(records_per_task=5, compute_cost=5e-3)
        cluster = build_osiris_cluster(
            app,
            workload=iter(compute_workload(10)),
            n_workers=10,
            k=2,
            seed=38,
            config=fast_config(suspect_timeout=0.3),
            synchrony=SynchronyModel(
                gst=2.0, pre_gst_extra=0.4, delta=1e-3
            ),
        )
        cluster.start()
        cluster.run(until=120.0)
        assert cluster.metrics.tasks_completed == 10
        assert cluster.metrics.records_accepted == 50


class TestDuplicateSubmission:
    def test_resubmitted_task_executes_once(self):
        """IP retries (same task id) must not duplicate output."""
        tasks = compute_workload(5)
        tasks += [(t + 0.001, task) for t, task in tasks]  # duplicates
        tasks.sort(key=lambda p: p[0])
        cluster = run_cluster(workload=tasks, seed=39)
        assert cluster.metrics.tasks_completed == 5
        assert cluster.metrics.records_accepted == 25
