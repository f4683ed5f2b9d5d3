"""Byzantine executor tests: every output-failure class is caught and the
system recovers (safety never violated, liveness preserved)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.synthetic import SyntheticApp
from repro.core.faults import (
    CorruptRecordFault,
    DuplicateFinalChunkFault,
    DuplicateRecordFault,
    EquivocateChunksFault,
    FabricateRecordFault,
    OmitRecordFault,
    ReorderRecordsFault,
    SilentFault,
    SlowFault,
    TruncateOutputFault,
)
from tests.core.helpers import audited_outputs, run_cluster


def assert_safety(cluster, n_tasks, records_per_task=5):
    """OP accepted exactly A(s,t) for every completed task: no corrupt,
    duplicated or missing record ever reached downstream.  The cluster
    is built with ``sanitize=True``; its audit cuts A(s, t) along the
    committed record counts and compares every committed σ."""
    m = cluster.metrics
    assert m.tasks_completed == n_tasks
    assert m.records_accepted == n_tasks * records_per_task
    assert audited_outputs(cluster) == n_tasks * len(cluster.outputs)


FAULTS = {
    "corrupt": CorruptRecordFault,
    "fabricate": FabricateRecordFault,
    "duplicate": DuplicateRecordFault,
    "omit": OmitRecordFault,
    "truncate": TruncateOutputFault,
    "reorder": ReorderRecordsFault,
    "equivocate": EquivocateChunksFault,
}


class TestOutputFailureDetection:
    @pytest.mark.parametrize("name", sorted(FAULTS))
    def test_fault_detected_and_task_recovers(self, name):
        cluster = run_cluster(
            n_tasks=10,
            n_workers=10,
            k=2,
            seed=11,
            until=60.0,
            faults={"e0": FAULTS[name]()},
            sanitize=True,
        )
        assert_safety(cluster, 10)
        assert len(cluster.metrics.faults_detected) >= 1, name

    @pytest.mark.parametrize(
        "name", sorted(set(FAULTS) - {"equivocate"})
    )  # equivocation is detected by fewer than f+1 verifiers (the honest
    # majority still completes the task), so no blacklist quorum forms
    def test_byzantine_executor_blacklisted(self, name):
        cluster = run_cluster(
            n_tasks=10,
            n_workers=10,
            k=2,
            seed=11,
            until=60.0,
            faults={"e0": FAULTS[name]()},
        )
        for coord in cluster.coordinators:
            assert "e0" in coord.blacklist, name

    def test_detection_reason_matches_fault(self):
        cluster = run_cluster(
            n_tasks=6,
            until=60.0,
            seed=11,
            faults={"e0": CorruptRecordFault()},
        )
        reasons = {kind for _, kind, _ in cluster.metrics.faults_detected}
        assert "invalid-record" in reasons

    def test_count_mismatch_reason_for_omission(self):
        cluster = run_cluster(
            n_tasks=6,
            until=60.0,
            seed=11,
            faults={"e0": OmitRecordFault()},
        )
        reasons = {kind for _, kind, _ in cluster.metrics.faults_detected}
        assert "count-mismatch" in reasons

    def test_duplicate_chunk_caught_as_replay(self):
        # count_cost_ratio > 1 delays the omission check past the replayed
        # chunk's arrival, exercising the taskFinished boundary rule
        app = SyntheticApp(
            records_per_task=10, compute_cost=5e-3, count_cost_ratio=2.0
        )
        cluster = run_cluster(
            n_tasks=6,
            until=60.0,
            seed=11,
            app=app,
            faults={"e0": DuplicateFinalChunkFault()},
        )
        assert cluster.metrics.tasks_completed == 6
        reasons = {kind for _, kind, _ in cluster.metrics.faults_detected}
        assert "chunk-after-final" in reasons

    def test_early_final_caught(self):
        from repro.core.faults import EarlyFinalFault

        app = SyntheticApp(records_per_task=20, compute_cost=5e-3)
        cluster = run_cluster(
            n_tasks=6,
            until=60.0,
            seed=11,
            app=app,
            faults={"e0": EarlyFinalFault()},
        )
        assert cluster.metrics.tasks_completed == 6
        reasons = {kind for _, kind, _ in cluster.metrics.faults_detected}
        assert reasons & {"count-mismatch", "chunk-after-final"}


class TestTimeoutFaults:
    def test_silent_executor_reassigned(self):
        cluster = run_cluster(
            n_tasks=10,
            until=60.0,
            seed=12,
            faults={"e0": SilentFault()},
            sanitize=True,
        )
        assert_safety(cluster, 10)
        assert len(cluster.metrics.reassignments) >= 1

    def test_slow_executor_speculatively_reassigned(self):
        """A correct-but-slow executor triggers reassignment; verifiers
        accept whichever attempt finishes first — output stays correct."""
        cluster = run_cluster(
            n_tasks=10,
            until=60.0,
            seed=13,
            faults={"e0": SlowFault(delay=3.0)},
            sanitize=True,
        )
        assert_safety(cluster, 10)
        assert len(cluster.metrics.reassignments) >= 1

    def test_crashed_executor(self):
        cluster = run_cluster(n_tasks=0, until=0.0)  # build only
        # restart with a crash mid-run
        from tests.core.helpers import compute_workload, fast_config
        from repro.core import build_osiris_cluster

        app = SyntheticApp(records_per_task=5, compute_cost=5e-3)
        cluster = build_osiris_cluster(
            app,
            workload=iter(compute_workload(10)),
            n_workers=10,
            k=2,
            seed=14,
            config=fast_config(),
        )
        cluster.sim.schedule(0.02, cluster.executors[0].crash)
        cluster.start()
        cluster.run(until=60.0)
        assert cluster.metrics.tasks_completed == 10


class TestAllExecutorsFaulty:
    def test_safety_with_every_executor_byzantine(self):
        """Sec 3: safety is not compromised even if ALL of EP is faulty.
        With fallback execution, liveness holds too (Lemma 6.4)."""
        faults = {f"e{i}": CorruptRecordFault() for i in range(4)}
        cluster = run_cluster(
            n_tasks=6,
            n_workers=10,
            k=2,
            seed=15,
            until=120.0,
            faults=faults,
            sanitize=True,
        )
        assert_safety(cluster, 6)

    def test_all_silent_executors_fall_back_to_verifiers(self):
        faults = {f"e{i}": SilentFault() for i in range(4)}
        cluster = run_cluster(
            n_tasks=4,
            n_workers=10,
            k=2,
            seed=16,
            until=120.0,
            faults=faults,
        )
        assert cluster.metrics.tasks_completed == 4
        assert len(cluster.metrics.fallbacks) >= 1


class TestSafetyProperty:
    @given(
        fault_names=st.lists(
            st.sampled_from(sorted(FAULTS)), min_size=1, max_size=3
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=12, deadline=None)
    def test_no_fault_combination_corrupts_output(self, fault_names, seed):
        """Property: arbitrary combinations of Byzantine executors can
        delay output but never corrupt what OP accepts."""
        faults = {
            f"e{i}": FAULTS[name]() for i, name in enumerate(fault_names)
        }
        cluster = run_cluster(
            n_tasks=6,
            n_workers=10,
            k=2,
            seed=seed,
            until=120.0,
            faults=faults,
            sanitize=True,
        )
        assert_safety(cluster, 6)
