"""Tests for the ZFT and RCP baselines and the store cost models."""

import pytest

from repro.apps.synthetic import SyntheticApp, make_compute_task, make_update_task
from repro.baselines import (
    basil_updates_per_sec,
    kauri_updates_per_sec,
    plan_rcp_cluster,
    plan_zft_cluster,
    rcp_parallel_tasks,
)
from repro.core import OsirisConfig
from repro.errors import BenchmarkError, ProtocolError
from repro.runtime.deploy import instantiate_plan_des


def app():
    return SyntheticApp(records_per_task=5, compute_cost=5e-3)


def run(plan, tasks, application=None, until=10.0):
    """Instantiate ``plan`` on the DES and run ``tasks`` through it."""
    c = instantiate_plan_des(plan, application or app(), iter(tasks))
    c.start()
    c.run(until=until)
    return c


def compute_tasks(n, period=0.005):
    return [(i * period, make_compute_task(i)) for i in range(n)]


def mixed_tasks(n):
    out, t = [], 0.0
    for i in range(n):
        out.append((t, make_update_task(i)))
        t += 0.005
        out.append((t, make_compute_task(i)))
        t += 0.005
    return out


class TestZft:
    def test_all_tasks_complete(self):
        c = run(plan_zft_cluster(8), compute_tasks(30))
        assert c.metrics.tasks_completed == 30
        assert c.metrics.records_accepted == 150

    def test_no_replication(self):
        c = run(plan_zft_cluster(8), compute_tasks(30))
        assert sum(w.tasks_executed for w in c.executors) == 30

    def test_all_workers_participate(self):
        c = run(plan_zft_cluster(8), compute_tasks(32))
        assert all(w.tasks_executed > 0 for w in c.executors)

    def test_single_node_deployment(self):
        c = run(plan_zft_cluster(1), compute_tasks(5))
        assert c.metrics.tasks_completed == 5

    def test_state_updates_reach_all_workers(self):
        c = run(plan_zft_cluster(4), mixed_tasks(10))
        assert len(c.executors) == 4
        assert all(w.store.applied_ts == 10 for w in c.executors)

    def test_invalid_worker_count(self):
        with pytest.raises(ProtocolError):
            plan_zft_cluster(0)

    def test_latency_lower_than_osiris(self):
        """ZFT has no verification in the critical path: its latency
        should be below an equivalent OsirisBFT run."""
        from repro.core import build_osiris_cluster
        from tests.core.helpers import fast_config

        z = run(plan_zft_cluster(10), compute_tasks(20))
        o = build_osiris_cluster(
            app(),
            workload=iter(compute_tasks(20)),
            n_workers=10,
            k=2,
            config=fast_config(),
        )
        o.start()
        o.run(until=10.0)
        assert z.metrics.mean_latency() < o.metrics.mean_latency()


class TestRcp:
    def test_all_tasks_complete(self):
        c = run(plan_rcp_cluster(9), compute_tasks(30))
        assert c.metrics.tasks_completed == 30
        assert c.metrics.records_accepted == 150

    def test_computation_replicated_2f_plus_1_times(self):
        c = run(plan_rcp_cluster(9, OsirisConfig(f=1)), compute_tasks(30))
        assert sum(w.tasks_executed for w in c.executors) == 30 * 3

    def test_f2_replication_factor(self):
        c = run(plan_rcp_cluster(10, OsirisConfig(f=2)), compute_tasks(10))
        assert c.metrics.tasks_completed == 10
        assert sum(w.tasks_executed for w in c.executors) == 10 * 5

    def test_leftover_workers_idle(self):
        plan = plan_rcp_cluster(11, OsirisConfig(f=1))
        workers = [n.pid for n in plan.nodes if n.role == "executor"]
        assert workers == [f"w{i}" for i in range(9)]
        assert 11 - len(workers) == 2

    def test_too_few_workers_rejected(self):
        with pytest.raises(ProtocolError):
            plan_rcp_cluster(2, OsirisConfig(f=1))

    def test_state_updates_reach_all_members(self):
        c = run(plan_rcp_cluster(9), mixed_tasks(8))
        assert len(c.executors) == 9
        assert all(w.store.applied_ts == 8 for w in c.executors)

    def test_one_crashed_replica_tolerated(self):
        c = instantiate_plan_des(plan_rcp_cluster(9), app(), iter(compute_tasks(12)))
        c.worker("w4").crash()  # member of cluster 1
        c.start()
        c.run(until=10.0)
        assert c.metrics.tasks_completed == 12

    def test_parallel_task_formula(self):
        assert rcp_parallel_tasks(32, 1) == 10
        assert rcp_parallel_tasks(32, 2) == 6
        assert rcp_parallel_tasks(100, 0) == 100


class TestOsirisBeatsRcp:
    def test_osiris_higher_throughput_same_cluster(self):
        """The headline: same hardware, same workload, OsirisBFT finishes
        the backlog sooner because it never replicates computation."""
        from repro.core import build_osiris_cluster
        from tests.core.helpers import fast_config

        heavy = SyntheticApp(records_per_task=5, compute_cost=50e-3)
        n, tasks = 12, compute_tasks(60, period=0.001)
        r = run(plan_rcp_cluster(n), tasks, heavy, until=60.0)
        o = build_osiris_cluster(
            heavy,
            workload=iter(list(tasks)),
            n_workers=n,
            k=2,
            config=fast_config(role_switching=False),
        )
        o.start()
        o.run(until=60.0)
        assert o.metrics.tasks_completed == r.metrics.tasks_completed == 60
        assert o.metrics.mean_latency() < r.metrics.mean_latency()


class TestStoreModels:
    def test_kauri_grows_with_n(self):
        assert kauri_updates_per_sec(32) > kauri_updates_per_sec(4)

    def test_basil_declines_with_n(self):
        assert basil_updates_per_sec(32) < basil_updates_per_sec(4)

    def test_kauri_above_basil(self):
        for n in (4, 8, 16, 32):
            assert kauri_updates_per_sec(n) > basil_updates_per_sec(n)

    def test_paper_range(self):
        for n in (4, 8, 16, 32):
            assert 1_000 <= basil_updates_per_sec(n) <= 10_000
            assert 1_000 <= kauri_updates_per_sec(n) <= 10_000

    def test_invalid_n(self):
        with pytest.raises(BenchmarkError):
            kauri_updates_per_sec(0)
        with pytest.raises(BenchmarkError):
            basil_updates_per_sec(0)
