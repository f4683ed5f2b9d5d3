"""Table 1 — replication / scalability / fault-tolerance comparison.

The table itself is analytic; this bench prints it for f ∈ {1, 2} and
then *validates the model against the implementation*: measured
execution counts must match the claimed computation replication, and
measured communication fan-out must match the claimed communication
replication.
"""


from repro.apps.synthetic import SyntheticApp, make_compute_task
from repro.baselines import plan_rcp_cluster, plan_zft_cluster
from repro.bench import osiris_parallel_tasks, print_table, table1
from repro.core import OsirisConfig, build_osiris_cluster
from repro.runtime.deploy import instantiate_plan_des


class TestTable1:
    def test_table1_rows(self, run_once):
        rows = run_once(lambda: table1(f=1))
        print_table(
            "Table 1 (f=1)",
            ["system", "comp repl", "comp scalability", "comm repl", "faults"],
            [
                (
                    r.system,
                    r.computation_replication,
                    r.computation_scalability,
                    r.communication_replication,
                    r.faults_tolerated,
                )
                for r in rows
            ],
        )
        print_table(
            "Table 1 (f=2)",
            ["system", "comp repl", "comp scalability", "comm repl", "faults"],
            [
                (
                    r.system,
                    r.computation_replication,
                    r.computation_scalability,
                    r.communication_replication,
                    r.faults_tolerated,
                )
                for r in table1(f=2)
            ],
        )
        assert [r.system for r in rows] == ["ZFT", "RCP", "OsirisBFT"]

    def _run_all(self, n_tasks=30):
        app = SyntheticApp(records_per_task=4, compute_cost=5e-3)
        tasks = lambda: iter(
            [(i * 0.002, make_compute_task(i)) for i in range(n_tasks)]
        )
        zft = instantiate_plan_des(plan_zft_cluster(9, seed=3), app, tasks())
        zft.start()
        zft.run(until=30.0)
        rcp = instantiate_plan_des(
            plan_rcp_cluster(9, OsirisConfig(f=1), seed=3), app, tasks()
        )
        rcp.start()
        rcp.run(until=30.0)
        osiris = build_osiris_cluster(
            app,
            workload=tasks(),
            n_workers=9,
            k=2,
            seed=3,
            config=OsirisConfig(role_switching=False, chunk_bytes=4096),
        )
        osiris.start()
        osiris.run(until=30.0)
        return zft, rcp, osiris, n_tasks

    def test_computation_replication_column_is_real(self):
        """ZFT and OsirisBFT execute each task once; RCP executes it
        2f+1 times — measured, not assumed."""
        zft, rcp, osiris, n = self._run_all()
        assert sum(w.tasks_executed for w in zft.executors) == n
        assert sum(w.tasks_executed for w in rcp.executors) == n * 3
        executed = sum(e.engine.tasks_executed for e in osiris.executors)
        executed += sum(v.engine.tasks_executed for v in osiris.all_verifiers)
        assert executed == n

    def test_communication_replication_column_is_real(self):
        """Each OsirisBFT record chunk reaches 2f+1 verifiers."""
        zft, rcp, osiris, n = self._run_all()
        total_chunk_verifications = sum(
            v.chunks_verified for v in osiris.all_verifiers
        )
        # every task = 1 chunk here; each verified by exactly 2f+1 members
        assert total_chunk_verifications == n * 3

    def test_parallel_task_model(self):
        assert osiris_parallel_tasks(32, 1, k=5) == 17
        assert osiris_parallel_tasks(32, 1, k=1) == 29
        assert osiris_parallel_tasks(9, 1, k=2) == 3
        # without non-equivocation, sub-clusters grow to 3f+1
        assert osiris_parallel_tasks(32, 1, k=5, non_equivocation=False) == 12
