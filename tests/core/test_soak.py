"""Verifier and OP memory is bounded by the work in flight, not by the
run's history: once the OP has acknowledged a task, no verifier holds
any of its records, in any attempt; and once a chunk slot is accepted,
the OP keeps only its σ and record count."""

import pytest

from repro import api
from repro.bench.workloads import synthetic_bench
from repro.core.faults import ExecutorFault
from tests.core.helpers import held_chunks, op_held_chunks


class WithholdFinalOnce(ExecutorFault):
    """Withholds one task's final chunk, once: the verifiers' suspect
    timer reassigns the task, and the first attempt's verified chunks
    stay behind as a sibling of the attempt that completes."""

    def __init__(self, task_id: str) -> None:
        super().__init__()
        self.task_id = task_id
        self.fired = False

    def suppress_final_chunk(self, task) -> bool:
        if task.task_id != self.task_id or self.fired:
            return False
        self.fired = True
        return True


def soak(n_tasks: int):
    """n=4 burst of ``n_tasks``, driven until every task completed and
    then one more simulated second, so the last acknowledgements land."""
    spec = api.DeploymentSpec(
        workload=synthetic_bench(
            n_tasks, records_per_task=4, compute_cost=1e-3, rate=2000.0
        ),
        n=4,
        seed=7,
        config=(("chunk_bytes", 2048),),
        faults={"e0": WithholdFinalOnce("c5")},
    )
    cluster = api.build(spec)
    cluster.start()
    while (
        cluster.metrics.tasks_completed < n_tasks
        and cluster.sim.now < spec.deadline
    ):
        cluster.run(until=cluster.sim.now + 1.0)
    cluster.run(until=cluster.sim.now + 1.0)
    return cluster


@pytest.fixture(scope="module")
def soaked():
    """The 300- and 1200-task soak runs, shared by both checks."""
    return {n_tasks: soak(n_tasks) for n_tasks in (300, 1200)}


class TestVerifierSoak:
    def test_held_records_do_not_grow_with_the_task_count(self, soaked):
        held = {}
        for n_tasks, cluster in soaked.items():
            assert cluster.metrics.tasks_completed == n_tasks
            reassigned = {
                task_id
                for v in cluster.all_verifiers
                for task_id, attempts in v._attempts.items()
                if len(attempts) > 1
            }
            assert reassigned == {"c5"}
            held[n_tasks] = [
                sum(len(chunk.records) for chunk in held_chunks(v))
                for v in cluster.all_verifiers
            ]
        assert held == {300: [0, 0, 0], 1200: [0, 0, 0]}


class TestOutputSoak:
    def test_op_holds_no_records_once_every_task_completed(self, soaked):
        held = {}
        for n_tasks, cluster in soaked.items():
            (op,) = cluster.outputs
            assert all(ot.completed for ot in op._tasks.values())
            # what was committed is still known, as σ and counts
            commits = op.commit_record()
            assert len(commits["completed"]) == n_tasks
            assert sum(commits["records"].values()) == 4 * n_tasks
            held[n_tasks] = sum(
                len(chunk.records) for chunk in op_held_chunks(op)
            )
        assert held == {300: 0, 1200: 0}
