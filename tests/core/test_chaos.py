"""Chaos property: random *combined* fault assignments — Byzantine
executors (any number), at most f Byzantine verifiers per sub-cluster,
and Byzantine output processes — never violate safety, and the system
stays live.

This is the paper's full fault model (Sec 3) exercised in one property:
"safety is not compromised even if all processes in EP are faulty" and
"at most f processes in VP_i fail".
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.synthetic import SyntheticApp
from repro.core import build_osiris_cluster
from repro.core.faults import (
    BogusDigestFault,
    CorruptRecordFault,
    DuplicateRecordFault,
    EquivocateChunksFault,
    FabricateRecordFault,
    FalseAccusationFault,
    NegligentLeaderFault,
    OmitRecordFault,
    SilentFault,
    SilentVerifierFault,
    TruncateOutputFault,
)
from tests.core.helpers import audited_outputs, compute_workload, fast_config

EXEC_FAULTS = [
    CorruptRecordFault,
    FabricateRecordFault,
    DuplicateRecordFault,
    OmitRecordFault,
    TruncateOutputFault,
    SilentFault,
    EquivocateChunksFault,
    None,
]
VER_FAULTS = [
    NegligentLeaderFault,
    BogusDigestFault,
    FalseAccusationFault,
    SilentVerifierFault,
    None,
]


@st.composite
def fault_plans(draw):
    execs = {
        f"e{i}": draw(st.sampled_from(EXEC_FAULTS)) for i in range(4)
    }
    # at most ONE faulty verifier per 2f+1=3 sub-cluster (f=1)
    verifier_plan = {}
    for cluster_idx, members in ((0, ["v0", "v1", "v2"]), (1, ["v3", "v4", "v5"])):
        victim = draw(st.sampled_from(members))
        fault_cls = draw(st.sampled_from(VER_FAULTS))
        if fault_cls is not None:
            verifier_plan[victim] = fault_cls()
    executor_plan = {pid: cls() for pid, cls in execs.items() if cls is not None}
    return {**executor_plan, **verifier_plan}


class TestChaos:
    @given(plan=fault_plans(), seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=15, deadline=None)
    def test_safety_and_liveness_under_combined_faults(self, plan, seed):
        n_tasks = 5
        app = SyntheticApp(records_per_task=4, compute_cost=5e-3)
        cluster = build_osiris_cluster(
            app,
            workload=iter(compute_workload(n_tasks)),
            n_workers=10,
            k=2,
            seed=seed,
            config=fast_config(max_attempts=2),
            faults=plan,
            sanitize=True,
        )
        cluster.start()
        cluster.run(until=300.0)
        m = cluster.metrics

        # liveness: every task's output reaches OP
        assert m.tasks_completed == n_tasks, plan
        # safety: exactly the correct records, never more, never corrupt;
        # the audit cuts A(s, t) along the committed record counts and
        # compares every committed σ
        assert m.records_accepted == n_tasks * 4
        assert audited_outputs(cluster) == n_tasks * len(cluster.outputs)
