#!/usr/bin/env python
"""Motion Planning — batch MIP solving with verifiable optimality proofs.

Tasks are mixed-integer programs (routes for airplanes/robots, Sec 7);
executors solve them with branch and bound and attach an optimality or
infeasibility certificate to each result, like the paper's SCIP proof
logs.  Verifiers check certificates by weak duality — a tree walk of
dot products, no search — so a Byzantine solver cannot sneak a
suboptimal "solution" past them even though nobody re-runs the solve.

This example also demonstrates certificate checking directly, outside
the cluster.

Run:  python examples/motion_planning.py
"""

import numpy as np

from repro.apps.planning import (
    BranchAndBoundSolver,
    CertificateVerifier,
    PlanningApp,
    instance_suite,
    make_planning_task,
)
from repro.core import OsirisConfig, build_osiris_cluster
from repro.core.faults import CorruptRecordFault


def certificate_demo() -> None:
    """Solve one instance and try to cheat the verifier."""
    suite = instance_suite(count=4, seed=11)
    inst = suite[0]
    solver = BranchAndBoundSolver()
    checker = CertificateVerifier()

    result = solver.solve(inst)
    print(f"[{inst.name}] status={result.status} "
          f"objective={result.objective:.1f} "
          f"nodes={result.nodes_explored} lp_solves={result.lp_solves}")

    ok = checker.verify_optimal(
        inst, result.x, result.objective, result.certificate
    )
    print(f"honest certificate verifies: {ok.ok} "
          f"({ok.leaves_checked} leaves, {ok.lp_resolves} LP re-solves)")

    # cheat 1: claim a feasible-but-worse solution is optimal
    worse = np.zeros(inst.n_vars)
    cheat = checker.verify_optimal(
        inst, worse, inst.objective(worse), result.certificate
    )
    print(f"suboptimal claim rejected: {not cheat.ok} ({cheat.reason})")

    # cheat 2: claim an infeasible point
    bogus = checker.verify_optimal(
        inst, np.full(inst.n_vars, 99.0), result.objective, result.certificate
    )
    print(f"infeasible claim rejected:  {not bogus.ok} ({bogus.reason})")
    assert ok.ok and not cheat.ok and not bogus.ok


def cluster_demo() -> None:
    """Run the planning workload through a BFT cluster with a Byzantine
    solver that corrupts its answers."""
    suite = instance_suite(count=20, seed=11)
    app = PlanningApp(instances=suite, node_cost=1e-3)
    workload = [
        (i * 0.02, make_planning_task(i, i % len(suite))) for i in range(20)
    ]
    cluster = build_osiris_cluster(
        app,
        workload=iter(workload),
        n_workers=10,
        k=2,
        seed=12,
        config=OsirisConfig(f=1, chunk_bytes=65536, suspect_timeout=0.5),
        faults={"e2": CorruptRecordFault()},
    )
    cluster.start()
    cluster.run(until=120.0)

    m = cluster.metrics
    print(f"\nMIPs solved & verified: {m.tasks_completed} / 20")
    print(f"corrupt proofs caught:  {len(m.faults_detected)}")
    assert m.tasks_completed == 20
    assert m.records_accepted == 20


if __name__ == "__main__":
    certificate_demo()
    cluster_demo()
    print("\nOK: optimality certificates make solver output verifiable.")
