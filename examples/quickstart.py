#!/usr/bin/env python
"""Quickstart: a minimal OsirisBFT deployment in ~60 lines.

Builds a 10-worker cluster (two verifier sub-clusters of 3, four
executors), streams 50 computation tasks through it — one of the
executors is Byzantine and corrupts its output — and shows that every
task still completes with exactly the correct records delivered, while
the faulty executor is detected and blacklisted.

Run:  python examples/quickstart.py
"""

from repro.apps.synthetic import SyntheticApp, make_compute_task
from repro.core import OsirisConfig, build_osiris_cluster
from repro.core.faults import CorruptRecordFault


def main() -> None:
    # 1. A verifiable application: ⟨U, A⟩ plus the three verification
    #    operators (is_valid / happens_before / output_size).  The
    #    synthetic app produces 8 deterministic records per task.
    app = SyntheticApp(records_per_task=8, compute_cost=10e-3)

    # 2. A workload: (submit_time, Task) pairs.
    workload = [(i * 0.01, make_compute_task(i)) for i in range(50)]

    # 3. The cluster: n_workers split into k verifier sub-clusters of
    #    2f+1 (the first is the coordinator VP_CO) plus executors.
    cluster = build_osiris_cluster(
        app,
        workload=iter(workload),
        n_workers=10,
        k=2,
        seed=42,
        config=OsirisConfig(f=1, suspect_timeout=0.5),
        faults={"e0": CorruptRecordFault()},  # a Byzantine executor
    )

    # 4. Run the simulation.
    cluster.start()
    cluster.run(until=60.0)

    # 5. Inspect the outcome.
    m = cluster.metrics
    print(f"tasks completed:    {m.tasks_completed} / 50")
    print(f"records delivered:  {m.records_accepted} (expected {50 * 8})")
    print(f"mean task latency:  {m.mean_latency() * 1e3:.1f} ms")
    print(f"faults detected:    {len(m.faults_detected)}")
    for when, kind, culprit in m.faults_detected[:3]:
        print(f"  t={when:.2f}s  {kind}  culprit={culprit}")
    print(f"reassignments:      {len(m.reassignments)}")
    blacklisted = cluster.coordinators[0].blacklist
    print(f"blacklisted:        {sorted(blacklisted)}")

    assert m.tasks_completed == 50
    assert m.records_accepted == 50 * 8  # no corrupt record ever accepted
    assert "e0" in blacklisted
    print("\nOK: all output verified correct despite the Byzantine executor.")


if __name__ == "__main__":
    main()
