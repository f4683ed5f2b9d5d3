#!/usr/bin/env python
"""Failure recovery — the Fig 7a scenario at example scale.

A cluster processes a steady task stream; at t=15s **every executor
turns Byzantine simultaneously** and corrupts its output.  OsirisBFT's
safety guarantee doesn't depend on executors at all: verifiers detect
the corruption, the coordinator blacklists the culprits, and dynamic
role-switching converts verifier sub-clusters into executors so
throughput recovers instead of collapsing to zero.

Run:  python examples/failure_recovery.py
"""

from repro.apps.synthetic import SyntheticApp, make_compute_task
from repro.core import OsirisConfig, build_osiris_cluster
from repro.core.faults import CorruptRecordFault

FAIL_AT = 15.0


def main() -> None:
    app = SyntheticApp(records_per_task=6, compute_cost=80e-3)
    workload = [(i * 0.05, make_compute_task(i)) for i in range(600)]

    cluster = build_osiris_cluster(
        app,
        workload=iter(workload),
        n_workers=13,
        k=3,
        seed=33,
        config=OsirisConfig(
            f=1,
            suspect_timeout=1.0,
            role_switching=True,
            role_switch_interval=0.5,
            switch_patience=2,
            switch_cooldown=2,
            cores_per_node=1,
        ),
        faults={
            f"e{i}": CorruptRecordFault(activate_at=FAIL_AT) for i in range(4)
        },
    )
    cluster.start()
    cluster.run(until=90.0)

    m = cluster.metrics
    series = m.throughput_series()
    print("throughput trace (records/sec):")
    for t, v in series:
        bar = "#" * int(v / 5)
        marker = "  <-- all executors fail" if abs(t - FAIL_AT) < 0.5 else ""
        print(f"  t={t:5.0f}s {v:8.0f} {bar}{marker}")

    last = max(m.completion_times)
    before = m.throughput(5.0, FAIL_AT)
    after = m.throughput(FAIL_AT + 3.0, max(last, FAIL_AT + 4.0))
    print(f"\nthroughput before failure: {before:8.0f} rec/s")
    print(f"throughput after recovery: {after:8.0f} rec/s")
    print(f"faults detected:  {len(m.faults_detected)}")
    print(f"role switches:    {m.role_switches}")
    print(f"blacklisted:      {sorted(cluster.coordinators[0].blacklist)}")

    assert len(m.faults_detected) > 0
    assert after > 0, "system must keep making progress"
    assert m.records_accepted == m.tasks_completed * 6
    print("\nOK: recovered by switching verifiers into the executor role.")


if __name__ == "__main__":
    main()
