#!/usr/bin/env python
"""Anomaly Detection — the paper's running use case (Fig 1).

A network graph receives a continuous stream of link updates; every
update triggers pattern matching around the new link to find anomalous
substructures (here: triangles closing around the link).  The state is
multiversioned, so concurrent tasks read consistent snapshots while
updates keep flowing.

One executor *omits* matches from its output — the cybersecurity threat
model where "a malicious process can hide suspicious records from
downstream analysis" (Sec 4.2).  The verifiers' outputSize check catches
it: the count of matches is computed independently and cheaply.

Run:  python examples/anomaly_detection.py
"""

from repro.apps.anomaly import (
    AnomalyApp,
    clique,
    link_update_stream,
    power_law_graph,
)
from repro.core import OsirisConfig, build_osiris_cluster
from repro.core.faults import OmitRecordFault


def main() -> None:
    # the "network": a power-law graph, like real communication networks
    base = power_law_graph(n=200, m=5, seed=7)
    app = AnomalyApp(base, clique(3), step_cost=1e-5)

    # a stream of fresh links, biased toward dense regions
    workload = link_update_stream(base, n_tasks=40, rate=100, seed=8)

    cluster = build_osiris_cluster(
        app,
        workload=workload,
        n_workers=10,
        k=2,
        seed=9,
        config=OsirisConfig(f=1, chunk_bytes=4096, suspect_timeout=0.5),
        faults={"e1": OmitRecordFault()},  # hides matches!
    )
    cluster.start()
    cluster.run(until=120.0)

    m = cluster.metrics
    print(f"link updates processed: {m.tasks_completed} / 40")
    print(f"anomalies reported:     {m.records_accepted}")
    print(f"omissions detected:     "
          f"{sum(1 for _, k, _ in m.faults_detected if k == 'count-mismatch')}")
    print(f"graph version at executors: "
          f"{cluster.executors[0].store.applied_ts}")

    # every replica converged to the same network version
    versions = {
        p.store.applied_ts
        for p in cluster.executors + cluster.all_verifiers
    }
    assert versions == {40}, versions
    assert m.tasks_completed == 40
    print("\nOK: all replicas consistent; hidden anomalies were recovered.")


if __name__ == "__main__":
    main()
