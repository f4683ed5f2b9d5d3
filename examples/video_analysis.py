#!/usr/bin/env python
"""Video Analysis — time-based analytics over a streaming feed.

Frames stream in as state updates; every few frames a clustering task
computes pixel clusters over the recent window (segmentation / motion
detection for security cameras, Sec 7).  This is the paper's Sec 4.1
case (ii): update tasks and computation tasks are decoupled.

Verifiers check the *optimality* of reported centroids in one pass
(each centroid must be the mean of the pixels assigned to it), so a
compromised camera-analytics node cannot report fabricated clusters.

Run:  python examples/video_analysis.py
"""

from repro.apps.video import VideoApp, frame_stream, make_cluster_task, make_frame_task
from repro.core import OsirisConfig, build_osiris_cluster
from repro.core.faults import FabricateRecordFault


def main() -> None:
    app = VideoApp()

    # 24 frames at ~30 fps with a clustering task every 6 frames
    workload = []
    t = 0.0
    computes = 0
    for i, frame in enumerate(frame_stream(24, points_per_frame=300, seed=21)):
        workload.append((t, make_frame_task(i, frame)))
        t += 1 / 30
        if i >= 4 and i % 6 == 5:
            workload.append((t, make_cluster_task(computes, k=6, window=4)))
            computes += 1
            t += 1 / 30

    cluster = build_osiris_cluster(
        app,
        workload=iter(workload),
        n_workers=10,
        k=2,
        seed=22,
        config=OsirisConfig(f=1, chunk_bytes=16384, suspect_timeout=0.5),
        faults={"e3": FabricateRecordFault()},  # fake clusters
    )
    cluster.start()
    cluster.run(until=60.0)

    m = cluster.metrics
    print(f"frames ingested:        {cluster.executors[0].store.applied_ts}")
    print(f"clustering tasks done:  {m.tasks_completed} / {computes}")
    print(f"cluster records:        {m.records_accepted} "
          f"(expected {computes * 6})")
    print(f"fabrications detected:  {len(m.faults_detected)}")

    assert m.tasks_completed == computes
    assert m.records_accepted == computes * 6
    print("\nOK: only Lloyd-stable clusterings reached the consumer.")


if __name__ == "__main__":
    main()
