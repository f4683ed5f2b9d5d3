"""DES workloads: repeat one deterministic scenario for the run's time.

A repetition is one ``api.run`` of the workload's spec — the unit a
sweep is made of, and the request whose latency a DES user waits for.
Host time is what is measured; every simulated statistic must repeat
exactly from one repetition to the next.
"""

from __future__ import annotations

import gc
import os
import time

import layerprof
import procstat
import shapes
import stages
from common import (
    Spans,
    commit_failures,
    des_commits,
    median,
    per_layer_metrics,
    percentile,
)
from repro import api
from repro.obs.sinks import CollectorSink

def setup(shape, seed: int) -> list:
    """Generate the run's inputs and wire one cluster (discarded):
    everything a repetition needs before its first task can be
    submitted."""
    workloads = [
        shapes.des_workload(shape, seed, k) for k in range(shapes.DES_INPUTS)
    ]
    api.build(shapes.des_spec(shape, seed, workloads[0]))
    return workloads


def _pin(result) -> tuple:
    """The simulated statistics that must repeat exactly per seed."""
    cluster = result.extra["cluster"]
    return (
        result.tasks_completed,
        result.records,
        cluster.sim.events_fired,
        cluster.net.messages_sent,
        result.makespan,
    )


def _repeat(specs, seconds: float, at_least: int = 1) -> list[tuple]:
    """Run ``specs`` round-robin until ``seconds`` have passed; one
    ``(input index, start stamp, wall, cpu, result)`` per repetition."""
    out = []
    start = time.perf_counter()
    while len(out) < at_least or time.perf_counter() - start < seconds:
        k = len(out) % len(specs)
        gc.collect()
        cpu0, t0 = time.thread_time(), time.perf_counter()
        result = api.run(specs[k])
        out.append(
            (k, t0, time.perf_counter() - t0, time.thread_time() - cpu0, result)
        )
    return out


def _failed(shape, seed: int, workloads: list, reps: list[tuple]) -> int:
    """Tasks not committed correctly, over all repetitions.

    The reference for each input is a fault-free run of it under another
    deployment seed (different link jitter, same required outputs): a
    repetition's commits must equal it chunk digest for chunk digest —
    on ``des-faulty`` that is the paper's claim that all-executor
    failure costs time, never correctness.  A repetition whose
    simulated statistics drift from the input's first one fails whole.
    """
    failed = 0
    for k in sorted({rep[0] for rep in reps}):
        mine = [rep[4] for rep in reps if rep[0] == k]
        reference = api.run(
            shapes.des_spec(shape, seed + 1, workloads[k], faulty=False)
        )
        expected = des_commits(reference)
        offered = sorted(
            task for op in expected.values() for task in op["completed"]
        )
        failed += max(0, shape.tasks - len(offered)) * len(mine)
        for result in mine:
            if _pin(result) != _pin(mine[0]):
                failed += shape.tasks
            else:
                failed += commit_failures(
                    expected, des_commits(result), offered
                )
    return failed


def measure(shape, seed: int, seconds: float, workloads: list, cal) -> dict:
    """Untraced run: end-to-end metrics at reference host speed, from
    each input's median repetition."""
    specs = [shapes.des_spec(shape, seed, w) for w in workloads]
    _repeat(specs, 0.0)  # let imports, memo tables and allocator settle
    rss = procstat.peak_rss_mb(os.getpid())
    reps = _repeat(specs, seconds, at_least=len(specs))
    wall, cpu = [], []
    for k in range(len(specs)):
        mine = [
            (r[2], r[3], cal.factor(r[1], r[1] + r[2]))
            for r in reps
            if r[0] == k
        ]
        wall.append(median(w / f for w, _, f in mine))
        cpu.append(median(c / f for _, c, f in mine))
    return {
        "attempted": shape.tasks * len(reps),
        "failed": _failed(shape, seed, workloads, reps),
        "samples": len(reps),
        "metrics": {
            "tasks_per_s": shape.tasks * len(wall) / sum(wall),
            # a repetition's latency over the run's input mix; the
            # spread *within* one input is host jitter, not the system
            "task_p50_ms": median(wall) * 1e3,
            "task_p95_ms": percentile(wall, 95) * 1e3,
            "cpu_ms_per_task": sum(cpu) / len(cpu) * 1e3 / shape.tasks,
            "peak_rss_mb": rss,
        },
    }


def trace(shape, seed: int, seconds: float, workloads: list, micro: dict) -> dict:
    """Traced run, on the run's first input only (so counts are exact
    per seed): a plain pass, an audited pass (all-category sink and the
    sanitizer) and a profiled pass, a third of the time each."""
    spans = Spans()
    workload = workloads[0]
    spec = [shapes.des_spec(shape, seed, workload)]
    _repeat(spec, 0.0)
    with spans.span("plain"):
        plain = _repeat(spec, seconds / 3)

    audited, sink = [], None
    with spans.span("audited"):
        start = time.perf_counter()
        while not audited or time.perf_counter() - start < seconds / 3:
            sink = CollectorSink()
            audited += _repeat(
                [
                    shapes.des_spec(
                        shape, seed, workload, sinks=(sink,), sanitize=True
                    )
                ],
                0.0,
            )
    cluster = audited[-1][4].extra["cluster"]
    violations = sum(r[4].sanitizer_violations or 0 for r in audited)

    profiler = layerprof.LayerProfiler()
    with spans.span("profiled"):
        cpu0 = time.process_time()
        profiler.start()
        profiled = _repeat(spec, seconds / 3)
        profiler.stop()
        cpu_s = time.process_time() - cpu0

    with spans.span("zft-baseline"):
        zft = _repeat(
            [shapes.des_spec(shape, seed, workload, system="zft")], 0.0
        )

    offered = {task.task_id: when for when, task in workload.tasks}
    stage, task_ms = stages.typical_stages_ms(
        sink.events, offered, {}, quorum=2
    )
    metrics = per_layer_metrics(
        profile=profiler.summary(),
        cpu_s=cpu_s,
        tasks=shape.tasks * len(profiled),
        stage=stage,
        counts=stages.protocol_counts(sink.events),
        # no node processes, no gateway: the whole system is this process
        role_cpu_ms={
            "parent": median(r[3] for r in plain) * 1e3 / shape.tasks
        },
        task_ms=task_ms,
        overhead=median(r[2] for r in audited) / median(r[2] for r in plain) - 1,
        zft_rate=shape.tasks / zft[0][2],
        micro=micro,
        sim={
            "events_fired": cluster.sim.events_fired / shape.tasks,
            "messages_sent": cluster.net.messages_sent / shape.tasks,
            "bytes_sent": sum(
                cluster.net.nic(pid).egress_meter.total
                for pid in cluster.net.pids
            ) / shape.tasks,
        },
    )
    spans.write(
        shape.name,
        seed=seed,
        layers={k: v for k, v in metrics.items() if k.endswith(".self_s")},
        stages_ms=stage,
        events=len(sink.events),
    )
    reps = plain + audited + profiled
    return {
        "attempted": shape.tasks * len(reps),
        "failed": _failed(shape, seed, workloads, reps)
        + (shape.tasks if violations else 0),
        "samples": len(reps),
        "metrics": metrics,
    }
