"""Live workloads: a closed loop over ``LiveRuntime.submit`` / ``poll``.

The load generator keeps ``shape.window`` tasks in flight: a task is
submitted only when an earlier one completes, so a slower system gets
less load and throughput is the result.  One thread, no gateway.
"""

from __future__ import annotations

import os
import time

import layerprof
import shapes
import stages
from common import (
    OUT_DIR,
    DoneSink,
    Spans,
    Window,
    node_processes,
    per_layer_metrics,
    role_cpu,
    rss_mb,
    twin_failures,
)
from repro import api
from repro.obs.sinks import CollectorSink

#: tasks completed before timing starts (caches, allocator, queues warm)
WARM_TASKS = {"live-burst": 100, "live-bulk": 24}
#: peak RSS is read when exactly this many tasks have been committed, so
#: a faster system is not charged for the extra tasks it retires
RSS_AT = {"live-burst": 400, "live-bulk": 48}
#: wall seconds the loop waits for in-flight tasks after the last submit
DRAIN_S = 8.0
#: wall seconds without a single completion before the loop gives up
STALL_S = 30.0


class Deployment:
    """One started live deployment plus the benchmark's stamps on it."""

    def __init__(self, shape, seed: int, *, audited: bool = False) -> None:
        self.shape = shape
        self.seed = seed
        self.done = DoneSink()
        self.collector = CollectorSink() if audited else None
        sinks = (self.done,) + ((self.collector,) if audited else ())
        self.runtime = api.build(
            shapes.live_spec(shape, seed, sinks=sinks, sanitize=audited),
            time_scale=1.0,
        )
        self.done.clock = lambda: self.runtime.now_sim
        self.runtime.start()
        self.nodes = node_processes()
        self.tasks = shapes.task_stream(shape, seed)
        self.offered: list = []  # every task handed to the system
        self.submit_wall: dict[str, float] = {}
        self.submit_sim: dict[str, float] = {}
        self.report = None

    def submit_next(self) -> None:
        task = next(self.tasks)
        self.offered.append(task)
        self.submit_sim[task.task_id] = self.runtime.now_sim
        self.submit_wall[task.task_id] = time.perf_counter()
        self.runtime.submit(task)

    def stop(self):
        if self.report is None:
            self.report = self.runtime.stop()
        return self.report


def setup(shape, seed: int) -> Deployment:
    """Generate inputs, build, fork six node processes and complete the
    start handshake: after this the first task can be submitted."""
    return Deployment(shape, seed)


def teardown(dep: Deployment) -> None:
    dep.stop()


def closed_loop(dep: Deployment, seconds: float, warm: int, rss_at: int) -> dict:
    """Drive the loop: ``warm`` tasks untimed, then ``seconds`` timed,
    then drain.  Returns the raw stamps the metrics are computed from;
    ``cpu`` holds one ``(stamp, tasks done, CPU seconds by role)`` sample
    per half second of the timed window."""
    window = dep.shape.window
    done = dep.done.wall
    rss = 0.0
    t_start = t_end = None
    cpu: list[tuple] = []
    progress = (time.perf_counter(), 0)
    while True:
        now = time.perf_counter()
        if len(done) > progress[1]:
            progress = (now, len(done))
        elif t_end is None and now - progress[0] > STALL_S:
            raise RuntimeError(
                f"live deployment stalled: {len(done)} of "
                f"{len(dep.offered)} tasks done, none for {STALL_S:.0f} s"
            )
        if t_start is None and len(done) >= warm:
            t_start = now
        if t_start is not None and t_end is None:
            if not cpu or now - cpu[-1][0] >= 0.5:
                cpu.append((now, len(done), role_cpu(dep.nodes)))
            if now - t_start >= seconds:
                t_end = now
        if not rss and len(done) >= rss_at:
            rss = rss_mb(dep.nodes.values())
        in_flight = len(dep.offered) - len(done)
        if t_end is None:
            while in_flight < window:
                dep.submit_next()
                in_flight += 1
        elif in_flight == 0 or now - t_end > DRAIN_S:
            break
        dep.runtime.poll(timeout=0.02)
    return {
        "t_start": t_start,
        "t_end": t_end,
        "cpu": cpu,
        "rss": rss or rss_mb(dep.nodes.values()),
    }


def cpu_by_role(run: dict) -> dict[str, float]:
    """CPU seconds each role burnt over the timed window."""
    first, last = run["cpu"][0][2], run["cpu"][-1][2]
    return {role: last[role] - first[role] for role in last}


def _timed(dep: Deployment, run: dict) -> tuple[list[float], list[tuple]]:
    """Completion stamps inside the timed window, and ``(submit stamp,
    latency)`` of every task submitted inside it that completed."""
    t0, t1 = run["t_start"], run["t_end"]
    stamps = [t for t in dep.done.wall.values() if t0 <= t < t1]
    lat = [
        (sub, dep.done.wall[tid] - sub)
        for tid, sub in dep.submit_wall.items()
        if t0 <= sub < t1 and tid in dep.done.wall
    ]
    return stamps, lat


def _failed(dep: Deployment) -> int:
    """Offered tasks the deployment did not commit exactly as its DES
    twin does (same application, deployment shape and task list)."""
    report = dep.stop()
    offered = [task.task_id for task in dep.offered]
    twin = shapes.twin_spec(dep.shape, dep.seed, dep.offered)
    return twin_failures(twin, report.commits, offered)


def measure(shape, seed: int, seconds: float, dep: Deployment, cal) -> dict:
    """Untraced run: end-to-end metrics at reference host speed, medians
    over the half-second slices of the timed window."""
    run = closed_loop(dep, seconds, WARM_TASKS[shape.name], RSS_AT[shape.name])
    stamps, lat = _timed(dep, run)
    window = Window(run["t_start"], run["t_end"], cal)
    p50, p95 = window.latencies_ms(lat)
    return {
        "attempted": len(dep.offered),
        "failed": _failed(dep),
        "samples": len(lat),
        "metrics": {
            "tasks_per_s": window.rate(stamps),
            "task_p50_ms": p50,
            "task_p95_ms": p95,
            "cpu_ms_per_task": window.cpu_ms_per_task(run["cpu"]),
            "peak_rss_mb": run["rss"],
        },
    }


def _phase(shape, seed: int, seconds: float, *, audited: bool = False):
    """A fresh deployment driven for ``seconds``, drained, not stopped."""
    dep = Deployment(shape, seed, audited=audited)
    try:
        warm = max(8, WARM_TASKS[shape.name] // 4)
        return dep, closed_loop(dep, seconds, warm, warm)
    except BaseException:
        teardown(dep)
        raise


def _rate(dep: Deployment, run: dict) -> float:
    return len(_timed(dep, run)[0]) / (run["t_end"] - run["t_start"])


def trace(shape, seed: int, seconds: float, dep: Deployment, micro: dict) -> dict:
    """Traced run: a plain, an audited and a profiled deployment, a
    third of the time each (fresh processes per phase)."""
    spans = Spans()
    third = seconds / 3
    # the deployment that set-up started is the plain phase
    with spans.span("plain"):
        warm = max(8, WARM_TASKS[shape.name] // 4)
        plain_run = closed_loop(dep, third, warm, warm)
        failed = _failed(dep)
    attempted = len(dep.offered)

    with spans.span("audited"):
        aud, aud_run = _phase(shape, seed, third, audited=True)
        aud.stop()
    aud_stamps, aud_lat = _timed(aud, aud_run)
    events = aud.collector.events
    t0, t1 = aud_run["t_start"], aud_run["t_end"]
    timed = {
        tid: aud.submit_sim[tid]
        for tid, sub in aud.submit_wall.items()
        if t0 <= sub < t1
    }
    stage, task_ms = stages.typical_stages_ms(
        events, timed, aud.done.sim, quorum=2
    )
    for tid, sub in aud.submit_wall.items():
        if tid in aud.done.wall:
            spans.add("task", sub, aud.done.wall[tid], "audited", task=tid)
    attempted += len(aud.offered)
    failed += len(aud.offered) - len(aud.done.wall) + aud.report.violations

    profiler = layerprof.LayerProfiler(os.path.join(OUT_DIR, f"{shape.name}.prof"))
    with spans.span("profiled"):
        cpu0 = time.process_time()
        profiler.start()
        try:
            prof, _ = _phase(shape, seed, third)
            node_cpu = sum(role_cpu(prof.nodes).values())
            prof.stop()
        finally:
            profiler.stop()
        cpu_s = time.process_time() - cpu0 + node_cpu
    attempted += len(prof.offered)
    failed += len(prof.offered) - len(prof.done.wall)

    n_timed = max(1, len(aud_stamps))
    metrics = per_layer_metrics(
        profile=profiler.summary(),
        cpu_s=cpu_s,
        tasks=len(prof.done.wall),
        stage=stage,
        counts=stages.protocol_counts(events),
        # the parent hosts the load generator too, so it is not charged
        role_cpu_ms={
            role: secs * 1e3 / n_timed
            for role, secs in cpu_by_role(aud_run).items()
        },
        task_ms=task_ms,
        overhead=_rate(dep, plain_run) / _rate(aud, aud_run) - 1,
        zft_rate=zft_rate(shape, seed, dep.offered),
        micro=micro,
    )
    spans.write(
        shape.name,
        seed=seed,
        layers={k: v for k, v in metrics.items() if k.endswith(".self_s")},
        stages_ms=stage,
        events=len(events),
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "samples": len(aud_lat),
        "metrics": metrics,
    }


def zft_rate(shape, seed: int, tasks: list) -> float:
    """Tasks per wall second of the no-fault-tolerance DES baseline on
    (a prefix of) the tasks this run offered."""
    tasks = tasks[:200]
    spec = shapes.twin_spec(shape, seed, tasks).with_(system="zft")
    t0 = time.perf_counter()
    api.run(spec)
    return len(tasks) / (time.perf_counter() - t0)
