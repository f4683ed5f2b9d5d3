"""Helpers shared by the workload drivers."""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import statistics
import time

import procstat
from hostspeed import Calibrator
from repro import api
from repro.live.crossval import commit_outcomes
from repro.obs.bus import Sink
from repro.obs.events import CATEGORY_TASK, TaskCompleted

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

#: node-process roles of a live deployment, by pid prefix
ROLES = {"v": "coordinator", "e": "executor", "ip": "input", "op": "output"}


def percentile(xs: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(xs)
    return ordered[min(len(ordered) - 1, int(q / 100.0 * len(ordered)))]


def median(xs) -> float:
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


class Window:
    """The timed window ``[start, end)`` cut into half-second slices,
    each with its own host-speed factor.

    ``open_loop`` leaves rates and latencies unscaled: at 30 % load an
    open loop's rate is set by its schedule and its latency by timers
    and poll intervals, not by CPU speed — measured, ten seeds of
    ``serve-open`` latency spread 3–9 % raw and 9–19 % scaled.  CPU cost
    per task is scaled either way.
    """

    def __init__(self, start: float, end: float, cal: Calibrator,
                 open_loop: bool = False, width: float = 0.5) -> None:
        self.start = start
        self.width = width
        self.cal = cal
        self.n = max(1, int((end - start) / width))
        self.factors = [
            1.0 if open_loop
            else cal.factor(start + i * width, start + (i + 1) * width)
            for i in range(self.n)
        ]

    def groups(self, stamped) -> list[list]:
        """Values of ``(stamp, value)`` pairs, grouped by slice."""
        out: list[list] = [[] for _ in range(self.n)]
        for stamp, value in stamped:
            i = int((stamp - self.start) / self.width)
            if stamp >= self.start and i < self.n:
                out[i].append(value)
        return out

    def rate(self, stamps) -> float:
        """Median over slices of completions per reference second (in a
        slice holding ``k`` completions, ``k - 1`` gaps over their span)."""
        return median(
            (len(g) - 1) / (max(g) - min(g)) * f
            for g, f in zip(self.groups((t, t) for t in stamps), self.factors)
            if len(g) > 1
        )

    def latencies_ms(self, stamped) -> tuple[float, float]:
        """Median over slices of the slice's ``(p50, p95)`` latency, in
        reference milliseconds."""
        pairs = [
            (median(g) * 1e3 / f, percentile(g, 95) * 1e3 / f)
            for g, f in zip(self.groups(stamped), self.factors)
            if g
        ]
        return median(p[0] for p in pairs), median(p[1] for p in pairs)

    def cpu_ms_per_task(self, samples: list[tuple]) -> float:
        """Median over sampling intervals of CPU ms per committed task
        at reference speed (``(stamp, tasks done, {who: CPU seconds})``
        samples, about one per slice)."""
        return median(
            (sum(b[2].values()) - sum(a[2].values())) * 1e3 / (b[1] - a[1])
            / self.cal.factor(a[0], b[0])
            for a, b in zip(samples, samples[1:])
            if b[1] > a[1]
        )


class DoneSink(Sink):
    """Stamps each task's first ``TaskCompleted`` as the benchmark sees
    it: ``wall`` on this process's ``perf_counter``, ``sim`` on the
    deployment's clock (``clock()`` is ``LiveRuntime.now_sim``)."""

    categories = frozenset({CATEGORY_TASK})

    def __init__(self) -> None:
        self.wall: dict[str, float] = {}
        self.sim: dict[str, float] = {}
        self.clock = None

    def handle(self, event) -> None:
        if type(event) is TaskCompleted and event.task_id not in self.wall:
            self.wall[event.task_id] = time.perf_counter()
            if self.clock is not None:
                self.sim[event.task_id] = self.clock()


def node_processes() -> dict[str, int]:
    """Role-tagged OS pids of this process's live node children
    (``multiprocessing`` names them ``live-<node pid>``)."""
    out = {}
    for proc in multiprocessing.active_children():
        if proc.name.startswith("live-") and proc.pid is not None:
            out[proc.name[len("live-"):]] = proc.pid
    return out


def role_cpu(nodes: dict[str, int]) -> dict[str, float]:
    """CPU seconds so far per role, summed over that role's processes."""
    out = {role: 0.0 for role in ROLES.values()}
    for node, pid in nodes.items():
        out[ROLES[node.rstrip("0123456789")]] += procstat.cpu_seconds(pid)
    return out


def rss_mb(pids) -> float:
    return sum(procstat.peak_rss_mb(pid) for pid in pids)


def des_commits(result) -> dict:
    """Commit outcomes of a finished DES run, per output process."""
    return {
        op.pid: commit_outcomes(op)
        for op in result.extra["cluster"].outputs
    }


def commit_failures(expected: dict, got: dict, offered: list[str]) -> int:
    """How many offered tasks were not committed exactly as expected:
    missing from the completed set, or any chunk digest or record count
    differing from the reference run's."""
    bad: set[str] = set()
    want_done: set[str] = set()
    got_done: set[str] = set()
    for op_pid in set(expected) | set(got):
        want = expected.get(op_pid, {})
        have = got.get(op_pid, {})
        want_done.update(want.get("completed", ()))
        got_done.update(have.get("completed", ()))
        for field in ("chunks", "records"):
            a, b = want.get(field, {}), have.get(field, {})
            for key in set(a) | set(b):
                if a.get(key) != b.get(key):
                    bad.add(key.rsplit(":", 1)[0])
    for task_id in offered:
        if task_id not in got_done or task_id not in want_done:
            bad.add(task_id)
    return len(bad & set(offered))


def twin_failures(spec, commits: dict, offered: list[str]) -> int:
    """Run the DES twin ``spec`` and count offered tasks whose live
    commit differs from the twin's."""
    return commit_failures(des_commits(api.run(spec)), commits, offered)


class Spans:
    """In-memory spans around the benchmark's own calls into the system;
    written to ``out/<workload>.trace.json`` when the run ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, parent: str = "", **attrs):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, start, time.perf_counter(), parent, **attrs)

    def add(self, name: str, start: float, end: float, parent: str = "", **attrs):
        self.spans.append(
            {
                "name": name,
                "parent": parent,
                "start_s": start - self._t0,
                "end_s": end - self._t0,
                **attrs,
            }
        )

    def write(self, workload: str, **extra) -> str:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"{workload}.trace.json")
        with open(path, "w") as fh:
            json.dump({"workload": workload, "spans": self.spans, **extra}, fh)
        return path


SERVE_METRICS = (
    "submit_rtt_ms", "direct_p50_ms", "gateway_cpu_ms_per_task",
    "gen_late_p99_ms", "deferred_frac",
)


def per_layer_metrics(
    *,
    profile: dict,
    cpu_s: float,
    tasks: int,
    stage: dict,
    counts: dict,
    role_cpu_ms: dict,
    task_ms: float,
    overhead: float,
    zft_rate: float,
    micro: dict,
    sim: dict | None = None,
    serve: dict | None = None,
) -> dict:
    """The full per-layer metric set of one traced run.

    Every workload reports every metric; a layer a workload never
    enters reads zero (no simulator under the live backend, no gateway
    in front of the DES).  ``profile`` is ``LayerProfiler.summary()``
    over a profiled pass that burned ``cpu_s`` CPU seconds and
    committed ``tasks`` tasks; counts are per committed task.
    """
    per_task = max(1, tasks)
    metrics = {f"{k}.self_s": v for k, v in profile["layers"].items()}
    metrics.update(
        {
            "trace.cpu_s": cpu_s,
            "trace.tasks": tasks,
            "trace.calls": profile["calls"] / per_task,
            "crypto.calls": profile["crypto_calls"] / per_task,
            "runtime.effects_interpreted": profile["effects"] / per_task,
            "live.queue_puts": profile["queue_puts"] / per_task,
            "live.task_ms": task_ms,
            "obs.trace_overhead_frac": overhead,
            "baselines.zft_tasks_per_s": zft_rate,
        }
    )
    for key in ("events_fired", "messages_sent", "bytes_sent"):
        layer = "sim" if key == "events_fired" else "net"
        metrics[f"{layer}.{key}"] = (sim or {}).get(key, 0)
    metrics.update({f"live.stage_{k}_ms": v for k, v in stage.items()})
    metrics.update(counts)
    for role in (*ROLES.values(), "parent"):
        metrics[f"live.cpu_{role}_ms_per_task"] = role_cpu_ms.get(role, 0.0)
    for name in SERVE_METRICS:
        metrics[f"serve.{name}"] = (serve or {}).get(name, 0.0)
    metrics.update(micro)
    return metrics
