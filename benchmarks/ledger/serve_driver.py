"""Served workload: open-loop Poisson load through the TCP gateway.

Arrivals are sent on a schedule whatever the system does, from two
``repro.serve.Client`` connections (one per tenant), and every task is
timed from the instant it was *due*, so a stall is charged to every
task it delays.  Each connection has a sender thread (blocking
``submit``) and a receiver thread (``next_done``), so a slow admission
reply never delays the stamp of a completion.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import threading
import time

import live_driver
import shapes
from common import (
    HERE,
    OUT_DIR,
    Spans,
    Window,
    median,
    per_layer_metrics,
    percentile,
    twin_failures,
)
from repro.serve import Client
from repro.serve.frames import DEFERRED, REJECTED

#: share of the offered tasks discarded as warm-up
WARM_FRAC = 0.10
#: peak RSS is read when exactly this many tasks have been committed
RSS_AT = 200
DRAIN_S = 8.0
LANES = 2


class Served:
    """A gateway helper process and two client connections to it."""

    def __init__(
        self, shape, seed: int, smoke: bool, *, audited=False, profile=""
    ) -> None:
        self.shape = shape
        self.seed = seed
        self.smoke = smoke
        cmd = [
            sys.executable,
            os.path.join(HERE, "gateway_helper.py"),
            "--workload", shape.name,
            "--seed", str(seed),
            "--rss-at", str(RSS_AT // 10 if smoke else RSS_AT),
        ]
        if smoke:
            cmd.append("--smoke")
        if audited:
            cmd.append("--audited")
        if profile:
            cmd += ["--profile", profile]
        self.helper = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.clients: list[Client] = []
        self.final = None
        try:
            ready = self._reply()
            address = (ready["host"], ready["port"])
            for lane in range(LANES):
                self.clients.append(Client(*address, client=f"ledger-{lane}"))
        except BaseException:
            self.stop()
            raise

    def _reply(self) -> dict:
        line = self.helper.stdout.readline()
        if not line:
            raise RuntimeError(
                f"gateway helper exited with code {self.helper.wait()}"
            )
        return json.loads(line)

    def mark(self) -> dict:
        self.helper.stdin.write("mark\n")
        self.helper.stdin.flush()
        return self._reply()

    def stop(self) -> dict:
        """Stop the gateway gracefully and reap the helper."""
        if self.final is None and self.helper.poll() is None:
            try:
                self.helper.stdin.write("stop\n")
                self.helper.stdin.flush()
                self.final = self._reply()
            except (OSError, RuntimeError):
                self.helper.kill()
        for client in self.clients:
            client.close()
        try:
            self.helper.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.helper.kill()
            self.helper.wait()
        return self.final or {}


def setup(shape, seed: int, smoke: bool) -> Served:
    """Start the helper (imports, build, fork, handshake, bind) and
    connect both clients: after this the first task can be submitted."""
    return Served(shape, seed, smoke)


def teardown(served: Served) -> None:
    served.stop()


def schedule(shape, seed: int, seconds: float) -> list[tuple[float, object]]:
    """``(due offset, task)`` for every arrival within ``seconds``."""
    return list(
        itertools.takewhile(
            lambda item: item[0] < seconds,
            zip(shapes.arrival_times(shape, seed), shapes.task_stream(shape, seed)),
        )
    )


def open_loop(served: Served, items: list, seconds: float) -> dict:
    """Offer ``items`` on schedule; returns the generator's stamps."""
    due: dict[str, float] = {}
    done: dict[str, float] = {}
    rtt: list[float] = []
    late: list[float] = []
    verdicts = {DEFERRED: 0, REJECTED: 0}
    expect = [0] * LANES
    sending = [True] * LANES
    errors: list[BaseException] = []
    t0 = time.perf_counter() + 0.05

    def sender(lane: int) -> None:
        client = served.clients[lane]
        try:
            for when, task in items[lane::LANES]:
                target = t0 + when
                delay = target - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                due[task.task_id] = target
                called = time.perf_counter()
                reply = client.submit(task)
                rtt.append(time.perf_counter() - called)
                late.append(called - target)
                if reply.status in verdicts:
                    verdicts[reply.status] += 1
                if reply.status != REJECTED:
                    expect[lane] += 1
        except BaseException as exc:  # surfaced by the caller
            errors.append(exc)
        finally:
            sending[lane] = False

    def receiver(lane: int) -> None:
        client = served.clients[lane]
        got = 0
        give_up = t0 + seconds + DRAIN_S
        while sending[lane] or got < expect[lane]:
            if time.perf_counter() > give_up:
                return
            item = client.next_done(timeout=0.2)
            if item is not None:
                done[item.task_id] = time.perf_counter()
                got += 1

    threads = [
        threading.Thread(target=fn, args=(lane,), name=f"ledger-{fn.__name__}-{lane}")
        for lane in range(LANES)
        for fn in (sender, receiver)
    ]
    for thread in threads:
        thread.start()
    # the main thread samples CPU through the timed window
    time.sleep(max(0.0, t0 + seconds * WARM_FRAC - time.perf_counter()))
    cpu = []
    while True:
        mark = served.mark()
        cpu.append((time.perf_counter(), mark["completed"], mark["cpu"]))
        if cpu[-1][0] >= t0 + seconds:
            break
        time.sleep(min(0.5, max(0.0, t0 + seconds - time.perf_counter())))
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return {
        "t0": t0,
        "due": due,
        "done": done,
        "rtt": rtt,
        "late": late,
        "verdicts": verdicts,
        "cpu": cpu,
        "completed": cpu[-1][1] - cpu[0][1],
    }


def _timed_latencies(run: dict, seconds: float) -> list[tuple[float, float]]:
    """``(due offset, latency)`` of completed tasks due after warm-up."""
    t0 = run["t0"]
    return [
        (when - t0, run["done"][tid] - when)
        for tid, when in run["due"].items()
        if when - t0 >= seconds * WARM_FRAC and tid in run["done"]
    ]


def _failed(served: Served, items: list) -> int:
    final = served.stop()
    offered = [task.task_id for _, task in items]
    twin = shapes.twin_spec(served.shape, served.seed, [t for _, t in items])
    return twin_failures(twin, final["commits"], offered)


def measure(shape, seed: int, seconds: float, served: Served, cal) -> dict:
    """Untraced run: end-to-end metrics, medians over the half-second
    slices of the timed window (only CPU cost is host-speed scaled: see
    :class:`common.Window`)."""
    items = schedule(shape, seed, seconds)
    run = open_loop(served, items, seconds)
    t0 = run["t0"]
    window = Window(t0 + seconds * WARM_FRAC, t0 + seconds, cal, open_loop=True)
    lat = [(t0 + when, l) for when, l in _timed_latencies(run, seconds)]
    p50, p95 = window.latencies_ms(lat)
    failed = _failed(served, items)
    return {
        "attempted": len(items),
        "failed": failed,
        "samples": len(lat),
        "metrics": {
            "tasks_per_s": window.rate(run["done"].values()),
            "task_p50_ms": p50,
            "task_p95_ms": p95,
            "cpu_ms_per_task": window.cpu_ms_per_task(run["cpu"]),
            "peak_rss_mb": served.final["rss"],
        },
    }


def _direct_p50_ms(shape, seed: int, items: list, seconds: float) -> float:
    """The same arrivals handed straight to ``LiveRuntime.submit`` (no
    gateway, no socket): median latency from due time."""
    dep = live_driver.Deployment(shape, seed)
    try:
        t0 = time.perf_counter() + 0.05
        due: dict[str, float] = {}
        pending = iter(items)
        nxt = next(pending, None)
        give_up = t0 + seconds + DRAIN_S
        while nxt is not None or len(dep.done.wall) < len(due):
            now = time.perf_counter()
            if now > give_up:
                break
            if nxt is not None and t0 + nxt[0] <= now:
                due[nxt[1].task_id] = t0 + nxt[0]
                dep.runtime.submit(nxt[1])
                nxt = next(pending, None)
                continue
            wait = 0.02 if nxt is None else min(0.02, t0 + nxt[0] - now)
            dep.runtime.poll(timeout=max(wait, 0.0005))
    finally:
        dep.stop()
    lat = [
        dep.done.wall[tid] - when
        for tid, when in due.items()
        if when - t0 >= seconds * WARM_FRAC and tid in dep.done.wall
    ]
    return median(lat) * 1e3


def trace(shape, seed: int, seconds: float, served: Served, micro: dict) -> dict:
    """Traced run: plain, audited and profiled served phases and one
    direct (gateway-less) phase, a quarter of the time each."""
    spans = Spans()
    quarter = seconds / 4
    items = schedule(shape, seed, quarter)
    with spans.span("plain"):
        plain = open_loop(served, items, quarter)
        failed = _failed(served, items)
    plain_lat = _timed_latencies(plain, quarter)

    with spans.span("audited"):
        aud_served = Served(shape, seed, served.smoke, audited=True)
        try:
            aud = open_loop(aud_served, items, quarter)
        finally:
            aud_final = aud_served.stop()
    aud_lat = _timed_latencies(aud, quarter)
    for tid, when in aud["due"].items():
        if tid in aud["done"]:
            spans.add("task", when, aud["done"][tid], "audited", task=tid)
    failed += len(items) - len(aud["done"]) + aud_final["violations"]

    prof_dir = os.path.join(OUT_DIR, f"{shape.name}.prof")
    with spans.span("profiled"):
        prof_served = Served(shape, seed, served.smoke, profile=prof_dir)
        try:
            prof = open_loop(prof_served, items, quarter)
        finally:
            prof_final = prof_served.stop()
    failed += len(items) - len(prof["done"])

    with spans.span("direct"):
        direct = _direct_p50_ms(shape, seed, items, quarter)

    n_timed = max(1, aud["completed"])
    aud_cpu = live_driver.cpu_by_role(aud)
    stage = aud_final["stages"]
    plain_p50 = median(l for _, l in plain_lat)
    metrics = per_layer_metrics(
        profile=prof_final["profile"],
        cpu_s=prof_final["cpu_s"],
        tasks=len(prof["done"]),
        stage=stage,
        counts=aud_final["counts"],
        role_cpu_ms={
            role: secs * 1e3 / n_timed
            for role, secs in aud_cpu.items()
            if role != "gateway"
        },
        task_ms=aud_final["task_ms"],
        # open loop: throughput is the offered rate, so the price of
        # tracing shows in latency
        overhead=median(l for _, l in aud_lat) / plain_p50 - 1,
        zft_rate=live_driver.zft_rate(shape, seed, [t for _, t in items]),
        micro=micro,
        serve={
            "submit_rtt_ms": median(aud["rtt"]) * 1e3,
            "direct_p50_ms": direct,
            "gateway_cpu_ms_per_task": aud_cpu["gateway"] * 1e3 / n_timed,
            "gen_late_p99_ms": percentile(aud["late"], 99) * 1e3,
            "deferred_frac": aud["verdicts"][DEFERRED] / len(items),
        },
    )
    spans.write(
        shape.name,
        seed=seed,
        layers={k: v for k, v in metrics.items() if k.endswith(".self_s")},
        stages_ms=stage,
        events=aud_final["events"],
    )
    return {
        "attempted": 3 * len(items),
        "failed": failed,
        "samples": len(aud_lat),
        "metrics": metrics,
    }
