"""Serving benchmark: identical open-loop load on DES, and on a live
deployment through real client sockets.

Extends :mod:`repro.live.crossval` from "same spec, both backends" to
"same *offered traffic*, one leg simulated and one leg served":

* **crossval leg** — one spec, seeded open-loop arrivals.  The DES leg
  consumes the workload stream in-process with admission enforced
  inside the input process; the serve leg starts a
  :class:`~repro.serve.Gateway` and has real client connections submit
  the *same* ``(arrival time, task)`` pairs over TCP, paced on the wall
  clock, with admission enforced at the gateway.  The admission queue
  is sized generously so neither leg sheds — both forward the full
  task set, so :func:`repro.check.crossval.crossval` must find their
  commit records identical (timing-independent), and both report
  client-side SLO percentiles over the same offered load.
* **overload leg** (serve-only) — the same traffic against a tiny
  admission queue and a drain rate far below the offered rate: the
  gateway's backpressure must demonstrably engage (deferrals and
  rejections observed by the clients).

``python -m repro serve bench`` drives both and prints/returns the
combined report.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.errors import BenchmarkError, ServeError
from repro.serve.frames import ADMITTED, DEFERRED, REJECTED

__all__ = ["ClientReport", "drive_open_loop", "ServeBenchReport", "serve_bench"]


# ---------------------------------------------------------- client driver
def _pct(values: list, q: float) -> float:
    if not values:
        return 0.0
    xs = sorted(values)
    return xs[min(len(xs) - 1, int(round(q / 100.0 * (len(xs) - 1))))]


@dataclass
class ClientReport:
    """What the submitting clients observed, in simulated seconds."""

    offered: int = 0
    admitted: int = 0
    deferred: int = 0
    rejected: int = 0
    completed: int = 0
    #: client-observed end-to-end latency per completed task (sim s):
    #: wall clock from submit to TaskDone arrival, divided by the time
    #: scale
    latencies: list = field(default_factory=list)
    #: per completed task, its latency minus the cluster's own
    #: (``TaskDone.completed_at - submitted_at``): what the gateway and
    #: the sockets add (sim s)
    edges: list = field(default_factory=list)
    #: sim seconds from the first submission to the last observed event
    horizon: float = 0.0

    def slo(self) -> dict:
        """JSON-scalar summary for ``ScenarioResult.client_slo``."""
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "deferred": self.deferred,
            "rejected": self.rejected,
            "completed": self.completed,
            "p50_latency": _pct(self.latencies, 50.0),
            "p99_latency": _pct(self.latencies, 99.0),
            "edge_p50": _pct(self.edges, 50.0),
            #: completed tasks per sim second over the offered horizon —
            #: the client-side analogue of the result's record goodput
            "task_goodput": (
                self.completed / self.horizon if self.horizon > 0 else 0.0
            ),
        }


def drive_open_loop(
    address,
    items,
    time_scale: float,
    n_clients: int = 2,
    done_timeout: float = 30.0,
) -> ClientReport:
    """Offer ``items`` (``(sim arrival time, task)`` pairs) to a gateway
    through ``n_clients`` concurrent blocking clients.

    Arrivals are paced open-loop on the wall clock — task ``i`` is
    submitted at ``t0 + when_i * time_scale`` regardless of how earlier
    submissions fared — and split round-robin across the connections.
    After the last submission, each client waits up to ``done_timeout``
    wall seconds for completions of its non-rejected tasks.  Latencies
    are measured on the client's own clock: submit wall time → the wall
    time a receiver thread per connection reads the ``TaskDone``,
    converted to simulated seconds.
    """
    from repro.serve.client import Client

    items = list(items)
    if n_clients < 1:
        raise ServeError(f"n_clients must be >=1, got {n_clients}")
    n_clients = min(n_clients, max(1, len(items)))
    host, port = address
    lanes = [items[i::n_clients] for i in range(n_clients)]
    reports = [ClientReport() for _ in range(n_clients)]
    errors: list[BaseException] = []
    t0 = time.monotonic() + 0.05  # shared epoch: lanes pace consistently

    def lane(idx: int) -> None:
        report = reports[idx]
        submitted_wall: dict[str, float] = {}
        # task id → (TaskDone arrival wall time, cluster latency in sim s)
        done: dict[str, tuple[float, float]] = {}
        arrived = threading.Condition()
        closed = False

        def receive(client) -> None:
            # stamp each completion when it arrives, not when the lane
            # has finished offering and gets round to reading it
            nonlocal closed
            while (frame := client.next_done()) is not None:
                with arrived:
                    done[frame.task_id] = (
                        time.monotonic(),
                        frame.completed_at - frame.submitted_at,
                    )
                    arrived.notify()
            with arrived:
                closed = True
                arrived.notify()

        try:
            with Client(host, port, client=f"bench-{idx}") as client:
                receiver = threading.Thread(
                    target=receive,
                    args=(client,),
                    name=f"bench-done-{idx}",
                    daemon=True,
                )
                receiver.start()
                expect = 0
                for when, task in lanes[idx]:
                    due = t0 + when * time_scale
                    delay = due - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                    submitted_wall[task.task_id] = time.monotonic()
                    reply = client.submit(task)
                    report.offered += 1
                    if reply.status == ADMITTED:
                        report.admitted += 1
                        expect += 1
                    elif reply.status == DEFERRED:
                        report.deferred += 1
                        expect += 1
                    elif reply.status == REJECTED:
                        report.rejected += 1
                    else:  # pragma: no cover - protocol guarantees
                        raise ServeError(f"unknown verdict {reply.status!r}")
                last = time.monotonic()
                with arrived:
                    arrived.wait_for(
                        lambda: closed or len(done) >= expect, done_timeout
                    )
                    stamps = dict(done)
            receiver.join(timeout=5.0)  # the closed client ends it
        except BaseException as exc:  # surfaced to the caller below
            errors.append(exc)
            return
        for task_id, (at, cluster) in stamps.items():
            last = max(last, at)
            report.completed += 1
            sub = submitted_wall.get(task_id)
            if sub is not None:
                latency = (at - sub) / time_scale
                report.latencies.append(latency)
                report.edges.append(latency - cluster)
        report.horizon = max(0.0, (last - t0) / time_scale)

    threads = [
        threading.Thread(target=lane, args=(i,), name=f"bench-lane-{i}")
        for i in range(n_clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    total = ClientReport()
    for r in reports:
        total.offered += r.offered
        total.admitted += r.admitted
        total.deferred += r.deferred
        total.rejected += r.rejected
        total.completed += r.completed
        total.latencies.extend(r.latencies)
        total.edges.extend(r.edges)
        total.horizon = max(total.horizon, r.horizon)
    return total


# ------------------------------------------------------------- bench legs
@dataclass
class ServeBenchReport:
    """Crossval + overload outcome of one serving benchmark."""

    label: str  # the bench spec's label
    #: ``crossval(des_result, serve_result)``: empty iff the legs agree
    mismatches: list
    des_result: object  # ScenarioResult (DES leg)
    serve_result: object  # ScenarioResult (serve leg, client_slo attached)
    overload_slo: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        backpressure_ok = (
            not self.overload_slo  # overload leg skipped
            or self.overload_slo.get("rejected", 0) > 0
        )
        return (
            not self.mismatches
            and self.serve_result.client_slo.get("completed", 0) > 0
            and backpressure_ok
        )

    def summary(self) -> str:
        from repro.check.crossval import summary

        label = f"{self.label}; a=des b=served"
        lines = [summary(label, self.des_result, self.mismatches)]
        slo = self.serve_result.client_slo
        lines.append(
            f"client SLO (serve leg): {slo.get('completed', 0)}/"
            f"{slo.get('offered', 0)} completed, "
            f"p50={slo.get('p50_latency', 0.0):.3f}s "
            f"p99={slo.get('p99_latency', 0.0):.3f}s "
            f"edge p50={slo.get('edge_p50', 0.0):.3f}s "
            f"goodput={slo.get('task_goodput', 0.0):.1f} tasks/s"
        )
        lines.append(
            f"DES SLO (same offered load): "
            f"p50={self.des_result.p50_latency:.3f}s "
            f"p99={self.des_result.p99_latency:.3f}s "
            f"goodput={self.des_result.goodput:.1f} rec/s"
        )
        ov = self.overload_slo
        lines.append(
            f"overload leg: {ov.get('deferred', 0)} deferred, "
            f"{ov.get('rejected', 0)} rejected of {ov.get('offered', 0)} "
            f"offered — backpressure "
            f"{'engaged' if ov.get('rejected', 0) else 'DID NOT ENGAGE'}"
        )
        return "\n".join(lines)


def _bench_spec(
    n: int,
    tasks: int,
    rate: float,
    seed: int,
    shards: int,
    tenants: int,
    config: tuple,
):
    from repro.api import DeploymentSpec

    return DeploymentSpec(
        workload="open_loop",
        workload_params=(
            ("n_tasks", tasks),
            ("rate", rate),
            ("process", "poisson"),
            ("seed", seed),
        ),
        n=n,
        seed=seed,
        shards=shards,
        tenants=tenants,
        sanitize=True,
        backend="live",
        config=config,
        label=f"serve-bench n={n} tasks={tasks} rate={rate}",
    )


def serve_bench(
    n: int = 4,
    tasks: int = 16,
    rate: float = 40.0,
    seed: int = 7,
    time_scale: float = 0.1,
    shards: int = 1,
    tenants: int = 2,
    n_clients: int = 2,
    overload: bool = True,
) -> ServeBenchReport:
    """Run the serving benchmark; see the module docstring.

    ``tenants`` must be >= 2: tenant tags are what routes tasks to
    shards identically on both backends and what makes output processes
    emit the per-task outcomes the gateway streams back.
    """
    from repro import api
    from repro.check.crossval import crossval

    if tenants < 2:
        raise BenchmarkError(
            "serve_bench needs tenants >= 2 (tenant tags drive both "
            "shard routing and per-task completion streaming)"
        )
    # generous queue, drain faster than offered: admission is live at
    # the edge (bursts may defer) but nothing is shed — both legs
    # forward every task, so commit outcomes must coincide
    crossval_config = (
        ("admission_queue", max(64, tasks * 4)),
        ("admission_rate", rate * 4.0),
    )
    spec = _bench_spec(n, tasks, rate, seed, shards, tenants, crossval_config)

    # --- DES leg: same spec, admission enforced inside the IP
    des_result = api.run(spec.with_(backend="des", sinks=()))

    # --- serve leg: same arrivals offered through real client sockets
    items = spec.resolve_workload().tasks
    gateway = api.serve(spec, time_scale=time_scale)
    try:
        clients = drive_open_loop(
            gateway.address,
            items,
            time_scale,
            n_clients=n_clients,
            done_timeout=max(30.0, tasks * time_scale * 2.0 + 10.0),
        )
    finally:
        gateway.stop()
    serve_result = gateway.result(client_slo=clients.slo())

    # --- overload leg: tiny queue, drain rate far below offered load
    overload_slo: dict = {}
    if overload:
        ov_spec = _bench_spec(
            n,
            tasks,
            rate,
            seed,
            shards,
            tenants,
            (("admission_queue", 2), ("admission_rate", rate / 20.0)),
        )
        ov_gateway = api.serve(ov_spec, time_scale=time_scale)
        try:
            ov_clients = drive_open_loop(
                ov_gateway.address,
                ov_spec.resolve_workload().tasks,
                time_scale,
                n_clients=n_clients,
                done_timeout=10.0,
            )
        finally:
            ov_gateway.stop(drain=5.0)
        overload_slo = ov_clients.slo()

    return ServeBenchReport(
        label=spec.label,
        mismatches=crossval(des_result, serve_result),
        des_result=des_result,
        serve_result=serve_result,
        overload_slo=overload_slo,
    )
