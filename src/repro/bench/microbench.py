"""Kernel-layer microbenchmarks: the DES hot path in isolation.

The paper-figure sweeps measure the whole stack — protocol logic,
application compute, crypto — so substrate regressions drown in
application noise.  These microbenchmarks drive the three hot
substrate paths directly, with no protocol on top:

* **event churn** — same-timestamp batch dispatch, near-future-lane
  appends, handle cancellation and dead-entry purging in
  :class:`repro.sim.kernel.Simulator`;
* **multicast fan-out** — the flyweight :meth:`Network._fanout` send
  path, including vectorized latency draws and NIC serialization;
* **meter ingest** — :class:`ByteMeter` ingest plus the lazy binning
  flush on first read.

The performance ledger (``benchmarks/ledger/micro.py``) reports them as
``sim.event_churn_ops_per_s``, ``net.multicast_fanout_ops_per_s`` and
``net.meter_ingest_ops_per_s``.  Wall-clock numbers are host-dependent;
the simulated workload itself is deterministic — only the wall time
varies between hosts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.net.links import ByteMeter, Network
from repro.net.message import Message
from repro.sim.kernel import Simulator

__all__ = [
    "MicrobenchResult",
    "bench_event_churn",
    "bench_multicast_fanout",
    "bench_meter_ingest",
]


@dataclass(frozen=True)
class MicrobenchResult:
    """One microbenchmark measurement."""

    name: str
    #: primitive operations performed (events fired, messages sent, …)
    ops: int
    wall_seconds: float

    @property
    def ops_per_sec(self) -> float:
        return self.ops / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ops": self.ops,
            "wall_seconds": self.wall_seconds,
            "ops_per_sec": self.ops_per_sec,
        }


def _noop() -> None:
    return None


def bench_event_churn(events: int = 200_000) -> MicrobenchResult:
    """Timer-wheel-shaped load on the kernel.

    64 periodic chains fire at identical timestamps (maximal same-time
    batches, pure lane traffic) while 8 churn chains additionally
    schedule a cancellable handle per round and cancel the previous one
    — steady-state dead-entry production for the bulk purge and the
    amortized compaction to chew on.
    """
    sim = Simulator(seed=1)
    chains = 64
    churners = 8
    rounds = max(1, events // (chains + churners))
    period = 1e-3
    victims: list = []

    def tick(r: int) -> None:
        if r < rounds:
            sim.post_at(sim.now + period, tick, r + 1)

    def churn(r: int) -> None:
        if victims:
            victims.pop().cancel()
        if r < rounds:
            victims.append(sim.schedule(3 * period, _noop))
            sim.post_at(sim.now + period, churn, r + 1)

    start = time.perf_counter()
    for _ in range(chains):
        sim.post_at(period, tick, 1)
    for _ in range(churners):
        sim.post_at(period, churn, 1)
    sim.run()
    wall = time.perf_counter() - start
    return MicrobenchResult("event-churn", sim.events_fired, wall)


def bench_multicast_fanout(
    n_nodes: int = 32, rounds: int = 1_000
) -> MicrobenchResult:
    """All-to-rest multicast blasts through the flyweight send path."""

    class _Endpoint:
        __slots__ = ("pid", "delivered")

        def __init__(self, pid: str) -> None:
            self.pid = pid
            self.delivered = 0

        def deliver(self, msg: Message) -> None:
            self.delivered += 1

    sim = Simulator(seed=2)
    net = Network(sim)
    endpoints = [_Endpoint(f"p{i}") for i in range(n_nodes)]
    for ep in endpoints:
        net.register(ep)
    dsts = tuple(ep.pid for ep in endpoints[1:])

    def blast(r: int) -> None:
        net.multicast("p0", dsts, Message())
        if r < rounds:
            sim.post_at(sim.now + 0.01, blast, r + 1)

    start = time.perf_counter()
    sim.post_at(0.01, blast, 1)
    sim.run()
    wall = time.perf_counter() - start
    assert net.messages_sent == rounds * (n_nodes - 1)
    return MicrobenchResult("multicast-fanout", net.messages_sent, wall)


def bench_meter_ingest(samples: int = 1_000_000) -> MicrobenchResult:
    """ByteMeter ingest at link speed, then one lazy binning flush."""
    meter = ByteMeter(bin_seconds=0.5)
    add = meter.add
    start = time.perf_counter()
    t = 0.0
    for _ in range(samples):
        add(t, 1500)
        t += 1e-5
    series = meter.rate_series()
    wall = time.perf_counter() - start
    assert meter.total == samples * 1500
    assert series, "binning flush produced no series"
    return MicrobenchResult("meter-ingest", samples, wall)
