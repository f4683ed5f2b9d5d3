"""The input process's admission control, pinned on the simulated clock.

A :class:`~repro.runtime.testing.TestRuntime` records the IP's
effects; the small driver below fires its queued ``Schedule``
continuations in due-time order, so the exact event sequence and times
of arrivals, deferrals, sheds and rate-spaced forwards can be asserted
without a Simulator.
"""

from __future__ import annotations

import heapq

import pytest

from repro.apps.synthetic import make_compute_task
from repro.core.config import OsirisConfig
from repro.core.input_output import InputProcess
from repro.net.topology import SubCluster, Topology
from repro.obs.events import (
    TaskAdmitted,
    TaskDeferred,
    TaskRejected,
    TaskSubmitted,
)
from repro.runtime import testing
from repro.runtime.effects import Emit

_KINDS = {
    TaskSubmitted: "submitted",
    TaskAdmitted: "admitted",
    TaskDeferred: "deferred",
    TaskRejected: "rejected",
}


def _topo() -> Topology:
    return Topology(
        input_pids=("ip0",),
        output_pids=("op0",),
        executor_pids=("e0",),
        verifier_clusters=(
            SubCluster(index=0, members=("v0", "v1", "v2"), f=1),
        ),
        f=1,
    )


class ClockedInput:
    """An input process on a hand-advanced simulated clock."""

    def __init__(self, arrivals, **knobs) -> None:
        workload = [(at, make_compute_task(i)) for i, at in enumerate(arrivals)]
        self.ip = InputProcess(
            "ip0", _topo(), iter(workload), config=OsirisConfig(**knobs)
        )
        self.rt = testing.TestRuntime(self.ip)
        self._heap: list = []
        self._seq = 0
        self.ip.start()

    def _collect(self) -> None:
        for effect in self.rt.pending:
            self._seq += 1
            heapq.heappush(
                self._heap, (self.rt.clock + effect.delay, self._seq, effect)
            )
        self.rt.pending.clear()

    def run(self, until: float = float("inf")) -> None:
        self._collect()
        while self._heap and self._heap[0][0] <= until:
            at, _, effect = heapq.heappop(self._heap)
            self.rt.clock = at
            self.rt.run(effect)
            self._collect()

    def events(self) -> list[tuple]:
        """``(kind, time, task_id[, queue_depth])`` per admission event."""
        out = []
        for effect in self.rt.effects:
            if type(effect) is not Emit:
                continue
            event = effect.event
            kind = _KINDS.get(type(event))
            if kind is None:
                continue
            row = (kind, pytest.approx(event.time), event.task_id)
            if kind == "deferred":
                row += (event.queue_depth,)
            out.append(row)
        return out


class TestInputAdmission:
    def test_burst_against_bound_and_rate(self):
        ip = ClockedInput(
            [0.0, 0.01, 0.02, 0.03, 0.04, 0.35, 0.40],
            admission_queue=2,
            admission_rate=10.0,
        )
        ip.run()
        assert ip.events() == [
            ("submitted", 0.0, "c0"),
            ("admitted", 0.0, "c0"),
            # the tick after c0's forward is pending: defer, queue 1, 2
            ("deferred", 0.01, "c1", 1),
            ("deferred", 0.02, "c2", 2),
            # queue full: shed
            ("rejected", 0.03, "c3"),
            ("rejected", 0.04, "c4"),
            # forwards spaced by 1 / rate
            ("submitted", 0.1, "c1"),
            ("admitted", 0.1, "c1"),
            ("submitted", 0.2, "c2"),
            ("admitted", 0.2, "c2"),
            # the 0.3 tick found the queue empty and ended the drain
            ("submitted", 0.35, "c5"),
            ("admitted", 0.35, "c5"),
            # an empty queue with the 0.45 tick pending still defers
            ("deferred", 0.40, "c6", 1),
            ("submitted", 0.45, "c6"),
            ("admitted", 0.45, "c6"),
        ]
        assert ip.ip.tasks_submitted == 5

    def test_bound_without_rate_forwards_at_once(self):
        ip = ClockedInput([0.0, 0.0, 0.0, 0.01, 0.02], admission_queue=2)
        ip.run()
        events = ip.events()
        assert [e[0] for e in events] == ["submitted", "admitted"] * 5
        assert [e[2] for e in events[::2]] == ["c0", "c1", "c2", "c3", "c4"]
        assert [e[1] for e in events[::2]] == [0.0, 0.0, 0.0, 0.01, 0.02]
        assert ip.ip.tasks_submitted == 5

    def test_crash_mid_drain_forwards_nothing_more(self):
        ip = ClockedInput(
            [0.0, 0.01, 0.02, 0.3], admission_queue=4, admission_rate=10.0
        )
        ip.run(until=0.15)  # c0 at 0.0, c1 at 0.1; c2 still queued
        ip.ip.crash()
        ip.run()
        submitted = [e[2] for e in ip.events() if e[0] == "submitted"]
        assert submitted == ["c0", "c1"]
        assert ip.ip.tasks_submitted == 2

    def test_no_knobs_forwards_without_admission_events(self):
        ip = ClockedInput([0.0, 0.0, 0.05])
        ip.run()
        assert ip.events() == [
            ("submitted", 0.0, "c0"),
            ("submitted", 0.0, "c1"),
            ("submitted", 0.05, "c2"),
        ]
