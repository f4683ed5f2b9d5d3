"""AdmissionGate: the input process's admission machine, driven at the
gateway edge on the wall clock — verdicts, shedding, pacing,
drain-on-close."""

import sys
import threading
import time

import pytest

from repro.errors import ProtocolError, ServeError
from repro.serve import ADMITTED, DEFERRED, REJECTED, AdmissionGate


class Collector:
    def __init__(self):
        self.items = []
        self.lock = threading.Lock()

    def __call__(self, task):
        with self.lock:
            self.items.append(task)


class TestValidation:
    def test_bad_knobs_rejected(self):
        # the knob range check is the machine's (and OsirisConfig's)
        with pytest.raises(ProtocolError):
            AdmissionGate(lambda t: None, queue_bound=0)
        with pytest.raises(ProtocolError):
            AdmissionGate(lambda t: None, rate=0.0)
        with pytest.raises(ServeError):
            AdmissionGate(lambda t: None, time_scale=-1.0)

    def test_double_start_rejected(self):
        gate = AdmissionGate(lambda t: None)
        gate.start()
        try:
            with pytest.raises(ServeError):
                gate.start()
        finally:
            gate.close()


class TestPassThrough:
    def test_no_knobs_forwards_inline(self):
        sink = Collector()
        gate = AdmissionGate(sink)
        assert not gate.enforcing
        # no dispatcher needed: inline forward even before start()
        status, depth = gate.offer("task-a")
        assert (status, depth) == (ADMITTED, 0)
        assert sink.items == ["task-a"]
        assert gate.admitted == 1 and gate.forwarded == 1

    def test_closed_gate_sheds_even_without_knobs(self):
        sink = Collector()
        gate = AdmissionGate(sink)
        gate.close()
        assert gate.offer("late") == (REJECTED, 0)
        assert sink.items == [] and gate.rejected == 1


class TestBoundedQueue:
    def test_full_queue_sheds(self):
        sink = Collector()
        gate = AdmissionGate(sink, queue_bound=2)
        # dispatcher not started: the queue can only fill
        assert gate.offer("a")[0] == ADMITTED
        assert gate.offer("b")[0] == DEFERRED  # queue non-empty
        status, depth = gate.offer("c")
        assert status == REJECTED and depth == 2
        assert gate.rejected == 1
        gate.start()
        assert gate.wait_empty(5.0)
        gate.close()
        assert sink.items == ["a", "b"]  # shed task never forwarded

    def test_closed_gate_rejects(self):
        gate = AdmissionGate(Collector(), queue_bound=4)
        gate.start()
        gate.close()
        assert gate.offer("late")[0] == REJECTED


class TestRatePacing:
    def test_drain_respects_wall_gap(self):
        sink = Collector()
        # 50 tasks/s sim at time_scale 1.0 → 20 ms wall between forwards
        gate = AdmissionGate(sink, queue_bound=64, rate=50.0, time_scale=1.0)
        gate.start()
        t0 = time.monotonic()
        for i in range(5):
            gate.offer(f"t{i}")
        assert gate.wait_empty(5.0)
        elapsed = time.monotonic() - t0
        gate.close()
        assert len(sink.items) == 5
        # 5 forwards → at least 4 inter-forward gaps of 20 ms
        assert elapsed >= 0.06

    def test_tick_pending_defers_between_drains(self):
        gate = AdmissionGate(Collector(), queue_bound=64, rate=2.0,
                             time_scale=1.0)
        gate.start()
        try:
            assert gate.offer("a")[0] == ADMITTED
            time.sleep(0.1)  # dispatcher forwarded "a", now mid-tick
            assert gate.offer("b")[0] == DEFERRED
        finally:
            gate.close(drain_timeout=2.0)

    def test_close_drains_whats_queued(self):
        sink = Collector()
        gate = AdmissionGate(sink, queue_bound=64, rate=100.0, time_scale=1.0)
        gate.start()
        for i in range(8):
            gate.offer(f"t{i}")
        gate.close(drain_timeout=5.0)
        assert len(sink.items) == 8
        assert gate.forwarded == 8


class TestConcurrentOffers:
    def test_verdicts_account_for_every_offer(self):
        sink = Collector()
        gate = AdmissionGate(sink, queue_bound=16, rate=500.0, time_scale=1.0)
        gate.start()
        results = []
        lock = threading.Lock()

        def offerer(base):
            for i in range(20):
                status, _ = gate.offer(f"{base}-{i}")
                with lock:
                    results.append(status)

        threads = [
            threading.Thread(target=offerer, args=(f"c{j}",)) for j in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        gate.close(drain_timeout=5.0)
        assert len(results) == 80
        assert gate.admitted + gate.deferred + gate.rejected == 80
        # everything that was not shed reached the runtime
        assert len(sink.items) == gate.admitted + gate.deferred
        assert gate.forwarded == len(sink.items)

    def test_no_task_stranded_under_switch_pressure(self):
        # the dispatcher parks when idle and only an ADMITTED verdict
        # wakes it: offers racing its park must never strand a task
        sink = Collector()
        gate = AdmissionGate(sink, queue_bound=4)  # no rate: no sleeps
        gate.start()
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(
                    target=lambda j=j: [gate.offer((j, i)) for i in range(200)]
                )
                for j in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert not any(t.is_alive() for t in threads)
            assert gate.wait_empty(10.0)
        finally:
            sys.setswitchinterval(old)
            gate.close()
        assert gate.admitted + gate.deferred + gate.rejected == 1600
        assert len(sink.items) == gate.admitted + gate.deferred == gate.forwarded
        for j in range(8):  # FIFO per offering thread
            mine = [i for k, i in sink.items if k == j]
            assert mine == sorted(mine)
