"""Batched dispatch vs single-step reference semantics.

:meth:`Simulator.run` drains maximal same-timestamp runs into a scratch
batch; :meth:`Simulator.step` keeps the original one-event-at-a-time
semantics.  These tests pin the contract that the two are observably
identical: same fire order, same ``now`` trajectory, same
``events_fired``, for arbitrary interleavings of schedule / post /
cancel — including cancellations and same-time re-scheduling performed
*from inside* a batch.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator

# Times drawn from a small grid (with repeats weighting the draw) so
# same-timestamp batches are the common case, not the exception.
_TIMES = st.sampled_from([0.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 5.0])
_KINDS = st.sampled_from(["sched", "post"])
# (delta, kind) spawned from inside a callback; delta 0.0 exercises
# same-timestamp scheduling *during* a batch.
_SPAWNS = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, 1.0, 2.5]), _KINDS), max_size=3
)
_CANCELS = st.lists(st.integers(min_value=0, max_value=19), max_size=2)
_PROGRAM = st.lists(
    st.tuples(_TIMES, _KINDS, _SPAWNS, _CANCELS), max_size=20
)


def _run_program(sim, program, driver):
    """Execute ``program`` on ``sim`` under ``driver``; return the log.

    Each program entry is ``(time, kind, spawns, cancels)``: an event at
    an absolute time, cancellable ("sched") or not ("post"), which at
    fire time first cancels the listed top-level events (no-op if
    already fired) and then schedules the listed spawns relative to now.
    """
    log = []
    handles = {}

    def fire(key, spawns, cancels):
        log.append((sim.now, key))
        for c in cancels:
            h = handles.get(c)
            if h is not None:
                h.cancel()
        for j, (delta, kind) in enumerate(spawns):
            child = (key, j)
            if kind == "post":
                sim.post_at(sim.now + delta, fire, child, (), ())
            else:
                handles[child] = sim.schedule(delta, fire, child, (), ())

    for i, (t, kind, spawns, cancels) in enumerate(program):
        if kind == "post":
            sim.post_at(t, fire, i, spawns, cancels)
        else:
            handles[i] = sim.schedule_at(t, fire, i, spawns, cancels)
    driver(sim)
    return log, sim.now, sim.events_fired, sim.pending_events


def _stepper(sim):
    while sim.step():
        pass


class TestBatchedRunMatchesStep:
    @given(program=_PROGRAM)
    @settings(max_examples=200, deadline=None)
    def test_same_fire_order_now_and_counts(self, program):
        batched = _run_program(Simulator(), program, Simulator.run)
        stepped = _run_program(Simulator(), program, _stepper)
        assert batched == stepped
        assert batched[3] == 0  # both drained

    @given(program=_PROGRAM, cap=st.integers(min_value=1, max_value=10))
    @settings(max_examples=100, deadline=None)
    def test_max_events_then_resume_matches(self, program, cap):
        sim = Simulator()
        log, *_ = _run_program(
            sim, program, lambda s: s.run(max_events=cap)
        )
        assert sim.events_fired <= cap
        sim.run()  # resume to the end
        reference, _, fired, _ = _run_program(
            Simulator(), program, Simulator.run
        )
        assert log == reference
        assert sim.events_fired == fired


class TestBatchEdgeCases:
    def test_same_timestamp_fifo_across_lane_and_heap(self):
        # First schedule keeps the lane non-empty, the earlier time then
        # falls through to the heap; a further same-time schedule lands
        # in the lane again.  Global fire order must follow (time, seq).
        sim = Simulator()
        fired = []
        sim.schedule_at(5.0, fired.append, "lane-0")
        sim.schedule_at(3.0, fired.append, "heap-1")
        sim.schedule_at(5.0, fired.append, "lane-2")
        sim.schedule_at(3.0, fired.append, "lane-3")  # < lane tail -> heap
        sim.run()
        assert fired == ["heap-1", "lane-3", "lane-0", "lane-2"]

    def test_cancel_inside_batch_suppresses_later_same_time_event(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(
            1.0, lambda: (fired.append("killer"), victim.cancel())
        )
        victim = sim.schedule_at(1.0, fired.append, "victim")
        sim.schedule_at(1.0, fired.append, "bystander")
        sim.run()
        # victim was drained into the batch before the killer fired, but
        # liveness is re-checked at fire time
        assert fired == ["killer", "bystander"]
        assert sim.pending_events == 0

    def test_same_time_spawn_during_batch_fires_after_drained_run(self):
        sim = Simulator()
        fired = []

        def spawner():
            fired.append("spawner")
            sim.schedule(0.0, fired.append, "child")

        sim.schedule_at(1.0, spawner)
        sim.schedule_at(1.0, fired.append, "sibling")
        sim.run()
        # the child carries a higher seq than anything drained, so it
        # fires after the batch — identical to single-step order
        assert fired == ["spawner", "sibling", "child"]

    def test_max_events_splits_batch_and_resumes_in_order(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule_at(1.0, fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]
        assert sim.pending_events == 2
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_exception_mid_batch_requeues_unfired_tail(self):
        sim = Simulator()
        fired = []

        def boom():
            raise RuntimeError("boom")

        sim.schedule_at(1.0, fired.append, "a")
        sim.schedule_at(1.0, boom)
        sim.schedule_at(1.0, fired.append, "b")
        with pytest.raises(RuntimeError):
            sim.run()
        assert fired == ["a"]
        assert sim.now == 1.0
        sim.run()  # the requeued tail fires in original order
        assert fired == ["a", "b"]
        assert sim.pending_events == 0

    def test_pending_events_is_exact_through_cancel_and_fire(self):
        sim = Simulator()
        handles = [sim.schedule(float(i), lambda: None) for i in range(10)]
        sim.post_at(3.0, lambda: None)
        assert sim.pending_events == 11
        for h in handles[:4]:
            h.cancel()
            h.cancel()  # idempotent: second cancel must not double-count
        assert sim.pending_events == 7
        sim.run()
        assert sim.pending_events == 0
        assert sim.drained()
        assert sim.events_fired == 7

    def test_batch_hooks_run_between_batches(self):
        sim = Simulator()
        calls = []
        sim.add_batch_hook(lambda: calls.append(sim.now))
        for i in range(200):  # > _MAINTENANCE_STRIDE distinct timestamps
            sim.schedule_at(float(i), lambda: None)
        sim.run()
        assert calls  # invoked at least once, amortized by stride
        assert sim.pending_events == 0

    def test_compaction_mid_run_keeps_time_order_and_fires_once(self):
        # A lane stream of distinct timestamps (so maintenance passes run
        # mid-dispatch), a dead-handle pile in the heap that makes one of
        # those passes compact, and one uncancellable heap event inside
        # the stream.  Compaction must not strand the lane's unfired
        # suffix (which would fire later with the clock already past it)
        # nor leave the heap event queued twice.
        sim = Simulator()
        fired = []
        for i in range(1, 201):
            sim.schedule_at(float(i), lambda t=float(i): fired.append(t))
        sim.schedule_at(1000.0, lambda: fired.append(1000.0))
        dead = [sim.schedule_at(500.0, lambda: None) for _ in range(2000)]
        for h in dead:
            h.cancel()
        sim.post_at(150.5, lambda: fired.append(150.5))
        expected = sorted([float(i) for i in range(1, 201)] + [150.5, 1000.0])

        sim.run(until=160.0)
        assert fired == [t for t in expected if t <= 160.0]
        assert sim.now == 160.0
        sim.run()
        assert fired == expected
        assert sim.pending_events == 0 and sim.drained()
