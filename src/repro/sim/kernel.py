"""Discrete-event simulation (DES) kernel.

The whole OsirisBFT reproduction runs on this kernel: processes, network
links, CPUs and timeouts are all modeled as events on a single priority
queue, keyed by simulated time.  The kernel is **deterministic**: given the
same seed and the same sequence of `schedule` calls, two runs produce
identical traces.  Determinism is what lets the test-suite make exact
assertions about Byzantine scenarios, and it follows the "make it work
reliably before optimizing" workflow from the scientific-Python guides.

Design notes
------------
* Events with equal timestamps are ordered by insertion sequence number, so
  ties never compare the (unorderable) callback objects and FIFO semantics
  hold for same-time events.
* Queue entries are plain ``(time, seq, handle, fn, args)`` tuples: ordering
  is native tuple comparison (the unique ``seq`` breaks every time tie
  before the unorderable fields are reached), with no per-event wrapper
  object on the hot path.
* Two pending stores, one logical queue.  Besides the binary heap there is
  a **near-future lane**: an append-only list that stays sorted as long as
  schedule times arrive in non-decreasing order (the common case for
  periodic timers and streamed deliveries).  An in-order event costs one
  ``list.append`` instead of an ``O(log n)`` ``heappush``; an out-of-order
  event falls through to the heap.  Dispatch merges the two sorted sources
  by ``(time, seq)``, so observable fire order is identical to a single
  heap.
* :meth:`Simulator.run` dispatches in **batches**: the maximal run of
  same-timestamp events is drained into a reusable scratch list in one
  pass (purging dead cancelled entries in bulk along the way) and fired
  without re-entering the heap per event.  Liveness is re-checked at fire
  time, so an event cancelled by an earlier event of the same batch never
  fires.  :meth:`step` keeps the original single-event semantics and is
  the reference the batch dispatcher is property-tested against.
* Cancellation is O(1): a handle is flagged dead and skipped when reached,
  which keeps the hot loop free of heap surgery.  Events that can never be
  cancelled (message deliveries) use :meth:`Simulator.post_at` and carry
  no handle at all.  :attr:`Simulator.pending_events` is an O(1) live
  counter maintained on schedule/fire/cancel, not a queue scan.
* There is no wall-clock anywhere; simulated seconds are just floats.
"""

from __future__ import annotations

import hashlib
import heapq
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import SimulationError
from repro.obs.bus import EventBus
from repro.obs.events import KernelEventFired

if TYPE_CHECKING:
    import numpy as np

__all__ = ["EventHandle", "Simulator"]

#: Consumed near-future-lane prefix length that triggers compaction.
_LANE_COMPACT = 4096
#: Dispatch batches between maintenance passes (dead-entry compaction
#: check + registered batch hooks).  Power of two: the check is a mask.
_MAINTENANCE_STRIDE = 64
#: Dead-entry count (and fraction of the queue) that triggers a bulk
#: rebuild of the pending stores.
_DEAD_COMPACT = 1024


class EventHandle:
    """Cancellable reference to a scheduled event.

    Handles are returned by :meth:`Simulator.schedule`; protocols keep them
    for timeouts (e.g. speculative task reassignment) and cancel them when
    the awaited message arrives.
    """

    __slots__ = ("_alive", "time", "_sim")

    def __init__(self, time: float) -> None:
        self._alive = True
        self.time = time
        # owning simulator, set when scheduled: cancel() must keep the
        # simulator's O(1) live-event counter exact
        self._sim: Optional["Simulator"] = None

    @property
    def alive(self) -> bool:
        """Whether the event is still pending (not cancelled, not fired)."""
        return self._alive

    def cancel(self) -> None:
        """Cancel the event.  Idempotent; cancelling a fired event is a no-op."""
        if self._alive:
            self._alive = False
            sim = self._sim
            if sim is not None:
                sim._live -= 1


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the root RNG.  Every component derives child RNGs via
        :meth:`rng` keyed by a stable name, so adding a new consumer never
        perturbs the random stream of existing ones.
    bus:
        Observability bus shared by everything running on this simulator
        (a fresh one is created when omitted).  Sinks attached to it see
        trace events from every layer; with no sinks attached, emission
        sites skip event construction entirely.
    """

    def __init__(self, seed: int = 0, bus: Optional[EventBus] = None) -> None:
        self.now: float = 0.0
        self.bus = bus if bus is not None else EventBus()
        # heap of (time, seq, handle-or-None, fn, args); None = uncancellable
        self._queue: list[tuple] = []
        # near-future lane: sorted pending buffer consumed from _lane_pos;
        # in-order schedules append here, out-of-order ones go to the heap
        self._lane: list[tuple] = []
        self._lane_pos = 0
        # reusable scratch list the batch dispatcher drains same-time runs
        # into (never reallocated across batches)
        self._batch: list[tuple] = []
        self._seq = 0
        self._seed = seed
        self._rngs: dict[str, np.random.Generator] = {}
        self._running = False
        self._events_fired = 0
        # O(1) count of live (scheduled, not fired, not cancelled) events
        self._live = 0
        self._batches = 0
        # maintenance callbacks run between dispatch batches (amortized by
        # _MAINTENANCE_STRIDE); must be passive with respect to the
        # simulation — see add_batch_hook
        self._batch_hooks: list[Callable[[], None]] = []

    # ------------------------------------------------------------------ rng
    def rng(self, name: str) -> np.random.Generator:
        """Return the named child RNG (created on first use).

        Child streams are independent (``spawn_key`` derived from the name)
        and stable across runs for a fixed seed.  numpy is imported here,
        on the first call, so a process that never asks for a stream
        never loads it.
        """
        if name not in self._rngs:
            import numpy as np

            # stable digest, NOT hash(): Python string hashing is salted
            # per process, which would silently break cross-run determinism
            key = int.from_bytes(
                hashlib.sha256(name.encode()).digest()[:4], "big"
            )
            child = np.random.SeedSequence(self._seed, spawn_key=(key,))
            self._rngs[name] = np.random.default_rng(child)
        return self._rngs[name]

    # ------------------------------------------------------------- schedule
    def schedule(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` simulated seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., None],
        *args: Any,
        handle: Optional[EventHandle] = None,
    ) -> EventHandle:
        """Schedule ``fn(*args)`` at an absolute simulated time.

        Callers that need a specialized handle (e.g. the CPU bank's
        :class:`~repro.sim.cpu.JobHandle`, whose ``cancel`` rolls back
        occupancy) pass a pre-built one via ``handle``; it must carry the
        same ``time``.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} < now={self.now}"
            )
        if handle is None:
            handle = EventHandle(time)
        handle._sim = self
        seq = self._seq
        self._seq = seq + 1
        entry = (time, seq, handle, fn, args)
        lane = self._lane
        if not lane or time >= lane[-1][0]:
            lane.append(entry)
        else:
            heapq.heappush(self._queue, entry)
        self._live += 1
        return handle

    def post_at(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule an *uncancellable* ``fn(*args)`` at an absolute time.

        The fast path for events that never need a handle (e.g. message
        deliveries): no :class:`EventHandle` is allocated.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} < now={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        entry = (time, seq, None, fn, args)
        lane = self._lane
        if not lane or time >= lane[-1][0]:
            lane.append(entry)
        else:
            heapq.heappush(self._queue, entry)
        self._live += 1

    # ------------------------------------------------------------ batch hooks
    def add_batch_hook(self, fn: Callable[[], None]) -> None:
        """Register a maintenance callback run between dispatch batches.

        Hooks are invoked every ``_MAINTENANCE_STRIDE`` batches, outside
        any event callback.  They must be **passive**: no scheduling, no
        RNG, no observable state changes — the intended use is amortized
        garbage collection of auxiliary structures (e.g. the network's
        per-link FIFO-tail map), which cannot perturb the event timeline.
        """
        self._batch_hooks.append(fn)

    # ---------------------------------------------------------- lane plumbing
    def _flush_lane(self) -> None:
        """Spill the unconsumed lane suffix into the heap (slow paths only)."""
        lane = self._lane
        pos = self._lane_pos
        if pos < len(lane):
            queue = self._queue
            push = heapq.heappush
            for i in range(pos, len(lane)):
                push(queue, lane[i])
        lane.clear()
        self._lane_pos = 0

    def _compact(self) -> None:
        """Rebuild the pending stores, dropping dead cancelled entries.

        Called from the maintenance pass when cancelled-but-unpopped
        entries dominate the queue, so long runs with heavy timer churn
        do not accumulate unbounded dead weight.  The heap is rebuilt in
        place: :meth:`run` holds a reference to it across the pass, and a
        fresh list would strand the spilled lane entries until the next
        ``run()`` call fired them with the clock already past them.
        """
        queue = self._queue
        alive = [e for e in queue if e[2] is None or e[2]._alive]
        lane = self._lane
        for i in range(self._lane_pos, len(lane)):
            e = lane[i]
            if e[2] is None or e[2]._alive:
                alive.append(e)
        heapq.heapify(alive)
        queue[:] = alive
        lane.clear()
        self._lane_pos = 0

    # ------------------------------------------------------------------ run
    def step(self) -> bool:
        """Fire the next pending event.  Returns ``False`` if queue is empty.

        This is the reference single-event dispatcher: the batched
        :meth:`run` is property-tested to fire the exact same sequence.
        """
        self._flush_lane()
        queue = self._queue
        while queue:
            time_, _, handle, fn, args = heapq.heappop(queue)
            if handle is not None:
                if not handle._alive:
                    continue
                handle._alive = False
            self.now = time_
            self._events_fired += 1
            self._live -= 1
            bus = self.bus
            if bus._want_kernel:
                bus.emit(
                    KernelEventFired(
                        time=time_, pid="kernel", count=self._events_fired
                    )
                )
            fn(*args)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        When stopped by ``until``, ``now`` is advanced to exactly ``until``
        and remaining events stay queued, so the run can be resumed.
        ``max_events`` counts events actually *fired* — the same notion
        :attr:`events_fired` reports — so the two always agree.

        Dispatch is batched: each iteration drains the maximal run of
        same-timestamp events (respecting ``max_events``) into a scratch
        list and fires them back-to-back.  Events scheduled *by* a batch
        at the same timestamp carry higher sequence numbers than anything
        drained, so collecting them in a follow-up batch preserves exact
        single-step fire order; cancellations from inside the batch are
        honoured by re-checking handle liveness at fire time.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        stop_at = None if max_events is None else self._events_fired + max_events
        queue = self._queue
        lane = self._lane
        batch = self._batch
        heappop = heapq.heappop
        heappush = heapq.heappush
        bus = self.bus
        try:
            while True:
                # -------- head selection, purging dead entries in bulk
                while queue:
                    h = queue[0][2]
                    if h is None or h._alive:
                        break
                    heappop(queue)
                pos = self._lane_pos
                nlane = len(lane)
                while pos < nlane:
                    h = lane[pos][2]
                    if h is None or h._alive:
                        break
                    pos += 1
                if pos >= nlane:
                    if nlane:
                        lane.clear()
                    pos = nlane = 0
                elif pos > _LANE_COMPACT:
                    del lane[:pos]
                    nlane -= pos
                    pos = 0
                self._lane_pos = pos
                if queue:
                    if pos < nlane and lane[pos] < queue[0]:
                        time_ = lane[pos][0]
                    else:
                        time_ = queue[0][0]
                elif pos < nlane:
                    time_ = lane[pos][0]
                else:
                    break
                if until is not None and time_ > until:
                    self.now = until
                    return
                if stop_at is not None and self._events_fired >= stop_at:
                    return
                # -------- fire the maximal same-time run
                # Three shapes.  The common ones — the whole run lives in
                # one source — fire in place with no merge bookkeeping:
                # a lane run is a contiguous slice consumed by advancing
                # _lane_pos, a heap run pops-and-fires like the reference
                # step().  Only when *both* sources hold events at time_
                # is the run merged by (time, seq) into the scratch batch.
                room = -1 if stop_at is None else stop_at - self._events_fired
                self.now = time_
                heap_run = bool(queue) and queue[0][0] == time_
                lane_run = pos < nlane and lane[pos][0] == time_
                if lane_run and not heap_run:
                    j = pos + 1
                    while j < nlane and lane[j][0] == time_:
                        j += 1
                    i = pos
                    try:
                        while i < j:
                            e = lane[i]
                            i += 1
                            h = e[2]
                            if h is not None:
                                if not h._alive:
                                    continue
                                h._alive = False
                            self._live -= 1
                            fired = self._events_fired = self._events_fired + 1
                            if bus._want_kernel:
                                bus.emit(
                                    KernelEventFired(
                                        time=time_, pid="kernel", count=fired
                                    )
                                )
                            e[3](*e[4])
                            if room > 0:
                                room -= 1
                                if room == 0:
                                    break
                    finally:
                        # unfired tail (exception / max_events) stays in
                        # the lane, still sorted, resumed next iteration
                        self._lane_pos = i
                elif heap_run and not lane_run:
                    # only entries that existed at run start (seq below
                    # the current counter) belong to this run: events
                    # scheduled *by* callbacks defer to the next outer
                    # iteration, whose merge restores global seq order
                    # against any same-time lane appends
                    seq_limit = self._seq
                    while (
                        queue
                        and queue[0][0] == time_
                        and queue[0][1] < seq_limit
                    ):
                        e = heappop(queue)
                        h = e[2]
                        if h is not None:
                            if not h._alive:
                                continue
                            h._alive = False
                        self._live -= 1
                        fired = self._events_fired = self._events_fired + 1
                        if bus._want_kernel:
                            bus.emit(
                                KernelEventFired(
                                    time=time_, pid="kernel", count=fired
                                )
                            )
                        e[3](*e[4])
                        if room > 0:
                            room -= 1
                            if room == 0:
                                break
                else:
                    # mixed: drain the run from both sources in (time,
                    # seq) order into the scratch batch, then fire
                    while True:
                        if queue and queue[0][0] == time_:
                            if (
                                pos < nlane
                                and lane[pos][0] == time_
                                and lane[pos][1] < queue[0][1]
                            ):
                                e = lane[pos]
                                pos += 1
                            else:
                                e = heappop(queue)
                        elif pos < nlane and lane[pos][0] == time_:
                            e = lane[pos]
                            pos += 1
                        else:
                            break
                        h = e[2]
                        if h is None or h._alive:
                            batch.append(e)
                            room -= 1
                            if room == 0:
                                break
                    self._lane_pos = pos
                    i = 0
                    n = len(batch)
                    try:
                        while i < n:
                            e = batch[i]
                            i += 1
                            h = e[2]
                            if h is not None:
                                if not h._alive:
                                    continue
                                h._alive = False
                            self._live -= 1
                            fired = self._events_fired = self._events_fired + 1
                            if bus._want_kernel:
                                bus.emit(
                                    KernelEventFired(
                                        time=time_, pid="kernel", count=fired
                                    )
                                )
                            e[3](*e[4])
                    finally:
                        if i < n:
                            # an event callback raised: requeue the unfired
                            # tail (original (time, seq) keys restore order)
                            for e in batch[i:]:
                                heappush(queue, e)
                        batch.clear()
                # -------- amortized maintenance
                batches = self._batches = self._batches + 1
                if not batches % _MAINTENANCE_STRIDE:
                    dead = (
                        len(queue) + len(lane) - self._lane_pos - self._live
                    )
                    if dead > _DEAD_COMPACT and dead * 2 > len(queue):
                        self._compact()
                    for hook in self._batch_hooks:
                        hook()
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False

    # ------------------------------------------------------------ inspection
    @property
    def pending_events(self) -> int:
        """Number of live events still queued (O(1) maintained counter)."""
        return self._live

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far."""
        return self._events_fired

    def drained(self) -> bool:
        """True when no live events remain."""
        return self._live == 0
