"""Child-process side of the live backend: one core, one OS process.

A :class:`LiveHost` is the live substrate of the one host,
:class:`~repro.runtime.interpreter.EffectInterpreter`, which owns every
effect rule (timers, crash and guarded-job rules, CPU lanes, capture).
This module supplies what those rules run on in a real process —

* **transport**: ``Send``/``Multicast``/``NeqMulticast`` encode their
  message once (codec JSON, content form) and append it to a
  per-destination outbox; the end of every loop turn flushes each outbox
  as one *net frame* (see :mod:`repro.live.wire`) on the destination
  child's ``multiprocessing`` inbox queue (per-(src,dst) FIFO order is
  append order plus the queue's own FIFO guarantee, and ``sender``/``_neq``
  are stamped at delivery as the DES network stamps them).  A send to the
  node itself skips the codec and the queue: the message object waits in
  a loopback list that the next turn takes as its first frame, so
  self-sends batch per turn as frames do, and it is delivered as the
  object every DES receiver shares, stamped the same way;
* **clock**: simulated time is ``(monotonic() - t0) / time_scale`` with
  ``t0`` shared by all processes via :class:`~repro.live.wire.CtrlStart`;
  timers, schedules, job completions and milestones wait on one heap
  that the loop pops when they fall due;
* **CPU banks**: ``CpuBank`` on that clock, so completion times,
  milestone offsets and ``busy_seconds`` follow the DES cost model;
* **event sink**: emitted trace events go up to the parent once per turn.

``tests/runtime/test_host_contract.py`` runs the interpreter's rules on
this substrate and on the DES one, case for case.

A child that falls behind wall-clock (real Python execution is not free)
simply fires its due work late but **in order** — commit outcomes are
timing-independent by protocol design, which is what
:func:`repro.check.crossval.crossval` checks on the records
:meth:`~repro.core.input_output.OutputProcess.commit_record` builds.

The loop is single-threaded on purpose: the last turn's self-sends or
one blocking queue read, all due timer/job continuations, whatever else
already sits in the inbox (bounded, see :data:`_DRAIN_MSGS`), one
flush — the same run-to-completion handler atomicity cores enjoy under
the DES.  An idle
node therefore flushes after every message (low-load latency is one
hop, as before) and a saturated one amortises its queue puts.
"""

from __future__ import annotations

import heapq
import queue
import time
from typing import Any, Optional

from repro.adversary.campaign import Action
from repro.adversary.engine import apply_action_to_core
from repro.core.input_output import InputProcess, OutputProcess
from repro.errors import LiveError
from repro.live.wire import (
    ChildEvent,
    ChildExit,
    ChildReady,
    CtrlAction,
    CtrlShutdown,
    CtrlStart,
    CtrlSubmit,
    register_wire,
)
from repro.obs.bus import EventBus
from repro.runtime.codec import decode_json, encode_json
from repro.runtime.core import ProtocolCore
from repro.runtime.interpreter import EffectInterpreter
from repro.sim.cpu import CpuBank
from repro.sim.kernel import EventHandle

__all__ = ["LiveHost", "child_main"]

#: maximum blocking wait on the inbox, so the loop periodically re-derives
#: ``now`` even when neither timers nor messages are pending
_POLL_S = 0.25
#: messages one turn may take from the inbox before it flushes and looks
#: at the heap again: a busy inbox must not starve jobs and view timers
_DRAIN_MSGS = 64
#: payload size (JSON is ASCII) above which a message is flushed at once,
#: alone in its frame: batching bulk chunks only stacks megabytes in both
#: processes' pickle buffers (peak RSS) for no saving in puts per byte
_SOLO_BYTES = 64 * 1024


class _WallClock:
    """Wall-derived simulated time plus the heap of continuations
    waiting for it (the clock half of the substrate contract)."""

    def __init__(self) -> None:
        self.t0: Optional[float] = None  # time stands at 0 until CtrlStart
        self.scale = 1.0
        self.heap: list[tuple] = []  # (time, seq, handle, fn, args)
        self._seq = 0
        #: CpuBank traces through its clock's bus; nothing listens here
        self.bus = EventBus()

    @property
    def now(self) -> float:
        if self.t0 is None:
            return 0.0
        return max(0.0, (time.monotonic() - self.t0) / self.scale)

    def schedule_at(
        self, at: float, fn, *args: Any, handle: Optional[EventHandle] = None
    ) -> EventHandle:
        if handle is None:
            handle = EventHandle(at)
        self._seq += 1
        heapq.heappush(self.heap, (at, self._seq, handle, fn, args))
        return handle

    def fire_due(self) -> None:
        """Pop every due entry; call the ones not cancelled meanwhile."""
        heap = self.heap
        while heap and heap[0][0] <= self.now:
            _, _, handle, fn, args = heapq.heappop(heap)
            if handle._alive:
                handle._alive = False
                fn(*args)


class LiveHost(EffectInterpreter):
    """The live substrate: one protocol core in its own OS process."""

    def __init__(
        self,
        core: ProtocolCore,
        cores: int,
        inboxes: dict[str, Any],
        up: Any,
        wanted: frozenset[str],
    ) -> None:
        pid = core.pid
        self._inboxes = inboxes
        self._inbox = inboxes[pid]
        self._up = up
        self.wants = wanted.__contains__
        self._stop = False
        self._outbox: dict[str, list[tuple[bool, str]]] = {}
        #: this turn's sends to ``pid`` itself, as ``(neq, msg)``
        self._loopback: list[tuple[bool, Any]] = []
        self._events: list[ChildEvent] = []  # emitted this turn
        clock = _WallClock()
        self._attach(
            core,
            clock,
            CpuBank(clock, cores, owner=pid, name="app"),
            CpuBank(clock, 1, owner=pid, name="ctrl"),
        )

    # ----------------------------------------------------------- transport
    def _post(self, dsts, msg: Any, neq: bool) -> None:
        pid = self.pid
        item = None
        for dst in dsts:
            if dst == pid:  # the object itself, as the DES delivers it
                self._loopback.append((neq, msg))
                continue
            box = self._inboxes.get(dst)
            if box is None:
                raise LiveError(f"{pid}: send to unknown node {dst!r}")
            if item is None:  # encoded once, for the first remote dst
                payload = encode_json(msg, with_sender=False)
                item = (neq, payload)
                solo = len(payload) > _SOLO_BYTES
            if solo:
                queued = self._outbox.pop(dst, None)
                if queued:  # per-(src,dst) FIFO: earlier sends go first
                    box.put((pid, queued))
                box.put((pid, [item]))
            else:
                self._outbox.setdefault(dst, []).append(item)

    def _send(self, dst: str, msg: Any) -> None:
        self._post((dst,), msg, False)

    def _multicast(self, dsts, msg: Any) -> None:
        self._post(dsts, msg, False)

    def _neq_multicast(self, dsts, msg: Any) -> None:
        self._post(dsts, msg, True)

    def _emit(self, event: Any) -> None:
        # cores gate with wants() before constructing events, mirroring
        # the DES bus guard; anything performed anyway is forwarded and
        # the parent bus applies its own category routing
        self._events.append(ChildEvent(pid=self.pid, event=event))

    def _flush(self) -> None:
        """End of a turn: one put per destination, one for the events."""
        for dst, batch in self._outbox.items():
            self._inboxes[dst].put((self.pid, batch))
        self._outbox.clear()
        if self._events:
            self._up.put(encode_json(self._events))
            self._events.clear()

    # ------------------------------------------------------------ the loop
    def run(self) -> None:
        """Serve the inbox until the parent shuts us down."""
        self._up.put(encode_json(ChildReady(pid=self.pid)))
        clock = self.clock
        heap = clock.heap
        while not self._stop:
            timeout = _POLL_S
            if clock.t0 is not None and heap:
                next_wall = clock.t0 + heap[0][0] * clock.scale
                timeout = min(
                    _POLL_S, max(0.0, next_wall - time.monotonic())
                )
            item = self._next(timeout)
            if clock.t0 is not None:
                clock.fire_due()
            budget = _DRAIN_MSGS
            while item is not None and not self._stop:
                budget -= self._handle(item)
                if budget <= 0 or (heap and heap[0][0] <= clock.now):
                    break
                item = self._recv(0.0)
            self._flush()

    def _next(self, timeout: float) -> Any:
        """A turn's first item: the last turn's sends to this node as one
        frame of objects, if it made any, else :meth:`_recv`."""
        if self._loopback:
            batch, self._loopback = self._loopback, []
            return (self.pid, batch)
        return self._recv(timeout)

    def _recv(self, timeout: float) -> Any:
        """Next inbox item — a net frame as is, a control string decoded —
        or ``None`` after ``timeout`` wall seconds."""
        try:
            raw = self._inbox.get(timeout=timeout)
        except queue.Empty:
            return None
        return raw if type(raw) is tuple else decode_json(raw)

    def _handle(self, item: Any) -> int:
        """One item: a net frame or a control envelope.  Returns how many
        messages it carried (the unit of the drain budget)."""
        if type(item) is tuple:
            src, batch = item
            for neq, msg in batch:
                if type(msg) is str:  # a loopback frame holds the objects
                    msg = decode_json(msg)
                # delivery stamps, as Network._fanout/_deliver set them on
                # the one object every DES receiver shares
                msg.sender = src
                if msg._neq is not neq:
                    msg._neq = neq
                self.deliver(msg)
            return len(batch)
        if isinstance(item, CtrlStart):
            self.clock.t0 = item.t0
            self.clock.scale = item.time_scale
            if isinstance(self.core, InputProcess):
                self.core.start()
        elif isinstance(item, CtrlSubmit):
            if not isinstance(self.core, InputProcess):
                raise LiveError(
                    f"{self.pid}: CtrlSubmit routed to a "
                    f"{type(self.core).__name__}"
                )
            self.core.inject(item.task)
        elif isinstance(item, CtrlAction):
            apply_action_to_core(
                self.core,
                self.core.topo,
                self.pid,
                Action.from_dict(item.action),
            )
        elif isinstance(item, CtrlShutdown):
            if item.grace > 0:
                deadline = time.monotonic() + item.grace
                while (left := deadline - time.monotonic()) > 0:
                    self._flush()  # peers are draining too: let them see it
                    tail = self._next(left)
                    if tail is None:
                        break
                    if isinstance(tail, (tuple, CtrlSubmit)):
                        self._handle(tail)
                self.clock.fire_due()
            self._flush()
            self._up.put(encode_json(self._exit_report()))
            self._stop = True
        else:
            raise LiveError(f"{self.pid}: unexpected envelope {item!r}")
        return 1

    def _exit_report(self) -> ChildExit:
        summary: dict = {}
        if isinstance(self.core, OutputProcess):
            summary = self.core.commit_record()
        engine = getattr(self.core, "engine", None)
        return ChildExit(
            pid=self.pid,
            summary=summary,
            busy_seconds=self.cpu.busy_seconds,
            tasks_executed=getattr(engine, "tasks_executed", 0),
            unhandled=self.core.unhandled_messages,
            crashed=self.crashed,
        )


def _reseed(seed: int, pid: str) -> None:
    """Give this child its own RNG streams.

    ``fork`` duplicates the parent's global RNG state into every child,
    so without this all children (and the parent) would share one
    stream.  Protocol cores consume no randomness, but application and
    library code reaching the global generators must not be correlated
    across processes — derive per-child seeds from (spec seed, pid).
    """
    import hashlib
    import random

    h = hashlib.sha256(f"{seed}:{pid}".encode()).digest()
    random.seed(h)
    try:
        import numpy as np

        np.random.seed(int.from_bytes(h[:4], "big"))
    except ImportError:  # pragma: no cover - numpy is a core dependency
        pass


def child_main(
    plan,
    spec,
    app,
    workload,
    inboxes: dict[str, Any],
    up: Any,
    wanted: frozenset[str],
) -> None:
    """Entry point of one forked child: build the core, serve the loop."""
    register_wire()
    _reseed(plan.seed, spec.pid)
    from repro.crypto.signatures import KeyRegistry

    registry = KeyRegistry()
    for other in plan.nodes:  # same PKI view in every process
        if other.pid != spec.pid:
            registry.provision(other.pid)
    core = plan.make_core(spec, app, registry, workload=workload)
    host = LiveHost(core, spec.cores, inboxes, up, wanted)
    try:
        host.run()
    finally:
        # undelivered messages to peers must not wedge this process's
        # exit (their feeder threads would otherwise block on full
        # pipes); the up-queue is joined so the exit report flushes
        for box in inboxes.values():
            box.close()
            box.cancel_join_thread()
        up.close()
        up.join_thread()
