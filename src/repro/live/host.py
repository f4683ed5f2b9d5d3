"""Child-process side of the live backend: one core, one OS process.

A :class:`LiveHost` is the live substrate of the one host,
:class:`~repro.runtime.interpreter.EffectInterpreter`, which owns every
effect rule (timers, crash and guarded-job rules, CPU lanes, capture).
This module supplies what those rules run on in a real process —

* **transport**: a mesh of OS pipes, one per ordered (src, dst) node
  pair plus one parent→node control pipe per node (:class:`Ends` is one
  node's share of it).  ``Send``/``Multicast``/``NeqMulticast`` encode
  their message once as a two-level frame
  (:func:`~repro.runtime.codec.encode_frame`, content form) and append
  the same header, head and body segments to the pending deque of
  every destination, each its own buffer; the end of every loop turn
  writes each deque with non-blocking ``writev`` until it is empty or
  the pipe is full, and a full pipe's remainder waits, as views of the
  same bytes, until the pipe turns writable.  A frame on a pipe is
  ``(kind, head length, body length)``, the head (codec JSON) and the
  body (the raw bytes of the head's long strings and ``bytes``), on
  every pipe alike (:data:`PLAIN`, :data:`NEQ` or :data:`CTRL`, see
  :func:`frame`); the source is the pipe, so per-(src,dst) FIFO order
  is the pipe's byte order, and ``sender``/``_neq`` are stamped at
  delivery as the DES network stamps them.  A send to the node itself
  skips the codec and the pipes: the message object waits in a loopback
  list that the next turn takes as its first frame, so self-sends batch
  per turn as frames do, and it is delivered as the object every DES
  receiver shares, stamped the same way;
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
one wait over the node's read ends (and every write end with bytes
pending) that lasts until the first live continuation falls due, all
due timer/job continuations, whatever else has already arrived
(bounded, see :data:`_DRAIN_MSGS`), one flush — the same
run-to-completion handler atomicity cores enjoy under the DES.  An idle
node therefore flushes after every message (low-load latency is one
hop) and a saturated one amortises its writes.  No write ever blocks: a
node whose peer stops reading keeps serving everyone else.

The wait (:meth:`LiveHost._wait`) is epoll for the whole milliseconds
of a timeout and ``select`` on the epoll descriptor for the rest.
epoll alone counts whole milliseconds and rounds up, so the cost
model's sub-millisecond jobs would all fire about a millisecond late;
``select`` alone keeps microseconds but refuses descriptors at or above
``FD_SETSIZE`` (1024), which a node's mesh ends can be.  The epoll
descriptor is the one end ``select`` ever sees, and it is made when the
host is, as the lowest free descriptor.
"""

from __future__ import annotations

import gc
import heapq
import os
import select
import struct
import sys
import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Any, Callable, Iterable, Optional

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
from repro.runtime.codec import decode_frame, encode_frame, encode_json
from repro.runtime.core import ProtocolCore
from repro.runtime.interpreter import EffectInterpreter
from repro.sim.cpu import CpuBank
from repro.sim.kernel import EventHandle

__all__ = ["CTRL", "Ends", "LiveHost", "NEQ", "PLAIN", "child_main", "frame"]

#: maximum wait for input, so the loop periodically re-derives ``now``
#: even when neither timers nor messages are pending
_POLL_S = 0.25
#: messages one turn may take from its pipes before it flushes and looks
#: at the heap again: a busy node must not starve jobs and view timers
_DRAIN_MSGS = 64
#: frame kinds: a protocol message sent plainly or by ``NeqMulticast``,
#: and a control envelope from the parent
PLAIN, NEQ, CTRL = 0, 1, 2
#: frame header: kind, head length, body length
_HEAD = struct.Struct("<BII")
#: bytes one ``readv`` may take, into a buffer allocated once per host
#: (``os.read`` of this size would allocate it per call)
_READ_BYTES = 1 << 18
#: buffers one ``writev`` may carry
_IOV_MAX = os.sysconf("SC_IOV_MAX")
#: cancelled entries the clock heap may hold beyond as many as are live
#: before it is rebuilt without them
_HEAP_SLACK = 64


def frame(kind: int, value: Any) -> bytes:
    """``value`` as it crosses a pipe: header, head, then body."""
    head, body = encode_frame(value)
    data = b"".join(body)
    return _HEAD.pack(kind, len(head), len(data)) + head + data


@dataclass
class Ends:
    """One node's ends of the pipe mesh: the read end of its control
    pipe, a read end per source node and a write end per destination."""

    ctrl: int
    rx: dict[str, int]
    tx: dict[str, int]

    def fds(self) -> set[int]:
        return {self.ctrl, *self.rx.values(), *self.tx.values()}


class _WallClock:
    """Wall-derived simulated time plus the heap of continuations
    waiting for it (the clock half of the substrate contract)."""

    def __init__(self) -> None:
        self.t0: Optional[float] = None  # time stands at 0 until CtrlStart
        self.scale = 1.0
        self.heap: list[tuple] = []  # (time, seq, handle, fn, args)
        self._seq = 0
        #: entries neither fired nor cancelled; handles keep it exact, as
        #: they keep the simulator's, through their ``_sim``
        self._live = 0
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
        handle._sim = self
        self._live += 1
        self._seq += 1
        heap = self.heap
        if len(heap) >= 2 * self._live + _HEAP_SLACK:
            self._compact()
        heapq.heappush(heap, (at, self._seq, handle, fn, args))
        return handle

    def _compact(self) -> None:
        """Drop the cancelled entries, which re-armed and cancelled
        timers leave until their deadline.  In place: the loop holds the
        list."""
        heap = self.heap
        heap[:] = [e for e in heap if e[2]._alive]
        heapq.heapify(heap)

    def next_due(self) -> Optional[float]:
        """When the first live entry falls due (``None``: none is left);
        cancelled entries ahead of it are popped, so they wake no one."""
        heap = self.heap
        while heap and not heap[0][2]._alive:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def fire_due(self) -> None:
        """Pop every due entry; call the ones not cancelled meanwhile."""
        heap = self.heap
        while heap and heap[0][0] <= self.now:
            _, _, handle, fn, args = heapq.heappop(heap)
            if handle._alive:
                handle._alive = False
                self._live -= 1
                fn(*args)


class LiveHost(EffectInterpreter):
    """The live substrate: one protocol core in its own OS process."""

    def __init__(
        self,
        core: ProtocolCore,
        cores: int,
        ends: Ends,
        up: Any,
        wanted: frozenset[str],
    ) -> None:
        pid = core.pid
        self._up = up
        self.wants = wanted.__contains__
        self._stop = False
        self._tx = dict(ends.tx)
        #: per destination, the buffers not yet written to its pipe
        self._out: dict[str, deque] = {dst: deque() for dst in ends.tx}
        self._dirty: set[str] = set()  # destinations posted to this turn
        self._waiting: set[str] = set()  # registered for writability
        #: this turn's sends to ``pid`` itself, as ``(neq, msg)``
        self._loopback: list[tuple[bool, Any]] = []
        #: parsed input not yet handled: one ``(src, [(neq, (head,
        #: body))])`` frame per message (the due rule is checked between
        #: messages), and control envelopes
        self._ready: deque = deque()
        self._events: list[ChildEvent] = []  # emitted this turn
        self._scratch = memoryview(bytearray(_READ_BYTES))
        self._poll = select.epoll()
        self._pollfd = (self._poll.fileno(),)  # what ``select`` waits on
        #: per watched end, what to call when it turns ready
        self._on: dict[int, Callable[[], None]] = {}
        for fd in ends.tx.values():
            os.set_blocking(fd, False)
        for src, fd in (*ends.rx.items(), (None, ends.ctrl)):
            os.set_blocking(fd, False)
            self._watch(fd, select.EPOLLIN, partial(self._read, fd, src, bytearray()))
        clock = _WallClock()
        self._attach(
            core,
            clock,
            CpuBank(clock, cores, owner=pid, name="app"),
            CpuBank(clock, 1, owner=pid, name="ctrl"),
        )

    # ----------------------------------------------------------- transport
    def _watch(self, fd: int, events: int, fn: Callable[[], None]) -> None:
        self._poll.register(fd, events)
        self._on[fd] = fn

    def _unwatch(self, fd: int) -> None:
        self._poll.unregister(fd)
        del self._on[fd]

    def _post(self, dsts, msg: Any, neq: bool) -> None:
        pid = self.pid
        header = None
        for dst in dsts:
            if dst == pid:  # the object itself, as the DES delivers it
                self._loopback.append((neq, msg))
                continue
            out = self._out.get(dst)
            if out is None:
                raise LiveError(f"{pid}: send to unknown node {dst!r}")
            if header is None:  # encoded once, for the first remote dst
                head, body = encode_frame(msg)
                header = _HEAD.pack(
                    NEQ if neq else PLAIN,
                    len(head),
                    sum(map(len, body)) if body else 0,
                )
            out.append(header)
            out.append(head)
            out.extend(body)
            self._dirty.add(dst)

    def _send(self, dst: str, msg: Any) -> None:
        self._post((dst,), msg, False)

    def _multicast(self, dsts, msg: Any) -> None:
        self._post(dsts, msg, False)

    def _neq_multicast(self, dsts, msg: Any) -> None:
        self._post(dsts, msg, True)

    @staticmethod
    def _decode(head: str, body: bytes) -> Any:
        """:func:`decode_frame`, with the collector paused if the frame has
        refs.  The head's JSON tree (two containers per ref) dies when
        decode returns; a young collection in the middle would promote it
        and, counted as long-lived, set off full collections of the
        node's whole heap."""
        if not body or not gc.isenabled():
            return decode_frame(head, body)
        gc.disable()
        try:
            return decode_frame(head, body)
        finally:
            gc.enable()

    def _emit(self, event: Any) -> None:
        # cores gate with wants() before constructing events, mirroring
        # the DES bus guard; anything performed anyway is forwarded and
        # the parent bus applies its own category routing
        self._events.append(ChildEvent(pid=self.pid, event=event))

    def _flush(self) -> None:
        """End of a turn: write what each destination got, put the events."""
        for dst in self._dirty:
            self._write(dst)
        self._dirty.clear()
        if self._events:
            self._up.put(encode_json(self._events))
            self._events.clear()

    def _write(self, dst: str) -> None:
        """Write ``dst``'s pending buffers until none is left or its pipe
        is full; a full pipe is watched for writability.  A reader that
        is gone (EPIPE) costs its pending bytes, not the node."""
        out = self._out[dst]
        fd = self._tx[dst]
        try:
            while out:
                n = os.writev(
                    fd, out if len(out) <= _IOV_MAX else list(islice(out, _IOV_MAX))
                )
                while n:  # drop what went out; a partial one stays a view
                    size = len(out[0])
                    if n < size:
                        out[0] = memoryview(out[0])[n:]
                        break
                    out.popleft()
                    n -= size
        except BlockingIOError:
            if dst not in self._waiting:
                self._waiting.add(dst)
                self._watch(fd, select.EPOLLOUT, partial(self._write, dst))
            return
        except BrokenPipeError:
            out.clear()
        if dst in self._waiting:
            self._waiting.discard(dst)
            self._unwatch(fd)

    def _read(self, fd: int, src: Optional[str], buf: bytearray) -> None:
        """Read a ready end until it is empty, then queue every whole
        message in ``buf`` on :attr:`_ready` (``src`` is ``None`` on the
        control pipe)."""
        scratch = self._scratch
        while True:
            try:
                n = os.readv(fd, (scratch,))
            except BlockingIOError:
                break
            if not n:  # every writer is gone: stop watching this end
                self._unwatch(fd)
                if src is None:  # and with the parent gone, stop serving
                    self._stop = True
                break
            buf += scratch[:n]
            if n < _READ_BYTES:  # a short read emptied the pipe
                break
        ready = self._ready
        unpack = _HEAD.unpack_from
        size = _HEAD.size
        end = len(buf)
        pos = 0
        # take each head and body straight from the buffer, one copy
        # each; the view must be gone before ``buf`` is resized
        with memoryview(buf) as view:
            while end - pos >= size:
                kind, n_head, n_body = unpack(buf, pos)
                mid = pos + size + n_head
                stop = mid + n_body
                if stop > end:
                    break
                # str, not bytes: json.loads detects the encoding of bytes
                head = str(view[pos + size : mid], "utf-8")
                body = view[mid:stop].tobytes() if n_body else b""
                pos = stop
                if kind == CTRL:
                    ready.append(decode_frame(head, body))
                else:
                    ready.append((src, [(kind == NEQ, (head, body))]))
        del buf[:pos]

    # ------------------------------------------------------------ the loop
    def run(self) -> None:
        """Serve the pipes until the parent shuts us down."""
        self._up.put(encode_json(ChildReady(pid=self.pid)))
        clock = self.clock
        heap = clock.heap
        while not self._stop:
            timeout = _POLL_S
            if clock.t0 is not None and (due := clock.next_due()) is not None:
                next_wall = clock.t0 + due * clock.scale
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
        self._poll.close()

    def _next(self, timeout: float) -> Any:
        """A turn's first item: the last turn's sends to this node as one
        frame of objects, if it made any, else :meth:`_recv`."""
        if self._loopback:
            batch, self._loopback = self._loopback, []
            return (self.pid, batch)
        return self._recv(timeout)

    def _recv(self, timeout: float) -> Any:
        """Next parsed item — one message as a frame, or a control
        envelope — or ``None`` after ``timeout`` wall seconds.  Waiting
        also writes whatever a full pipe left pending."""
        ready = self._ready
        if ready:
            return ready.popleft()
        end = time.monotonic() + timeout
        on = self._on
        while True:
            for fd, _ in self._wait(timeout):
                on[fd]()
            if ready:
                return ready.popleft()
            timeout = end - time.monotonic()
            if timeout <= 0 or self._stop:
                return None

    def _wait(self, timeout: float) -> list[tuple[int, int]]:
        """``(fd, events)`` of the watched ends that turn ready within
        ``timeout`` wall seconds.  A timeout of a millisecond or more
        waits its whole milliseconds in epoll, asked for half a
        millisecond less since epoll rounds up to the next whole one, so
        it may return empty with a sub-millisecond rest left, which
        :meth:`_recv` waits for next.  A shorter wait is a ``select`` on
        the epoll descriptor, which keeps microseconds."""
        if timeout >= 1e-3:
            return self._poll.poll((int(timeout * 1e3) - 0.5) * 1e-3)
        if timeout > 0 and not select.select(self._pollfd, (), (), timeout)[0]:
            return []
        return self._poll.poll(0)

    def _handle(self, item: Any) -> int:
        """One item: a frame of messages or a control envelope.  Returns
        how many messages it carried (the unit of the drain budget)."""
        if type(item) is tuple:
            src, batch = item
            remote = src != self.pid  # a loopback frame holds the objects
            for neq, msg in batch:
                if remote:
                    msg = self._decode(*msg)
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
    numpy's global generator is seeded only if the parent had already
    loaded numpy: nothing in this package reads it, and importing numpy
    here would put it in every node's image.
    """
    import hashlib
    import random

    h = hashlib.sha256(f"{seed}:{pid}".encode()).digest()
    random.seed(h)
    np = sys.modules.get("numpy")
    if np is not None:
        np.random.seed(int.from_bytes(h[:4], "big"))


def child_main(
    plan,
    spec,
    app,
    workload,
    ends: Ends,
    foreign: Iterable[int],
    up: Any,
    wanted: frozenset[str],
) -> None:
    """Entry point of one forked child: close the mesh ends this node does
    not own (``foreign``), build the core, serve the loop."""
    for fd in foreign:  # else a dead peer's pipe stays open in this process
        os.close(fd)
    register_wire()
    _reseed(plan.seed, spec.pid)
    from repro.crypto.signatures import KeyRegistry

    registry = KeyRegistry()
    for other in plan.nodes:  # same PKI view in every process
        if other.pid != spec.pid:
            registry.provision(other.pid)
    core = plan.make_core(spec, app, registry, workload=workload)
    host = LiveHost(core, spec.cores, ends, up, wanted)
    try:
        host.run()
    finally:
        up.close()  # joined, so the exit report reaches the parent
        up.join_thread()
