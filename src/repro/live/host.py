"""Child-process side of the live backend: one core, one OS process.

A :class:`LiveHost` is the wall-clock analogue of
:class:`~repro.runtime.des.DesHost`: the same
:class:`~repro.runtime.interpreter.EffectInterpreter` skeleton drives
the same pure :class:`~repro.runtime.core.ProtocolCore`, but the
substrate primitives map onto real queues and real time —

* ``Send``/``Multicast``/``NeqMulticast`` encode their message once
  (codec JSON, content form) and append it to a per-destination outbox;
  the end of every loop turn flushes each outbox as one *net frame*
  (see :mod:`repro.live.wire`) on the destination child's
  ``multiprocessing`` inbox queue (per-(src,dst) FIFO order is append
  order plus the queue's own FIFO guarantee, and ``sender``/``_neq``
  are stamped by the transport exactly like the DES network stamps
  them);
* ``SetTimer``/``Schedule`` become entries on a local timer heap keyed
  by simulated time, served by the event loop's ``get(timeout=...)``;
* ``Job``/``CtrlJob``/``ApplyUpdate`` are *emulated* on free-list CPU
  banks (the app bank has ``cores`` lanes, the control bank one), so
  completion times, milestone offsets and ``busy_seconds`` follow the
  same cost model the DES charges — wall-clock execution of the
  callback happens when the emulated completion time arrives.

Simulated time is ``(monotonic() - t0) / time_scale`` with ``t0``
shared by all processes via :class:`~repro.live.wire.CtrlStart`; a
child that falls behind wall-clock (real Python execution is not free)
simply fires its due work late but **in order** — commit outcomes are
timing-independent by protocol design, which is what the
cross-validation harness (:mod:`repro.live.crossval`) checks.

The loop is single-threaded on purpose: one blocking queue read, all
due timer/job continuations, whatever else already sits in the inbox
(bounded, see :data:`_DRAIN_MSGS`), one flush — the same
run-to-completion handler atomicity cores enjoy under the DES.  An idle
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
from repro.runtime.codec import decode_json, encode_json
from repro.runtime.core import ProtocolCore
from repro.runtime.effects import (
    ApplyUpdate,
    CancelTimer,
    CtrlJob,
    Emit,
    Halt,
    Job,
    Multicast,
    NeqMulticast,
    Schedule,
    Send,
    SetTimer,
)
from repro.runtime.interpreter import EffectInterpreter

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


class _EmuCpu:
    """Free-list CPU bank emulation (sim-time lanes, DES cost model)."""

    __slots__ = ("cores", "busy_seconds", "_free_at")

    def __init__(self, cores: int) -> None:
        self.cores = cores
        self.busy_seconds = 0.0
        self._free_at = [0.0] * cores

    def submit(self, now: float, cost: float) -> tuple[float, float]:
        """Occupy the earliest-free lane; returns (start, done) sim times."""
        lane = min(range(self.cores), key=self._free_at.__getitem__)
        start = max(now, self._free_at[lane])
        done = start + cost
        self._free_at[lane] = done
        self.busy_seconds += cost
        return start, done


class LiveHost(EffectInterpreter):
    """Runtime for one protocol core living in its own OS process."""

    def __init__(
        self,
        core: ProtocolCore,
        cores: int,
        inboxes: dict[str, Any],
        up: Any,
        wanted: frozenset[str],
    ) -> None:
        self.core = core
        self.pid = core.pid
        self.capture = False  # replay capture is DES-only (spec-validated)
        self._inboxes = inboxes
        self._inbox = inboxes[self.pid]
        self._up = up
        self._wanted = wanted
        self.cpu = _EmuCpu(cores)
        self.ctrl = _EmuCpu(1)
        self.crashed = False
        self.unhandled_messages = 0
        self._t0: Optional[float] = None
        self._scale = 1.0
        self._heap: list[tuple[float, int, str, tuple]] = []
        self._seq = 0
        self._timers: dict[str, int] = {}  # armed name -> heap entry seq
        self._stop = False
        self._outbox: dict[str, list[tuple[bool, str]]] = {}
        self._events: list[ChildEvent] = []  # emitted this turn
        core.bind(self)

    # --------------------------------------------------- runtime interface
    @property
    def now(self) -> float:
        if self._t0 is None:
            return 0.0
        return max(0.0, (time.monotonic() - self._t0) / self._scale)

    def wants(self, category: str) -> bool:
        return category in self._wanted

    @property
    def app_cpu(self):
        return self.cpu

    def timer_armed(self, name: str) -> bool:
        return name in self._timers

    perform = EffectInterpreter.interpret

    # ---------------------------------------------------------- primitives
    def _post(self, dsts, msg: Any, neq: bool) -> None:
        payload = encode_json(msg, with_sender=False)
        item = (neq, payload)
        solo = len(payload) > _SOLO_BYTES
        for dst in dsts:
            box = self._inboxes.get(dst)
            if box is None:
                raise LiveError(f"{self.pid}: send to unknown node {dst!r}")
            if solo:
                queued = self._outbox.pop(dst, None)
                if queued:  # per-(src,dst) FIFO: earlier sends go first
                    box.put((self.pid, queued))
                box.put((self.pid, [item]))
            else:
                self._outbox.setdefault(dst, []).append(item)

    def _flush(self) -> None:
        """End of a turn: one put per destination, one for the events."""
        for dst, batch in self._outbox.items():
            self._inboxes[dst].put((self.pid, batch))
        self._outbox.clear()
        if self._events:
            self._up.put(encode_json(self._events))
            self._events.clear()

    def _do_send(self, effect: Send) -> None:
        self._post((effect.dst,), effect.msg, neq=False)

    def _do_multicast(self, effect: Multicast) -> None:
        self._post(effect.dsts, effect.msg, neq=False)

    def _do_neq_multicast(self, effect: NeqMulticast) -> None:
        self._post(effect.dsts, effect.msg, neq=True)

    def _push(self, at: float, kind: str, payload: tuple) -> int:
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, kind, payload))
        return self._seq

    def _do_set_timer(self, effect: SetTimer) -> None:
        seq = self._push(self.now + effect.delay, "timer", (effect,))
        self._timers[effect.name] = seq  # re-arm supersedes (lazy delete)

    def _do_cancel_timer(self, effect: CancelTimer) -> None:
        self._timers.pop(effect.name, None)

    def _do_schedule(self, effect: Schedule) -> None:
        self._push(self.now + effect.delay, "sched", (effect,))

    def _do_job(self, effect: Job) -> None:
        start, done = self.cpu.submit(self.now, effect.cost)
        self._push(done, "job", (effect,))
        for idx in range(len(effect.milestones)):
            offset = effect.milestones[idx][0]
            self._push(start + offset, "milestone", (effect, idx))

    def _do_ctrl_job(self, effect: CtrlJob) -> None:
        _, done = self.ctrl.submit(self.now, effect.cost)
        self._push(done, "ctrljob", (effect,))

    def _do_apply_update(self, effect: ApplyUpdate) -> None:
        # occupies the app bank and accrues busy time; no continuation
        self.cpu.submit(self.now, effect.cost)

    def _do_emit(self, effect: Emit) -> None:
        # cores gate with wants() before constructing events, mirroring
        # the DES bus guard; anything performed anyway is forwarded and
        # the parent bus applies its own category routing
        self._events.append(ChildEvent(pid=self.pid, event=effect.event))

    def _do_halt(self, effect: Halt) -> None:
        # fail-stop: state freezes, pending timers die (guarded jobs are
        # blocked at fire time; unguarded jobs/milestones/schedules still
        # fire, exactly like SimProcess.crash under the DES)
        self.core.crashed = True
        self.crashed = True
        self._timers.clear()

    # ------------------------------------------------------------ the loop
    def run(self) -> None:
        """Serve the inbox until the parent shuts us down."""
        self._up.put(encode_json(ChildReady(pid=self.pid)))
        while not self._stop:
            timeout = _POLL_S
            if self._t0 is not None and self._heap:
                next_wall = self._t0 + self._heap[0][0] * self._scale
                timeout = min(
                    _POLL_S, max(0.0, next_wall - time.monotonic())
                )
            item = self._recv(timeout)
            if self._t0 is not None:
                self._fire_due()
            budget = _DRAIN_MSGS
            while item is not None and not self._stop:
                budget -= self._handle(item)
                if budget <= 0 or (self._heap and self._heap[0][0] <= self.now):
                    break
                item = self._recv(0.0)
            self._flush()

    def _recv(self, timeout: float) -> Any:
        """Next inbox item — a net frame as is, a control string decoded —
        or ``None`` after ``timeout`` wall seconds."""
        try:
            raw = self._inbox.get(timeout=timeout)
        except queue.Empty:
            return None
        return raw if type(raw) is tuple else decode_json(raw)

    def _fire_due(self) -> None:
        while self._heap and self._heap[0][0] <= self.now:
            _, seq, kind, payload = heapq.heappop(self._heap)
            if kind == "timer":
                (effect,) = payload
                if self._timers.get(effect.name) != seq:
                    continue  # cancelled or superseded by a re-arm
                del self._timers[effect.name]
                if self.crashed:
                    continue
                self._fire_timer(effect)
            elif kind == "sched":
                (effect,) = payload
                self._fire_sched(effect)
            elif kind == "job":
                (effect,) = payload
                if effect.guarded and self.crashed:
                    continue
                self._job_thunk(effect)()
            elif kind == "ctrljob":
                (effect,) = payload
                if self.crashed:
                    continue  # control jobs are always guarded
                self._job_thunk(effect)()
            else:  # milestone
                effect, idx = payload
                self._fire_milestone(effect, idx)

    def _handle(self, item: Any) -> int:
        """One inbox item: a net frame or a control envelope.  Returns how
        many messages it carried (the unit of the drain budget)."""
        if type(item) is tuple:
            src, batch = item
            for neq, payload in batch:
                if self.crashed:
                    break  # fail-stop mid-frame: the rest is never seen
                msg = decode_json(payload)
                msg.sender = src  # transport stamp, as Network.send does
                if neq:
                    msg._neq = True  # delivery stamp, as Network._deliver does
                self._deliver_to_core(msg)
            return len(batch)
        if isinstance(item, CtrlStart):
            self._t0 = item.t0
            self._scale = item.time_scale
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
                    tail = self._recv(left)
                    if tail is None:
                        break
                    if isinstance(tail, (tuple, CtrlSubmit)):
                        self._handle(tail)
                self._fire_due()
            self._flush()
            self._up.put(encode_json(self._exit_report()))
            self._stop = True
        else:
            raise LiveError(f"{self.pid}: unexpected envelope {item!r}")
        return 1

    def _exit_report(self) -> ChildExit:
        summary: dict = {}
        if isinstance(self.core, OutputProcess):
            from repro.live.crossval import commit_outcomes

            summary = commit_outcomes(self.core)
        engine = getattr(self.core, "engine", None)
        return ChildExit(
            pid=self.pid,
            summary=summary,
            busy_seconds=self.cpu.busy_seconds,
            tasks_executed=getattr(engine, "tasks_executed", 0),
            unhandled=self.unhandled_messages,
            crashed=self.crashed,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LiveHost {type(self.core).__name__} {self.pid}>"


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
