"""Pure protocol core: a state machine that speaks only in effects.

A core owns protocol state and handlers; it never imports the simulator
or the network.  Handlers are methods named ``on_<MessageClass>``,
collected into a dispatch table once at construction (no per-delivery
``getattr`` string lookup).  Sub-cores — the consensus engines — extend
the table through :meth:`ProtocolCore.register_handler` instead of
monkey-patching attributes onto their host.

The convenience methods (``send``, ``set_timer``, ``run_job``, …) are
thin constructors for :mod:`~repro.runtime.effects` objects handed to
the bound runtime; they are *the only* way a core touches the world.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import SimulationError
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

__all__ = ["ProtocolCore"]


class ProtocolCore:
    """Base class for every protocol role.

    Parameters
    ----------
    pid:
        Process identity; stamped on outgoing messages by the network
        backend and used to key timers/jobs in capture logs.
    """

    def __init__(self, pid: str) -> None:
        self.pid = pid
        self.crashed = False
        self.unhandled_messages = 0
        self._rt: Any = None
        self._job_seq = 0
        self._sched_seq = 0
        handlers: dict[str, Callable] = {}
        for name in dir(type(self)):
            if name.startswith("on_") and name != "on_bind":
                handlers[name[3:]] = getattr(self, name)
        self._handlers = handlers

    # ------------------------------------------------------------- binding
    def bind(self, rt: Any) -> None:
        """Attach the backend; fires the :meth:`on_bind` hook (where
        cores arm their initial timers — never in ``__init__``).

        ``rt`` offers four read-side services — ``now``,
        ``wants(category)`` (does any trace sink subscribe, so the core
        can skip building unseen events), ``timer_armed(name)`` and
        ``app_cpu`` (``cores``, ``busy_seconds``) — and one write-side
        entrypoint, ``perform(effect)``.  Effects are performed
        *immediately and in emission order* — the core calls ``perform``
        as it goes rather than returning a batch — so an interpreting
        backend executes the exact call sequence the pre-refactor inline
        code did (this is what keeps DES traces bit-identical), while the
        recording backend still observes the full effect stream.
        """
        if self._rt is not None:
            raise SimulationError(f"core {self.pid} already bound")
        self._rt = rt
        self.on_bind()

    def on_bind(self) -> None:
        """Called once, immediately after the runtime is attached."""

    @property
    def rt(self) -> Any:
        if self._rt is None:
            raise SimulationError(f"core {self.pid} is not bound to a runtime")
        return self._rt

    # ------------------------------------------------------------ dispatch
    def register_handler(self, msg_type: str, fn: Callable) -> None:
        """Route deliveries of ``msg_type`` (class name) to ``fn`` —
        the composition point for consensus sub-cores."""
        self._handlers[msg_type] = fn

    def handlers(self) -> dict[str, Callable]:
        """The live dispatch table (message class name → handler)."""
        return dict(self._handlers)

    def handle(self, msg: Any) -> None:
        """Dispatch one delivered message; crashed cores drop inputs."""
        if self.crashed:
            return
        fn = self._handlers.get(type(msg).__name__)
        if fn is None:
            self.unhandled_messages += 1
            return
        fn(msg)

    # ------------------------------------------------------------- effects
    def perform(self, effect) -> None:
        self.rt.perform(effect)

    def send(self, dst: str, msg: Any) -> None:
        self.rt.perform(Send(dst, msg))

    def multicast(self, dsts, msg: Any) -> None:
        self.rt.perform(Multicast(tuple(dsts), msg))

    def neq_multicast(self, dsts, msg: Any) -> None:
        self.rt.perform(NeqMulticast(tuple(dsts), msg))

    def set_timer(self, name: str, delay: float, fn: Callable, *args) -> None:
        self.rt.perform(SetTimer(name, delay, fn, args))

    def cancel_timer(self, name: str) -> None:
        self.rt.perform(CancelTimer(name))

    def timer_armed(self, name: str) -> bool:
        return self.rt.timer_armed(name)

    def schedule(self, delay: float, fn: Callable, *args) -> int:
        self._sched_seq += 1
        self.rt.perform(Schedule(delay, fn, args, sched_id=self._sched_seq))
        return self._sched_seq

    def run_job(self, cost: float, fn: Callable, *args) -> int:
        self._job_seq += 1
        self.rt.perform(Job(cost, fn, args, job_id=self._job_seq))
        return self._job_seq

    def run_raw_job(self, cost: float, fn: Callable, *args, milestones=()) -> int:
        """Unguarded app-bank job with optional streaming milestones."""
        self._job_seq += 1
        self.rt.perform(
            Job(
                cost,
                fn,
                args,
                job_id=self._job_seq,
                guarded=False,
                milestones=tuple(milestones),
            )
        )
        return self._job_seq

    def run_ctrl_job(self, cost: float, fn: Callable, *args) -> int:
        self._job_seq += 1
        self.rt.perform(CtrlJob(cost, fn, args, job_id=self._job_seq))
        return self._job_seq

    def apply_update(self, cost: float) -> None:
        self.rt.perform(ApplyUpdate(cost))

    def emit(self, event: Any) -> None:
        self.rt.perform(Emit(event))

    def wants(self, category: str) -> bool:
        return self.rt.wants(category)

    # ----------------------------------------------------------- substrate
    @property
    def now(self) -> float:
        return self.rt.now

    @property
    def cpu(self):
        """App-compute bank view (``cores``/``busy_seconds``/…)."""
        return self.rt.app_cpu

    def crash(self) -> None:
        """Fail-stop this core: state freezes, pending timers die."""
        if self.crashed:
            return
        self.crashed = True
        self.rt.perform(Halt())
