"""The in-memory backend: one core, no Simulator, no Network.

A :class:`TestRuntime` records every effect a core performs and keeps
just enough state (armed timers, queued jobs and scheds) to let its
driver fire continuations by hand.  Three drivers share it, so the
crash rules below are written once for all of them:

* unit tests construct a Verifier or Coordinator core, feed
  hand-crafted messages in any order, and assert directly on state and
  on the typed effect stream — adversarial orderings made *surgical*;
* :mod:`repro.mc` binds one per core and moves each runtime's recorded
  sends and queued work into the explorer's frontier after every step;
* :func:`repro.runtime.replay.replay` feeds a captured inbox into one.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.runtime.core import ProtocolCore
from repro.runtime.effects import (
    ApplyUpdate,
    CancelTimer,
    CtrlJob,
    Effect,
    Emit,
    Halt,
    Job,
    Multicast,
    NeqMulticast,
    Schedule,
    Send,
    SetTimer,
)

__all__ = ["TestRuntime", "describe_effect", "sent_messages"]


def describe_effect(effect: Effect) -> str:
    """One-line human description of a pending effect, for diagnostics.

    Names the effect type and whatever identifies its payload: message
    type and destination(s) for sends, continuation qualname and id for
    jobs/scheds, timer name for timers.
    """
    t = type(effect)
    if t is Send:
        return f"Send->{effect.dst}:{type(effect.msg).__name__}"
    if t in (Multicast, NeqMulticast):
        return (
            f"{t.__name__}->{','.join(effect.dsts)}"
            f":{type(effect.msg).__name__}"
        )
    if t is Job:
        fn = getattr(effect.fn, "__qualname__", repr(effect.fn))
        return f"Job#{effect.job_id}:{fn}(+{len(effect.milestones)}ms)"
    if t is CtrlJob:
        fn = getattr(effect.fn, "__qualname__", repr(effect.fn))
        return f"CtrlJob#{effect.job_id}:{fn}"
    if t is Schedule:
        fn = getattr(effect.fn, "__qualname__", repr(effect.fn))
        return f"Schedule#{effect.sched_id}:{fn}"
    if t is SetTimer:
        return f"SetTimer:{effect.name}"
    return t.__name__


class StubCpu:
    """App-bank view for the in-memory backend: the two fields cores
    read.  ``busy_seconds`` accumulates app-bank costs as they are
    performed, as ``CpuBank`` charges the full cost at submit time."""

    def __init__(self, cores: int = 1) -> None:
        self.cores = cores
        self.busy_seconds = 0.0


class TestRuntime:
    """Inert effect recorder with manual continuation control."""

    def __init__(
        self,
        core: ProtocolCore,
        cores: int = 7,
        wanted: Optional[Callable[[str], bool]] = None,
    ) -> None:
        self.core = core
        self.clock = 0.0
        self._wanted = wanted or (lambda category: True)
        self._cpu = StubCpu(cores)
        self.effects: list[Effect] = []
        self.timers: dict[str, SetTimer] = {}
        self.pending: list[Effect] = []  # jobs/ctrl-jobs/scheds, FIFO
        core.bind(self)

    # --------------------------------------------------- runtime interface
    @property
    def now(self) -> float:
        return self.clock

    def wants(self, category: str) -> bool:
        return self._wanted(category)

    def timer_armed(self, name: str) -> bool:
        return name in self.timers

    @property
    def app_cpu(self):
        return self._cpu

    def perform(self, effect) -> None:
        self.effects.append(effect)
        t = type(effect)
        if t is SetTimer and not self.core.crashed:  # halted: arms nothing
            self.timers[effect.name] = effect
        elif t is CancelTimer:
            self.timers.pop(effect.name, None)
        elif t in (Job, CtrlJob, Schedule):
            if t is Job:
                self._cpu.busy_seconds += effect.cost
            self.pending.append(effect)
        elif t is ApplyUpdate:
            self._cpu.busy_seconds += effect.cost
        elif t is Halt:
            self.timers.clear()

    # ---------------------------------------------------- driver controls
    def deliver(self, msg: Any, sender: Optional[str] = None) -> None:
        """Hand a message to the core, stamping ``sender`` like the
        authenticated transport would."""
        if sender is not None:
            msg.sender = sender
        self.core.handle(msg)

    def fire_timer(self, name: str) -> None:
        """Fire an armed timer immediately (crash-guarded, like the DES)."""
        effect = self.timers.pop(name)
        if not self.core.crashed:
            effect.fn(*effect.args)

    def run(self, effect) -> None:
        """Run one queued job, ctrl-job or sched with the DES crash rules.

        A job's milestones run first and are never guarded; a guarded
        ``Job`` or any ``CtrlJob`` then skips its continuation once the
        core crashed; a ``Schedule`` always runs.  Costs are ignored —
        this backend has no clock to advance.
        """
        t = type(effect)
        if t is Job:
            for _, fn, args in effect.milestones:
                fn(*args)
            if effect.guarded and self.core.crashed:
                return
        elif t is CtrlJob and self.core.crashed:
            return
        effect.fn(*effect.args)

    def drain(self, max_rounds: int = 1000) -> None:
        """Run queued work (and any it enqueues) to quiescence, FIFO."""
        rounds = 0
        while self.pending:
            rounds += 1
            if rounds > max_rounds:
                undelivered = ", ".join(
                    describe_effect(e) for e in self.pending[:16]
                )
                if len(self.pending) > 16:
                    undelivered += f", ... and {len(self.pending) - 16} more"
                raise RuntimeError(
                    f"TestRuntime.drain did not quiesce after {max_rounds} "
                    f"rounds; core {self.core.pid!r} still has "
                    f"{len(self.pending)} undelivered effect(s): "
                    f"[{undelivered}]"
                )
            self.run(self.pending.pop(0))

    # ------------------------------------------------------------ querying
    def of(self, effect_type: type) -> list[Effect]:
        """Recorded effects of one concrete type, in perform order."""
        return [e for e in self.effects if type(e) is effect_type]

    def clear(self) -> None:
        self.effects.clear()

    def emitted(self, event_type: type) -> list[Any]:
        """Trace events the core emitted, filtered by event class."""
        return [
            e.event
            for e in self.effects
            if type(e) is Emit and type(e.event) is event_type
        ]


def sent_messages(rt: TestRuntime, msg_type: Optional[type] = None) -> list:
    """All messages the core sent (point-to-point or multicast), in
    order, optionally filtered by message class."""
    out = []
    for effect in rt.effects:
        if type(effect) in (Send, Multicast, NeqMulticast):
            if msg_type is None or type(effect.msg) is msg_type:
                out.append(effect.msg)
    return out
