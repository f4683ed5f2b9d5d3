"""The one host every executing backend runs a protocol core on.

:class:`EffectInterpreter` owns what it means to run a
:class:`~repro.runtime.core.ProtocolCore`: the eleven effect arms, the
named-timer table, the crash and guarded-job rules, replay capture, and
the CPU lane model (a :class:`~repro.sim.cpu.CpuBank` per bank).  A
*substrate* subclass supplies only four things:

==========  ==========================================================
clock       ``now`` and ``schedule_at(time, fn, *args)``, returning a
            cancellable handle
transport   ``_send(dst, msg)``, ``_multicast(dsts, msg)``,
            ``_neq_multicast(dsts, msg)``
CPU banks   ``cpu`` (app, ``cores`` lanes) and ``ctrl`` (one lane), both
            ``CpuBank`` over the clock
event sink  ``wants(category)`` and ``_emit(event)``
==========  ==========================================================

:class:`~repro.runtime.des.DesHost` is the DES substrate (Simulator,
Network); :class:`~repro.live.host.LiveHost` is the live one (pipes, a
wall-clock heap).  ``tests/runtime/test_host_contract.py`` checks the
rules below on both.

The dispatch order and the capture hook placement are part of the byte-
identical-trace contract: capture emission happens *before* the arm
runs, and arms execute synchronously in perform order (pinned by the
golden fig5/turncoat fixtures).
"""

from __future__ import annotations

from typing import Any

from repro.obs.events import ReplayEffect, ReplayInput
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
from repro.runtime.replay import effect_signature, encode_message

__all__ = ["EffectInterpreter"]


def _noop() -> None:
    return None


class EffectInterpreter:
    """One core on one substrate (see the module docstring).

    A substrate sets its transport and event sink first and calls
    :meth:`_attach` last: binding the core runs its ``on_bind``, which
    already performs effects.  The class itself takes no constructor
    arguments, so a bare subclass can time dispatch alone.

    Dispatch is a per-host table of bound arms built lazily from
    :data:`_PRIMITIVES` on first use of each effect type — one dict lookup
    per performed effect instead of an 11-arm type chain, with subclass
    overrides picked up by the late binding.
    """

    #: opt-in replay capture: when set, every performed effect and every
    #: consumed input is published on the event sink.
    capture: bool = False

    #: effect type → arm name (the closed effect vocabulary)
    _PRIMITIVES = {
        Send: "_do_send",
        Multicast: "_do_multicast",
        NeqMulticast: "_do_neq_multicast",
        SetTimer: "_do_set_timer",
        CancelTimer: "_do_cancel_timer",
        Schedule: "_do_schedule",
        Job: "_do_job",
        CtrlJob: "_do_ctrl_job",
        ApplyUpdate: "_do_apply_update",
        Emit: "_do_emit",
        Halt: "_do_halt",
    }

    def _attach(
        self, core: ProtocolCore, clock, cpu, ctrl, capture: bool = False
    ) -> None:
        """Install the clock and CPU banks, then bind ``core``."""
        self.core = core
        self.pid = core.pid
        self.clock = clock
        self.cpu = cpu
        self.ctrl = ctrl
        self.capture = capture
        self.crashed = False
        self._timers: dict[str, Any] = {}  # armed name -> clock handle
        core.bind(self)

    # --------------------------------------------------- runtime interface
    @property
    def now(self) -> float:
        return self.clock.now

    @property
    def app_cpu(self):
        return self.cpu

    def timer_armed(self, name: str) -> bool:
        return name in self._timers

    def interpret(self, effect) -> None:
        """Realise one effect through its arm."""
        if self.capture:
            self._capture_effect(effect)
        try:
            fn = self._dispatch[type(effect)]
        except (AttributeError, KeyError):
            fn = self._bind_primitive(type(effect))
        fn(effect)

    perform = interpret

    def _bind_primitive(self, effect_type):
        """Bind (and cache) the arm for one effect type."""
        name = self._PRIMITIVES.get(effect_type)
        if name is None:  # pragma: no cover - vocabulary is closed
            raise TypeError(f"unknown effect type {effect_type!r}")
        table = getattr(self, "_dispatch", None)
        if table is None:
            table = self._dispatch = {}
        fn = table[effect_type] = getattr(self, name)
        return fn

    def deliver(self, msg: Any) -> None:
        """Hand one delivered message to the core; dropped once halted."""
        if self.crashed:
            return
        if self.capture:
            self._record_input("msg", encode_message(msg))
        self.core.handle(msg)

    # ------------------------------------------------------ capture hooks
    def _capture_effect(self, effect) -> None:
        self._emit(
            ReplayEffect(
                time=self.now, pid=self.pid, signature=effect_signature(effect)
            )
        )

    def _record_input(self, kind: str, ref: str) -> None:
        self._emit(
            ReplayInput(time=self.now, pid=self.pid, input_kind=kind, ref=ref)
        )

    # ---------------------------------------------------------------- arms
    def _do_send(self, effect: Send) -> None:
        self._send(effect.dst, effect.msg)

    def _do_multicast(self, effect: Multicast) -> None:
        self._multicast(effect.dsts, effect.msg)

    def _do_neq_multicast(self, effect: NeqMulticast) -> None:
        self._neq_multicast(effect.dsts, effect.msg)

    def _do_set_timer(self, effect: SetTimer) -> None:
        """Re-arming supersedes the old deadline; a halted host arms
        nothing."""
        old = self._timers.pop(effect.name, None)
        if old is not None:
            old.cancel()
        if self.crashed:
            return
        clock = self.clock
        self._timers[effect.name] = clock.schedule_at(
            clock.now + effect.delay, self._fire_timer, effect
        )

    def _do_cancel_timer(self, effect: CancelTimer) -> None:
        handle = self._timers.pop(effect.name, None)
        if handle is not None:
            handle.cancel()

    def _do_schedule(self, effect: Schedule) -> None:
        clock = self.clock
        clock.schedule_at(clock.now + effect.delay, self._fire_sched, effect)

    def _do_job(self, effect: Job) -> None:
        handle = self.cpu.submit(effect.cost, self._finish_job, effect)
        # the start is re-derived from the completion time, as the inline
        # role code did: milestone times stay bit-identical
        start = handle.time - effect.cost
        for idx in range(len(effect.milestones)):
            self.clock.schedule_at(
                start + effect.milestones[idx][0],
                self._fire_milestone,
                effect,
                idx,
            )

    def _do_ctrl_job(self, effect: CtrlJob) -> None:
        self.ctrl.submit(effect.cost, self._finish_job, effect)

    def _do_apply_update(self, effect: ApplyUpdate) -> None:
        # no continuation, but the completion is still scheduled: on the
        # DES it takes a kernel sequence number the trace depends on
        self.cpu.submit(effect.cost, _noop)

    def _do_emit(self, effect: Emit) -> None:
        self._emit(effect.event)

    def _do_halt(self, effect: Halt) -> None:
        """Fail-stop: later deliveries drop, armed timers die and new ones
        are refused, guarded jobs are skipped at completion.  Milestones,
        unguarded jobs and schedules still run."""
        self.crashed = self.core.crashed = True
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()

    # ------------------------------------------------------- continuations
    def _fire_timer(self, effect: SetTimer) -> None:
        # only a live handle fires, and a live handle is always its name's
        # table entry (re-arm, cancel and Halt cancel what they drop);
        # leaving the table first lets the callback re-arm the name
        del self._timers[effect.name]
        if self.capture:
            self._record_input("timer", effect.name)
        effect.fn(*effect.args)

    def _fire_sched(self, effect: Schedule) -> None:
        if self.capture:
            self._record_input("sched", str(effect.sched_id))
        effect.fn(*effect.args)

    def _finish_job(self, effect) -> None:
        """Job/CtrlJob completion: a guarded ``Job`` and every ``CtrlJob``
        is skipped once the host halted."""
        if self.crashed and (type(effect) is CtrlJob or effect.guarded):
            return
        if self.capture:
            self._record_input("job", str(effect.job_id))
        effect.fn(*effect.args)

    def _fire_milestone(self, effect: Job, idx: int) -> None:
        if self.capture:
            self._record_input("milestone", f"{effect.job_id}:{idx}")
        _, fn, args = effect.milestones[idx]
        fn(*args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {type(self.core).__name__} {self.pid}>"
