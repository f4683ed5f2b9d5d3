"""Typed effect vocabulary emitted by pure protocol cores.

An :class:`Effect` is a *request* for the hosting runtime: send this
message, arm this timer, burn this much CPU and then call me back.  The
vocabulary is the complete set of interactions any role in the system
has with its substrate; a backend that interprets all of them can host
any core.  Cores never see how an effect is realised — the one host
(:mod:`repro.runtime.interpreter`) runs them on the simulated or the
live substrate, the in-memory backend records them.

Callback-carrying effects (:class:`SetTimer`, :class:`Schedule`,
:class:`Job`, :class:`CtrlJob`) name their continuation with a stable
identifier (timer name, sched id, job id) assigned by the core.  The
identifier — not the callable — is what a capture log records, so a
replay can re-invoke the *fresh* core's own pending continuation by id
without ever serialising a closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "Effect",
    "Send",
    "Multicast",
    "NeqMulticast",
    "SetTimer",
    "CancelTimer",
    "Schedule",
    "Job",
    "CtrlJob",
    "ApplyUpdate",
    "Emit",
    "Halt",
]


class Effect:
    """Marker base class for everything a core may ask of its runtime."""

    __slots__ = ()


@dataclass(slots=True)
class Send(Effect):
    """Point-to-point message over the authenticated plain channel."""

    dst: str
    msg: Any


@dataclass(slots=True)
class Multicast(Effect):
    """One message to each destination, in order, over plain channels."""

    dsts: tuple
    msg: Any


@dataclass(slots=True)
class NeqMulticast(Effect):
    """Multicast through the non-equivocating primitive (Sec 3.2)."""

    dsts: tuple
    msg: Any


@dataclass(slots=True)
class SetTimer(Effect):
    """Arm (or re-arm) the named one-shot timer.

    Firing invokes ``fn(*args)`` unless the core has crashed by then.
    Re-arming an already-armed name replaces the previous deadline.
    """

    name: str
    delay: float
    fn: Callable
    args: tuple = ()


@dataclass(slots=True)
class CancelTimer(Effect):
    """Disarm the named timer; a no-op if it is not armed."""

    name: str


@dataclass(slots=True)
class Schedule(Effect):
    """Raw delayed callback, *not* gated on the core being alive.

    Used by the input processes' workload pumps: a crashed IP keeps
    draining its task stream (the stream, not the process, is the
    workload's clock).  ``sched_id`` names the continuation for capture.
    """

    delay: float
    fn: Callable
    args: tuple = ()
    sched_id: int = 0


@dataclass(slots=True)
class Job(Effect):
    """Occupy one app core for ``cost`` seconds, then call ``fn(*args)``.

    ``guarded`` jobs skip the completion callback if the core crashed
    while the job was in flight; unguarded jobs always call back (the
    execution engine's slot-accounting callback must run even on a
    crashed host, exactly as the raw pre-refactor ``cpu.submit`` did —
    the core's own handlers re-check ``crashed``).

    ``milestones`` is a tuple of ``(offset, fn, args)``: each is invoked
    (unguarded) ``offset`` seconds after the job's start, supporting
    chunk streaming at fractional milestones of the compute job
    (Sec 5.1).  Producers compute offsets as ``cost * (i + 1) / k`` —
    an absolute offset rather than a fraction keeps the float arithmetic
    (and therefore the event timeline) bit-identical to inlined code.
    """

    cost: float
    fn: Callable
    args: tuple = ()
    job_id: int = 0
    guarded: bool = True
    milestones: tuple = ()


@dataclass(slots=True)
class CtrlJob(Effect):
    """Like :class:`Job` (guarded) but on the control-plane core bank,
    so signing/verification never steals app-compute cycles."""

    cost: float
    fn: Callable
    args: tuple = ()
    job_id: int = 0


@dataclass(slots=True)
class ApplyUpdate(Effect):
    """Charge ``cost`` seconds of state-update application to the app
    bank with no continuation (the store already mutated in-handler)."""

    cost: float


@dataclass(slots=True)
class Emit(Effect):
    """Publish a trace event on the deployment's observability bus."""

    event: Any


@dataclass(slots=True)
class Halt(Effect):
    """The core crashed: drop pending timers, ignore future inputs."""
