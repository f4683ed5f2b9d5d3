"""Control-plane envelopes for the live OS-process backend.

Exactly two payload shapes cross a process boundary:

* a **codec-JSON envelope** (:mod:`repro.runtime.codec`) — children
  answer the parent on the up queue with :class:`ChildReady` /
  :class:`ChildExit`, and the trace events one child emitted in one
  loop turn ride up as the JSON of a *list* of :class:`ChildEvent`;
* a **net frame** on the pipe mesh — ``(kind, head length, body
  length)``, the head and the body (:func:`repro.live.host.frame`).
  Head and body are :func:`~repro.runtime.codec.encode_frame` of one
  value: codec JSON in content form, with each long ASCII string and
  long ``bytes`` moved raw into the body.  The parent drives children
  with the ``Ctrl*`` types, framed as :data:`~repro.live.host.CTRL` on
  each child's control pipe; between children each frame holds one
  protocol message, encoded once per effect and written to every
  destination, and the transport stamps ride outside it — ``src`` is
  the pipe, ``neq`` the frame kind (:data:`~repro.live.host.PLAIN` or
  :data:`~repro.live.host.NEQ`).  The receiving
  :class:`~repro.live.host.LiveHost` sets them as ``sender``/``_neq``
  (as the DES network does) before the shared
  :class:`~repro.runtime.interpreter.EffectInterpreter` delivers.

:func:`register_wire` installs every envelope *and* the full
trace-event vocabulary in the codec registry; both the parent and each
child call it once at startup (idempotent).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any

from repro.obs import events as _events
from repro.obs.events import TraceEvent
from repro.runtime import codec

__all__ = [
    "NetEnvelope",
    "CtrlStart",
    "CtrlAction",
    "CtrlSubmit",
    "CtrlShutdown",
    "ChildReady",
    "ChildEvent",
    "ChildExit",
    "register_wire",
]


@dataclass(slots=True)
class NetEnvelope:
    """One inter-node message hop as a codec type of its own.

    No longer on any queue — hops travel as net frames (module
    docstring).  The class stays registered because the performance
    ledger's ``live.envelope_encode_us`` row encodes it.
    """

    src: str
    dst: str
    neq: bool
    payload: str  # codec JSON of the protocol message (no sender stamp)


@dataclass(slots=True)
class CtrlStart:
    """Parent → every child: begin running.

    ``t0`` is a shared ``time.monotonic()`` epoch (comparable across
    processes on Linux — CLOCK_MONOTONIC is system-wide); sim time is
    ``(monotonic() - t0) / time_scale`` everywhere, so one wall second
    carries ``1/time_scale`` simulated seconds.
    """

    t0: float
    time_scale: float


@dataclass(slots=True)
class CtrlAction:
    """Parent → one child: apply an adversary action to the local core.

    ``action`` is ``Action.to_dict()`` — the campaign layer's canonical
    serialization, reused instead of registering fault specs with the
    codec.
    """

    pid: str
    action: dict = field(default_factory=dict)


@dataclass(slots=True)
class CtrlSubmit:
    """Parent → one input process: inject one externally-submitted task.

    This is the serving path (:mod:`repro.serve`): tasks arrive over a
    client socket instead of the pre-planned workload iterator, the
    gateway picks the shard's input pid, and the child's
    :meth:`~repro.core.input_output.InputProcess.inject` forwards the
    task into consensus exactly as a workload arrival would be.
    """

    pid: str
    task: Any = None


@dataclass(slots=True)
class CtrlShutdown:
    """Parent → every child: stop the loop, report, and exit."""

    grace: float = 0.0  # wall seconds to keep draining before reporting


@dataclass(slots=True)
class ChildReady:
    """Child → parent: core built and bound, inbox being served."""

    pid: str


@dataclass(slots=True)
class ChildEvent:
    """Child → parent: one trace event for the parent-side bus pump."""

    pid: str
    event: Any = None


@dataclass(slots=True)
class ChildExit:
    """Child → parent: final report, sent in response to CtrlShutdown.

    ``summary`` carries ``OutputProcess.commit_record()`` for output
    processes and is empty for other roles; ``busy_seconds`` is the
    host's app ``CpuBank`` total.
    """

    pid: str
    summary: dict = field(default_factory=dict)
    busy_seconds: float = 0.0
    tasks_executed: int = 0
    unhandled: int = 0
    crashed: bool = False


_WIRE = (
    NetEnvelope,
    CtrlStart,
    CtrlAction,
    CtrlSubmit,
    CtrlShutdown,
    ChildReady,
    ChildEvent,
    ChildExit,
)


def register_wire() -> None:
    """Install the envelopes and the trace-event vocabulary (idempotent)."""
    codec.register(*_WIRE)
    for name in _events.__all__:
        obj = getattr(_events, name)
        if (
            inspect.isclass(obj)
            and issubclass(obj, TraceEvent)
            and obj is not TraceEvent
        ):
            codec.register(obj)
