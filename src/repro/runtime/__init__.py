"""Sans-IO runtime layer: typed effects, pure protocol cores, backends.

Every protocol role (coordinator, verifier, executor, IP/OP, the
consensus engines and both baselines) is a :class:`ProtocolCore`: a pure
state machine whose handlers emit typed :mod:`~repro.runtime.effects`
instead of touching the simulator or the network directly.  A core runs
on one of two runtimes (the contract is documented on
:meth:`ProtocolCore.bind`):

* :class:`~repro.runtime.interpreter.EffectInterpreter` — the one
  executing host: it owns the effect rules (timers, crash and
  guarded-job rules, CPU lanes, capture) over a substrate that supplies
  a clock, a transport, two CPU banks and an event sink.
  :class:`~repro.runtime.des.DesHost` is the discrete-event substrate
  every deployment builder uses (bit-identical traces);
  :class:`~repro.live.host.LiveHost` runs one core per OS process.
* :class:`~repro.runtime.testing.TestRuntime` — the one in-memory
  backend, with no Simulator and no Network: unit tests drive it by
  hand, :mod:`repro.mc` explores orderings over it, and
  :func:`~repro.runtime.replay.replay` re-runs a single core on it
  from a bus-captured inbox (post-mortem debugging).

The deployment builder for the full OsirisBFT cluster lives in
:mod:`repro.runtime.deploy`.
"""

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

__all__ = [
    "ProtocolCore",
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
