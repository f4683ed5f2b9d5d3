"""The DES substrate: hosts one :class:`ProtocolCore` on the simulator.

A :class:`DesHost` is the :class:`~repro.runtime.interpreter.EffectInterpreter`
with the Simulator as its clock, the Network as its transport, two
:class:`~repro.sim.cpu.CpuBank` as its CPU banks and the simulator's bus
as its event sink.  Every rule lives in the interpreter; this module only
wires the substrate, so the kernel sees exactly the ``schedule_at`` /
``CpuBank.submit`` / ``Network`` call sequence of the pre-refactor
inline role code and same-seed traces stay bit-identical.

With :attr:`capture` enabled the host additionally publishes
:class:`~repro.obs.events.ReplayInput` / ``ReplayEffect`` events on the
bus: the core's full inbox (messages, timer fires, job and milestone
completions) and its full effect stream.  A :class:`JsonlTraceSink`
subscribed to ``CATEGORY_REPLAY`` then yields a standalone re-runnable
log for :mod:`repro.runtime.replay`.  Capture is an explicit opt-in
flag — not a ``bus.wants`` query — because all-category sinks must keep
seeing the exact pre-capture event stream.
"""

from __future__ import annotations

from functools import partial

from repro.runtime.core import ProtocolCore
from repro.runtime.interpreter import EffectInterpreter
from repro.sim.cpu import CpuBank

__all__ = ["DesHost"]


class DesHost(EffectInterpreter):
    """One simulated node running one protocol core."""

    def __init__(
        self,
        sim,
        net,
        core: ProtocolCore,
        cores: int = 7,
        capture: bool = False,
    ) -> None:
        pid = core.pid
        self._send = partial(net.send, pid)
        self._multicast = partial(net.multicast, pid)
        self._neq_multicast = partial(net.neq_multicast, pid)
        self.wants = sim.bus.wants
        self._emit = sim.bus.emit
        # the paper dedicates one core per node to "network operations"
        # (Sec 7): protocol-critical work (consensus signing, acks) runs
        # on the ctrl bank so it never queues behind application jobs.
        # ``capture`` is set before ``bind`` so the core's birth effects
        # (its initial timers) are captured too: a replayed core
        # re-performs those, so a from-birth log is what byte-compares.
        self._attach(
            core,
            sim,
            CpuBank(sim, cores, owner=pid, name="app"),
            CpuBank(sim, 1, owner=pid, name="ctrl"),
            capture,
        )
