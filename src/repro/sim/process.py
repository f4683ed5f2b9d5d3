"""Bare simulated processes, for wiring the network by hand.

Protocol cores run on :class:`repro.runtime.des.DesHost`, which owns
their timers, jobs and crash rules.  :class:`SimProcess` is the plain
network endpoint that unit tests register next to (or instead of)
hosts: a pid, a CPU bank, and messages dispatched by type.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.cpu import CpuBank
from repro.sim.kernel import Simulator

__all__ = ["SimProcess"]


class SimProcess:
    """A named simulated process with CPU and message dispatch.

    Subclasses implement handlers named ``on_<MessageType>`` (matching the
    message class name, see :mod:`repro.net.message`); they are collected
    into a dispatch table once at construction and :meth:`deliver` routes
    incoming messages through it — no per-delivery string ``getattr``.
    Unknown message types are counted and dropped — a correct process must
    tolerate garbage from Byzantine peers, so an unexpected type is never
    an error.
    """

    def __init__(self, sim: Simulator, pid: str, cores: int = 7) -> None:
        self.sim = sim
        self.pid = pid
        self.cpu = CpuBank(sim, cores, owner=pid, name="app")
        self.ctrl = CpuBank(sim, 1, owner=pid, name="ctrl")
        self.crashed = False
        self.unhandled_messages = 0
        handlers: dict[str, Callable[..., None]] = {}
        for name in dir(type(self)):
            if name.startswith("on_"):
                handlers[name[3:]] = getattr(self, name)
        self._handlers = handlers

    @property
    def bus(self):
        """The deployment's observability bus (owned by the simulator)."""
        return self.sim.bus

    def deliver(self, msg: Any) -> None:
        """Entry point the network calls when a message arrives."""
        if self.crashed:
            return
        handler = self._handlers.get(type(msg).__name__)
        if handler is None:
            self.unhandled_messages += 1
            return
        handler(msg)

    def crash(self) -> None:
        """Silence the process: it drops all future messages."""
        self.crashed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.pid}>"
