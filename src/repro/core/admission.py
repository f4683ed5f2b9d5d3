"""Admission control: one clock-free ingress-queue state machine.

``OsirisConfig.admission_queue`` / ``admission_rate`` put a bounded
queue, drained at a fixed rate, in front of the consensus client
([P1]).  :class:`Admission` is that policy without a clock; its driver
owns the time — the input process on simulated time, the serve
gateway's :class:`~repro.serve.admission.AdmissionGate` on the wall
clock (DESIGN.md §15, §17).

An offer is REJECTED iff the queue is full (the task is shed), DEFERRED
iff the machine is ``busy`` or the queue is non-empty, ADMITTED
otherwise (the driver starts a drain).  With neither knob set the
machine is not ``enforcing``: nothing queues and the driver forwards
inline.  ``admitted``/``deferred``/``rejected`` count verdicts,
``forwarded`` counts tasks handed on.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.errors import ProtocolError

__all__ = ["ADMITTED", "DEFERRED", "REJECTED", "Admission"]

#: Verdicts; also the wire values of the gateway's ``SubmitReply``.
ADMITTED = "admitted"
DEFERRED = "deferred"
REJECTED = "rejected"


class Admission:
    """Bounded ingress queue with a rate-spaced drain.

    ``busy`` is true while a drain runs or a rate tick is outstanding:
    after each :meth:`pop` it says whether another drain is due ``gap``
    seconds from now.
    """

    def __init__(
        self, bound: Optional[int] = None, rate: Optional[float] = None
    ) -> None:
        if bound is not None and bound < 1:
            raise ProtocolError(f"admission_queue must be >= 1, got {bound}")
        if rate is not None and rate <= 0:
            raise ProtocolError(f"admission_rate must be positive, got {rate}")
        self.bound = bound
        self.rate = rate
        self.gap = 1.0 / rate if rate is not None else 0.0
        self.queue: deque = deque()
        self.busy = False
        self.admitted = self.deferred = self.rejected = self.forwarded = 0

    @property
    def enforcing(self) -> bool:
        return self.bound is not None or self.rate is not None

    def offer(self, task: Any) -> tuple[str, int]:
        """The verdict for one arrival and the queue depth after it."""
        queue = self.queue
        if not self.enforcing:
            self.admitted += 1
            self.forwarded += 1
            return ADMITTED, 0
        if self.bound is not None and len(queue) >= self.bound:
            self.rejected += 1
            return REJECTED, len(queue)
        if self.busy or queue:
            self.deferred += 1
            status = DEFERRED
        else:
            self.admitted += 1
            status = ADMITTED
        queue.append(task)
        return status, len(queue)

    def pop(self) -> Any:
        """The next task to forward, or ``None`` when the drain ends."""
        if not self.queue:
            self.busy = False
            return None
        self.forwarded += 1
        task = self.queue.popleft()
        self.busy = self.rate is not None or bool(self.queue)
        return task
