"""Gateway-side admission: the IP's machine, driven on the wall clock.

:class:`AdmissionGate` is :class:`~repro.core.admission.Admission` plus
a thread layer: ``offer`` under one lock, and a dispatcher thread that
pops, forwards, then sleeps ``gap * time_scale`` wall seconds — the
image of the IP's ``schedule(gap, _drain)`` (DESIGN.md §17).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.core.admission import ADMITTED, Admission
from repro.errors import ServeError

__all__ = ["AdmissionGate"]


class AdmissionGate(Admission):
    """Bounded, rate-drained ingress queue in front of a live runtime.

    ``forward`` is called on the dispatcher thread with each task that
    survives admission (typically ``LiveRuntime.submit``), or inline by
    ``offer`` when no knob is set.  ``offer`` may be called from any
    number of connection threads.
    """

    def __init__(
        self,
        forward: Callable,
        queue_bound: Optional[int] = None,
        rate: Optional[float] = None,
        time_scale: float = 1.0,
    ) -> None:
        super().__init__(queue_bound, rate)
        if time_scale <= 0:
            raise ServeError(f"time_scale must be positive, got {time_scale}")
        self._forward = forward
        self.time_scale = time_scale
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._closed = False
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        if self._thread is not None:
            raise ServeError("admission gate already started")
        self._thread = threading.Thread(
            target=self._run, name="serve-admission", daemon=True
        )
        self._thread.start()

    def close(self, drain_timeout: float = 5.0) -> None:
        """Stop accepting, drain what is queued, stop the dispatcher."""
        with self._cond:
            self._closed = True
            self.bound = 0  # no room left: every later offer is REJECTED
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=drain_timeout)
            self._thread = None

    # -------------------------------------------------------------- ingress
    def offer(self, task) -> tuple[str, int]:
        """Admission verdict for one task: ``(status, queue_depth)``.
        Thread-safe."""
        with self._lock:
            inline = not self.enforcing
            status, depth = super().offer(task)
            if status == ADMITTED and not inline:
                self._cond.notify_all()  # the dispatcher parks when idle
        if inline:
            self._forward(task)
        return status, depth

    def wait_empty(self, timeout: float) -> bool:
        """Block until the machine is idle (or ``timeout`` wall s)."""
        with self._cond:
            return self._cond.wait_for(
                lambda: not self.queue and not self.busy, timeout
            )

    # ----------------------------------------------------------- dispatcher
    def _run(self) -> None:
        while True:
            with self._cond:
                task = self.pop()
                while task is None:
                    self._cond.notify_all()  # idle: release wait_empty
                    if self._closed:
                        return
                    self._cond.wait()
                    task = self.pop()
            self._forward(task)
            if self.gap:
                time.sleep(self.gap * self.time_scale)
