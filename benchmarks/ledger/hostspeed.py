"""Concurrent measurement of how fast the host is *right now*.

The host is a shared two-vCPU VM whose speed shifts by a third for
seconds to minutes at a time: a spin loop on the otherwise idle machine
swings between 0.15 s and 0.25 s, and ten runs of one workload spread
5 % (IQR / median) in a quiet quarter of an hour and 30–48 % in a bad
one — set-up time (imports and six forks) included.  The shift is
multiplicative across everything CPU-bound: over fourteen
``live-burst`` runs the spin and the CPU cost per task drifted together
(+35 % / +33 %), and throughput times the spin repeated within 3 %
where raw throughput spread 9 %.

So a :class:`Calibrator` thread samples a ~1 ms pure-Python spin every
20 ms alongside the measured work, timed on its own thread's CPU clock
(a descheduled or GIL-starved spin is not a slow spin), and each slice
of a run is divided by its *factor*: the spin's mean CPU time there
over :data:`SPIN_REFERENCE_S`.  End-to-end timing metrics are therefore
stated **at reference host speed**: on a quiet host the factor is ~1
and nothing changes; on a slowed host they are corrected toward what
the quiet host would measure.  The traced pass and the microbenchmarks
report raw numbers.

This module imports nothing heavy, so the calibrator can run while the
worker pays for its imports.
"""

from __future__ import annotations

import threading
import time

#: CPU seconds the spin takes on the reference host state (this VM with
#: nothing else contending for its two hardware threads)
SPIN_REFERENCE_S = 1.0e-3


def _spin() -> float:
    """CPU seconds (this thread's clock) of a fixed pure-Python loop."""
    t0 = time.thread_time()
    x = 0
    for i in range(20000):
        x += i * i
    return time.thread_time() - t0


class Calibrator:
    """Background sampler; ``factor(lo, hi)`` is the host's slowness over
    a stretch of ``time.perf_counter()`` time."""

    def __init__(self, every: float = 0.02) -> None:
        self.samples: list[tuple[float, float]] = []
        self._every = every
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="ledger-calibrator", daemon=True
        )

    def start(self) -> "Calibrator":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(self._every):
            self.samples.append((time.perf_counter(), _spin()))

    def factor(self, lo: float = float("-inf"), hi: float = float("inf")) -> float:
        """Mean spin time over ``[lo, hi)`` (over the whole run if no
        sample fell inside) relative to the reference: above 1 means a
        slower host."""
        inside = [s for t, s in self.samples if lo <= t < hi]
        picked = inside or [s for _, s in self.samples] or [SPIN_REFERENCE_S]
        return sum(picked) / len(picked) / SPIN_REFERENCE_S
