"""Partial synchrony model (Dwork-Lynch-Stockmeyer, as assumed in Sec 3).

The paper assumes a known Δ and an unknown global synchronization time
(GST): after GST every message between correct processes arrives within Δ.
We model propagation latency as a deterministic base plus seeded jitter;
before GST an additional adversarial delay (up to ``pre_gst_extra``) can be
applied, which the liveness tests use to show timeouts recover after GST.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import NetworkError

if TYPE_CHECKING:
    import numpy as np

__all__ = ["SynchronyModel"]


@dataclass
class SynchronyModel:
    """Latency model with a GST switch.

    Parameters
    ----------
    base_latency:
        One-way propagation latency after GST, seconds.  Default matches
        the paper's testbed TCP ping of 0.075 ms (so one-way ≈ 37.5 µs).
    jitter:
        Uniform jitter added on top, seconds.
    gst:
        Global synchronization time; before it, messages may be delayed.
    pre_gst_extra:
        Maximum extra (adversarially chosen, here uniformly sampled) delay
        applied before GST.
    delta:
        The known Δ bound used by processes to set timeouts.  Must be an
        upper bound on ``base_latency + jitter`` for liveness after GST.
        :class:`~repro.net.links.Network` additionally validates the
        *composed* bound ``neq_latency_factor * (base_latency + jitter)``
        at construction, since the non-equivocating channel amplifies
        propagation latency and Δ must cover it too.
    """

    base_latency: float = 37.5e-6
    jitter: float = 5e-6
    gst: float = 0.0
    pre_gst_extra: float = 0.0
    delta: float = 1e-3

    def __post_init__(self) -> None:
        if self.base_latency < 0 or self.jitter < 0 or self.pre_gst_extra < 0:
            raise NetworkError("latencies must be non-negative")
        if self.delta < self.post_gst_bound():
            raise NetworkError(
                "delta must bound post-GST latency "
                f"(delta={self.delta}, max latency={self.post_gst_bound()})"
            )

    def post_gst_bound(self) -> float:
        """Worst-case post-GST propagation latency the model can produce,
        before any channel amplification (e.g. the neq premium)."""
        return self.base_latency + self.jitter

    def sample(self, now: float, rng: np.random.Generator) -> float:
        """One-way propagation delay for a message sent at ``now``."""
        lat = self.base_latency
        if self.jitter > 0:
            lat += float(rng.uniform(0.0, self.jitter))
        if now < self.gst and self.pre_gst_extra > 0:
            lat += float(rng.uniform(0.0, self.pre_gst_extra))
        return lat

    def synchronous_bound(self, now: float) -> float:
        """Worst-case latency the *model* can produce at ``now``.

        Processes must not use this (they only know Δ); it exists for test
        assertions.
        """
        lat = self.post_gst_bound()
        if now < self.gst:
            lat += self.pre_gst_extra
        return lat
