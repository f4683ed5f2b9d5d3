"""Deployment configuration for OsirisBFT clusters."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.admission import Admission
from repro.errors import ProtocolError

__all__ = ["OsirisConfig"]


@dataclass
class OsirisConfig:
    """Tunables of a deployment; defaults follow the paper's Sec 7 setup.

    Attributes
    ----------
    f:
        Failures tolerated per verifier sub-cluster.
    chunk_bytes:
        Max record-chunk payload ("1MB record chunks" in the paper; the
        benchmark harness scales this with its workloads).
    suspect_timeout:
        Base speculative-reassignment timeout; doubled per attempt
        ("timeout values are calibrated empirically between 500ms and 5s").
    op_timeout:
        OP-side wait before reporting a negligent leader / equivocation,
        doubled per report.
    max_attempts:
        Reassignments before falling back to execution by a verifier
        sub-cluster (Lemma 6.4's worst-case liveness path).
    role_switching / role_switch_interval:
        Dynamic role-switching (Sec 5.3) and its control-loop period.
    switch_out_backlog / switch_out_util / switch_in_util:
        Role-switching hysteresis: lend a verifier cluster to execution
        when the compute backlog per executor exceeds
        ``switch_out_backlog`` tasks AND that cluster's reported CPU
        utilization is below ``switch_out_util``; recall a lent cluster
        when the remaining active clusters' mean utilization exceeds
        ``switch_in_util``.
    min_verifier_clusters:
        Never switch below this many active verifier clusters.
    cores_per_node:
        App cores per process (paper: 8 logical minus 1 for networking).
    non_equivocation:
        Whether the non-equivocating multicast primitive is available;
        without it sub-clusters need 3f+1 members (Sec 3).
    admission_queue / admission_rate:
        Admission control for open-loop traffic, run by the IP or the
        serve gateway (:class:`~repro.core.admission.Admission`).
        ``None`` for both (the default) forwards every arrival at once.
        ``admission_queue`` bounds the ingress queue — arrivals past
        the bound are *rejected* (shed).  ``admission_rate`` drains the
        queue at that many submits/second; arrivals that must wait
        behind the drain are *deferred*.
    """

    f: int = 1
    chunk_bytes: int = 1_000_000
    suspect_timeout: float = 0.5
    op_timeout: float = 0.25
    max_attempts: int = 3
    role_switching: bool = True
    role_switch_interval: float = 1.0
    switch_out_backlog: float = 4.0
    switch_out_util: float = 0.5
    switch_in_util: float = 0.85
    #: consecutive policy ticks a condition must hold before acting, and
    #: ticks to wait after any switch — damps oscillation
    switch_patience: int = 3
    switch_cooldown: int = 5
    min_verifier_clusters: int = 1
    cores_per_node: int = 7
    non_equivocation: bool = True
    consensus_view_timeout: float = 50e-3
    admission_queue: int | None = None
    admission_rate: float | None = None

    def __post_init__(self) -> None:
        if self.f < 1:
            raise ProtocolError("f must be >= 1 (use the ZFT baseline for f=0)")
        if self.chunk_bytes <= 0:
            raise ProtocolError("chunk_bytes must be positive")
        if self.max_attempts < 1:
            raise ProtocolError("max_attempts must be >= 1")
        Admission(self.admission_queue, self.admission_rate)  # range check

    @property
    def subcluster_size(self) -> int:
        """Members per verifier sub-cluster: 2f+1 with non-equivocation,
        3f+1 without (Sec 3)."""
        return (2 if self.non_equivocation else 3) * self.f + 1
