"""Per-campaign robustness metrics, computed from the trace.

A :class:`RecoveryReport` is distilled after the run from the
deployment's :class:`~repro.obs.metrics.MetricsHub`, which already bins
accepted records per second and records every fault detection,
reassignment, role switch and election plus the campaign engine's own
``adversary`` actions.  The report holds the quantities Fig 7a eyeballs,
made exact:

* **detection latency** — first ``FaultDetected`` after the injection;
* **reassignment latency** — first ``TaskReassigned`` after it;
* **goodput dip** — depth (fraction of pre-fault throughput lost at the
  worst complete bin) and duration (seconds spent below the recovery
  threshold);
* **time-to-recover** — first sustained return to ≥90% of the pre-fault
  throughput;
* **safety verdict** — the sanitizer's violation count, which must stay
  zero under *every* campaign (the paper's "safe even if all executors
  are Byzantine" claim, checked rather than assumed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsHub

__all__ = ["RecoveryReport", "RECOVERY_FRACTION"]

#: "Recovered" means sustained throughput at or above this fraction of
#: the pre-fault level (the paper's Fig 7a recovers to ~half capacity —
#: of the *cluster*; the threshold here is relative to what the scenario
#: itself sustained before the injection).
RECOVERY_FRACTION = 0.9


@dataclass
class RecoveryReport:
    """Robustness metrics of one campaign run (all times in simulated s).

    ``None`` means "not applicable / never happened": a campaign that
    injects at t=0 has no pre-fault window, an all-clear campaign never
    detects anything, a run cut short may never recover.
    """

    campaign: str
    injected_at: Optional[float]
    detection_latency: Optional[float]
    reassignment_latency: Optional[float]
    pre_throughput: Optional[float]
    dip_throughput: Optional[float]
    dip_depth: Optional[float]
    dip_duration: Optional[float]
    recovered_at: Optional[float]
    time_to_recover: Optional[float]
    detections: int
    reassignments: int
    role_switches: int
    elections: int
    actions_applied: int
    records_accepted: int
    sanitizer_violations: Optional[int]

    @property
    def safe(self) -> Optional[bool]:
        """Sanitizer verdict: ``True`` iff it ran and found nothing."""
        if self.sanitizer_violations is None:
            return None
        return self.sanitizer_violations == 0

    @property
    def recovered(self) -> bool:
        return self.recovered_at is not None

    def to_dict(self) -> dict[str, Any]:
        return {
            "campaign": self.campaign,
            "injected_at": self.injected_at,
            "detection_latency": self.detection_latency,
            "reassignment_latency": self.reassignment_latency,
            "pre_throughput": self.pre_throughput,
            "dip_throughput": self.dip_throughput,
            "dip_depth": self.dip_depth,
            "dip_duration": self.dip_duration,
            "recovered_at": self.recovered_at,
            "time_to_recover": self.time_to_recover,
            "detections": self.detections,
            "reassignments": self.reassignments,
            "role_switches": self.role_switches,
            "elections": self.elections,
            "actions_applied": self.actions_applied,
            "records_accepted": self.records_accepted,
            "sanitizer_violations": self.sanitizer_violations,
            "safe": self.safe,
            "recovered": self.recovered,
        }

    @classmethod
    def from_metrics(
        cls,
        metrics: "MetricsHub",
        campaign: str = "",
        until: Optional[float] = None,
        sanitizer_violations: Optional[int] = None,
    ) -> "RecoveryReport":
        """Distil a finished run's metrics into a report.

        ``until`` bounds the analysis to complete bins (pass the final
        simulated time; the trailing partial bin is ignored).
        """
        bins = metrics._record_bins
        width = metrics.bin_seconds

        def rate(idx: int) -> float:
            return bins.get(idx, 0) / width

        # the hub sets first_detection/first_reassignment only once
        # injected_at is set, so they imply t0 is not None
        t0 = metrics.injected_at
        detected = metrics.first_detection
        reassigned = metrics.first_reassignment
        pre = dip = depth = dip_duration = recovered_at = ttr = None
        if t0 is not None:
            inject_bin = int(t0 // width)
            # pre-fault throughput: mean over complete bins before the
            # injection, with the leading warmup (empty bins) dropped
            pre_idx = [i for i in range(inject_bin) if rate(i) > 0]
            if pre_idx:
                start = pre_idx[0]
                span = inject_bin - start
                total = sum(bins.get(i, 0) for i in range(start, inject_bin))
                pre = total / (span * width) if span > 0 else None
            if pre:
                last_bin = (
                    int(until // width) - 1
                    if until is not None
                    else (max(bins) if bins else inject_bin)
                )
                post = list(range(inject_bin + 1, last_bin + 1))
                if post:
                    dip = min(rate(i) for i in post)
                    depth = max(0.0, 1.0 - dip / pre)
                    threshold = RECOVERY_FRACTION * pre
                    below = 0
                    for j, i in enumerate(post):
                        if rate(i) >= threshold:
                            nxt = post[j + 1] if j + 1 < len(post) else None
                            sustained = nxt is None or rate(nxt) >= threshold
                            if sustained and recovered_at is None:
                                recovered_at = i * width
                        else:
                            below += 1
                    dip_duration = below * width
                    if recovered_at is not None:
                        ttr = recovered_at - t0
        return cls(
            campaign=campaign,
            injected_at=t0,
            detection_latency=None if detected is None else detected - t0,
            reassignment_latency=(
                None if reassigned is None else reassigned - t0
            ),
            pre_throughput=pre,
            dip_throughput=dip,
            dip_depth=depth,
            dip_duration=dip_duration,
            recovered_at=recovered_at,
            time_to_recover=ttr,
            detections=len(metrics.faults_detected),
            reassignments=len(metrics.reassignments),
            role_switches=len(metrics.role_switches),
            elections=len(metrics.leader_elections),
            actions_applied=metrics.actions_applied,
            records_accepted=metrics.records_accepted,
            sanitizer_violations=sanitizer_violations,
        )

    def summary(self) -> str:
        def fmt(x, unit="s"):
            return "-" if x is None else f"{x:.2f}{unit}"

        lines = [
            f"campaign {self.campaign!r}: "
            f"{self.actions_applied} adversary action(s), "
            f"{self.records_accepted} records accepted",
            f"  injected at       {fmt(self.injected_at)}",
            f"  detection latency {fmt(self.detection_latency)} "
            f"({self.detections} detections)",
            f"  reassignment lat. {fmt(self.reassignment_latency)} "
            f"({self.reassignments} reassignments, "
            f"{self.role_switches} role switches, "
            f"{self.elections} elections)",
            f"  goodput dip       {fmt(self.dip_depth, '')} of "
            f"{fmt(self.pre_throughput, ' rec/s')} for "
            f"{fmt(self.dip_duration)}",
            f"  time to recover   {fmt(self.time_to_recover)} "
            f"(to ≥{RECOVERY_FRACTION:.0%} of pre-fault)",
        ]
        if self.sanitizer_violations is None:
            lines.append("  safety            not sanitized")
        else:
            verdict = "SAFE" if self.safe else "VIOLATED"
            lines.append(
                f"  safety            {verdict} "
                f"({self.sanitizer_violations} sanitizer violations)"
            )
        return "\n".join(lines)
