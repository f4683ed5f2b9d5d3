"""The sanitizer bundle: one object wiring all checkers to a deployment.

Usage (the bench runners do this for you via ``sanitize=True``)::

    cluster = build_osiris_cluster(app, workload, sanitize=True)
    ...  # run to completion
    report = cluster.sanitizer.audit(cluster)
    assert report.ok, report.summary()

The sinks are purely observational: they never touch the RNG, never
schedule events and never emit, so a sanitized run produces a trace
byte-identical to a bare one (pinned by the golden-trace test).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.check.conservation import ConservationSink
from repro.check.cpu import CpuInvariantSink
from repro.check.links import LinkInvariantSink
from repro.check.report import SanitizerReport

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.links import Network
    from repro.obs.bus import EventBus

__all__ = ["Sanitizer"]


class Sanitizer:
    """Bundles the link/CPU/conservation checkers over one network."""

    def __init__(self, net: "Network", report: Optional[SanitizerReport] = None) -> None:
        self.net = net
        self.report = report if report is not None else SanitizerReport()
        self.links = LinkInvariantSink(net, self.report)
        self.cpu = CpuInvariantSink(self.report)
        self.conservation = ConservationSink(self.report)
        self._sinks = (self.links, self.cpu, self.conservation)
        self._audited = False

    # ------------------------------------------------------------------ wiring
    def attach(self, bus: "EventBus") -> None:
        """Subscribe every checker.  Attach before the first event fires —
        the shadows must see the run from birth to be exact."""
        for sink in self._sinks:
            bus.attach(sink)

    def detach(self, bus: "EventBus") -> None:
        for sink in self._sinks:
            bus.detach(sink)

    # ------------------------------------------------------------------- audit
    def audit(self, cluster=None) -> SanitizerReport:
        """Run the post-run auditors and return the accumulated report.

        ``cluster`` (a :class:`~repro.runtime.deploy.OsirisCluster`)
        enables the deployment-level conservation audit when its plan's
        system is OsirisBFT; baselines and bare networks get the link
        and CPU audits only.  Idempotent: a second call returns the same
        report without re-running the auditors (they are not re-entrant
        — the CPU sink truncates its recorded spans in place).
        """
        if self._audited:
            return self.report
        self._audited = True
        self.links.audit()
        drained = self.net.sim.drained()
        for pid in self.net.pids:
            proc = self.net.process(pid)
            for bank in (getattr(proc, "cpu", None), getattr(proc, "ctrl", None)):
                if bank is not None and hasattr(bank, "busy_seconds"):
                    self.cpu.audit_bank(pid, bank, drained=drained)
        if cluster is not None and cluster.system == "osiris":
            self.conservation.audit_cluster(cluster)
        return self.report
