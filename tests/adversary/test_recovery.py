"""Recovery reports derived from the metrics hub: exact arithmetic on
synthetic event streams."""

from repro.adversary import RECOVERY_FRACTION, RecoveryReport
from repro.obs.events import (
    AdversaryAction,
    FaultDetected,
    RecordsAccepted,
    TaskReassigned,
)
from repro.obs.metrics import MetricsHub


def accept(hub, time, count):
    hub.handle(
        RecordsAccepted(time=time, pid="op0", task_id="t", count=count)
    )


def inject(hub, time, op="set"):
    hub.handle(
        AdversaryAction(
            time=time,
            pid="adversary",
            campaign="c",
            op=op,
            target="e0",
            role="executor",
            fault="silent",
        )
    )


def report_of(hub, **kwargs):
    return RecoveryReport.from_metrics(hub, campaign="c", **kwargs)


class TestInjectionTracking:
    def test_first_set_is_the_injection(self):
        hub = MetricsHub()
        inject(hub, 3.0, op="clear")
        assert hub.injected_at is None  # clears are not injections
        inject(hub, 5.0)
        inject(hub, 7.0)
        assert hub.injected_at == 5.0
        assert hub.actions_applied == 3

    def test_latencies_measured_from_injection(self):
        hub = MetricsHub()
        hub.handle(
            FaultDetected(time=1.0, pid="v0", reason="x", culprit="e9")
        )  # pre-injection detection: counted, but not the latency anchor
        inject(hub, 5.0)
        hub.handle(
            FaultDetected(time=6.5, pid="v0", reason="x", culprit="e0")
        )
        hub.handle(TaskReassigned(time=7.0, pid="v0", task_id="t", attempt=1))
        report = report_of(hub, until=10.0)
        assert report.detection_latency == 1.5
        assert report.reassignment_latency == 2.0
        assert report.detections == 2
        assert report.reassignments == 1


class TestThroughputMetrics:
    def fed_hub(self):
        """10 rec/s for t∈[2,10), dip to 2 rec/s for [11,14), back to 10."""
        hub = MetricsHub(bin_seconds=1.0)
        for t in range(2, 10):
            accept(hub, t + 0.5, 10)
        inject(hub, 10.0)
        for t in range(11, 14):
            accept(hub, t + 0.5, 2)
        for t in range(14, 20):
            accept(hub, t + 0.5, 10)
        return hub

    def test_pre_fault_throughput_skips_warmup(self):
        report = report_of(self.fed_hub(), until=20.0)
        # bins 0-1 are empty warmup; bins 2..9 hold 10 rec/s
        assert report.pre_throughput == 10.0

    def test_dip_depth_and_duration(self):
        report = report_of(self.fed_hub(), until=20.0)
        assert report.dip_throughput == 2.0
        assert report.dip_depth == 1.0 - 2.0 / 10.0
        # bins 11,12,13 sit below 90% of 10 rec/s
        assert report.dip_duration == 3.0

    def test_recovery_point_and_latency(self):
        report = report_of(self.fed_hub(), until=20.0)
        assert report.recovered
        assert report.recovered_at == 14.0
        assert report.time_to_recover == 4.0

    def test_recovery_requires_sustained_bins(self):
        """A single above-threshold blip must not count as recovered."""
        hub = MetricsHub(bin_seconds=1.0)
        for t in range(0, 5):
            accept(hub, t + 0.5, 10)
        inject(hub, 5.0)
        accept(hub, 6.5, 10)  # blip
        accept(hub, 7.5, 1)
        accept(hub, 8.5, 1)
        report = report_of(hub, until=9.0)
        assert not report.recovered
        assert report.time_to_recover is None

    def test_no_injection_no_window_metrics(self):
        hub = MetricsHub()
        accept(hub, 1.5, 10)
        report = report_of(hub, until=5.0)
        assert report.injected_at is None
        assert report.pre_throughput is None
        assert report.recovered_at is None
        assert report.records_accepted == 10

    def test_t0_injection_has_no_pre_window(self):
        hub = MetricsHub()
        inject(hub, 0.0)
        for t in range(1, 5):
            accept(hub, t + 0.5, 10)
        report = report_of(hub, until=5.0)
        assert report.injected_at == 0.0
        assert report.pre_throughput is None
        assert report.dip_depth is None


class TestVerdicts:
    def test_safety_verdict(self):
        hub = MetricsHub()
        assert report_of(hub).safe is None  # not sanitized
        assert report_of(hub, sanitizer_violations=0).safe is True
        assert report_of(hub, sanitizer_violations=2).safe is False

    def test_to_dict_is_json_scalars(self):
        import json

        hub = MetricsHub()
        inject(hub, 1.0)
        d = report_of(hub, until=2.0, sanitizer_violations=0).to_dict()
        json.dumps(d)  # must not raise
        assert d["campaign"] == "c"
        assert d["safe"] is True

    def test_threshold_constant_sane(self):
        assert 0.5 < RECOVERY_FRACTION < 1.0
