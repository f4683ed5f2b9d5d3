"""Chrome ``trace_event`` exporter tests: structural validity of the
emitted JSON, span nesting per track, and a Fig 7a-style recovery run
whose fault-injection and recovery events must appear on the timeline."""

import json

from repro.apps.synthetic import SyntheticApp, make_compute_task
from repro.core import OsirisConfig, build_osiris_cluster
from repro.core.faults import CorruptRecordFault
from repro.obs import ChromeTraceSink, CollectorSink, FaultDetected

from .helpers import traced_cluster

VALID_PHASES = {"M", "X", "b", "e", "i"}


def chrome_run(tmp_path, **kwargs):
    path = str(tmp_path / "trace.json")
    sink = ChromeTraceSink(path)
    cluster = traced_cluster(sinks=[sink], **kwargs)
    sink.close()
    with open(path) as fh:
        return json.load(fh), cluster


class TestTraceFormat:
    def test_document_shape(self, tmp_path):
        doc, _ = chrome_run(tmp_path)
        assert set(doc) >= {"traceEvents", "displayTimeUnit"}
        assert doc["displayTimeUnit"] == "ms"
        assert len(doc["traceEvents"]) > 0

    def test_every_event_well_formed(self, tmp_path):
        doc, _ = chrome_run(tmp_path)
        for ev in doc["traceEvents"]:
            assert ev["ph"] in VALID_PHASES
            assert isinstance(ev["pid"], int)
            assert isinstance(ev["tid"], int)
            assert "name" in ev
            if ev["ph"] != "M":
                assert isinstance(ev["ts"], (int, float))
                assert ev["ts"] >= 0
            if ev["ph"] == "X":
                assert ev["dur"] >= 0

    def test_metadata_names_processes_and_threads(self, tmp_path):
        doc, _ = chrome_run(tmp_path)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        process_names = {
            e["args"]["name"] for e in meta if e["name"] == "process_name"
        }
        thread_names = {
            e["args"]["name"] for e in meta if e["name"] == "thread_name"
        }
        # every simulated role group that did CPU work is named, plus the
        # synthetic links/cluster groups
        assert "links" in process_names
        assert "cluster" in process_names
        assert any(p.startswith("e") for p in process_names)
        assert "transfers" in thread_names

    def test_async_pairs_balanced(self, tmp_path):
        doc, _ = chrome_run(tmp_path)
        begins = [e for e in doc["traceEvents"] if e["ph"] == "b"]
        ends = [e for e in doc["traceEvents"] if e["ph"] == "e"]
        assert len(begins) == len(ends) > 0
        assert {e["id"] for e in begins} == {e["id"] for e in ends}
        by_id = {e["id"]: e for e in begins}
        for end in ends:
            assert end["ts"] >= by_id[end["id"]]["ts"]

    def test_cpu_spans_nest_per_track(self, tmp_path):
        """X slices on one (pid, tid) track must not overlap: the exporter
        gives each simulated core its own track, and a core runs one task
        at a time."""
        doc, _ = chrome_run(tmp_path)
        tracks = {}
        for ev in doc["traceEvents"]:
            if ev["ph"] == "X":
                tracks.setdefault((ev["pid"], ev["tid"]), []).append(ev)
        assert tracks, "expected at least one CPU track"
        for spans in tracks.values():
            spans.sort(key=lambda e: e["ts"])
            for prev, cur in zip(spans, spans[1:]):
                assert cur["ts"] >= prev["ts"] + prev["dur"] - 1e-6

    def test_instant_markers_carry_scope(self, tmp_path):
        doc, _ = chrome_run(tmp_path)
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert instants
        for ev in instants:
            assert ev["s"] == "t"

    def test_write_idempotent(self, tmp_path):
        path = str(tmp_path / "t.json")
        sink = ChromeTraceSink(path)
        traced_cluster(sinks=[sink])
        sink.write()
        sink.close()  # second write must be a no-op, not a duplicate
        with open(path) as fh:
            doc = json.load(fh)
        assert len(doc["traceEvents"]) > 0


class TestRecoveryTimeline:
    """Fig 7a shape: executors start corrupting records mid-run; the
    timeline must show the fault injections and the recovery machinery."""

    def run_recovery(self, tmp_path):
        app = SyntheticApp(records_per_task=4, compute_cost=20e-3)
        n_tasks = 60
        workload = [(i / 12.0, make_compute_task(i)) for i in range(n_tasks)]
        config = OsirisConfig(
            f=1,
            chunk_bytes=4096,
            suspect_timeout=2.0,
            cores_per_node=1,
            role_switching=True,
            role_switch_interval=0.5,
            switch_patience=2,
            switch_cooldown=3,
        )
        activate = 1.5
        cluster = build_osiris_cluster(
            app,
            workload=iter(workload),
            n_workers=14,
            k=3,
            seed=7,
            config=config,
            faults={
                f"e{i}": CorruptRecordFault(activate_at=activate)
                for i in range(5)
            },
        )
        path = str(tmp_path / "recovery.json")
        chrome = ChromeTraceSink(path)
        collector = CollectorSink()
        cluster.bus.attach(chrome)
        cluster.bus.attach(collector)
        cluster.start()
        cluster.run(until=120.0)
        chrome.close()
        with open(path) as fh:
            return json.load(fh), collector, cluster, activate

    def test_fault_and_recovery_events_on_timeline(self, tmp_path):
        doc, collector, cluster, activate = self.run_recovery(tmp_path)
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        names = {e["name"] for e in instants}
        assert any(n.startswith("fault-detected") for n in names)
        assert any(
            n.startswith(("task-reassigned", "task-fallback", "role-switch"))
            for n in names
        )
        # injected faults fire only after activation, and so must the
        # detections plotted on the timeline
        detections = [e for e in collector.of(FaultDetected)]
        assert detections
        assert min(e.time for e in detections) >= activate
        # the run still makes progress: recovery is visible, not just the
        # failure
        assert cluster.metrics.tasks_completed == 60
        assert cluster.metrics.faults_detected  # hub saw the same faults
