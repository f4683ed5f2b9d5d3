"""Determinism contract of the bus: tracing is read-only with respect to
the simulation.  Same-seed runs yield byte-identical JSONL traces, and a
fully-instrumented run measures exactly what an uninstrumented one does."""

import hashlib
import io
import json
import pathlib

import pytest

from repro.obs import (
    CATEGORY_CPU,
    CATEGORY_KERNEL,
    CATEGORY_NET,
    CollectorSink,
    JsonlTraceSink,
)

from .helpers import traced_cluster


def jsonl_run(seed=3):
    buf = io.StringIO()
    sink = JsonlTraceSink(buf)
    cluster = traced_cluster(sinks=[sink], seed=seed)
    return buf.getvalue(), sink, cluster


class TestByteIdenticalTraces:
    def test_same_seed_runs_produce_identical_jsonl(self):
        text_a, sink_a, _ = jsonl_run(seed=3)
        text_b, sink_b, _ = jsonl_run(seed=3)
        assert sink_a.event_count == sink_b.event_count > 0
        assert text_a.encode() == text_b.encode()

    def test_different_seeds_differ(self):
        # sanity: the equality above is not vacuous
        text_a, _, _ = jsonl_run(seed=3)
        text_b, _, _ = jsonl_run(seed=4)
        assert text_a != text_b

    def test_trace_is_nonempty_and_line_structured(self):
        text, sink, _ = jsonl_run()
        lines = text.splitlines()
        assert len(lines) == sink.event_count
        import json

        kinds = {json.loads(line)["kind"] for line in lines}
        assert "task-submitted" in kinds
        assert "cpu-span" in kinds
        assert "link-transfer" in kinds
        assert "consensus-commit" in kinds


class TestGoldenTrace:
    """Cross-session determinism: the fig5 MM n=8 trace of each system is
    pinned to a committed fingerprint, so any refactor that silently
    perturbs event order, float formatting, or scheduling shows up as a
    digest change — not just as a same-process equality that both runs
    could share."""

    FIXTURES = pathlib.Path(__file__).parent / "fixtures"

    def check(self, system, fixture):
        from repro import api
        from repro.bench import anomaly_bench

        expected = json.loads((self.FIXTURES / fixture).read_text())
        buf = io.StringIO()
        api.run(
            api.DeploymentSpec(
                workload=anomaly_bench("MM", n_tasks=expected["n_tasks"],
                                       seed=expected["seed"]),
                n=8,
                system=system,
                seed=expected["seed"],
                sinks=[JsonlTraceSink(buf)],
            )
        )
        text = buf.getvalue()
        assert len(text.splitlines()) == expected["lines"]
        assert (
            hashlib.sha256(text.encode()).hexdigest() == expected["sha256"]
        ), (
            "same-seed trace diverged from the committed golden "
            "fingerprint — a refactor changed observable behaviour"
        )

    def test_fig5_mm_n8_trace_matches_committed_fingerprint(self):
        self.check("osiris", "fig5_mm_n8.json")

    @pytest.mark.parametrize("system", ["zft", "rcp"])
    def test_baseline_trace_matches_committed_fingerprint(self, system):
        self.check(system, f"{system}_mm_n8.json")


class TestStaticFaultGoldenTrace:
    """Static faults — strategies and declarative ``FaultSpec`` entries
    on executors, verifiers and an output process — are pinned to a
    committed fingerprint, so the path that installs them cannot drift
    unnoticed."""

    FIXTURE = (
        pathlib.Path(__file__).parent / "fixtures" / "static_faults_mm_n12.json"
    )

    @staticmethod
    def faults(name):
        from repro.adversary import FaultSpec
        from repro.core.faults import CorruptRecordFault, NegligentLeaderFault

        return {
            "executors+verifier": {
                "e0": CorruptRecordFault(),
                "e2": FaultSpec("executor", "omit-record"),
                "v3": NegligentLeaderFault(),
            },
            "output+verifier": {
                "op0": FaultSpec("output", "spurious-reports"),
                "v4": FaultSpec("verifier", "bogus-digest"),
            },
        }[name]

    @pytest.mark.parametrize("name", ["executors+verifier", "output+verifier"])
    def test_static_fault_trace_matches_committed_fingerprint(self, name):
        from repro import api
        from repro.bench import anomaly_bench

        fixture = json.loads(self.FIXTURE.read_text())
        expected = fixture["specs"][name]
        buf = io.StringIO()
        api.run(
            api.DeploymentSpec(
                workload=anomaly_bench(
                    fixture["profile"],
                    n_tasks=fixture["n_tasks"],
                    seed=fixture["seed"],
                ),
                n=fixture["n"],
                k=fixture["k"],
                seed=fixture["seed"],
                faults=self.faults(name),
                sinks=[JsonlTraceSink(buf)],
            )
        )
        text = buf.getvalue()
        assert len(text.splitlines()) == expected["lines"]
        assert hashlib.sha256(text.encode()).hexdigest() == expected["sha256"]


class TestPbftGoldenTrace:
    """Without non-equivocation VP_CO runs 3f+1 PBFT; its normal case,
    and the suspect votes and reassignments a faulty executor sends
    through it, are pinned to a committed fingerprint."""

    FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "pbft_mm_n8.json"

    @staticmethod
    def faults(name):
        from repro.adversary import FaultSpec

        return {
            "fault-free": None,
            "executor-fault": {"e0": FaultSpec("executor", "omit-record")},
        }[name]

    @pytest.mark.parametrize("name", ["fault-free", "executor-fault"])
    def test_pbft_trace_matches_committed_fingerprint(self, name):
        from repro import api
        from repro.bench import anomaly_bench

        fixture = json.loads(self.FIXTURE.read_text())
        expected = fixture["specs"][name]
        buf = io.StringIO()
        api.run(
            api.DeploymentSpec(
                workload=anomaly_bench(
                    fixture["profile"],
                    n_tasks=fixture["n_tasks"],
                    seed=fixture["seed"],
                ),
                n=fixture["n"],
                seed=fixture["seed"],
                config=fixture["config"],
                faults=self.faults(name),
                sinks=[JsonlTraceSink(buf)],
            )
        )
        text = buf.getvalue()
        assert '"consensus-commit"' in text
        if name == "executor-fault":
            assert '"task-reassigned"' in text
        assert len(text.splitlines()) == expected["lines"]
        assert hashlib.sha256(text.encode()).hexdigest() == expected["sha256"]


class TestInstrumentationNeutrality:
    def metrics_fingerprint(self, cluster):
        m = cluster.metrics
        return (
            m.records_accepted,
            m.tasks_completed,
            tuple(m.completion_times),
            tuple(m.task_latencies),
            tuple(sorted(m._record_bins.items())),
            tuple(m.faults_detected),
            tuple(m.reassignments),
        )

    def test_sinks_do_not_perturb_measurements(self):
        bare = traced_cluster(sinks=[])
        full = traced_cluster(
            sinks=[
                CollectorSink(),
                CollectorSink(frozenset({CATEGORY_CPU, CATEGORY_NET})),
                JsonlTraceSink(io.StringIO()),
            ]
        )
        assert bare.metrics.tasks_completed > 0
        assert self.metrics_fingerprint(bare) == self.metrics_fingerprint(full)

    def test_sim_state_identical_with_and_without_sinks(self):
        bare = traced_cluster(sinks=[])
        full = traced_cluster(sinks=[CollectorSink()])
        assert bare.sim.now == full.sim.now
        # KernelEventFired events are themselves not simulator events, so
        # the fired count must agree exactly
        assert bare.sim.events_fired == full.sim.events_fired

    def test_kernel_events_match_collector_count(self):
        collector = CollectorSink(frozenset({CATEGORY_KERNEL}))
        cluster = traced_cluster(sinks=[collector])
        assert len(collector.events) == cluster.sim.events_fired
