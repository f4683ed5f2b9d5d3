"""Ablation benches for the design choices DESIGN.md calls out.

Not figures from the paper — these quantify the individual mechanisms
the paper argues for: the non-equivocating multicast (2f+1 vs 3f+1
sub-clusters), chunked streaming verification, and speculative
reassignment.  Each ablation is a two-point sweep spec differing in one
config knob.
"""


import pytest

from repro import api
from repro.adversary import FaultSpec
from repro.api import DeploymentSpec
from repro.bench import print_table
from repro.exp import SweepSpec

SEED = 1
N = 16
DEADLINE = 3000.0


def _wl_params(records=10, cost=200e-3, record_bytes=65536, verify_ratio=0.05):
    return {
        "n_tasks": 200,
        "records_per_task": records,
        "compute_cost": cost,
        "record_bytes": record_bytes,
        "verify_cost_ratio": verify_ratio,
    }


def _config(**overrides):
    defaults = dict(role_switching=False)
    defaults.update(overrides)
    return defaults


class TestSubclusterSizeAblation:
    # executor-bound workload: the primitive's extra executors are the
    # binding resource
    _WP = _wl_params(records=6, cost=400e-3, record_bytes=2048)

    SPEC = SweepSpec.of(
        "abl-subcluster",
        [
            DeploymentSpec(
                system="osiris", workload="synthetic", workload_params=_WP,
                n=N, seed=SEED, deadline=DEADLINE,
                config=_config(non_equivocation=True), label="with-neq",
            ),
            DeploymentSpec(
                system="osiris", workload="synthetic", workload_params=_WP,
                n=N, seed=SEED, deadline=DEADLINE,
                config=_config(non_equivocation=False), label="without-neq",
            ),
        ],
    )

    def test_subcluster_size_ablation(self, run_once, run_spec):
        """2f+1 sub-clusters (with non-equivocation) vs 3f+1 (without):
        the primitive buys strictly more executors for the same n."""
        res = run_once(lambda: run_spec(self.SPEC).by(lambda p: p.label))
        with_neq, without = res["with-neq"], res["without-neq"]
        print_table(
            "Ablation: non-equivocating multicast (n=16, f=1)",
            ["configuration", "sub-cluster size", "records/sec"],
            [
                ("2f+1 (with primitive)", 3, f"{with_neq.throughput:.0f}"),
                ("3f+1 (without)", 4, f"{without.throughput:.0f}"),
            ],
        )
        assert with_neq.throughput > without.throughput


class TestChunkingAblation:
    # unsaturated steady stream: the win is verification overlapping
    # execution within each task, so per-task latency (not capacity) is
    # the metric — exactly the paper's "verifiers proceed in parallel
    # instead of waiting for the entire sequence of records"
    _WP = {
        "n_tasks": 60,
        "records_per_task": 64,
        "compute_cost": 400e-3,
        "record_bytes": 65536,
        "rate": 4.0,
        "verify_cost_ratio": 0.3,
    }

    SPEC = SweepSpec.of(
        "abl-chunking",
        [
            DeploymentSpec(
                system="osiris", workload="synthetic", workload_params=_WP,
                n=N, seed=SEED, deadline=DEADLINE, bandwidth=1e9,
                config=_config(chunk_bytes=256 * 1024, op_timeout=2.0),
                label="streamed",
            ),
            DeploymentSpec(
                system="osiris", workload="synthetic", workload_params=_WP,
                n=N, seed=SEED, deadline=DEADLINE, bandwidth=1e9,
                config=_config(chunk_bytes=10**9, op_timeout=2.0),
                label="monolithic",
            ),
        ],
    )

    def test_chunking_ablation(self, run_once, run_spec):
        """Streaming chunks overlap verification with execution; one
        giant chunk per task serializes them and inflates latency."""
        res = run_once(lambda: run_spec(self.SPEC).by(lambda p: p.label))
        streamed, monolithic = res["streamed"], res["monolithic"]
        print_table(
            "Ablation: chunked streaming verification",
            ["configuration", "mean latency", "records/sec"],
            [
                (
                    "256 KiB chunks",
                    f"{streamed.mean_latency:.3f} s",
                    f"{streamed.throughput:.0f}",
                ),
                (
                    "single chunk per task",
                    f"{monolithic.mean_latency:.3f} s",
                    f"{monolithic.throughput:.0f}",
                ),
            ],
        )
        assert streamed.mean_latency < monolithic.mean_latency


class TestReassignmentAblation:
    _WP = _wl_params(cost=100e-3)
    _FAULTS = {"e0": FaultSpec("executor", "silent")}

    SPEC = SweepSpec.of(
        "abl-reassign",
        [
            DeploymentSpec(
                system="osiris", workload="synthetic", workload_params=_WP,
                n=10, k=2, seed=SEED, deadline=DEADLINE,
                config=_config(suspect_timeout=0.5),
                faults=_FAULTS, label="with-spec",
            ),
            DeploymentSpec(
                system="osiris", workload="synthetic", workload_params=_WP,
                n=10, k=2, seed=SEED, deadline=DEADLINE,
                config=_config(suspect_timeout=200.0),
                faults=_FAULTS, label="without",
            ),
        ],
    )

    def test_reassignment_ablation(self, run_once, run_spec):
        """Speculative reassignment bounds the damage of a silent
        executor; without it (huge timeout) tasks stall until fallback."""
        res = run_once(lambda: run_spec(self.SPEC).by(lambda p: p.label))
        with_spec, without = res["with-spec"], res["without"]
        print_table(
            "Ablation: speculative reassignment under a silent executor",
            ["configuration", "p99 latency", "reassignments"],
            [
                (
                    "timeout 0.5s",
                    f"{with_spec.p99_latency:.1f} s",
                    with_spec.extra["reassignments"],
                ),
                (
                    "timeout 200s (disabled)",
                    f"{without.p99_latency:.1f} s",
                    without.extra["reassignments"],
                ),
            ],
        )
        assert with_spec.extra["reassignments"] >= 1
        assert with_spec.p99_latency < without.p99_latency


class TestAssignmentSchemeAblation:
    SPEC = SweepSpec.of(
        "abl-assign",
        [
            DeploymentSpec(
                system="osiris", workload="synthetic",
                workload_params=_wl_params(
                    records=4, cost=20e-3, record_bytes=1024
                ),
                n=N, seed=SEED, deadline=DEADLINE,
                config=_config(), label="assign",
            )
        ],
    )

    @pytest.fixture(scope="class")
    def measured(self):
        # in-process run: counts chunk-borne-signature activations on
        # the cluster
        result = api.run(self.SPEC.points[0])
        cluster = result.extra["cluster"]
        early = sum(
            1
            for v in cluster.all_verifiers
            for st in v._tasks.values()
            if st.assignment is not None and len(st.sigs) == 0
        )
        total = sum(len(v._tasks) for v in cluster.all_verifiers)
        return result, early, total

    def test_assignment_scheme_ablation(self, run_once, measured):
        """Coordination-free assignment: chunks carry the f+1 coordinator
        signatures, so a verifier can authenticate output that arrives
        before its own assignment copies.  We measure how often that path
        fired — with a two-phase scheme each such chunk would have waited
        a full extra round trip."""
        result, early, total = run_once(lambda: measured)
        print_table(
            "Ablation: coordination-free task assignment",
            ["metric", "value"],
            [
                ("verifier task activations", total),
                ("activated via chunk-borne signatures", early),
                ("throughput", f"{result.throughput:.0f} rec/s"),
            ],
        )
        assert result.tasks_completed == 200
