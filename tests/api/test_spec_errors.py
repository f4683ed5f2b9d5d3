"""DeploymentSpec serialization error paths: ``from_dict`` /
``descriptor`` fed hostile or malformed inputs must fail loudly with
library errors, never half-construct a spec."""

import pytest

from repro import api
from repro.errors import (
    AdversaryError,
    BenchmarkError,
    ProtocolError,
    ReproError,
)


def valid_dict(**overrides):
    d = api.DeploymentSpec(
        workload="synthetic", workload_params=(("n_tasks", 4),), n=4
    ).descriptor()
    d.update(overrides)
    return d


class TestFromDictErrors:
    def test_unknown_backend(self):
        with pytest.raises(BenchmarkError, match="backend"):
            api.DeploymentSpec.from_dict(valid_dict(backend="k8s"))

    def test_unknown_system(self):
        with pytest.raises(BenchmarkError, match="system"):
            api.DeploymentSpec.from_dict(valid_dict(system="pbft"))

    def test_bad_shards_and_tenants(self):
        with pytest.raises(BenchmarkError, match="shards"):
            api.DeploymentSpec.from_dict(valid_dict(shards=0))
        with pytest.raises(BenchmarkError, match="tenants"):
            api.DeploymentSpec.from_dict(valid_dict(tenants=-1))

    def test_sharded_baseline_rejected(self):
        with pytest.raises(BenchmarkError, match="OsirisBFT-only"):
            api.DeploymentSpec.from_dict(valid_dict(system="zft", shards=2))

    def test_k_on_baseline_rejected(self):
        """RCP sizes its sub-clusters from n and f and ZFT has none, so a
        baseline spec that sets ``k`` fails instead of ignoring it."""
        for system in ("rcp", "zft"):
            with pytest.raises(BenchmarkError, match="k is OsirisBFT-only"):
                api.DeploymentSpec(
                    workload="synthetic", n=9, k=2, system=system
                )
            with pytest.raises(BenchmarkError, match="k is OsirisBFT-only"):
                api.DeploymentSpec.from_dict(valid_dict(system=system, k=2))
        assert api.DeploymentSpec(workload="synthetic", n=9, k=2).k == 2

    def test_bad_cluster_size(self):
        with pytest.raises(BenchmarkError, match="cluster size"):
            api.DeploymentSpec.from_dict(valid_dict(n=0))

    def test_bad_duration(self):
        with pytest.raises(BenchmarkError, match="duration"):
            api.DeploymentSpec.from_dict(valid_dict(duration=-3.0))

    def test_malformed_campaign_json(self):
        with pytest.raises(AdversaryError, match="malformed campaign"):
            api.DeploymentSpec.from_dict(valid_dict(campaign="{not json"))
        with pytest.raises(AdversaryError, match="malformed campaign"):
            api.DeploymentSpec.from_dict(
                valid_dict(campaign='{"phases": "nope"}')
            )

    def test_missing_required_keys(self):
        with pytest.raises(KeyError):
            api.DeploymentSpec.from_dict({"workload": "synthetic"})

    def test_non_scalar_param_values(self):
        with pytest.raises(BenchmarkError, match="JSON scalar"):
            api.DeploymentSpec.from_dict(
                valid_dict(workload_params=[["n_tasks", [1, 2]]])
            )

    def test_live_backend_capture_conflict_still_caught(self):
        spec = api.DeploymentSpec.from_dict(valid_dict(backend="live"))
        assert spec.backend == "live"
        with pytest.raises(BenchmarkError, match="capture"):
            spec.with_(capture=("ip0",))


class TestCaptureErrors:
    """A capture pid the plan has no node for would record nothing; the
    plan rejects it instead of running with an empty replay log."""

    @pytest.mark.parametrize(
        "system, pid",
        [("osiris", "e9"), ("rcp", "w3")],  # w3: RCP n=4 leaves it idle
    )
    def test_capture_pid_without_node_rejected(self, system, pid):
        spec = api.DeploymentSpec(
            workload="synthetic",
            workload_params=(("n_tasks", 4),),
            n=4,
            system=system,
            capture=(pid,),
        )
        with pytest.raises(ProtocolError, match=repr(pid)):
            api.build(spec)

    @pytest.mark.parametrize("system, pid", [("osiris", "e0"), ("rcp", "w2")])
    def test_capture_pid_with_node_accepted(self, system, pid):
        spec = api.DeploymentSpec(
            workload="synthetic",
            workload_params=(("n_tasks", 4),),
            n=4,
            system=system,
            capture=(pid,),
        )
        assert api.build(spec).host(pid).capture


class TestDescriptorErrors:
    def test_live_workload_object_not_serializable(self):
        from repro.bench.workloads import synthetic_bench

        spec = api.DeploymentSpec(workload=synthetic_bench(4), n=4)
        with pytest.raises(BenchmarkError, match="registry-named"):
            spec.descriptor()

    def test_live_fault_strategies_not_serializable(self):
        from repro.core.faults import CorruptRecordFault

        spec = api.DeploymentSpec(
            workload="synthetic", n=4, faults={"e0": CorruptRecordFault()}
        )
        with pytest.raises(BenchmarkError, match="Campaign"):
            spec.descriptor()

    def test_descriptor_errors_are_library_errors(self):
        # callers catch ReproError at the CLI boundary; both failure
        # modes must stay inside the hierarchy
        from repro.bench.workloads import synthetic_bench

        for spec in (
            api.DeploymentSpec(workload=synthetic_bench(4), n=4),
        ):
            with pytest.raises(ReproError):
                spec.descriptor()
