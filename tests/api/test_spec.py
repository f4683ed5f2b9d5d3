"""DeploymentSpec and fault normalization: the single construction path."""

import pytest

from repro import api
from repro.adversary import FaultSpec
from repro.adversary.library import silent_minority
from repro.bench.workloads import synthetic_bench
from repro.core.config import OsirisConfig
from repro.core.faults import (
    CorruptRecordFault,
    NegligentLeaderFault,
    SlowFault,
)
from repro.errors import BenchmarkError


class TestNormalizeFaults:
    def test_none_is_empty_plan(self):
        plan = api.normalize_faults(None)
        assert plan.empty
        assert plan.campaign is None

    def test_legacy_mapping_routes_by_strategy_role(self):
        plan = api.normalize_faults(
            {
                "e0": SlowFault(delay=1.0),
                "e1": CorruptRecordFault(),
                "e2": FaultSpec("executor", "silent"),
                "v0": NegligentLeaderFault(),
                "v4": FaultSpec("verifier", "bogus-digest"),
                "op0": FaultSpec("output", "spurious-reports"),
            }
        )
        # one pid-ordered tuple; the role is decided at installation
        assert [pid for pid, _ in plan.static] == [
            "e0", "e1", "e2", "op0", "v0", "v4"
        ]
        assert isinstance(dict(plan.static)["v0"], NegligentLeaderFault)
        assert plan.campaign is None

    def test_declarative_faults_build_fresh_strategies(self):
        plan = api.normalize_faults(
            {"e0": FaultSpec("executor", "slow", {"delay": 2.0})}
        )
        first, second = plan.strategies()["e0"], plan.strategies()["e0"]
        assert isinstance(first, SlowFault) and first.delay == 2.0
        assert first is not second

    def test_campaign_and_campaign_json(self):
        campaign = silent_minority()
        assert api.normalize_faults(campaign).campaign == campaign
        assert api.normalize_faults(campaign.to_json()).campaign == campaign

    def test_plan_passthrough_is_identity(self):
        plan = api.normalize_faults({"e0": SlowFault(delay=1.0)})
        assert api.normalize_faults(plan) == plan

    def test_role_kwargs_win_on_collision(self):
        # the per-role keyword maps are gone: one pid → fault mapping
        # is the only static form, so there is no collision to resolve
        corrupt = CorruptRecordFault()
        for keyword in ("executors", "verifiers", "outputs"):
            with pytest.raises(TypeError):
                api.normalize_faults({}, **{keyword: {"e0": corrupt}})
        plan = api.normalize_faults({"e0": corrupt})
        assert plan.strategies()["e0"] is corrupt

    def test_rejects_junk(self):
        with pytest.raises(BenchmarkError):
            api.normalize_faults(42)
        with pytest.raises(BenchmarkError):
            api.normalize_faults({"e0": "not a strategy"})


class TestSpecValidation:
    def test_unknown_system_rejected(self):
        with pytest.raises(BenchmarkError):
            api.DeploymentSpec(workload="synthetic", n=5, system="spark")

    def test_bad_topology_and_duration_rejected(self):
        with pytest.raises(BenchmarkError):
            api.DeploymentSpec(workload="synthetic", n=0)
        with pytest.raises(BenchmarkError):
            api.DeploymentSpec(workload="synthetic", n=5, duration=0.0)

    def test_baselines_reject_faults(self):
        with pytest.raises(BenchmarkError):
            api.DeploymentSpec(
                workload="synthetic",
                n=5,
                system="zft",
                faults=silent_minority(),
            )
        with pytest.raises(BenchmarkError):
            api.DeploymentSpec(
                workload="synthetic",
                n=5,
                system="rcp",
                faults={"e0": SlowFault(delay=1.0)},
            )

    def test_non_scalar_params_rejected(self):
        with pytest.raises(BenchmarkError):
            api.DeploymentSpec(
                workload="synthetic",
                n=5,
                workload_params=(("n_tasks", [4]),),
            )


class TestSpecShape:
    def spec(self, **over):
        kw = dict(
            workload="synthetic",
            workload_params=(("records_per_task", 3), ("n_tasks", 4)),
            n=5,
            config=(("suspect_timeout", 2.0),),
            faults=silent_minority(),
        )
        kw.update(over)
        return api.DeploymentSpec(**kw)

    def test_params_normalized_sorted(self):
        spec = self.spec()
        assert spec.workload_params == (
            ("n_tasks", 4),
            ("records_per_task", 3),
        )

    def test_faults_normalized_at_construction(self):
        spec = self.spec()
        assert isinstance(spec.faults, api.FaultPlan)
        assert spec.campaign == silent_minority()

    def test_with_returns_updated_copy(self):
        spec = self.spec()
        other = spec.with_(seed=7)
        assert other.seed == 7
        assert spec.seed == 0
        assert other.workload_params == spec.workload_params

    def test_resolve_named_workload(self):
        workload = self.spec().resolve_workload()
        assert workload.n_compute_tasks == 4

    def test_resolve_live_workload_is_passthrough(self):
        live = synthetic_bench(n_tasks=2, records_per_task=3)
        spec = self.spec(workload=live, workload_params=())
        assert spec.resolve_workload() is live

    def test_unknown_workload_name_rejected(self):
        with pytest.raises(BenchmarkError):
            self.spec(workload="no-such-workload").resolve_workload()


class TestSerialization:
    def spec(self):
        return api.DeploymentSpec(
            workload="synthetic",
            workload_params=(("n_tasks", 4),),
            n=5,
            k=2,
            seed=3,
            duration=10.0,
            config=(("suspect_timeout", 2.0),),
            faults=api.FaultPlan(
                static=(
                    ("e0", FaultSpec("executor", "slow", {"activate_at": 0.5})),
                    ("v3", FaultSpec("verifier", "negligent-leader")),
                ),
                campaign=silent_minority(at=1.0),
            ),
            sanitize=True,
        )

    def test_descriptor_roundtrip(self):
        spec = self.spec()
        clone = api.DeploymentSpec.from_dict(spec.descriptor())
        assert clone == spec
        assert clone.descriptor() == spec.descriptor()
        assert clone.campaign == spec.campaign
        assert clone.faults.static == spec.faults.static
        assert clone.duration == spec.duration

    def test_descriptor_is_json_safe(self):
        import json

        json.dumps(self.spec().descriptor())  # must not raise

    def test_live_workload_not_serializable(self):
        spec = api.DeploymentSpec(
            workload=synthetic_bench(n_tasks=2, records_per_task=3), n=5
        )
        with pytest.raises(BenchmarkError):
            spec.descriptor()

    def test_live_strategies_not_serializable(self):
        spec = api.DeploymentSpec(
            workload="synthetic", n=5, faults={"e0": SlowFault(delay=1.0)}
        )
        with pytest.raises(BenchmarkError):
            spec.descriptor()

    def test_config_overrides_covers_full_config(self):
        overrides = dict(api.config_overrides(OsirisConfig(f=2)))
        assert overrides["f"] == 2
        assert "suspect_timeout" in overrides
        assert api.config_overrides(None) == ()
