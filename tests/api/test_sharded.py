"""Sharded multi-tenant deployments through the spec → run path:
routing, SLO reporting, admission control, and serialization."""

import pytest

from repro import api
from repro.bench.reporting import format_tenant_rows
from repro.errors import BenchmarkError


def sharded_spec(**overrides):
    kw = dict(
        workload="open_loop",
        workload_params=(
            ("n_tasks", 30),
            ("rate", 40.0),
            ("process", "poisson"),
        ),
        n=8,
        seed=3,
        shards=2,
        tenants=2,
        sanitize=True,
    )
    kw.update(overrides)
    return api.DeploymentSpec(**kw)


class TestShardedRun:
    def test_zero_violations_and_deterministic(self):
        r1 = api.run(sharded_spec())
        r2 = api.run(sharded_spec())
        assert r1.sanitizer_violations == 0
        assert r1.to_dict() == r2.to_dict()

    def test_routing_uses_both_pipelines(self):
        res = api.run(sharded_spec())
        assert sorted(res.per_shard) == ["op0", "op1"]
        assert sum(res.per_shard.values()) == res.tasks_completed == 30

    def test_slo_fields_populated(self):
        res = api.run(sharded_spec())
        assert res.goodput > 0
        assert 0 < res.p50_latency <= res.p999_latency
        assert set(res.per_tenant) == {"t0", "t1"}
        for summary in res.per_tenant.values():
            assert summary["count"] > 0
            assert summary["p50"] <= summary["p99"] <= summary["p999"]
        assert len(format_tenant_rows(res)) == 2
        assert "p999" in res.row() and "goodput" in res.row()

    def test_single_shard_remains_default(self):
        spec = api.DeploymentSpec(workload="synthetic", n=8)
        assert spec.shards == 1 and spec.tenants == 1
        res = api.run(
            api.DeploymentSpec(
                workload="synthetic",
                workload_params=(("n_tasks", 8),),
                n=8,
                seed=1,
            )
        )
        assert res.per_shard == {}
        assert res.per_tenant == {}


class TestValidation:
    def test_shards_require_osiris(self):
        with pytest.raises(BenchmarkError):
            api.DeploymentSpec(workload="synthetic", n=4, system="zft", shards=2)

    def test_tenants_require_osiris(self):
        with pytest.raises(BenchmarkError):
            api.DeploymentSpec(workload="synthetic", n=4, system="rcp", tenants=2)

    def test_sharded_live_runs_point_at_serve(self):
        # constructible (the serve gateway hosts it), but a pre-planned
        # run() cannot feed more than the primary input pipeline
        spec = api.DeploymentSpec(
            workload="synthetic", n=4, backend="live", shards=2
        )
        with pytest.raises(BenchmarkError, match="serve"):
            api.run(spec)

    def test_bounds(self):
        with pytest.raises(BenchmarkError):
            api.DeploymentSpec(workload="synthetic", n=4, shards=0)
        with pytest.raises(BenchmarkError):
            api.DeploymentSpec(workload="synthetic", n=4, tenants=0)

    def test_descriptor_round_trip(self):
        spec = sharded_spec(sanitize=False, tenants=3)
        d = spec.descriptor()
        assert d["shards"] == 2 and d["tenants"] == 3
        again = api.DeploymentSpec.from_dict(d)
        assert again.descriptor() == d

    def test_legacy_dict_defaults_to_single_pipeline(self):
        spec = api.DeploymentSpec(workload="synthetic", n=4)
        d = spec.descriptor()
        del d["shards"], d["tenants"]
        again = api.DeploymentSpec.from_dict(d)
        assert again.shards == 1 and again.tenants == 1


class TestAdmissionControl:
    def test_overload_sheds_and_accounts(self):
        # shed tasks never complete, so drain-to-completion would miss
        # its target by construction: overload runs use duration mode
        res = api.run(
            sharded_spec(
                shards=1,
                tenants=2,
                duration=20.0,
                workload_params=(
                    ("n_tasks", 60),
                    ("rate", 400.0),
                    ("process", "poisson"),
                ),
                config=(
                    ("admission_queue", 4),
                    ("admission_rate", 25.0),
                ),
            )
        )
        metrics = res.extra["cluster"].metrics
        assert metrics.tasks_rejected > 0
        assert metrics.tasks_admitted > 0
        assert metrics.tasks_deferred > 0
        assert metrics.tasks_admitted + metrics.tasks_rejected == 60
        # every admitted task still completes, shed ones never do
        assert res.tasks_completed == metrics.tasks_admitted
        assert res.sanitizer_violations == 0

    def test_admission_off_by_default(self):
        res = api.run(sharded_spec())
        metrics = res.extra["cluster"].metrics
        assert metrics.tasks_admitted == 0
        assert metrics.tasks_rejected == 0
        assert res.tasks_completed == 30


class TestResultRoundTrip:
    def test_result_dict_round_trips(self):
        from repro.bench.workloads import synthetic_bench

        res = api.run(
            api.DeploymentSpec(workload=synthetic_bench(6), n=8, seed=2)
        )
        d = res.to_dict()
        again = type(res).from_dict(d)
        assert again.to_dict() == d
        # new SLO fields survive the round trip with their values
        assert again.p50_latency == res.p50_latency
        assert again.goodput == res.goodput

    def test_typed_fields_round_trip(self):
        from repro.bench.workloads import synthetic_bench

        res = api.run(
            api.DeploymentSpec(
                workload=synthetic_bench(4), n=5, seed=1, sanitize=True
            )
        )
        assert res.sanitizer_violations == 0
        assert res.recovery is None  # no campaign ran
        d = res.to_dict()
        assert d["sanitizer_violations"] == 0
        assert d["recovery"] is None
        assert d["client_slo"] == {}
        assert d["commits"] == res.commits and res.commits["op0"]["chunks"]
        again = type(res).from_dict(d)
        assert again.sanitizer_violations == 0
        assert again.recovery is None
        assert again.commits == res.commits
        # legacy dicts without the typed keys still load
        for key in ("sanitizer_violations", "recovery", "client_slo", "commits"):
            d.pop(key)
        legacy = type(res).from_dict(d)
        assert legacy.sanitizer_violations is None
        assert legacy.recovery is None
        assert legacy.client_slo == {}
        assert legacy.commits == {}
