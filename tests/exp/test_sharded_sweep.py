"""Offered-load × shard-count sweeps: point identity, caching, results."""

from repro.api import DeploymentSpec
from repro.exp import ResultCache, SweepSpec, run_sweep


def slo_grid(seed: int = 1) -> SweepSpec:
    points = [
        DeploymentSpec(
            workload="open_loop",
            workload_params={
                "n_tasks": 12,
                "rate": rate,
                "process": "poisson",
                "seed": seed,
            },
            n=8,
            seed=seed,
            shards=shards,
            tenants=2 * shards,
            label=f"s{shards}-r{rate:g}",
        )
        for shards in (1, 2)
        for rate in (40.0, 120.0)
    ]
    return SweepSpec.of("slo-test", points)


class TestPointIdentity:
    def test_round_trip(self):
        for point in slo_grid().points:
            assert DeploymentSpec.from_dict(point.to_dict()) == point

    def test_shards_in_descriptor(self):
        p1, p2 = slo_grid().points[0], slo_grid().points[2]
        assert p1.shards != p2.shards
        assert p1.descriptor() != p2.descriptor()

    def test_legacy_descriptor_defaults(self):
        d = slo_grid().points[0].to_dict()
        del d["shards"], d["tenants"]
        p = DeploymentSpec.from_dict(d)
        assert p.shards == 1 and p.tenants == 1


class TestShardedSweep:
    def test_rerun_is_fully_cached(self, tmp_path):
        spec = slo_grid()
        cache = ResultCache(tmp_path)
        first = run_sweep(spec, cache=cache)
        assert first.cache_hits == 0
        second = run_sweep(spec, cache=cache)
        assert second.cache_hits == len(spec.points)
        assert [r.to_dict() for r in first.results] == [
            r.to_dict() for r in second.results
        ]

    def test_sharded_results_carry_breakdowns(self, tmp_path):
        outcome = run_sweep(slo_grid(), cache=None)
        by_label = {o.point.label: o.result for o in outcome.outcomes}
        assert by_label["s1-r40"].per_shard == {}
        sharded = by_label["s2-r40"]
        assert sorted(sharded.per_shard) == ["op0", "op1"]
        assert len(sharded.per_tenant) == 4
        assert sharded.goodput > 0
