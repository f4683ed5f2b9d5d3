"""Fuzz coverage of sharded open-loop deployments and their shrinks."""

import random

from repro.api import DeploymentSpec
from repro.check.fuzz import _candidates, _check, generate_point


class TestGeneration:
    def test_space_includes_sharded_open_loop(self):
        rng = random.Random(5)
        pts = [generate_point(rng) for _ in range(80)]
        sharded = [p for p in pts if p.shards > 1]
        assert sharded, "no sharded draws in 80 points"
        for p in sharded:
            assert p.system == "osiris"
            assert p.workload == "open_loop"
            assert p.shards == 2
            assert 2 <= p.tenants <= 4
            wp = dict(p.workload_params)
            assert wp["process"] in ("poisson", "diurnal", "burst_idle")
        assert any(p.shards == 1 for p in pts)

    def test_sharded_draw_runs_clean(self):
        rng = random.Random(5)
        point = next(
            p for _ in range(80) if (p := generate_point(rng)).shards > 1
        )
        status, invariants, detail = _check(point)
        assert status == "ok", (invariants, detail)


class TestShrinkOrder:
    def _point(self, **overrides) -> DeploymentSpec:
        kw = dict(
            workload="open_loop",
            workload_params={"n_tasks": 8, "rate": 50.0},
            n=8,
            k=1,
            shards=2,
            tenants=3,
        )
        kw.update(overrides)
        return DeploymentSpec(**kw)

    def test_tenants_and_shards_shrink_before_topology(self):
        cands = list(_candidates(self._point()))
        tenant_at = next(
            i for i, c in enumerate(cands) if c.tenants == 1 and c.shards == 2
        )
        shard_at = next(i for i, c in enumerate(cands) if c.shards == 1)
        n_at = next(
            (i for i, c in enumerate(cands) if c.n < 8), len(cands)
        )
        assert tenant_at < shard_at < n_at

    def test_single_pipeline_point_yields_no_shard_shrinks(self):
        point = self._point(shards=1, tenants=1)
        for cand in _candidates(point):
            assert cand.shards == 1 and cand.tenants == 1
