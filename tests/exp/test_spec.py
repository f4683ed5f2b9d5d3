"""Sweep vocabulary: a sweep point is a DeploymentSpec value — identity,
serialization, grid order."""

import json

import pytest

from repro.adversary import FaultSpec
from repro.api import DeploymentSpec
from repro.errors import BenchmarkError
from repro.exp import SweepSpec


class TestPoint:
    def _point(self, **over):
        base = dict(
            system="osiris",
            workload="anomaly",
            workload_params={"profile": "MM", "n_tasks": 10},
            n=8,
            seed=3,
        )
        base.update(over)
        return DeploymentSpec(**base)

    def test_rejects_unknown_system(self):
        with pytest.raises(BenchmarkError):
            self._point(system="pbft")

    def test_rejects_bad_size(self):
        with pytest.raises(BenchmarkError):
            self._point(n=0)

    def test_hashable_and_equal_by_value(self):
        assert self._point() == self._point()
        assert len({self._point(), self._point()}) == 1
        assert self._point(seed=4) != self._point()
        silent = {"e0": FaultSpec("executor", "silent")}
        assert len({self._point(faults=silent), self._point(faults=silent)}) == 1

    def test_descriptor_excludes_label(self):
        a = self._point(label="x")
        b = self._point(label="y")
        assert a.descriptor() == b.descriptor()
        assert a.to_dict() != b.to_dict()

    def test_roundtrips_through_dict(self):
        p = self._point(
            f=2,
            k=3,
            bandwidth=1e9,
            config={"suspect_timeout": 0.5},
            faults={"e0": FaultSpec("executor", "silent", {"activate_at": 5.0})},
            label="fault-run",
        )
        assert DeploymentSpec.from_dict(p.to_dict()) == p

    def test_descriptor_is_json_safe(self):
        p = self._point(faults={"e0": FaultSpec("executor", "silent")})
        json.dumps(p.descriptor())  # must not raise


class TestSweepSpecGrid:
    def test_grid_order_sizes_outer_systems_inner(self):
        spec = SweepSpec.grid(
            "g", "synthetic", {"n_tasks": 5}, sizes=(4, 8), seed=1
        )
        assert [(p.system, p.n) for p in spec.points] == [
            ("zft", 4), ("osiris", 4), ("rcp", 4),
            ("zft", 8), ("osiris", 8), ("rcp", 8),
        ]

    def test_grid_skips_rcp_below_three(self):
        spec = SweepSpec.grid("g", "synthetic", {"n_tasks": 5}, sizes=(2, 4))
        assert [(p.system, p.n) for p in spec.points] == [
            ("zft", 2), ("osiris", 2),
            ("zft", 4), ("osiris", 4), ("rcp", 4),
        ]

    def test_grid_config_applies_to_osiris_only(self):
        spec = SweepSpec.grid(
            "g", "synthetic", {"n_tasks": 5}, sizes=(4,),
            config={"suspect_timeout": 1.0},
        )
        by_system = {p.system: p for p in spec.points}
        assert isinstance(by_system["osiris"], DeploymentSpec)
        assert by_system["osiris"].config == (("suspect_timeout", 1.0),)
        assert by_system["zft"].config == ()
        assert by_system["rcp"].config == ()

    def test_systems_subset_preserved(self):
        spec = SweepSpec.grid(
            "g", "anomaly", {"profile": "MM", "n_tasks": 5},
            sizes=(4,), systems=("zft", "osiris"),
        )
        assert [p.system for p in spec.points] == ["zft", "osiris"]

    def test_len_and_to_dict(self):
        spec = SweepSpec.grid("g", "synthetic", {"n_tasks": 5}, sizes=(4,))
        assert len(spec) == 3
        d = spec.to_dict()
        assert d["name"] == "g"
        assert len(d["points"]) == 3
