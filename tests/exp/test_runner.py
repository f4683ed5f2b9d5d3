"""Sweep runner: dispatch, caching, fan-out determinism, DES only."""

import pytest

from repro.adversary import FaultSpec
from repro.api import DeploymentSpec
from repro.errors import AdversaryError, BenchmarkError
from repro.exp import ResultCache, SweepSpec, run_sweep
from repro.exp.runner import execute_point


def _synthetic_point(**over):
    base = dict(
        system="osiris",
        workload="synthetic",
        workload_params={"n_tasks": 6, "records_per_task": 4},
        n=4,
        seed=1,
        deadline=600.0,
    )
    base.update(over)
    return DeploymentSpec(**base)


def _run(point):
    return run_sweep(SweepSpec.of("one", [point])).results[0]


_SILENT_E0 = {"e0": FaultSpec("executor", "silent")}


def _tiny_spec(name="tiny"):
    return SweepSpec.grid(
        name,
        "synthetic",
        {"n_tasks": 6, "records_per_task": 4},
        sizes=(4,),
        seed=1,
    )


class TestDispatch:
    def test_unknown_workload_rejected(self):
        p = _synthetic_point(workload="nope", workload_params=())
        with pytest.raises(BenchmarkError, match="unknown workload"):
            execute_point(p)

    def test_unknown_fault_rejected(self):
        with pytest.raises(AdversaryError, match="unknown executor fault"):
            _synthetic_point(faults={"e0": FaultSpec("executor", "nope")})

    def test_faults_rejected_for_baselines(self):
        with pytest.raises(BenchmarkError, match="OsirisBFT-only"):
            _synthetic_point(system="zft", faults=_SILENT_E0)

    def test_each_system_runs(self):
        for system, expect in (
            ("zft", "ZFT"), ("osiris", "OsirisBFT"), ("rcp", "RCP")
        ):
            res = _run(_synthetic_point(system=system))
            assert res.system == expect
            assert res.tasks_completed == 6

    def test_config_overrides_apply(self):
        res = _run(_synthetic_point(config={"non_equivocation": False}))
        assert res.tasks_completed == 6

    def test_executor_fault_materialized(self):
        res = _run(
            _synthetic_point(
                n=10,
                k=2,
                workload_params={"n_tasks": 20, "records_per_task": 4},
                config={"suspect_timeout": 0.5},
                faults=_SILENT_E0,
            )
        )
        assert res.extra["reassignments"] >= 1

    def test_execute_point_payload_shape(self):
        payload = execute_point(_synthetic_point())
        assert set(payload) == {"result", "wall_seconds"}
        assert payload["result"]["tasks_completed"] == 6
        assert "cluster" not in payload["result"]["extra"]


class TestRunSweep:
    def test_serial_and_parallel_bit_identical(self):
        spec = _tiny_spec()
        serial = run_sweep(spec, jobs=1)
        fanned = run_sweep(spec, jobs=2)
        assert [o.result.to_dict() for o in serial.outcomes] == [
            o.result.to_dict() for o in fanned.outcomes
        ]

    def test_results_keep_spec_order(self):
        out = run_sweep(_tiny_spec(), jobs=2)
        assert [o.point.system for o in out.outcomes] == [
            "zft", "osiris", "rcp"
        ]

    def test_second_run_served_from_cache(self, tmp_path):
        spec = _tiny_spec()
        cache = ResultCache(tmp_path)
        first = run_sweep(spec, cache=cache)
        second = run_sweep(spec, cache=cache)
        assert first.cache_hits == 0
        assert second.cache_hits == len(spec)
        assert [o.result.to_dict() for o in first.outcomes] == [
            o.result.to_dict() for o in second.outcomes
        ]
        assert all(o.cached for o in second.outcomes)
        # the cached osiris point returns the fresh run's commit record;
        # the baselines have none
        commits = [o.result.commits for o in second.outcomes]
        assert commits == [o.result.commits for o in first.outcomes]
        assert commits[1]["op0"]["chunks"]
        assert commits[0] == commits[2] == {}

    def test_changed_point_misses_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(_tiny_spec(), cache=cache)
        changed = SweepSpec.grid(
            "tiny",
            "synthetic",
            {"n_tasks": 7, "records_per_task": 4},
            sizes=(4,),
            seed=1,
        )
        out = run_sweep(changed, cache=cache)
        assert out.cache_hits == 0

    def test_rejects_live_backend_points(self):
        live = _synthetic_point(backend="live", label="on-processes")
        spec = SweepSpec.of("mixed", [_synthetic_point(), live])
        with pytest.raises(BenchmarkError, match="on-processes"):
            run_sweep(spec)

    def test_cached_mode_drops_cluster_handle(self):
        out = run_sweep(SweepSpec.of("dry", [_synthetic_point()]))
        assert "cluster" not in out.outcomes[0].result.extra

    def test_by_keying(self):
        out = run_sweep(_tiny_spec())
        assert set(out.by()) == {("zft", 4), ("osiris", 4), ("rcp", 4)}
        assert set(out.by(lambda p: p.system)) == {"zft", "osiris", "rcp"}

    def test_rejects_bad_jobs(self):
        with pytest.raises(BenchmarkError):
            run_sweep(_tiny_spec(), jobs=0)
