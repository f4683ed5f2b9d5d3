"""``backend=`` on DeploymentSpec: dispatch plus loud rejection of every
spec shape the live OS-process backend cannot host (these are fast — no
process is ever forked)."""

import pytest

from repro.adversary.campaign import Action, Campaign, FaultSpec, Trigger
from repro.adversary.library import fig7a
from repro.api import DeploymentSpec, build
from repro.errors import BenchmarkError, LiveError


def _spec(**kw):
    base = dict(
        workload="anomaly",
        workload_params={"profile": "MM", "n_tasks": 4},
        n=4,
        seed=0,
        deadline=60.0,
    )
    base.update(kw)
    return DeploymentSpec(**base)


def _trigger_campaign() -> Campaign:
    corrupt = FaultSpec(role="executor", kind="corrupt-record")
    return Campaign(
        name="adaptive",
        triggers=(
            Trigger(
                on="chunk-accepted",
                actions=(Action(op="set", select="executors", fault=corrupt),),
            ),
        ),
    )


class TestBackendField:
    def test_default_backend_is_des(self):
        assert _spec().backend == "des"

    def test_unknown_backend_rejected(self):
        with pytest.raises(BenchmarkError, match="unknown backend 'mpi'"):
            _spec(backend="mpi")

    def test_live_accepted_for_plain_osiris(self):
        assert _spec(backend="live").backend == "live"

    def test_descriptor_carries_backend(self):
        d = _spec(backend="live").descriptor()
        assert d["backend"] == "live"
        assert DeploymentSpec.from_dict(d).backend == "live"

    def test_from_dict_defaults_to_des(self):
        d = _spec().descriptor()
        d.pop("backend")
        assert DeploymentSpec.from_dict(d).backend == "des"


class TestLiveRejections:
    """Unsupported spec × live combinations must fail at construction,
    not hang or silently drop the feature at run time."""

    def test_live_rejects_baselines(self):
        for system in ("zft", "rcp"):
            with pytest.raises(BenchmarkError, match="OsirisBFT only"):
                _spec(system=system, backend="live")

    def test_live_rejects_replay_capture(self):
        with pytest.raises(BenchmarkError, match="replay capture"):
            _spec(capture=("e0",), backend="live")

    def test_live_rejects_trigger_campaigns(self):
        with pytest.raises(BenchmarkError, match="trigger campaigns"):
            _spec(faults=_trigger_campaign(), backend="live")

    def test_live_accepts_timed_phase_campaigns(self):
        spec = _spec(faults=fig7a(at=0.5), backend="live")
        assert spec.campaign is not None
        assert spec.campaign.name == "fig7a"

    def test_des_still_accepts_trigger_campaigns(self):
        assert _spec(faults=_trigger_campaign()).campaign is not None


class TestBuildDispatch:
    def test_build_live_returns_unstarted_runtime(self):
        from repro.live import LiveRuntime

        rt = build(_spec(backend="live"))
        assert isinstance(rt, LiveRuntime)
        topo = rt.plan.topo
        workers = len(topo.executor_pids) + sum(
            len(c.members) for c in topo.verifier_clusters
        )
        assert workers == 4

    def test_build_live_rejects_des_builder_overrides(self):
        # time_scale is build()'s one override, and it is live-only
        for backend in ("live", "des"):
            with pytest.raises(TypeError, match="n_inputs"):
                build(_spec(backend=backend), n_inputs=2)
        with pytest.raises(BenchmarkError, match="time_scale"):
            build(_spec(), time_scale=1.0)

    def test_live_runtime_rejects_nonpositive_time_scale(self):
        with pytest.raises(LiveError, match="time_scale"):
            build(_spec(backend="live"), time_scale=0.0)
