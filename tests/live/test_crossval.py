"""DES ↔ live cross-validation: same spec + seed, same commit outcomes.

These tests fork real OS processes and run against the wall clock, so
they carry the ``live`` marker and are excluded from the default tier-1
run (``pytest -m live`` selects them; CI drives them in a dedicated
timeout-bounded job).  ``time_scale=0.25`` keeps each leg around a
second of wall time for the MM anomaly profile.
"""

import pytest

from repro.adversary import FaultSpec
from repro.adversary.library import fig7a
from repro.api import DeploymentSpec, run
from repro.live import cross_validate

pytestmark = pytest.mark.live

_TIME_SCALE = 0.25


def _mm_spec(n: int, seed: int = 0, n_tasks: int = 12, **kw) -> DeploymentSpec:
    return DeploymentSpec(
        workload="anomaly",
        workload_params={"profile": "MM", "n_tasks": n_tasks},
        n=n,
        seed=seed,
        deadline=60.0,
        sanitize=True,
        **kw,
    )


class TestCrossValidation:
    def test_mm_n4_graceful(self):
        des, _, mismatches = cross_validate(
            _mm_spec(4), time_scale=_TIME_SCALE
        )
        assert mismatches == []
        assert des.commits  # non-vacuous: at least one OP compared
        assert sum(len(c["chunks"]) for c in des.commits.values()) > 0

    def test_mm_n8_graceful(self):
        _, _, mismatches = cross_validate(_mm_spec(8), time_scale=_TIME_SCALE)
        assert mismatches == []

    def test_mm_n8_without_non_equivocation(self):
        """Plain channels: VP_CO runs 3f+1 PBFT in both backends, and the
        live children must commit what the DES does."""
        from repro.consensus import PbftMember

        spec = _mm_spec(8, config={"non_equivocation": False})
        des, _, mismatches = cross_validate(spec, time_scale=_TIME_SCALE)
        assert mismatches == []
        assert des.commits
        coordinators = des.extra["cluster"].coordinators
        assert all(isinstance(c.consensus, PbftMember) for c in coordinators)

    def test_fig7a_campaign(self):
        """All executors turn Byzantine mid-run under both backends; the
        committed record contents must still coincide (detection and
        reassignment paths differ in timing, not in outcome)."""
        spec = _mm_spec(8, seed=1, faults=fig7a(at=0.5))
        _, _, mismatches = cross_validate(spec, time_scale=_TIME_SCALE)
        assert mismatches == []

    def test_static_executor_fault(self):
        """A deployment-time executor fault, installed in the live child
        by the same function the DES uses, commits the same records."""
        spec = _mm_spec(
            8, seed=1, faults={"e0": FaultSpec("executor", "corrupt-record")}
        )
        des, _, mismatches = cross_validate(spec, time_scale=_TIME_SCALE)
        assert mismatches == []
        assert des.extra["faults_detected"] > 0  # the fault was exercised


class TestLiveRun:
    def test_smoke_run_completes_workload(self):
        result = run(_mm_spec(4).with_(backend="live"), time_scale=_TIME_SCALE)
        assert result.extra["backend"] == "live"
        assert result.tasks_completed == 12
        assert (result.sanitizer_violations or 0) == 0
        live = result.extra["live_report"]
        assert live.wall_seconds > 0
        assert live.sim_seconds > 0
        assert sum(live.busy_seconds.values()) > 0
        assert not live.unhandled_messages

    def test_campaign_actions_applied_and_recovery_folded(self):
        # inject at t=0 so every executor corrupts its *first* output —
        # detection is then guaranteed regardless of wall-clock schedule
        # (a mid-run `at` can race workload drain under the live backend)
        spec = _mm_spec(8, seed=1, faults=fig7a(at=0.0)).with_(backend="live")
        result = run(spec, time_scale=_TIME_SCALE)
        live = result.extra["live_report"]
        corrupted = [a for a in live.applied_actions if a[1] == "set"]
        # every executor in the n=8 layout (5 executors + 3 verifiers)
        assert sorted(a[2] for a in corrupted) == [f"e{i}" for i in range(5)]
        assert all(role == "executor" for _, _, _, role, _ in corrupted)
        assert result.extra["faults_detected"] > 0
        assert result.recovery["campaign"] == "fig7a"

    def test_missed_deadline_raises_instead_of_hanging(self):
        from repro.errors import BenchmarkError

        spec = _mm_spec(4, n_tasks=12).with_(
            backend="live", deadline=0.05
        )
        with pytest.raises(BenchmarkError, match="missed deadline"):
            run(spec, time_scale=_TIME_SCALE)

    def test_runtime_is_single_use(self):
        from repro.api import build
        from repro.errors import LiveError

        rt = build(_mm_spec(4, n_tasks=2).with_(backend="live"))
        rt.run(deadline=60.0, target_tasks=2)
        with pytest.raises(LiveError, match="runs once"):
            rt.run(deadline=60.0, target_tasks=2)
