"""Figure 7 — performance under Byzantine faults.

7a: simultaneous failure of every executor at t=45s of a streaming run;
the paper observes fast detection, throughput staying above zero thanks
to previously role-switched verifiers, and recovery to roughly half the
pre-failure level.  The verifier-leader variant (Sec 7.4 text) recovers
to the *same* level since executors stay correct.  7b: throughput as
the verifier fault-tolerance level f grows (OsirisBFT f=1..4 vs RCP
f=1..2 on n=32).

7a and the verifier variant are expressed as adversary *campaigns* run
through :mod:`repro.api`: the fault schedule is declarative data, the
robustness numbers (detection latency, goodput dip, recovery) come from
the campaign's recovery report, and the sanitizer pins the safety
verdict.
"""

import pytest

from repro import api
from repro.adversary import Action, Campaign, FaultSpec, Phase
from repro.adversary.library import fig7a
from repro.bench import print_figure, print_series, print_table
from repro.exp import SweepSpec

SEED = 1
FAIL_AT = 45.0
DURATION = 120.0

_STREAM_WP = {
    "n_tasks": int(12.0 * (DURATION - 20.0)),
    "records_per_task": 10,
    "compute_cost": 250e-3,
    "record_bytes": 4096,
    "rate": 12.0,
    "verify_cost_ratio": 0.15,
}

_FAILURE_CONFIG = {
    "chunk_bytes": 1_000_000,
    "suspect_timeout": 2.0,
    "cores_per_node": 1,
    "role_switching": True,
    "role_switch_interval": 0.5,
    "switch_patience": 2,
    "switch_cooldown": 3,
}


def _spec(campaign, label):
    return api.DeploymentSpec(
        workload="synthetic",
        workload_params=_STREAM_WP,
        n=14,
        k=3,
        seed=SEED,
        duration=DURATION,
        bandwidth=60e6,
        config=_FAILURE_CONFIG,
        faults=campaign,
        sanitize=True,
        label=label,
    )


class TestFig7aExecutorFailures:
    @pytest.fixture(scope="class")
    def result(self, scenario_cache):
        return scenario_cache(
            "fig7a", lambda: api.run(_spec(fig7a(at=FAIL_AT), "fig7a"))
        )

    def test_fig7a_executor_failures(self, run_once, result):
        r = run_once(lambda: result)
        c = r.extra["cluster"]
        m = c.metrics
        report = r.extra["recovery_report"]
        print_series(
            "Fig 7a: throughput trace, all executors fail at t=45s",
            m.throughput_series(),
            "rec/s",
        )
        before = m.throughput(20.0, FAIL_AT)
        dip = m.throughput(FAIL_AT, FAIL_AT + 10.0)
        after = m.throughput(FAIL_AT + 15.0, DURATION - 10.0)
        print_table(
            "Fig 7a summary",
            ["window", "value"],
            [
                ("before failure (rec/s)", f"{before:.0f}"),
                ("during detection (rec/s)", f"{dip:.0f}"),
                ("after recovery (rec/s)", f"{after:.0f}"),
                ("detection latency (s)", f"{report.detection_latency:.2f}"),
                ("goodput dip depth", f"{report.dip_depth:.2f}"),
                ("safety verdict", "SAFE" if report.safe else "VIOLATED"),
            ],
        )
        # the campaign fired exactly when declared, on every executor
        assert report.injected_at == FAIL_AT
        assert report.actions_applied == len(c.executors)
        # failures detected quickly, all executors blacklisted
        assert report.detections >= 5
        assert report.detection_latency < 10.0
        assert all(
            e.pid in c.coordinators[0].blacklist for e in c.executors
        )
        # throughput does not drop to zero (role-switched verifiers) and
        # recovers to a meaningful fraction of the pre-failure level
        assert after > 0.25 * before, (before, after)
        # no corrupt record was ever accepted: sanitizer-verified
        assert report.safe is True
        assert m.records_accepted == m.tasks_completed * 10

    def test_fig7a_detection_is_fast(self, result):
        m = result.extra["cluster"].metrics
        first_detection = min(t for t, _, _ in m.faults_detected)
        assert FAIL_AT <= first_detection <= FAIL_AT + 10.0


class TestFig7VerifierFailures:
    CAMPAIGN = Campaign(
        name="fig7-verifier-leaders",
        note="worker sub-cluster leaders turn negligent at t=45s",
        phases=(
            Phase(
                at=FAIL_AT,
                name="negligence",
                actions=tuple(
                    Action(
                        op="set",
                        select=pid,
                        fault=FaultSpec(
                            role="verifier", kind="negligent-leader"
                        ),
                    )
                    # leaders of the two worker sub-clusters (cluster 0
                    # is the coordinator cluster)
                    for pid in ("v3", "v6")
                ),
            ),
        ),
    )

    def test_fig7_verifier_failures(self, run_once, scenario_cache):
        """Negligent sub-cluster leaders: elections replace them and
        throughput recovers fully (executors were never wrong)."""
        r = run_once(
            lambda: scenario_cache(
                "fig7v",
                lambda: api.run(_spec(self.CAMPAIGN, "fig7v")),
            )
        )
        c = r.extra["cluster"]
        m = c.metrics
        report = r.extra["recovery_report"]
        before = m.throughput(20.0, FAIL_AT)
        after = m.throughput(FAIL_AT + 20.0, DURATION - 10.0)
        print_table(
            "Sec 7.4 verifier-leader failures",
            ["window", "value"],
            [
                ("before (rec/s)", f"{before:.0f}"),
                ("after recovery (rec/s)", f"{after:.0f}"),
                ("elections", str(len(m.leader_elections))),
                ("safety verdict", "SAFE" if report.safe else "VIOLATED"),
            ],
        )
        assert report.injected_at == FAIL_AT
        assert len(m.leader_elections) >= 1
        # recovery to the same level (tolerant band): executors correct
        assert after >= 0.6 * before
        # no executor was blacklisted for a verifier's fault
        assert not any(
            pid.startswith("e") for pid in c.coordinators[0].blacklist
        )
        assert report.safe is True


_FIG7B_WP = {
    "n_tasks": 240,
    "records_per_task": 10,
    "compute_cost": 300e-3,
    "record_bytes": 4096,
    "verify_cost_ratio": 0.05,
}


class TestFig7bFaultScalability:
    N = 32

    SPEC = SweepSpec.of(
        "fig7b",
        [
            api.DeploymentSpec(
                system="osiris", workload="synthetic", workload_params=_FIG7B_WP,
                n=32, f=f, seed=SEED, deadline=3000.0, label=f"osiris-f{f}",
            )
            for f in (1, 2, 3, 4)
        ] + [
            api.DeploymentSpec(
                system="rcp", workload="synthetic", workload_params=_FIG7B_WP,
                n=32, f=f, seed=SEED, deadline=3000.0, label=f"rcp-f{f}",
            )
            for f in (1, 2)
        ],
    )

    @pytest.fixture(scope="class")
    def res(self, run_spec):
        return run_spec(self.SPEC).by(lambda p: (p.system, p.f))

    def test_fig7b_fault_scalability(self, run_once, res):
        results = run_once(lambda: res)
        print_figure(
            "Fig 7b: throughput vs verifier fault level f (n=32)",
            [results[k] for k in sorted(results)],
        )
        # OsirisBFT degrades gracefully in f…
        assert (
            results[("osiris", 4)].throughput
            > 0.3 * results[("osiris", 1)].throughput
        )
        # …and a heavily-hardened OsirisBFT still beats RCP at f=2
        # (paper: f=6 vs f=2 gives 2.7×; our sizes allow f=4 at n=32)
        assert (
            results[("osiris", 4)].throughput
            > results[("rcp", 2)].throughput
        )
        # RCP pays brutally for f: f=2 halves its parallel groups
        assert (
            results[("rcp", 2)].throughput
            < results[("rcp", 1)].throughput * 1.05
        )
