"""Byzantine verifier and output-process tests (Sec 5.2.2 machinery)."""


from repro import api
from repro.adversary import Action, Campaign, FaultSpec, Phase
from repro.apps.synthetic import SyntheticApp
from repro.bench.workloads import synthetic_bench
from repro.core.faults import (
    BogusDigestFault,
    FalseAccusationFault,
    NegligentLeaderFault,
    SilentVerifierFault,
    SpuriousReportsFault,
)
from tests.core.helpers import compute_workload, fast_config, run_cluster


class TestNegligentLeader:
    def test_election_replaces_withholding_leader(self):
        # v3 leads cluster 1 (term 0)
        cluster = run_cluster(
            n_tasks=10,
            n_workers=10,
            k=2,
            seed=21,
            until=60.0,
            faults={"v3": NegligentLeaderFault()},
        )
        assert cluster.metrics.tasks_completed == 10
        assert cluster.metrics.records_accepted == 50
        assert len(cluster.metrics.leader_elections) >= 1

    def test_new_leader_resends_withheld_chunks(self):
        cluster = run_cluster(
            n_tasks=5,
            n_workers=10,
            k=2,
            seed=22,
            until=60.0,
            faults={"v3": NegligentLeaderFault()},
        )
        # all data eventually reached OP despite the leader never sending
        assert cluster.outputs[0].records_accepted == 25

    def test_executors_unaffected_by_leader_failure(self):
        """Sec 7.4: 'OsirisBFT recovers to the same level since the
        executors are still correct' — no reassignment storm."""
        cluster = run_cluster(
            n_tasks=10,
            n_workers=10,
            k=2,
            seed=23,
            until=60.0,
            faults={"v3": NegligentLeaderFault()},
        )
        assert all(
            "e" not in c.blacklist for c in cluster.coordinators
        )


class TestNegligentLeaderBacklog:
    """The sub-cluster leader turns negligent at t=0.05 under a burst
    (10 × 1 KiB records per task, 0.5 ms apart, 1 ms compute), so it
    withholds far more outputs than any fixed window would keep.  The
    leader elected after it must re-forward every output the OP has not
    acknowledged, or the tasks withheld early never complete."""

    @staticmethod
    def burst(n, n_tasks):
        campaign = Campaign(
            name="negligent-leader-backlog",
            phases=(
                Phase(
                    at=0.05,
                    actions=(
                        Action(
                            op="set",
                            select="cluster:0[0:1]",
                            fault=FaultSpec("verifier", "negligent-leader"),
                        ),
                    ),
                ),
            ),
        )
        workload = synthetic_bench(
            n_tasks, records_per_task=10, compute_cost=1e-3, rate=2000.0
        )
        return api.run(
            api.DeploymentSpec(
                workload=workload,
                n=n,
                seed=100,
                deadline=600.0,
                faults=campaign,
            )
        )

    def test_n4_every_task_of_200_completes(self):
        result = self.burst(4, 200)
        assert result.tasks_completed == 200
        assert result.records == 2000

    def test_n7_every_task_of_400_completes(self):
        result = self.burst(7, 400)
        assert result.tasks_completed == 400
        assert result.records == 4000


class TestBogusDigest:
    def test_minority_bogus_digest_cannot_block_acceptance(self):
        cluster = run_cluster(
            n_tasks=10,
            n_workers=10,
            k=2,
            seed=24,
            until=60.0,
            faults={"v4": BogusDigestFault()},  # non-leader of VP1
        )
        assert cluster.metrics.tasks_completed == 10
        assert cluster.metrics.records_accepted == 50

    def test_bogus_leader_data_rejected_until_election(self):
        """A leader that sends data whose digest doesn't match the honest
        quorum cannot get it accepted; the negligence path elects an
        honest leader."""
        cluster = run_cluster(
            n_tasks=6,
            n_workers=10,
            k=2,
            seed=25,
            until=60.0,
            faults={"v3": BogusDigestFault()},  # leader of VP1
        )
        assert cluster.metrics.tasks_completed == 6
        assert cluster.metrics.records_accepted == 30


class TestFalseAccusation:
    def test_single_false_accuser_is_ignored(self):
        cluster = run_cluster(
            n_tasks=10,
            n_workers=10,
            k=2,
            seed=26,
            until=60.0,
            faults={"v4": FalseAccusationFault()},
        )
        assert cluster.metrics.tasks_completed == 10
        # no executor was blacklisted on a single (< f+1) accusation
        for coord in cluster.coordinators:
            assert coord.blacklist == set()


class TestSilentVerifier:
    def test_one_silent_verifier_tolerated(self):
        cluster = run_cluster(
            n_tasks=10,
            n_workers=10,
            k=2,
            seed=27,
            until=60.0,
            faults={"v4": SilentVerifierFault()},
        )
        assert cluster.metrics.tasks_completed == 10

    def test_silent_leader_handled_like_negligent(self):
        cluster = run_cluster(
            n_tasks=6,
            n_workers=10,
            k=2,
            seed=28,
            until=60.0,
            faults={"v3": SilentVerifierFault()},
        )
        assert cluster.metrics.tasks_completed == 6


class TestByzantineOutputProcess:
    def test_spurious_reports_eventually_ignored(self):
        """An OP reporting f+1 distinct leaders is marked Byzantine by
        verifiers and its reports stop causing elections."""
        from repro.core import build_osiris_cluster

        app = SyntheticApp(records_per_task=5, compute_cost=5e-3)
        cluster = build_osiris_cluster(
            app,
            workload=iter(compute_workload(10)),
            n_workers=10,
            k=2,
            seed=29,
            config=fast_config(),
            n_outputs=2,
            faults={"op1": SpuriousReportsFault()},
        )
        cluster.outputs[1].start_spurious_reports(vp_index=1, period=0.05)
        cluster.start()
        cluster.run(until=60.0)
        assert cluster.metrics.tasks_completed == 10
        # elections are bounded: once the OP has named f+1 leaders it is
        # ignored, so elections stop growing
        assert len(cluster.metrics.leader_elections) <= 4
        v3 = cluster.worker("v3")
        assert "op1" in v3._byzantine_ops
