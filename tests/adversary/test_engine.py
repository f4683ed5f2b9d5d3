"""Campaign controller: phases, triggers, clears on a live deployment."""

import pytest

from repro import api
from repro.adversary import Action, Campaign, FaultSpec, Phase, Trigger
from repro.core.faults import OmitRecordFault, SilentFault, SlowFault
from repro.errors import AdversaryError
from repro.obs.events import ChunkAccepted, TaskAssigned


def build(campaign, n=5):
    spec = api.DeploymentSpec(
        workload="synthetic",
        workload_params=(("n_tasks", 2), ("records_per_task", 3)),
        n=n,
        faults=campaign,
    )
    return api.build(spec)


def set_action(select, kind="silent", role="executor", **params):
    return Action(
        op="set",
        select=select,
        fault=FaultSpec(role=role, kind=kind, params=tuple(params.items())),
    )


class TestPhases:
    def test_t0_phase_applies_at_install(self):
        campaign = Campaign(
            name="c", phases=(Phase(at=0.0, actions=(set_action("executors"),)),)
        )
        cluster = build(campaign)
        for e in cluster.executors:
            assert isinstance(e.engine.fault, SilentFault)
        assert cluster.campaign.first_injection_at == 0.0
        # the metrics hub is attached before install, so it saw the t=0 set
        assert cluster.metrics.injected_at == 0.0
        assert cluster.metrics.actions_applied == len(cluster.executors)

    def test_scheduled_phase_applies_at_its_time(self):
        campaign = Campaign(
            name="c",
            phases=(
                Phase(at=1.0, actions=(set_action("e0", "slow", delay=3.0),)),
            ),
        )
        cluster = build(campaign)
        e0 = cluster.worker("e0")
        assert e0.engine.fault is None
        cluster.run(until=0.5)
        assert e0.engine.fault is None
        cluster.run(until=2.0)
        assert isinstance(e0.engine.fault, SlowFault)
        assert e0.engine.fault.delay == 3.0
        assert cluster.campaign.first_injection_at == 1.0

    def test_clear_restores_honesty(self):
        campaign = Campaign(
            name="c",
            phases=(
                Phase(at=0.0, actions=(set_action("executors[:2]"),)),
                Phase(
                    at=1.0,
                    actions=(Action(op="clear", select="executors[:2]"),),
                ),
            ),
        )
        cluster = build(campaign)
        assert cluster.worker("e0").engine.fault is not None
        cluster.run(until=2.0)
        assert cluster.worker("e0").engine.fault is None
        assert cluster.worker("e1").engine.fault is None
        ops = [op for _, op, _, _, _ in cluster.campaign.applied]
        assert ops == ["set", "set", "clear", "clear"]
        # clears never move first_injection_at
        assert cluster.campaign.first_injection_at == 0.0

    def test_set_is_swap(self):
        campaign = Campaign(
            name="c",
            phases=(
                Phase(at=0.0, actions=(set_action("e0", "silent"),)),
                Phase(at=1.0, actions=(set_action("e0", "omit-record"),)),
            ),
        )
        cluster = build(campaign)
        assert isinstance(cluster.worker("e0").engine.fault, SilentFault)
        cluster.run(until=2.0)
        assert isinstance(cluster.worker("e0").engine.fault, OmitRecordFault)

    def test_verifier_fault_targets_cluster(self):
        campaign = Campaign(
            name="c",
            phases=(
                Phase(
                    at=0.0,
                    actions=(
                        set_action(
                            "cluster:0[:1]", "negligent-leader", role="verifier"
                        ),
                    ),
                ),
            ),
        )
        cluster = build(campaign)
        assert cluster.worker("v0").fault is not None
        assert cluster.worker("v1").fault is None


class TestTriggers:
    def trigger_campaign(self, **over):
        kw = dict(
            on="chunk-accepted",
            actions=(set_action("e0", "omit-record"),),
            once=True,
        )
        kw.update(over)
        return Campaign(name="c", triggers=(Trigger(**kw),))

    def emit_chunk(self, cluster, task_id="t1"):
        cluster.bus.emit(
            ChunkAccepted(
                time=cluster.sim.now,
                pid="op0",
                task_id=task_id,
                index=0,
                records=3,
            )
        )

    def test_trigger_fires_on_matching_event(self):
        cluster = build(self.trigger_campaign())
        assert cluster.worker("e0").engine.fault is None
        self.emit_chunk(cluster)
        assert isinstance(cluster.worker("e0").engine.fault, OmitRecordFault)
        # purely adaptive: injection time recorded at runtime
        assert cluster.campaign.first_injection_at == cluster.sim.now

    def test_once_disarms(self):
        cluster = build(self.trigger_campaign())
        self.emit_chunk(cluster)
        applied = len(cluster.campaign.applied)
        self.emit_chunk(cluster)
        assert len(cluster.campaign.applied) == applied

    def test_recurring_trigger_stays_armed(self):
        cluster = build(self.trigger_campaign(once=False))
        self.emit_chunk(cluster)
        self.emit_chunk(cluster)
        assert len(cluster.campaign.applied) == 2

    def test_where_filters_and_event_selector(self):
        campaign = Campaign(
            name="c",
            triggers=(
                Trigger(
                    on="task-assigned",
                    where=(("executor", "e1"),),
                    actions=(set_action("event:executor", "silent"),),
                ),
            ),
        )
        cluster = build(campaign)

        def assign(executor):
            cluster.bus.emit(
                TaskAssigned(
                    time=cluster.sim.now,
                    pid="v0",
                    task_id="t1",
                    executor=executor,
                    attempt=0,
                )
            )

        assign("e0")
        assert cluster.worker("e0").engine.fault is None
        assert cluster.worker("e1").engine.fault is None
        assign("e1")
        assert cluster.worker("e0").engine.fault is None
        assert isinstance(cluster.worker("e1").engine.fault, SilentFault)

    def test_after_delays_application(self):
        cluster = build(self.trigger_campaign(after=0.5))
        self.emit_chunk(cluster)
        assert cluster.worker("e0").engine.fault is None
        cluster.run(until=1.0)
        assert isinstance(cluster.worker("e0").engine.fault, OmitRecordFault)


class TestValidation:
    def test_unknown_trigger_kind_rejected_at_install(self):
        campaign = Campaign(
            name="c",
            triggers=(
                Trigger(on="no-such-event", actions=(set_action("e0"),)),
            ),
        )
        with pytest.raises(AdversaryError):
            build(campaign)

    def test_verifier_fault_on_non_verifier_rejected(self):
        campaign = Campaign(
            name="c",
            phases=(
                Phase(
                    at=0.0,
                    actions=(
                        set_action("e0", "negligent-leader", role="verifier"),
                    ),
                ),
            ),
        )
        with pytest.raises(AdversaryError):
            build(campaign)

    def test_double_install_rejected(self):
        campaign = Campaign(
            name="c", phases=(Phase(at=0.0, actions=(set_action("e0"),)),)
        )
        cluster = build(campaign)
        with pytest.raises(AdversaryError):
            cluster.campaign.install()

    def test_fresh_controller_on_same_cluster_is_fine(self):
        from repro.adversary import CampaignController

        campaign = Campaign(
            name="c", phases=(Phase(at=0.0, actions=(set_action("e0"),)),)
        )
        cluster = build(campaign)
        CampaignController(campaign, cluster).install()
        assert cluster.worker("e0").engine.fault is not None
