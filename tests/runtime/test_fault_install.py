"""Static faults go through ``install_fault``, the campaign's injection
function: a fault lands where a campaign action would put it, and one
that no process can host raises instead of being dropped."""

import pytest

from repro import api
from repro.adversary import Action, Campaign, FaultSpec, Phase
from repro.core.faults import CorruptRecordFault
from repro.errors import ProtocolError


def build(faults):
    return api.build(
        api.DeploymentSpec(
            workload="synthetic",
            workload_params={"n_tasks": 2, "records_per_task": 3},
            n=8,
            faults=faults,
        )
    )


@pytest.mark.parametrize(
    "pid, fault, hosted",
    [
        ("e99", CorruptRecordFault(), False),
        ("e0", FaultSpec("verifier", "negligent-leader"), False),
        ("v0", CorruptRecordFault(), True),
    ],
    ids=["unknown-pid", "verifier-fault-on-executor", "executor-fault-on-verifier"],
)
def test_misrouted_static_fault(pid, fault, hosted):
    if not hosted:
        with pytest.raises(ProtocolError, match=pid):
            build({pid: fault})
        return
    cluster = build({pid: fault})
    assert cluster.worker(pid).engine.fault is fault
    assert cluster.worker(pid).fault is None
    # a campaign action puts the same strategy on the same slot
    campaign = Campaign(
        name="c",
        phases=(
            Phase(
                at=0.0,
                actions=(
                    Action(
                        op="set",
                        select=pid,
                        fault=FaultSpec("executor", "corrupt-record"),
                    ),
                ),
            ),
        ),
    )
    by_campaign = build(campaign).worker(pid)
    assert isinstance(by_campaign.engine.fault, CorruptRecordFault)
    assert by_campaign.fault is None
