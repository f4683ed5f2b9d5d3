"""Verifier pipeline behaviours that integration runs don't pin down:
digest gating, out-of-order chunk buffering, count deferral, output held
until the OP acknowledges it, leader resends, and role-switch epochs."""

from dataclasses import replace

import pytest

from repro.apps.synthetic import SyntheticApp, make_compute_task
from repro.core import OsirisConfig, build_osiris_cluster
from repro.core.messages import (
    ChunkDigestMsg,
    ChunkMsg,
    OutputAckMsg,
    RoleSwitchMsg,
)
from repro.core.tasks import Assignment, Chunk, Record
from tests.core.helpers import compute_workload, fast_config, held_chunks


def deploy(n_tasks=4, seed=50, **kwargs):
    app = SyntheticApp(records_per_task=6, compute_cost=5e-3)
    cluster = build_osiris_cluster(
        app,
        workload=iter(compute_workload(n_tasks)),
        n_workers=10,
        k=2,
        seed=seed,
        config=fast_config(),
        **kwargs,
    )
    return cluster


class TestDigestGating:
    def test_chunk_without_neq_digest_never_verified(self):
        """A chunk whose σ(C) digest never arrived through the
        non-equivocating primitive is buffered, not processed."""
        cluster = deploy()
        cluster.start()
        cluster.run(until=0.002)  # assignments under way
        verifier = cluster.verifiers[0]
        task = make_compute_task(99).with_timestamp(0)
        a = Assignment(task, "e0", verifier.cluster.index, 0)
        chunk = Chunk("c99", 0, (Record(key=(0,)),), final=True)
        msg = ChunkMsg(chunk=chunk, assignment=a)
        msg.sender = "e0"
        verifier.on_ChunkMsg(msg)
        cluster.run(until=5.0)
        # the injected chunk never got verified (no quorum sigs AND no digest)
        assert all(
            key[0] != "c99" or not st.verified
            for key, st in verifier._tasks.items()
        )

    def test_plain_channel_digest_ignored(self):
        """ChunkDigestMsg sent over a plain link (no _neq marker) is
        ignored — digests must use the primitive (Sec 5.2.2)."""
        cluster = deploy()
        verifier = cluster.verifiers[0]
        msg = ChunkDigestMsg(task_id="x", attempt=0, index=0, digest=b"d")
        msg.sender = "e0"
        verifier.on_ChunkDigestMsg(msg)
        assert ("x", 0) not in verifier._tasks


class TestRoleSwitchEpochs:
    def test_stale_epoch_ignored(self):
        cluster = deploy()
        verifier = cluster.verifiers[0]
        coord_members = cluster.topo.coordinator.members
        signers = {c.pid: c.signer for c in cluster.coordinators}

        def switch(epoch, to_executor):
            for pid in list(coord_members)[:2]:
                msg = RoleSwitchMsg(
                    vp_index=verifier.cluster.index,
                    epoch=epoch,
                    to_executor=to_executor,
                )
                msg.sig = signers[pid].sign(msg.signed_payload())
                msg.sender = pid
                verifier.on_RoleSwitchMsg(msg)

        switch(2, True)
        assert verifier.executor_mode and verifier.role_epoch == 2
        switch(1, False)  # stale epoch must not undo epoch 2
        assert verifier.executor_mode

    def test_single_copy_insufficient(self):
        cluster = deploy()
        verifier = cluster.verifiers[0]
        coord = cluster.coordinators[0]
        msg = RoleSwitchMsg(
            vp_index=verifier.cluster.index, epoch=1, to_executor=True
        )
        msg.sig = coord.signer.sign(msg.signed_payload())
        msg.sender = coord.pid
        verifier.on_RoleSwitchMsg(msg)
        assert not verifier.executor_mode

    def test_forged_signature_rejected(self):
        cluster = deploy()
        verifier = cluster.verifiers[0]
        from repro.crypto.signatures import Signature

        for pid in list(cluster.topo.coordinator.members)[:2]:
            msg = RoleSwitchMsg(
                vp_index=verifier.cluster.index, epoch=1, to_executor=True
            )
            msg.sig = Signature(pid, b"\x00" * 32)
            msg.sender = pid
            verifier.on_RoleSwitchMsg(msg)
        assert not verifier.executor_mode


def ack(verifier, sender, task_id):
    msg = OutputAckMsg(vp_index=verifier.cluster.index, task_id=task_id)
    msg.sender = sender
    verifier.on_OutputAckMsg(msg)


class TestRetention:
    """A verifier holds a task's output until every OP it went to has
    acknowledged it, and not after."""

    @staticmethod
    def sharded_run(pre_ack=None):
        """Two shards, t0/t1 tasks, ``op1`` crashed before the start: its
        tenant's tasks are verified but never acknowledged.  ``pre_ack``
        is a task ``op1`` acks before anything runs."""
        app = SyntheticApp(records_per_task=4, compute_cost=2e-3)
        workload = [
            (at, replace(task, tenant=f"t{i % 2}"))
            for i, (at, task) in enumerate(compute_workload(8))
        ]
        cluster = build_osiris_cluster(
            app,
            workload=iter(workload),
            n_workers=10,
            k=2,
            seed=53,
            config=fast_config(),
            shards=2,
        )
        cluster.worker("op1").crash()
        if pre_ack is not None:
            for v in cluster.all_verifiers:
                ack(v, "op1", pre_ack)
        cluster.start()
        cluster.run(until=30.0)
        to_op1 = {
            task.task_id
            for _, task in workload
            if cluster.topo.outputs_for(task.tenant) == ("op1",)
        }
        return cluster, to_op1

    def test_acknowledged_tasks_hold_no_chunks(self):
        cluster = deploy(n_tasks=6)
        cluster.start()
        cluster.run(until=30.0)
        assert cluster.metrics.tasks_completed == 6
        for v in cluster.all_verifiers:
            assert v._unacked == {} and held_chunks(v) == []
            assert all(st.last_record is None for st in v._tasks.values())

    def test_sharded_output_held_until_its_own_op_acks(self):
        cluster, to_op1 = self.sharded_run()
        assert to_op1 and cluster.metrics.tasks_completed == 8 - len(to_op1)
        holders = [v for v in cluster.all_verifiers if v._unacked]
        assert holders
        for v in holders:
            assert set(v._unacked) <= to_op1  # op0's tasks are released
        v = holders[0]
        task_id = next(iter(v._unacked))
        ack(v, "op0", task_id)  # not the OP this tenant's output went to
        assert task_id in v._unacked and held_chunks(v, task_id)
        ack(v, "op1", task_id)
        assert task_id not in v._unacked and held_chunks(v, task_id) == []

    def test_ack_before_completion_releases_on_completion(self):
        cluster, to_op1 = self.sharded_run(pre_ack="c1")
        assert "c1" in to_op1
        assert any("c1" in v._completed_tasks for v in cluster.all_verifiers)
        for v in cluster.all_verifiers:
            assert "c1" not in v._unacked and held_chunks(v, "c1") == []
        assert any(v._unacked for v in cluster.all_verifiers)

    def test_ack_from_an_executor_pid_is_ignored(self):
        cluster, _ = self.sharded_run()
        v = next(v for v in cluster.all_verifiers if v._unacked)
        task_id = next(iter(v._unacked))
        ack(v, cluster.topo.executor_pids[0], task_id)
        assert task_id in v._unacked and held_chunks(v, task_id)

    def test_retained_outputs_knob_is_gone(self):
        with pytest.raises(TypeError):
            OsirisConfig(retained_outputs=128)


class TestLeaderResend:
    def test_new_leader_resends_to_op_after_election(self):
        """Direct election: the next leader pushes retained data so OP
        completes tasks whose data a negligent leader withheld."""
        from repro.core.faults import NegligentLeaderFault

        app = SyntheticApp(records_per_task=4, compute_cost=2e-3)
        cluster = build_osiris_cluster(
            app,
            workload=iter(compute_workload(6)),
            n_workers=10,
            k=2,
            seed=52,
            config=fast_config(),
            faults={"v3": NegligentLeaderFault()},
        )
        cluster.start()
        cluster.run(until=60.0)
        assert cluster.metrics.records_accepted == 24
        # leadership moved off the negligent member
        terms = {v.term for v in cluster.verifiers}
        assert max(terms) >= 1
