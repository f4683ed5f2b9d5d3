"""Verifier pipeline behaviours that integration runs don't pin down:
digest gating, out-of-order chunk buffering, count deferral, retained
output resends, and role-switch epochs."""


from repro.apps.synthetic import SyntheticApp, make_compute_task
from repro.core import build_osiris_cluster
from repro.core.messages import ChunkDigestMsg, ChunkMsg, RoleSwitchMsg
from repro.core.tasks import Assignment, Chunk, Record
from repro.crypto.digest import digest
from tests.core.helpers import compute_workload, fast_config


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


class TestRetention:
    def test_completed_outputs_retained_bounded(self):
        config = fast_config(retained_outputs=5)
        app = SyntheticApp(records_per_task=2, compute_cost=1e-3)
        cluster = build_osiris_cluster(
            app,
            workload=iter(compute_workload(20)),
            n_workers=10,
            k=2,
            seed=51,
            config=config,
        )
        cluster.start()
        cluster.run(until=30.0)
        for v in cluster.verifiers:
            assert len(v._retained) <= 5

    def test_retained_chunks_match_task_output(self):
        cluster = deploy(n_tasks=3)
        cluster.start()
        cluster.run(until=30.0)
        verifier = cluster.verifiers[0]
        for task_id, chunks in verifier._retained.items():
            for chunk, sigma in chunks:
                assert digest(chunk) == sigma
                assert chunk.task_id == task_id


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
