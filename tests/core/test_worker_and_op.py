"""Unit-level tests for WorkerBase's f+1 state-update rule and the
OutputProcess acceptance logic (driven directly, no full pipeline)."""


from repro.apps.synthetic import SyntheticApp
from repro.core import Opcode, OsirisConfig, Record, Task
from repro.core.messages import (
    StateUpdateMsg,
    VerifiedChunkMsg,
    VerifiedDigestMsg,
)
from repro.core.tasks import Chunk
from repro.core.input_output import OutputProcess
from repro.core.worker import WorkerBase
from repro.crypto import KeyRegistry, digest
from repro.net import Network, SubCluster, SynchronyModel, Topology
from repro.obs.metrics import MetricsHub
from repro.runtime.core import ProtocolCore
from repro.runtime.des import DesHost
from repro.sim import Simulator


def make_env(n_exec=2):
    sim = Simulator(seed=4)
    net = Network(sim, synchrony=SynchronyModel())
    registry = KeyRegistry()
    clusters = (
        SubCluster(index=0, members=("v0", "v1", "v2"), f=1),
        SubCluster(index=1, members=("v3", "v4", "v5"), f=1),
    )
    topo = Topology(
        input_pids=("ip0",),
        output_pids=("op0",),
        executor_pids=tuple(f"e{i}" for i in range(n_exec)),
        verifier_clusters=clusters,
        f=1,
    )
    config = OsirisConfig()
    metrics = MetricsHub()
    sim.bus.attach(metrics)
    app = SyntheticApp()
    return sim, net, registry, topo, config, metrics, app


def make_worker(pid="e0"):
    sim, net, registry, topo, config, metrics, app = make_env()
    worker = WorkerBase(
        pid, topo, registry, registry.register(pid), app, config
    )
    net.register(DesHost(sim, net, worker, cores=config.cores_per_node))
    signers = {v: registry.register(v) for v in topo.coordinator.members}
    return worker, signers, registry


def update_msg(signers, sender, ts, task_id=None):
    task = Task(
        task_id=task_id or f"u{ts}",
        opcode=Opcode.UPDATE,
        update_payload=("put", "k", ts),
        timestamp=ts,
    )
    msg = StateUpdateMsg(task=task)
    msg.sig = signers[sender].sign(msg.signed_payload())
    msg.sender = sender
    return msg


class TestStateUpdateQuorum:
    def test_single_copy_not_applied(self):
        worker, signers, _ = make_worker()
        worker.on_StateUpdateMsg(update_msg(signers, "v0", 1))
        assert worker.store.applied_ts == 0

    def test_f_plus_1_copies_apply(self):
        worker, signers, _ = make_worker()
        worker.on_StateUpdateMsg(update_msg(signers, "v0", 1))
        worker.on_StateUpdateMsg(update_msg(signers, "v1", 1))
        assert worker.store.applied_ts == 1

    def test_duplicate_sender_does_not_count_twice(self):
        worker, signers, _ = make_worker()
        worker.on_StateUpdateMsg(update_msg(signers, "v0", 1))
        worker.on_StateUpdateMsg(update_msg(signers, "v0", 1))
        assert worker.store.applied_ts == 0

    def test_non_coordinator_sender_ignored(self):
        worker, signers, registry = make_worker()
        outsider = registry.register("v9")
        task = Task("u1", Opcode.UPDATE, update_payload=("put", "k", 1), timestamp=1)
        msg = StateUpdateMsg(task=task)
        msg.sig = outsider.sign(msg.signed_payload())
        msg.sender = "v9"
        worker.on_StateUpdateMsg(msg)
        worker.on_StateUpdateMsg(update_msg(signers, "v0", 1))
        assert worker.store.applied_ts == 0

    def test_forged_signature_ignored(self):
        worker, signers, _ = make_worker()
        msg = update_msg(signers, "v0", 1)
        # v1 claims to be the sender but carries v0's signature
        msg.sender = "v1"
        worker.on_StateUpdateMsg(msg)
        worker.on_StateUpdateMsg(update_msg(signers, "v2", 1))
        assert worker.store.applied_ts == 0

    def test_extra_copies_idempotent(self):
        worker, signers, _ = make_worker()
        for sender in ("v0", "v1", "v2"):
            worker.on_StateUpdateMsg(update_msg(signers, sender, 1))
        assert worker.store.applied_ts == 1
        assert worker.store.duplicate_updates == 0

    def test_unstamped_update_ignored(self):
        worker, signers, _ = make_worker()
        task = Task("u1", Opcode.UPDATE, update_payload=("put", "k", 1))
        msg = StateUpdateMsg(task=task)
        msg.sig = signers["v0"].sign(msg.signed_payload())
        msg.sender = "v0"
        worker.on_StateUpdateMsg(msg)
        assert worker.store.applied_ts == 0


def make_op_env():
    """An OP, plus bare endpoints for the sub-cluster its chunks come
    from (the members it acknowledges completed tasks to)."""
    sim, net, registry, topo, config, metrics, app = make_env()
    op = OutputProcess("op0", topo, config)
    net.register(DesHost(sim, net, op, cores=2))
    members = [ProtocolCore(pid) for pid in topo.cluster(1).members]
    for core in members:
        net.register(DesHost(sim, net, core, cores=1))
    return op, metrics, sim, members


def make_op():
    return make_op_env()[:3]


def chunk_msg(sender, task_id="t1", index=0, final=True, records=2, data_tag="x"):
    chunk = Chunk(
        task_id,
        index,
        tuple(Record(key=(i,), data=data_tag) for i in range(records)),
        final,
    )
    msg = VerifiedChunkMsg(
        vp_index=1,
        task_id=task_id,
        index=index,
        final=final,
        chunk=chunk,
        digest=digest(chunk),
    )
    msg.sender = sender
    return msg


def digest_msg(sender, reference_chunk_msg):
    msg = VerifiedDigestMsg(
        vp_index=1,
        task_id=reference_chunk_msg.task_id,
        index=reference_chunk_msg.index,
        final=reference_chunk_msg.final,
        digest=reference_chunk_msg.digest,
    )
    msg.sender = sender
    return msg


class TestOutputAcceptance:
    def test_data_alone_insufficient(self):
        op, metrics, _ = make_op()
        op.on_VerifiedChunkMsg(chunk_msg("v3"))
        assert metrics.records_accepted == 0

    def test_f_plus_1_matching_digests_accept(self):
        op, metrics, _ = make_op()
        data = chunk_msg("v3")
        op.on_VerifiedChunkMsg(data)
        op.on_VerifiedDigestMsg(digest_msg("v4", data))
        assert metrics.records_accepted == 2
        assert metrics.tasks_completed == 1

    def test_duplicate_endorser_does_not_count(self):
        op, metrics, _ = make_op()
        data = chunk_msg("v3")
        op.on_VerifiedChunkMsg(data)
        op.on_VerifiedChunkMsg(data)
        assert metrics.records_accepted == 0

    def test_sender_outside_claimed_cluster_ignored(self):
        op, metrics, _ = make_op()
        data = chunk_msg("v0")  # v0 belongs to cluster 0, claims cluster 1
        op.on_VerifiedChunkMsg(data)
        op.on_VerifiedDigestMsg(digest_msg("v4", data))
        assert metrics.records_accepted == 0

    def test_mismatched_data_digest_not_accepted(self):
        """A lying leader sends data whose recomputed digest differs from
        the quorum digest: must not be accepted."""
        op, metrics, _ = make_op()
        honest = chunk_msg("v3", data_tag="honest")
        lying = chunk_msg("v5", data_tag="tampered")
        lying.digest = honest.digest  # claims the honest digest
        op.on_VerifiedChunkMsg(lying)
        op.on_VerifiedDigestMsg(digest_msg("v4", honest))
        assert metrics.records_accepted == 0

    def test_multi_chunk_completion_requires_all_indices(self):
        op, metrics, _ = make_op()
        c0 = chunk_msg("v3", index=0, final=False)
        c1 = chunk_msg("v3", index=1, final=True)
        op.on_VerifiedChunkMsg(c1)
        op.on_VerifiedDigestMsg(digest_msg("v4", c1))
        assert metrics.tasks_completed == 0  # chunk 0 missing
        op.on_VerifiedChunkMsg(c0)
        op.on_VerifiedDigestMsg(digest_msg("v4", c0))
        assert metrics.tasks_completed == 1
        assert metrics.records_accepted == 4

    def test_second_cluster_output_for_same_task_ignored(self):
        op, metrics, _ = make_op()
        data = chunk_msg("v3")
        op.on_VerifiedChunkMsg(data)
        op.on_VerifiedDigestMsg(digest_msg("v4", data))
        # a different sub-cluster tries to deliver the same task again
        dup = chunk_msg("v3")
        dup.vp_index = 0
        dup.sender = "v0"
        op.on_VerifiedChunkMsg(dup)
        assert metrics.records_accepted == 2

    def test_completed_task_acknowledged_once_to_its_subcluster(self):
        op, metrics, sim, members = make_op_env()
        data = chunk_msg("v3")
        op.on_VerifiedChunkMsg(data)
        op.on_VerifiedDigestMsg(digest_msg("v4", data))
        op.on_VerifiedDigestMsg(digest_msg("v5", data))  # after completion
        sim.run(until=1.0)
        assert metrics.tasks_completed == 1
        assert [core.unhandled_messages for core in members] == [1, 1, 1]
