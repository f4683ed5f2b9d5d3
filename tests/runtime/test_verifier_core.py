"""Verifier core driven directly on the in-memory runtime.

Adversarial input orderings against a single pure core: equivocation
between chunk contents and neq digests, duplicate copies that must not
count toward f+1 quorums, and stale-epoch role switches.  No Simulator,
no Network — every interaction is a typed effect.
"""

from repro.core.messages import (
    ChunkDigestMsg,
    RoleSwitchMsg,
    SuspectExecutorMsg,
    TaskCompleteMsg,
    VerifiedChunkMsg,
)
from repro.core.tasks import Assignment
from repro.crypto.digest import digest
from repro.runtime.testing import sent_messages

from .helpers import (
    activate_assignment,
    feed_chunk,
    honest_chunks,
    make_compute_task,
    make_verifier,
    signed_assignment_msgs,
)


class TestAssignmentQuorum:
    def test_duplicate_coordinator_copies_do_not_activate(self):
        """f+1 copies from the SAME member are one vote, not a quorum."""
        verifier, rt, registry, signers = make_verifier()
        task = make_compute_task(0).with_timestamp(0)
        a = Assignment(task=task, executor="e0", vp_index=1, attempt=0)
        (msg,) = signed_assignment_msgs(signers, a, ("v0",))
        for _ in range(3):
            rt.deliver(msg)
        st = verifier._tasks.get(a.key)
        assert st is None or not st.activated

    def test_distinct_copies_activate(self):
        verifier, rt, registry, signers = make_verifier()
        a = activate_assignment(rt, signers, senders=("v0", "v1"))
        assert verifier._tasks[a.key].activated

    def test_forged_copy_never_counts(self):
        """A message claiming sender v1 but signed by v0 is discarded."""
        verifier, rt, registry, signers = make_verifier()
        task = make_compute_task(0).with_timestamp(0)
        a = Assignment(task=task, executor="e0", vp_index=1, attempt=0)
        real, forged = signed_assignment_msgs(signers, a, ("v0", "v0"))
        forged.sender = "v1"  # sender/signer mismatch
        rt.deliver(real)
        rt.deliver(forged)
        st = verifier._tasks.get(a.key)
        assert st is None or not st.activated

    def test_conflicting_assignment_copies_do_not_mix(self):
        """Signatures over different (executor) tuples never accumulate
        into one quorum."""
        verifier, rt, registry, signers = make_verifier()
        task = make_compute_task(0).with_timestamp(0)
        a0 = Assignment(task=task, executor="e0", vp_index=1, attempt=0)
        a1 = Assignment(task=task, executor="e1", vp_index=1, attempt=0)
        rt.deliver(signed_assignment_msgs(signers, a0, ("v0",))[0])
        rt.deliver(signed_assignment_msgs(signers, a1, ("v1",))[0])
        st = verifier._tasks.get(a0.key)
        assert st is None or not st.activated


class TestEquivocation:
    def test_digest_mismatch_fails_and_accuses(self):
        """Chunk content disagreeing with the neq digest is equivocation:
        the task fails and VP_CO is told the executor is Byzantine."""
        verifier, rt, registry, signers = make_verifier()
        a = activate_assignment(rt, signers)
        chunk = honest_chunks(verifier.app, a)[0]
        feed_chunk(rt, a, chunk, sigma=digest(["lie"]))
        assert verifier._tasks[a.key].failed
        assert verifier.failures_detected == 1
        rt.drain()  # run the queued signing job
        accusations = sent_messages(rt, SuspectExecutorMsg)
        assert len(accusations) == 1
        assert accusations[0].byzantine
        assert accusations[0].executor == "e0"

    def test_digest_from_wrong_executor_ignored(self):
        verifier, rt, registry, signers = make_verifier()
        a = activate_assignment(rt, signers)
        chunk = honest_chunks(verifier.app, a)[0]
        feed_chunk(rt, a, chunk, sender="e1")  # chunk AND digest from e1
        st = verifier._tasks[a.key]
        assert not st.failed
        assert st.next_index == 0  # nothing was verified either

    def test_plain_channel_digest_ignored(self):
        """Digests must travel via the non-equivocating primitive."""
        from repro.core.messages import ChunkDigestMsg, ChunkMsg

        verifier, rt, registry, signers = make_verifier()
        a = activate_assignment(rt, signers)
        chunk = honest_chunks(verifier.app, a)[0]
        cmsg = ChunkMsg(chunk=chunk, assignment=a)
        cmsg.sender = "e0"
        rt.deliver(cmsg)
        dmsg = ChunkDigestMsg(
            task_id=a.task.task_id, attempt=0, index=0, digest=digest(chunk)
        )
        dmsg.sender = "e0"  # note: no _neq marker
        rt.deliver(dmsg)
        rt.drain()
        assert verifier.chunks_verified == 0

    def test_honest_stream_verifies_and_completes(self):
        verifier, rt, registry, signers = make_verifier(pid="v3")
        a = activate_assignment(rt, signers)
        for chunk in honest_chunks(verifier.app, a):
            feed_chunk(rt, a, chunk)
        rt.drain()  # count job + verify jobs
        st = verifier._tasks[a.key]
        assert st.finished and not st.failed
        # v3 leads VP_1 at term 0: data goes to OP, completion to VP_CO
        assert any(
            type(m) is VerifiedChunkMsg for m in sent_messages(rt)
        )
        completes = sent_messages(rt, TaskCompleteMsg)
        assert len(completes) == 1

    def test_chunk_after_final_is_replay(self):
        verifier, rt, registry, signers = make_verifier()
        a = activate_assignment(rt, signers)
        chunks = honest_chunks(verifier.app, a)
        final = chunks[-1]
        for chunk in chunks:
            feed_chunk(rt, a, chunk)
        rt.drain()
        assert verifier._tasks[a.key].finished
        # replayed copy of the final chunk, one index later
        from repro.core.tasks import Chunk

        replay = Chunk(final.task_id, final.index + 1, final.records, True)
        feed_chunk(rt, a, replay)
        rt.drain()
        # the task is already complete; the replay must not be endorsed
        assert verifier.chunks_verified == len(chunks)


class TestSiblingAttempts:
    def test_completion_cancels_every_sibling_and_nothing_else(self):
        """The first finished attempt wins: every other attempt of the
        task — whichever handler first saw it, and even one numbered
        past max_attempts (fallback) — fails and loses its suspect
        timer; attempts of other tasks are untouched."""
        verifier, rt, registry, signers = make_verifier(max_attempts=3)
        task = make_compute_task(0)
        other = make_compute_task(1)
        a0 = activate_assignment(rt, signers, task=task, attempt=0)
        past_max = activate_assignment(
            rt, signers, task=task, executor="e1", attempt=5
        )
        a_other = activate_assignment(rt, signers, task=other, attempt=0)
        winner = activate_assignment(
            rt, signers, task=task, executor="e1", attempt=1
        )
        # attempts first seen as a bare chunk (never activated) and as a
        # bare neq digest
        chunk = honest_chunks(verifier.app, a0)[0]
        seen_by_chunk = Assignment(a0.task, "e0", 1, attempt=2)
        feed_chunk(rt, seen_by_chunk, chunk)
        seen_by_digest = Assignment(a0.task, "e0", 1, attempt=4)
        dmsg = ChunkDigestMsg(
            task_id=task.task_id, attempt=4, index=0, digest=chunk.sigma
        )
        dmsg.sender, dmsg._neq = "e0", True
        rt.deliver(dmsg)

        for c in honest_chunks(verifier.app, winner):
            feed_chunk(rt, winner, c, sender="e1")
        rt.drain()

        assert verifier._tasks[winner.key].finished
        for a in (a0, past_max, seen_by_chunk, seen_by_digest):
            assert verifier._tasks[a.key].failed, a.key
            assert not rt.timer_armed(verifier._suspect_timer_name(a.key))
        assert not verifier._tasks[a_other.key].failed
        assert rt.timer_armed(verifier._suspect_timer_name(a_other.key))


class TestStaleEpochRoleSwitch:
    def switch_msgs(self, signers, epoch, to_executor=True, senders=("v0", "v1")):
        out = []
        for sender in senders:
            msg = RoleSwitchMsg(
                vp_index=1, epoch=epoch, to_executor=to_executor
            )
            msg.sig = signers[sender].sign(msg.signed_payload())
            msg.sender = sender
            out.append(msg)
        return out

    def test_quorum_switches_mode(self):
        verifier, rt, registry, signers = make_verifier()
        for msg in self.switch_msgs(signers, epoch=1):
            rt.deliver(msg)
        assert verifier.executor_mode
        assert verifier.role_epoch == 1

    def test_duplicate_sender_votes_insufficient(self):
        verifier, rt, registry, signers = make_verifier()
        (msg,) = self.switch_msgs(signers, epoch=1, senders=("v0",))
        rt.deliver(msg)
        rt.deliver(msg)
        assert not verifier.executor_mode
        assert verifier.role_epoch == 0

    def test_stale_epoch_quorum_ignored(self):
        """A full quorum for an epoch the verifier already moved past
        must not roll the role back (delayed/replayed switch traffic)."""
        verifier, rt, registry, signers = make_verifier()
        for msg in self.switch_msgs(signers, epoch=2, to_executor=True):
            rt.deliver(msg)
        assert verifier.executor_mode and verifier.role_epoch == 2
        # stale epoch-1 quorum arrives late, voting the opposite way
        for msg in self.switch_msgs(signers, epoch=1, to_executor=False):
            rt.deliver(msg)
        assert verifier.executor_mode
        assert verifier.role_epoch == 2

    def test_same_epoch_replay_ignored(self):
        verifier, rt, registry, signers = make_verifier()
        for msg in self.switch_msgs(signers, epoch=1, to_executor=True):
            rt.deliver(msg)
        for msg in self.switch_msgs(signers, epoch=1, to_executor=False):
            rt.deliver(msg)
        assert verifier.executor_mode  # the replayed epoch cannot re-decide

    def test_executor_mode_verifier_executes_assignments(self):
        """After a switch, the verifier's embedded engine accepts
        assignments naming it as executor."""
        verifier, rt, registry, signers = make_verifier()
        for msg in self.switch_msgs(signers, epoch=1):
            rt.deliver(msg)
        task = make_compute_task(7).with_timestamp(0)
        a = Assignment(task=task, executor="v3", vp_index=1, attempt=0)
        for m in signed_assignment_msgs(signers, a, ("v0", "v1")):
            rt.deliver(m)
        rt.drain()
        assert verifier.engine.tasks_executed == 1
