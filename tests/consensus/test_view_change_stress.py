"""Stress tests for view changes: no request is ever lost or delivered
twice, even when leaders are deposed mid-stream with proposals in
flight (the state-transfer + reclaim machinery)."""

import pytest

from repro.consensus import ConsensusClient, ConsensusMember, PbftMember
from repro.consensus.messages import CsPropose
from repro.consensus.pbft import PbftPrePrepare
from repro.crypto import KeyRegistry
from repro.crypto.digest import digest
from repro.net import Network, SubCluster, SynchronyModel
from repro.runtime.core import ProtocolCore
from repro.runtime.des import DesHost
from repro.sim import Simulator
from tests.consensus.test_pbft import make_group as make_pbft_group


class Host(ProtocolCore):
    def __init__(self, pid):
        super().__init__(pid)
        self.delivered = []  # rids in delivery order

    def record(self, seq, batch):
        for rid, _, _ in batch:
            self.delivered.append(rid)


def make_group(f=1, seed=3, slow_cpu=False, **kwargs):
    sim = Simulator(seed=seed)
    net = Network(sim, synchrony=SynchronyModel())
    registry = KeyRegistry()
    n = 2 * f + 1
    group = SubCluster(index=0, members=tuple(f"v{i}" for i in range(n)), f=f)
    hosts, members = [], []
    for pid in group.members:
        host = Host(pid)
        net.register(DesHost(sim, net, host, cores=1))
        members.append(
            ConsensusMember(
                host, registry, registry.register(pid), group,
                on_commit=host.record, **kwargs,
            )
        )
        hosts.append(host)
    cp = Host("client")
    net.register(DesHost(sim, net, cp, cores=1))
    return sim, net, hosts, members, ConsensusClient(cp, group)


def cpu_contention_does_not_lose_requests(make):
    sim, net, hosts, members, client = make(
        seed=3, base_view_timeout=10e-3  # hair-trigger view changes
    )
    # saturate the app cores so any protocol work queued there stalls
    for host in hosts:
        for _ in range(50):
            host.run_job(0.5, lambda: None)
    for i in range(200):
        sim.schedule(
            i * 0.001, lambda i=i: client.submit({"op": i})
        )
    sim.run(until=60.0)
    for host in hosts:
        assert len(host.delivered) == 200, host.pid
        assert len(set(host.delivered)) == 200


def repeated_leader_crashes(make):
    sim, net, hosts, members, client = make(f=2, seed=9)
    for i in range(60):
        sim.schedule(i * 0.01, lambda i=i: client.submit({"op": i}))
    sim.schedule(0.2, hosts[0].crash)
    sim.schedule(1.5, hosts[1].crash)
    sim.run(until=60.0)
    survivors = hosts[2:]
    for host in survivors:
        assert len(host.delivered) == 60, host.pid
        assert len(set(host.delivered)) == 60
        assert host.delivered == survivors[0].delivered


def exactly_once_delivery_under_view_churn(make):
    sim, net, hosts, members, client = make(
        seed=5, base_view_timeout=5e-3, batch_delay=2e-3
    )
    for i in range(100):
        sim.schedule(i * 0.002, lambda i=i: client.submit({"op": i}))
    sim.run(until=30.0)
    for host in hosts:
        assert sorted(host.delivered) == sorted(set(host.delivered))
        assert len(host.delivered) == 100


def agreement_on_order_always(make):
    sim, net, hosts, members, client = make(seed=11, base_view_timeout=8e-3)
    for host in hosts:
        for _ in range(20):
            host.run_job(0.2, lambda: None)
    for i in range(80):
        sim.schedule(i * 0.003, lambda i=i: client.submit({"op": i}))
    sim.run(until=30.0)
    for host in hosts:
        assert host.delivered == hosts[0].delivered


class TestNoLossUnderViewChanges:
    def test_cpu_contention_does_not_lose_requests(self):
        """Long app jobs on member CPUs once starved the protocol and
        view-change churn dropped batches; the control core plus state
        transfer must deliver everything exactly once."""
        cpu_contention_does_not_lose_requests(make_group)

    def test_repeated_leader_crashes(self):
        """Crash each leader in turn; survivors agree on a complete,
        duplicate-free, identically-ordered history."""
        repeated_leader_crashes(make_group)

    def test_exactly_once_delivery_under_view_churn(self):
        """Tiny view timeout forces many view changes; re-proposals must
        dedupe at commit."""
        exactly_once_delivery_under_view_churn(make_group)

    def test_agreement_on_order_always(self):
        agreement_on_order_always(make_group)


class TestPbftNoLossUnderViewChanges:
    """The same schedules on the 3f+1 engine, whose view change is the
    one the 2f+1 engine runs."""

    def test_cpu_contention_does_not_lose_requests(self):
        cpu_contention_does_not_lose_requests(make_pbft_group)

    def test_repeated_leader_crashes(self):
        repeated_leader_crashes(make_pbft_group)

    def test_exactly_once_delivery_under_view_churn(self):
        exactly_once_delivery_under_view_churn(make_pbft_group)

    def test_agreement_on_order_always(self):
        agreement_on_order_always(make_pbft_group)


ENGINES = pytest.mark.parametrize(
    "engine, make, proposal",
    [
        (ConsensusMember, make_group, CsPropose),
        (PbftMember, make_pbft_group, PbftPrePrepare),
    ],
    ids=["fast-robust", "pbft"],
)


class TestViewChangeVotes:
    @ENGINES
    def test_stale_view_proposal_rearms_progress_timer(
        self, engine, make, proposal
    ):
        """A request reclaimed from a stale-view proposal is pending
        again, so the progress timer must run to move a stuck view on."""
        sim, net, hosts, members, client = make()
        i, m = next(
            (i, m) for i, m in enumerate(members)
            if m.group.leader_at(1) != m.host.pid and i != 0
        )
        m._enter_view(1)
        assert not hosts[i].timer_armed("cs-progress")
        batch = (("late#1", {"op": 1}, 0),)
        sig = members[0].signer.sign(
            proposal.signed_payload(0, 1, digest(["late#1"]))
        )
        msg = proposal(view=0, seq=1, batch=batch, sig=sig)
        msg.sender = "v0"
        msg._neq = True  # as if through the primitive
        hosts[i].handle(msg)
        assert "late#1" in m._pending
        assert hosts[i].timer_armed("cs-progress")

    @ENGINES
    def test_new_view_commits_only_on_its_own_votes(
        self, engine, make, proposal
    ):
        """Votes a slot gathered in an old view do not count towards its
        re-proposal: the new leader, alone, must not commit it."""
        sim, net, hosts, members, client = make()
        m = members[1]
        assert m.group.leader_at(1) == m.host.pid
        others = set(m.group.members) - {m.host.pid}
        slot = m.slot_type(view=0, batch=(), batch_digest=digest([]))
        for votes in ("acks", "prepares"):
            if hasattr(slot, votes):
                setattr(slot, votes, set(others))
        m._slots[1] = slot
        m._top_seq = 1
        for host in hosts:
            if host is not hosts[1]:
                host.crash()
        m._enter_view(1)
        sim.run(until=1.0)
        assert m.committed_seq == 0


class TestStateTransfer:
    def test_view_change_messages_carry_uncommitted_slots(self):
        sim, net, hosts, members, client = make_group()
        # stall commits by crashing everyone else after a proposal lands
        client.submit({"op": 1})
        sim.run(until=0.002)
        slots = members[0]._uncommitted_slots()
        # shape check: tuples of (seq, view, batch, digest)
        for seq, view, batch, bd in slots:
            assert isinstance(seq, int) and isinstance(view, int)
            assert isinstance(bd, bytes)

    def test_empty_gap_slots_commit_as_noops(self):
        """After a view change fills sequence gaps with empty batches,
        commits stay contiguous and callbacks skip empty deliveries."""
        sim, net, hosts, members, client = make_group(seed=13)
        hosts[0].crash()  # leader of view 0
        for i in range(10):
            sim.schedule(i * 0.01, lambda i=i: client.submit({"op": i}))
        sim.run(until=20.0)
        for host in hosts[1:]:
            assert len(host.delivered) == 10
        # committed sequence is contiguous on survivors
        for member in members[1:]:
            assert member.committed_seq >= 1


class TestProgressCheck:
    """The progress timer's "anything uncommitted?" reads the highest slot
    seq against ``committed_seq``; at every decision it must answer as a
    scan of every slot would, through commits and a view change."""

    @pytest.mark.parametrize(
        "engine, make",
        [(ConsensusMember, make_group), (PbftMember, make_pbft_group)],
        ids=["fast-robust", "pbft"],
    )
    def test_answers_as_the_slot_scan(self, engine, make, monkeypatch):
        answers = []

        def check(decide):
            def checked(self):
                scan = any(not s.committed for s in self._slots.values())
                assert self._has_uncommitted() == scan
                answers.append(scan)
                return decide(self)

            return checked

        for name in ("_arm_progress_timer", "_on_stall"):
            monkeypatch.setattr(engine, name, check(getattr(engine, name)))
        sim, net, hosts, members, client = make(
            seed=13, max_batch=1, batch_delay=1e-6
        )
        for i in range(60):
            sim.schedule(i * 0.001, lambda i=i: client.submit({"op": i}))
        sim.schedule(0.02, hosts[0].crash)  # the view-0 leader
        sim.run(until=20.0)
        for host in hosts[1:]:
            assert len(host.delivered) == 60
        assert all(m.view >= 1 for m in members[1:])
        assert True in answers and False in answers
        # state transfer: a view-change quorum reports a slot above any
        # this member has seen
        m = members[1]
        view = next(
            v for v in range(m.view + 1, m.view + 9)
            if m.group.leader_at(v) != m.host.pid
        )
        slot = (m.committed_seq + 5, view - 1, (), b"d")
        m._vc_votes[view] = {pid: (slot,) for pid in m.group.members}
        m._enter_view(view)
        assert answers[-1] is True
