"""PBFT-style 3f+1 consensus over plain authenticated channels.

The paper's protocols need 2f+1-member sub-clusters only when a
non-equivocating multicast primitive exists; "for situations where
non-equivocating multicast is not available, OsirisBFT can operate with
3f+1 processes in each sub-cluster" (Sec 3).  This module provides the
matching consensus: the classic three-phase pre-prepare / prepare /
commit pattern of PBFT [19], where the prepare round replaces the
primitive — 2f+1 matching prepares guarantee no conflicting proposal
can also gather a quorum.

:class:`PbftMember` is a :class:`~repro.consensus.fast_robust.
ConsensusMember` that differs only in how a slot gets certified: its
three message types, the 2f+1 quorum, a slot that also carries prepare
votes, a pre-prepare sent over plain channels, and the three phase
handlers.  The request pool, batching, in-order commit, progress timer
and view change are the base class's, so deployments swap engines via
``OsirisConfig.non_equivocation``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.consensus.fast_robust import ConsensusMember, _Slot
from repro.consensus.messages import CsRequest, CsViewChange
from repro.crypto.digest import digest
from repro.crypto.signatures import sign_cost, verify_cost
from repro.errors import ConsensusError
from repro.net.message import Message

__all__ = ["PbftMember", "PbftPrePrepare", "PbftPrepare", "PbftCommit"]


@dataclass
class PbftPrePrepare(Message):
    view: int = 0
    seq: int = 0
    batch: tuple = ()
    sig: object = None

    def payload_bytes(self) -> int:
        return sum(size for _, _, size in self.batch) + 96

    @staticmethod
    def signed_payload(view: int, seq: int, bd: bytes) -> list:
        return ["pbft-preprepare", view, seq, bd]


@dataclass
class PbftPrepare(Message):
    view: int = 0
    seq: int = 0
    batch_digest: bytes = b""
    sig: object = None

    def payload_bytes(self) -> int:
        return 96

    @staticmethod
    def signed_payload(view: int, seq: int, bd: bytes) -> list:
        return ["pbft-prepare", view, seq, bd]


@dataclass
class PbftCommit(Message):
    view: int = 0
    seq: int = 0
    batch_digest: bytes = b""
    sig: object = None

    def payload_bytes(self) -> int:
        return 96

    @staticmethod
    def signed_payload(view: int, seq: int, bd: bytes) -> list:
        return ["pbft-commit", view, seq, bd]


@dataclass
class _PbftSlot(_Slot):
    """A slot whose ``acks`` are commit votes, certified by prepares first."""

    prepares: set[str] = field(default_factory=set)
    prepared: bool = False

    def reset_votes(self) -> None:
        super().reset_votes()
        self.prepares = set()
        self.prepared = False


class PbftMember(ConsensusMember):
    """One member of a 3f+1 consensus group (API-compatible with
    :class:`ConsensusMember`)."""

    proposal_type = PbftPrePrepare
    handled = (CsRequest, PbftPrePrepare, PbftPrepare, PbftCommit, CsViewChange)
    slot_type = _PbftSlot

    def __init__(self, host, registry, signer, group, *args, **kwargs) -> None:
        if len(group.members) < 3 * group.f + 1:
            raise ConsensusError(
                f"PBFT needs 3f+1 members, got {len(group.members)} for f={group.f}"
            )
        super().__init__(host, registry, signer, group, *args, **kwargs)
        # 2f+1 of 3f+1 certify a proposal and commit it; 2f+1 view-change
        # votes intersect any commit quorum in a correct member
        self.quorum = 2 * group.f + 1

    def _broadcast_propose(self, msg: PbftPrePrepare) -> None:
        """Plain sends to the group; the leader accepts its own
        pre-prepare without verifying it."""
        if msg.view != self.view:
            self._reclaim(msg.batch)
            return
        self._multicast(msg)
        self._accept_preprepare(msg, 0.0)

    # ------------------------------------------------------------- phases
    def _on_pbftpreprepare(self, msg: PbftPrePrepare) -> None:
        if msg.view < self.view:
            self._reclaim(msg.batch)
            return
        if msg.view > self.view:
            return  # wait for the view-change quorum instead
        if msg.sender != self.group.leader_at(msg.view):
            return
        bd = digest([rid for rid, _, _ in msg.batch])
        if msg.sig is None or not self.registry.verify(
            PbftPrePrepare.signed_payload(msg.view, msg.seq, bd), msg.sig
        ):
            return
        self._accept_preprepare(msg, verify_cost(1))

    def _accept_preprepare(self, msg: PbftPrePrepare, verify: float) -> None:
        bd = digest([rid for rid, _, _ in msg.batch])
        slot = self._slots.get(msg.seq)
        if slot is not None and slot.view == msg.view and slot.batch_digest != bd:
            return  # equivocating leader: refuse the second proposal
        if self._install(msg, bd):
            self.host.run_ctrl_job(
                verify + sign_cost(1),
                self._vote, PbftPrepare, self._record_prepare, msg.view, msg.seq, bd,
            )

    def _on_pbftprepare(self, msg: PbftPrepare) -> None:
        if self._valid_vote(msg):
            self._record_prepare(msg.sender, msg.view, msg.seq, msg.batch_digest)

    def _record_prepare(self, pid: str, view: int, seq: int, bd: bytes) -> None:
        slot = self._slots.get(seq)
        if slot is None or slot.committed or slot.prepared:
            return
        if slot.view != view or slot.batch_digest != bd:
            return
        slot.prepares.add(pid)
        if len(slot.prepares) >= self.quorum:
            slot.prepared = True
            self.host.run_ctrl_job(
                sign_cost(1),
                self._vote, PbftCommit, self._record_ack, view, seq, bd,
            )

    #: a commit vote is checked and counted as the base engine's ack is
    _on_pbftcommit = ConsensusMember._on_csack
