"""PBFT-style 3f+1 consensus over plain authenticated channels.

The paper's protocols need 2f+1-member sub-clusters only when a
non-equivocating multicast primitive exists; "for situations where
non-equivocating multicast is not available, OsirisBFT can operate with
3f+1 processes in each sub-cluster" (Sec 3).  This module provides the
matching consensus: the classic three-phase pre-prepare / prepare /
commit pattern of PBFT [19], where the prepare round replaces the
primitive — 2f+1 matching prepares guarantee no conflicting proposal
can also gather a quorum.

The interface mirrors :class:`~repro.consensus.fast_robust.
ConsensusMember` so deployments swap implementations via
``OsirisConfig.non_equivocation``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.consensus.messages import CsRequest, CsViewChange
from repro.crypto.digest import digest
from repro.crypto.signatures import KeyRegistry, Signer, sign_cost, verify_cost
from repro.errors import ConsensusError
from repro.net.message import Message
from repro.net.topology import SubCluster
from repro.obs.events import CATEGORY_CONSENSUS, ConsensusCommit, ViewChange
from repro.runtime.core import ProtocolCore

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
class _Slot:
    view: int
    batch: tuple
    batch_digest: bytes
    prepares: set[str] = field(default_factory=set)
    commits: set[str] = field(default_factory=set)
    prepared: bool = False
    committed: bool = False


class PbftMember:
    """One member of a 3f+1 consensus group (API-compatible with
    :class:`ConsensusMember`)."""

    def __init__(
        self,
        host: ProtocolCore,
        registry: KeyRegistry,
        signer: Signer,
        group: SubCluster,
        on_commit: Callable[[int, tuple], None],
        validate: Optional[Callable[[Any], bool]] = None,
        batch_delay: float = 0.5e-3,
        base_view_timeout: float = 50e-3,
        max_batch: int = 512,
    ) -> None:
        if len(group.members) < 3 * group.f + 1:
            raise ConsensusError(
                f"PBFT needs 3f+1 members, got {len(group.members)} for f={group.f}"
            )
        if host.pid not in group.members:
            raise ConsensusError(f"{host.pid} not in group")
        self.host = host
        self.registry = registry
        self.signer = signer
        self.group = group
        self.on_commit = on_commit
        self.validate = validate
        self.batch_delay = batch_delay
        self.base_view_timeout = base_view_timeout
        self.max_batch = max_batch

        self.view = 0
        self.committed_seq = 0
        self._next_seq = 1
        self._slots: dict[int, _Slot] = {}
        #: highest seq in ``_slots``: slots commit in seq order, so the
        #: uncommitted ones are exactly those above ``committed_seq``
        self._top_seq = 0
        self._pending: dict[str, tuple[Any, int]] = {}
        self._proposed_ids: set[str] = set()
        self._committed_ids: set[str] = set()
        self._vc_votes: dict[int, dict[str, tuple]] = {}
        self._flush_armed = False
        self.commits = 0

        host.register_handler("CsRequest", self._on_csrequest)
        host.register_handler("PbftPrePrepare", self._on_preprepare)
        host.register_handler("PbftPrepare", self._on_prepare)
        host.register_handler("PbftCommit", self._on_commit_msg)
        host.register_handler("CsViewChange", self._on_viewchange)

    # ----------------------------------------------------------- quorums
    @property
    def prepare_quorum(self) -> int:
        """2f+1 matching prepares (incl. own) certify the proposal."""
        return 2 * self.group.f + 1

    @property
    def commit_quorum(self) -> int:
        return 2 * self.group.f + 1

    @property
    def leader(self) -> str:
        return self.group.leader_at(self.view)

    @property
    def is_leader(self) -> bool:
        return self.leader == self.host.pid

    def _timeout(self) -> float:
        return self.base_view_timeout * (2 ** min(self.view, 10))

    def _multicast(self, msg) -> None:
        for pid in self.group.members:
            if pid != self.host.pid:
                self.host.send(pid, msg)

    # ----------------------------------------------------------- requests
    def submit_local(self, request_id: str, payload: Any, size: int = 0) -> None:
        self._admit(request_id, payload, size)

    def _on_csrequest(self, msg: CsRequest) -> None:
        self._admit(msg.request_id, msg.payload, msg.payload_size)

    def _admit(self, rid: str, payload: Any, size: int) -> None:
        if (
            rid in self._pending
            or rid in self._proposed_ids
            or rid in self._committed_ids
        ):
            return
        if self.validate is not None and not self.validate(payload):
            return
        self._pending[rid] = (payload, size)
        if self.is_leader:
            self._arm_flush()
        self._arm_progress_timer()

    def _reclaim(self, batch: tuple) -> None:
        for rid, payload, size in batch:
            if rid in self._committed_ids or rid in self._pending:
                continue
            self._proposed_ids.discard(rid)
            self._pending[rid] = (payload, size)
        if self._pending and self.is_leader:
            self._arm_flush()

    def _arm_flush(self) -> None:
        if not self._flush_armed:
            self._flush_armed = True
            self.host.set_timer("pbft-flush", self.batch_delay, self._flush)

    def _flush(self) -> None:
        self._flush_armed = False
        if not self.is_leader or not self._pending:
            return
        items = []
        for rid in list(self._pending)[: self.max_batch]:
            payload, size = self._pending.pop(rid)
            items.append((rid, payload, size))
            self._proposed_ids.add(rid)
        seq = self._next_seq
        self._next_seq += 1
        self._propose(self.view, seq, tuple(items))
        if self._pending:
            self._arm_flush()

    def _propose(self, view: int, seq: int, batch: tuple) -> None:
        bd = digest([rid for rid, _, _ in batch])
        sig = self.signer.sign(PbftPrePrepare.signed_payload(view, seq, bd))
        msg = PbftPrePrepare(view=view, seq=seq, batch=batch, sig=sig)
        self.host.run_ctrl_job(
            sign_cost(1),
            lambda: (
                self._reclaim(msg.batch)
                if msg.view != self.view
                else (self._multicast(msg), self._accept_preprepare(msg, local=True))
            ),
        )

    # ------------------------------------------------------------- phases
    def _on_preprepare(self, msg: PbftPrePrepare) -> None:
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
        self._accept_preprepare(msg, local=False)

    def _accept_preprepare(self, msg: PbftPrePrepare, local: bool) -> None:
        bd = digest([rid for rid, _, _ in msg.batch])
        slot = self._slots.get(msg.seq)
        if slot is not None and slot.committed:
            return
        if slot is not None and slot.view == msg.view and slot.batch_digest != bd:
            return  # equivocating leader: refuse the second proposal
        if slot is not None and slot.batch_digest != bd:
            self._reclaim(slot.batch)
        if self.validate is not None:
            kept = tuple(i for i in msg.batch if self.validate(i[1]))
        else:
            kept = msg.batch
        for rid, _, _ in msg.batch:
            self._pending.pop(rid, None)
            self._proposed_ids.add(rid)
        keep_votes = (
            slot is not None
            and slot.view == msg.view
            and slot.batch_digest == bd
        )
        self._slots[msg.seq] = _Slot(
            view=msg.view,
            batch=kept,
            batch_digest=bd,
            prepares=slot.prepares if keep_votes else set(),
            commits=slot.commits if keep_votes else set(),
        )
        self._top_seq = max(self._top_seq, msg.seq)
        cost = (0 if local else verify_cost(1)) + sign_cost(1)
        self.host.run_ctrl_job(cost, self._send_prepare, msg.view, msg.seq, bd)

    def _send_prepare(self, view: int, seq: int, bd: bytes) -> None:
        sig = self.signer.sign(PbftPrepare.signed_payload(view, seq, bd))
        self._multicast(PbftPrepare(view=view, seq=seq, batch_digest=bd, sig=sig))
        self._record_prepare(self.host.pid, view, seq, bd)

    def _on_prepare(self, msg: PbftPrepare) -> None:
        if msg.sender not in self.group.members:
            return
        if msg.sig is None or not self.registry.verify(
            PbftPrepare.signed_payload(msg.view, msg.seq, msg.batch_digest),
            msg.sig,
        ):
            return
        self._record_prepare(msg.sender, msg.view, msg.seq, msg.batch_digest)

    def _record_prepare(self, pid: str, view: int, seq: int, bd: bytes) -> None:
        slot = self._slots.get(seq)
        if slot is None or slot.committed or slot.prepared:
            return
        if slot.view != view or slot.batch_digest != bd:
            return
        slot.prepares.add(pid)
        if len(slot.prepares) >= self.prepare_quorum:
            slot.prepared = True
            sig = self.signer.sign(PbftCommit.signed_payload(view, seq, bd))
            self.host.run_ctrl_job(
                sign_cost(1),
                lambda: (
                    self._multicast(
                        PbftCommit(view=view, seq=seq, batch_digest=bd, sig=sig)
                    ),
                    self._record_commit(self.host.pid, view, seq, bd),
                ),
            )

    def _on_commit_msg(self, msg: PbftCommit) -> None:
        if msg.sender not in self.group.members:
            return
        if msg.sig is None or not self.registry.verify(
            PbftCommit.signed_payload(msg.view, msg.seq, msg.batch_digest),
            msg.sig,
        ):
            return
        self._record_commit(msg.sender, msg.view, msg.seq, msg.batch_digest)

    def _record_commit(self, pid: str, view: int, seq: int, bd: bytes) -> None:
        slot = self._slots.get(seq)
        if slot is None or slot.committed:
            return
        if slot.batch_digest != bd:
            return
        slot.commits.add(pid)
        self._try_commit()

    def _try_commit(self) -> None:
        while True:
            slot = self._slots.get(self.committed_seq + 1)
            if slot is None or slot.committed:
                return
            if len(slot.commits) < self.commit_quorum:
                return
            slot.committed = True
            self.committed_seq += 1
            self.commits += 1
            fresh = tuple(
                item for item in slot.batch if item[0] not in self._committed_ids
            )
            for rid, _, _ in slot.batch:
                self._committed_ids.add(rid)
                self._pending.pop(rid, None)
                self._proposed_ids.discard(rid)
            self._arm_progress_timer()
            if self.host.wants(CATEGORY_CONSENSUS):
                self.host.emit(
                    ConsensusCommit(
                        time=self.host.now,
                        pid=self.host.pid,
                        seq=self.committed_seq,
                        batch=len(slot.batch),
                    )
                )
            if fresh:
                self.on_commit(self.committed_seq, fresh)

    # --------------------------------------------------------- view change
    def _arm_progress_timer(self) -> None:
        if self._pending or self._has_uncommitted():
            self.host.set_timer("pbft-progress", self._timeout(), self._on_stall)
        else:
            self.host.cancel_timer("pbft-progress")

    def _has_uncommitted(self) -> bool:
        return self._top_seq > self.committed_seq

    def _uncommitted_slots(self) -> tuple:
        # report *prepared* slots (could have committed somewhere) plus
        # pre-prepared ones; the new leader re-proposes them
        return tuple(
            (seq, s.view, s.batch, s.batch_digest)
            for seq, s in sorted(self._slots.items())
            if not s.committed
        )

    def _on_stall(self) -> None:
        if not self._pending and not self._has_uncommitted():
            return
        new_view = self.view + 1
        sig = self.signer.sign(
            CsViewChange.signed_payload(new_view, self.committed_seq)
        )
        msg = CsViewChange(
            new_view=new_view,
            committed_seq=self.committed_seq,
            slots=self._uncommitted_slots(),
            sig=sig,
        )
        self._multicast(msg)
        self._record_vc(self.host.pid, new_view, msg.slots)
        self.host.set_timer("pbft-progress", self._timeout(), self._on_stall)

    def _on_viewchange(self, msg: CsViewChange) -> None:
        if msg.sender not in self.group.members or msg.new_view <= self.view:
            return
        if msg.sig is None or not self.registry.verify(
            CsViewChange.signed_payload(msg.new_view, msg.committed_seq),
            msg.sig,
        ):
            return
        self._record_vc(msg.sender, msg.new_view, msg.slots)

    def _record_vc(self, pid: str, new_view: int, slots: tuple) -> None:
        votes = self._vc_votes.setdefault(new_view, {})
        votes[pid] = slots
        # 2f+1 votes guarantee intersection with any commit quorum in a
        # correct member — the classic PBFT bound
        if len(votes) >= self.commit_quorum and new_view > self.view:
            self._enter_view(new_view)

    def _enter_view(self, new_view: int) -> None:
        for slots in self._vc_votes.get(new_view, {}).values():
            for seq, view, batch, bd in slots:
                if seq <= self.committed_seq:
                    continue
                mine = self._slots.get(seq)
                if mine is not None and (mine.committed or mine.view >= view):
                    continue
                if mine is not None and mine.batch_digest != bd:
                    self._reclaim(mine.batch)
                self._slots[seq] = _Slot(view=view, batch=batch, batch_digest=bd)
                self._top_seq = max(self._top_seq, seq)
        self.view = new_view
        if self.host.wants(CATEGORY_CONSENSUS):
            self.host.emit(
                ViewChange(
                    time=self.host.now, pid=self.host.pid, view=new_view
                )
            )
        self._vc_votes = {v: p for v, p in self._vc_votes.items() if v > new_view}
        if self.is_leader:
            self._next_seq = max(
                [self.committed_seq, self._next_seq - 1] + list(self._slots)
            ) + 1
            for seq in sorted(self._slots):
                slot = self._slots[seq]
                if slot.committed:
                    continue
                slot.view = self.view
                slot.prepares = set()
                slot.commits = set()
                slot.prepared = False
                self._propose(self.view, seq, slot.batch)
            for seq in range(self.committed_seq + 1, self._next_seq):
                if seq not in self._slots:
                    self._propose(self.view, seq, ())
            if self._pending:
                self._arm_flush()
        else:
            for slot in self._slots.values():
                if not slot.committed:
                    slot.prepares = set()
                    slot.commits = set()
                    slot.prepared = False
        self._arm_progress_timer()
