"""Leader-based 2f+1 BFT consensus over non-equivocating multicast.

This is the reproduction of the "Fast & Robust" algorithm of Aguilera et
al. [3] that the paper's VP_CO uses to linearize tasks (Sec 5.1.1,
Lemma 6.1).  The 2f+1 bound (instead of 3f+1) is achievable because
proposals travel over a non-equivocating multicast primitive (Sec 3):
conflicting proposals for the same slot simply cannot exist, so an f+1
acknowledgment quorum suffices.

Protocol sketch
---------------
* Clients send ``CsRequest`` to **all** members (robust to a faulty
  leader swallowing requests).
* The view's leader batches pending requests and emits
  ``CsPropose(view, seq, batch)`` via :meth:`Network.neq_multicast`.
  Members only accept proposals that arrived through the primitive.
* Members verify the leader signature and send a signed ``CsAck`` to
  every member.  Protocol work runs on the dedicated control core so it
  never queues behind application jobs.
* A member **commits** slot ``seq`` once it holds f+1 matching acks and
  every lower slot is committed; the commit callback then fires with the
  batch, in slot order — identically on every correct member.  Delivery
  is deduplicated per request id, so a request re-proposed across view
  changes is still delivered exactly once.
* Liveness: a member holding uncommitted work expects progress within a
  timeout (doubling per view); otherwise it votes ``CsViewChange``,
  attaching its uncommitted slots (state transfer).  f+1 votes move the
  group to the next view, whose leader merges the reported slots with
  its own, re-proposes them at their original sequence numbers, and
  resumes batching.  Any batch displaced by a stale-view drop or a slot
  overwrite is *reclaimed* into the pending pool rather than lost.

The log is written once: :class:`~repro.consensus.pbft.PbftMember`
subclasses :class:`ConsensusMember` and replaces only how a slot gets
certified (its message types, quorum, slot votes, broadcast and phase
handlers).  The request pool, batching, reclaim, in-order commit, the
progress timer and the view change with its state transfer and gap fill
serve both engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from repro.crypto.digest import digest
from repro.crypto.signatures import KeyRegistry, Signer, sign_cost, verify_cost
from repro.errors import ConsensusError
from repro.net.topology import SubCluster
from repro.consensus.messages import CsAck, CsPropose, CsRequest, CsViewChange
from repro.obs.events import CATEGORY_CONSENSUS, ConsensusCommit, ViewChange
from repro.runtime.core import ProtocolCore

__all__ = ["ConsensusMember", "ConsensusClient"]


@dataclass
class _Slot:
    view: int
    batch: tuple
    batch_digest: bytes
    #: the votes that commit the slot once ``quorum`` of them match
    acks: set[str] = field(default_factory=set)
    committed: bool = False

    def reset_votes(self) -> None:
        """Forget this view's votes: the new view's leader re-proposes."""
        self.acks = set()


class ConsensusMember:
    """One member's consensus state machine.

    Parameters
    ----------
    host:
        The protocol core embedding this member; handlers are registered
        on the host's dispatch table (``CsRequest`` etc.) and every
        effect the engine performs routes through the host's runtime.
    on_commit:
        ``on_commit(seq, batch)`` invoked in strict slot order; ``batch``
        is a tuple of ``(request_id, payload, payload_size)`` containing
        only requests not delivered before.
    validate:
        Optional request validator (the coordinator rejects invalid tasks
        at the door, Algorithm 3 line 3).  Items failing validation are
        dropped from batches; must be deterministic.
    """

    #: the leader's signed proposal message
    proposal_type = CsPropose
    #: messages this engine handles, each by ``_on_<name in lower case>``
    handled = (CsRequest, CsPropose, CsAck, CsViewChange)
    slot_type = _Slot

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
        if signer.pid != host.pid:
            raise ConsensusError("signer must belong to the hosting process")
        if host.pid not in group.members:
            raise ConsensusError(f"{host.pid} is not a member of the group")
        self.host = host
        self.registry = registry
        self.signer = signer
        self.group = group
        self.on_commit = on_commit
        self.validate = validate
        self.batch_delay = batch_delay
        self.base_view_timeout = base_view_timeout
        self.max_batch = max_batch
        #: matching votes that commit a slot, and view-change votes that
        #: move the group on
        self.quorum = group.quorum

        self.view = 0
        self.committed_seq = 0
        self._next_seq = 1  # leader-only: next slot to propose
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

        for cls in self.handled:
            host.register_handler(
                cls.__name__, getattr(self, "_on_" + cls.__name__.lower())
            )

    # ------------------------------------------------------------ utilities
    @property
    def leader(self) -> str:
        """Leader pid of the current view."""
        return self.group.leader_at(self.view)

    @property
    def is_leader(self) -> bool:
        return self.leader == self.host.pid

    def _timeout(self) -> float:
        # exponential backoff across views so liveness holds once the
        # timeout exceeds post-GST latency
        return self.base_view_timeout * (2 ** min(self.view, 10))

    def _multicast(self, msg) -> None:
        for pid in self.group.members:
            if pid != self.host.pid:
                self.host.send(pid, msg)

    # -------------------------------------------------------------- requests
    def submit_local(self, request_id: str, payload: Any, size: int = 0) -> None:
        """Inject a request from the hosting process itself."""
        self._admit(request_id, payload, size)

    def _on_csrequest(self, msg: CsRequest) -> None:
        self._admit(msg.request_id, msg.payload, msg.payload_size)

    def _admit(self, request_id: str, payload: Any, size: int) -> None:
        if (
            request_id in self._pending
            or request_id in self._proposed_ids
            or request_id in self._committed_ids
        ):
            return
        if self.validate is not None and not self.validate(payload):
            return
        self._pending[request_id] = (payload, size)
        if self.is_leader:
            self._arm_flush()
        self._arm_progress_timer()

    def _reclaim(self, batch: tuple) -> None:
        """Return displaced batch items to the pending pool."""
        changed = False
        for rid, payload, size in batch:
            if rid in self._committed_ids or rid in self._pending:
                continue
            self._proposed_ids.discard(rid)
            self._pending[rid] = (payload, size)
            changed = True
        if changed:
            if self.is_leader:
                self._arm_flush()
            self._arm_progress_timer()

    def _arm_flush(self) -> None:
        if not self._flush_armed:
            self._flush_armed = True
            self.host.set_timer("cs-flush", self.batch_delay, self._flush)

    def _flush(self) -> None:
        self._flush_armed = False
        if not self.is_leader or not self._pending:
            return
        items = []
        for rid in list(self._pending)[: self.max_batch]:
            payload, size = self._pending[rid]
            items.append((rid, payload, size))
            self._proposed_ids.add(rid)
            del self._pending[rid]
        batch = tuple(items)
        seq = self._next_seq
        self._next_seq += 1
        self._propose(self.view, seq, batch)
        if self._pending:
            self._arm_flush()

    def _propose(self, view: int, seq: int, batch: tuple) -> None:
        bd = digest([rid for rid, _, _ in batch])
        sig = self.signer.sign(self.proposal_type.signed_payload(view, seq, bd))
        msg = self.proposal_type(view=view, seq=seq, batch=batch, sig=sig)
        self.host.run_ctrl_job(sign_cost(1), self._broadcast_propose, msg)

    def _broadcast_propose(self, msg: CsPropose) -> None:
        if msg.view != self.view:
            # deposed while the signing job was queued: reclaim the batch
            self._reclaim(msg.batch)
            return
        self.host.neq_multicast(self.group.members, msg)

    # -------------------------------------------------------------- proposal
    def _on_cspropose(self, msg: CsPropose) -> None:
        if not getattr(msg, "_neq", False):
            return  # equivocable channel: proposals must use the primitive
        if msg.view != self.view:
            if msg.view < self.view:
                # stale view: the batch still holds live client requests
                self._reclaim(msg.batch)
                return
            # a proposal from a newer view implies f+1 members moved on
            # (only the new leader proposes); adopt it.
            self._enter_view(msg.view)
        if msg.sender != self.group.leader_at(msg.view):
            return
        bd = digest([rid for rid, _, _ in msg.batch])
        if msg.sig is None or not self.registry.verify(
            CsPropose.signed_payload(msg.view, msg.seq, bd), msg.sig
        ):
            return
        if self._install(msg, bd):
            self.host.run_ctrl_job(
                verify_cost(1) + sign_cost(1), self._send_ack, msg.view, msg.seq, bd
            )

    def _install(self, msg: CsPropose, bd: bytes) -> bool:
        """Make ``msg``'s batch slot ``msg.seq``; False if that slot has
        already committed (a re-proposal after a view change)."""
        slot = self._slots.get(msg.seq)
        if slot is not None and slot.committed:
            return False
        if slot is not None and slot.batch_digest != bd:
            # overwritten by the new view's leader: keep the displaced
            # requests alive
            self._reclaim(slot.batch)
        for rid, _, _ in msg.batch:
            # the slot now owns these requests: stop counting them as
            # pending so a later leader doesn't double-propose them
            self._pending.pop(rid, None)
            self._proposed_ids.add(rid)
        if self.validate is not None:
            kept = tuple(item for item in msg.batch if self.validate(item[1]))
        else:
            kept = msg.batch
        if slot is not None and slot.view == msg.view and slot.batch_digest == bd:
            self._slots[msg.seq] = replace(slot, batch=kept)  # keeps the votes
        else:
            self._slots[msg.seq] = self.slot_type(
                view=msg.view, batch=kept, batch_digest=bd
            )
        self._top_seq = max(self._top_seq, msg.seq)
        return True

    def _send_ack(self, view: int, seq: int, bd: bytes) -> None:
        self._vote(CsAck, self._record_ack, view, seq, bd)

    def _vote(
        self, cls: type, record: Callable, view: int, seq: int, bd: bytes
    ) -> None:
        """Sign a ``cls`` vote for slot ``seq``, send it to the group and
        count our own through ``record``."""
        sig = self.signer.sign(cls.signed_payload(view, seq, bd))
        self._multicast(cls(view=view, seq=seq, batch_digest=bd, sig=sig))
        record(self.host.pid, view, seq, bd)

    def _valid_vote(self, msg: CsAck) -> bool:
        """``msg`` is a slot vote signed by the group member that sent it."""
        return (
            msg.sender in self.group.members
            and msg.sig is not None
            and self.registry.verify(
                type(msg).signed_payload(msg.view, msg.seq, msg.batch_digest),
                msg.sig,
            )
        )

    def _on_csack(self, msg: CsAck) -> None:
        if self._valid_vote(msg):
            self._record_ack(msg.sender, msg.view, msg.seq, msg.batch_digest)

    def _record_ack(self, pid: str, view: int, seq: int, bd: bytes) -> None:
        slot = self._slots.get(seq)
        if slot is None or slot.committed:
            return
        if slot.batch_digest != bd or slot.view != view:
            return
        slot.acks.add(pid)
        self._try_commit()

    def _try_commit(self) -> None:
        while True:
            slot = self._slots.get(self.committed_seq + 1)
            if slot is None or slot.committed:
                return
            if len(slot.acks) < self.quorum:
                return
            slot.committed = True
            self.committed_seq += 1
            self.commits += 1
            fresh = tuple(
                item
                for item in slot.batch
                if item[0] not in self._committed_ids
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

    # ------------------------------------------------------------ view change
    def _arm_progress_timer(self) -> None:
        if self._pending or self._has_uncommitted():
            self.host.set_timer("cs-progress", self._timeout(), self._on_stall)
        else:
            self.host.cancel_timer("cs-progress")

    def _has_uncommitted(self) -> bool:
        return self._top_seq > self.committed_seq

    def _uncommitted_slots(self) -> tuple:
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
        # keep trying if this view change doesn't go through either
        self.host.set_timer("cs-progress", self._timeout(), self._on_stall)

    def _on_csviewchange(self, msg: CsViewChange) -> None:
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
        if len(votes) >= self.quorum and new_view > self.view:
            self._enter_view(new_view)

    def _merge_reported_slots(self, new_view: int) -> None:
        """State transfer: adopt any uncommitted slot a view-change voter
        reported that we don't have (or have an older view of)."""
        for slots in self._vc_votes.get(new_view, {}).values():
            for seq, view, batch, bd in slots:
                if seq <= self.committed_seq:
                    continue
                mine = self._slots.get(seq)
                if mine is not None and (mine.committed or mine.view >= view):
                    continue
                if mine is not None and mine.batch_digest != bd:
                    self._reclaim(mine.batch)
                self._slots[seq] = self.slot_type(
                    view=view, batch=batch, batch_digest=bd
                )
                self._top_seq = max(self._top_seq, seq)

    def _enter_view(self, new_view: int) -> None:
        self._merge_reported_slots(new_view)
        self.view = new_view
        if self.host.wants(CATEGORY_CONSENSUS):
            self.host.emit(
                ViewChange(
                    time=self.host.now, pid=self.host.pid, view=new_view
                )
            )
        self._vc_votes = {v: p for v, p in self._vc_votes.items() if v > new_view}
        if self.is_leader:
            # re-propose the uncommitted suffix under the new view, then
            # resume normal batching at a fresh sequence number
            self._next_seq = max(
                [self.committed_seq, self._next_seq - 1] + list(self._slots)
            ) + 1
            for seq in sorted(self._slots):
                slot = self._slots[seq]
                if slot.committed:
                    continue
                slot.view = self.view
                slot.reset_votes()
                self._propose(self.view, seq, slot.batch)
            # fill any gaps in the slot space with empty batches so
            # commit order stays contiguous
            for seq in range(self.committed_seq + 1, self._next_seq):
                if seq not in self._slots:
                    self._propose(self.view, seq, ())
            if self._pending:
                self._arm_flush()
        else:
            # drop uncommitted acks from the old view; the new leader will
            # re-propose
            for slot in self._slots.values():
                if not slot.committed:
                    slot.reset_votes()
        self._arm_progress_timer()


class ConsensusClient:
    """Client-side stub: submit requests to every group member."""

    def __init__(self, host: ProtocolCore, group: SubCluster) -> None:
        self.host = host
        self.group = group
        self._counter = 0

    def submit(self, payload: Any, size: int = 0) -> str:
        """Send a request to all members; returns the request id."""
        self._counter += 1
        rid = f"{self.host.pid}#{self._counter}"
        for pid in self.group.members:
            self.host.send(
                pid,
                CsRequest(request_id=rid, payload=payload, payload_size=size),
            )
        return rid
