"""The coordinator sub-cluster VP_CO.

VP_CO linearizes tasks via BFT consensus, assigns monotonically
increasing timestamps to state updates, distributes computation tasks
(Algorithm 3, [P1]-[P2]), and makes every *cluster-management* decision:
speculative reassignment, blacklisting of proven-Byzantine executors,
dynamic role-switching (Sec 5.3) and the liveness fallback (Lemma 6.4).

Management decisions are themselves routed through the same consensus
instance as *control operations* with deterministic request ids: any
member that gathers f+1 suspect reports submits the control op; the
group commits it once; every member then acts on identical state.  That
is what keeps the coordination-free assignment scheme sound — executors
demand f+1 *matching* signed assignments, which requires all correct
coordinator members to compute the same ⟨t, E, i, attempt⟩ tuple.

Coordinator members extend :class:`~repro.core.verifier.Verifier`: when
the deployment has a single verifier sub-cluster, VP_CO also verifies
record chunks itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.consensus.fast_robust import ConsensusMember
from repro.core.messages import (
    AssignmentMsg,
    FallbackExecuteMsg,
    OutputSizeReport,
    RoleSwitchMsg,
    StateUpdateMsg,
    SuspectExecutorMsg,
    TaskCompleteMsg,
)
from repro.core.tasks import Assignment, Task
from repro.core.verifier import Verifier
from repro.crypto.signatures import Signature, sign_cost
from repro.obs.events import (
    CATEGORY_TASK,
    RoleSwitch,
    TaskAssigned,
    TaskFallback,
    TaskLinearized,
    TaskReassigned,
)

__all__ = ["Coordinator"]


def _ctl_signed_payload(ctl: dict) -> list:
    """Canonical signing payload of a control op (everything but the sig)."""
    return ["ctl"] + sorted(
        (k, v) for k, v in ctl.items() if k != "sig"
    )


@dataclass
class _TaskEntry:
    """Deterministic per-task state shared by all correct members."""

    task: Task
    seq: int
    executor: Optional[str] = None
    vp_index: int = -1
    attempt: int = 0
    done: bool = False
    fallback: bool = False


class Coordinator(Verifier):
    """One member of VP_CO."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        from repro.consensus.pbft import PbftMember

        # with the non-equivocating primitive, 2f+1 consensus [3]; without
        # it, classic 3f+1 PBFT (Sec 3)
        member_cls = (
            ConsensusMember if self.config.non_equivocation else PbftMember
        )
        self.consensus = member_cls(
            host=self,
            registry=self.registry,
            signer=self.signer,
            group=self.topo.coordinator,
            on_commit=self._on_commit,
            validate=self._validate,
            base_view_timeout=self.config.consensus_view_timeout,
        )
        # deterministic replicated state (driven only by commits)
        self.ts_counter = 0
        self.task_seq = 0
        self.outstanding: dict[str, _TaskEntry] = {}
        self.blacklist: set[str] = set()
        self.switched: set[int] = set()
        self.ctl_epoch = 0
        self._unassigned: list[str] = []
        # local observation state (quorum counting)
        self._suspect_votes: dict[tuple[str, int, bool], set[str]] = {}
        self._complete_votes: dict[str, set[str]] = {}
        from collections import defaultdict

        self._load_reports: dict[int, dict[str, tuple[float, int]]] = (
            defaultdict(dict)
        )
        self._out_streak = 0
        self._in_streak = 0
        self._switch_cooldown = 0
        self.tasks_linearized = 0

    def on_bind(self) -> None:
        super().on_bind()
        if self.config.role_switching:
            self.set_timer(
                "role-policy",
                self.config.role_switch_interval,
                self._role_policy_tick,
            )

    # ------------------------------------------------------------ validation
    def _validate(self, payload: Any) -> bool:
        """Gate at [P1]: Task-Validity for tasks, member signatures for
        control ops (Algorithm 3 line 3)."""
        if isinstance(payload, Task):
            return self.app.valid_task(payload)
        if isinstance(payload, dict) and "kind" in payload:
            sig = payload.get("sig")
            if not isinstance(sig, Signature):
                return False
            if sig.signer not in self.topo.coordinator.members:
                return False
            return self.registry.verify(_ctl_signed_payload(payload), sig)
        return False

    @property
    def _reporter(self) -> bool:
        """Only one member emits *replicated* decisions on the bus.

        Control-op commits happen at every correct VP_CO member; gating on
        the first member keeps cluster-level trace events (reassignments,
        role switches, fallbacks) deduplicated.  Per-member observations
        (fault detections, elections) are emitted ungated.
        """
        return self.pid == self.topo.coordinator.members[0]

    def _report(self, event) -> None:
        """Emit a cluster-level event, deduplicated to the reporter."""
        if self._reporter:
            self.emit(event)

    # ---------------------------------------------------------------- pools
    def _executor_pool(self) -> list[str]:
        pool = [e for e in self.topo.executor_pids if e not in self.blacklist]
        for idx in sorted(self.switched):
            pool.extend(
                m
                for m in self.topo.cluster(idx).members
                if m not in self.blacklist
            )
        return pool

    def _verifier_pool(self) -> list[int]:
        return [
            c.index
            for c in self.topo.worker_clusters
            if c.index not in self.switched
        ]

    # --------------------------------------------------------------- commits
    def _on_commit(self, seq: int, batch: tuple) -> None:
        for _rid, payload, _size in batch:
            if isinstance(payload, Task):
                self._commit_task(payload)
            else:
                self._commit_control(payload)

    def _commit_task(self, task: Task) -> None:
        """[P2]: timestamp, broadcast updates, assign computations."""
        self.tasks_linearized += 1
        if task.opcode.has_update:
            self.ts_counter += 1
        stamped = task.with_timestamp(self.ts_counter)
        if self.wants(CATEGORY_TASK):
            self._report(
                TaskLinearized(
                    time=self.now,
                    pid=self.pid,
                    task_id=task.task_id,
                    timestamp=self.ts_counter,
                )
            )
        if task.opcode.has_update:
            self.apply_update_locally(stamped)
            msg = StateUpdateMsg(task=stamped)
            msg.sig = self.signer.sign(msg.signed_payload())
            targets = [
                pid
                for pid in self.topo.worker_pids()
                if pid not in self.topo.coordinator.members
            ]
            if targets:
                self.run_ctrl_job(
                    sign_cost(1),
                    lambda m=msg, t=tuple(targets): self.multicast(t, m),
                )
        if task.opcode.has_compute:
            self.task_seq += 1
            entry = _TaskEntry(task=stamped, seq=self.task_seq)
            self.outstanding[task.task_id] = entry
            self._assign(entry)

    def _assign(self, entry: _TaskEntry) -> None:
        """getNextExecutorAndVP (Algorithm 3 line 8), deterministically."""
        pool = self._executor_pool()
        vps = self._verifier_pool()
        if not pool:
            # no live executors at all: Lemma 6.4's worst case — a
            # verifier sub-cluster executes the task itself
            self._fallback(entry)
            return
        if not vps:
            if entry.task.task_id not in self._unassigned:
                self._unassigned.append(entry.task.task_id)
            return
        prev_executor = entry.executor
        entry.executor = pool[(entry.seq + entry.attempt) % len(pool)]
        entry.vp_index = vps[entry.seq % len(vps)]
        if self.wants(CATEGORY_TASK):
            self._report(
                TaskAssigned(
                    time=self.now,
                    pid=self.pid,
                    task_id=entry.task.task_id,
                    executor=entry.executor,
                    attempt=entry.attempt,
                )
            )
        assignment = Assignment(
            task=entry.task,
            executor=entry.executor,
            vp_index=entry.vp_index,
            attempt=entry.attempt,
        )
        sig = self.signer.sign(assignment.signed_payload())
        msg = AssignmentMsg(assignment=assignment, sig=sig)
        targets = [entry.executor] + list(
            self.topo.cluster(entry.vp_index).members
        )
        if prev_executor is not None and prev_executor not in targets:
            # the displaced executor learns of the superseding assignment
            # so it can drop the still-queued older attempt
            targets.append(prev_executor)
        self.run_ctrl_job(
            sign_cost(1),
            lambda m=msg, t=tuple(targets): self.multicast(t, m),
        )

    def _drain_unassigned(self) -> None:
        waiting, self._unassigned = self._unassigned, []
        for tid in waiting:
            entry = self.outstanding.get(tid)
            if entry is not None and not entry.done:
                self._assign(entry)

    # ------------------------------------------------------------ control ops
    def _submit_ctl(self, rid: str, ctl: dict) -> None:
        """Route a management decision through consensus (dedup by rid)."""
        ctl = dict(ctl)
        ctl["sig"] = self.signer.sign(_ctl_signed_payload(ctl))
        from repro.consensus.messages import CsRequest

        for pid in self.topo.coordinator.members:
            if pid == self.pid:
                self.consensus._admit(rid, ctl, 128)
            else:
                self.send(
                    pid,
                    CsRequest(request_id=rid, payload=ctl, payload_size=128),
                )

    def _commit_control(self, ctl: dict) -> None:
        kind = ctl.get("kind")
        if kind == "reassign":
            self._ctl_reassign(ctl["task_id"], ctl["from_attempt"])
        elif kind == "blacklist":
            self._ctl_blacklist(ctl["executor"])
        elif kind == "role_switch":
            self._ctl_role_switch(
                ctl["vp_index"], bool(ctl["to_executor"]), ctl["epoch"]
            )

    def _ctl_reassign(self, task_id: str, from_attempt: int) -> None:
        entry = self.outstanding.get(task_id)
        if entry is None or entry.done or entry.attempt != from_attempt:
            return
        entry.attempt += 1
        if entry.attempt > self.config.max_attempts:
            self._fallback(entry)
            return
        self._report(
            TaskReassigned(
                time=self.now,
                pid=self.pid,
                task_id=task_id,
                attempt=entry.attempt,
            )
        )
        self._assign(entry)

    def _ctl_blacklist(self, executor: str) -> None:
        """markByzantineExecutor + reassignAllTasks (Algorithm 4 l.40-42)."""
        if executor in self.blacklist:
            return
        self.blacklist.add(executor)
        for entry in self.outstanding.values():
            if entry.executor == executor and not entry.done:
                entry.attempt += 1
                if entry.attempt > self.config.max_attempts:
                    self._fallback(entry)
                else:
                    self._report(
                        TaskReassigned(
                            time=self.now,
                            pid=self.pid,
                            task_id=entry.task.task_id,
                            attempt=entry.attempt,
                        )
                    )
                    self._assign(entry)

    def _ctl_role_switch(self, vp_index: int, to_executor: bool, epoch: int) -> None:
        if epoch != self.ctl_epoch + 1:
            return
        if vp_index not in {c.index for c in self.topo.worker_clusters}:
            return
        if to_executor:
            if (
                vp_index in self.switched
                or len(self._verifier_pool()) <= self.config.min_verifier_clusters
            ):
                return
            self.switched.add(vp_index)
        else:
            if vp_index not in self.switched:
                return
            self.switched.discard(vp_index)
        self.ctl_epoch = epoch
        self._report(
            RoleSwitch(
                time=self.now,
                pid=self.pid,
                vp_index=vp_index,
                to_executor=to_executor,
            )
        )
        msg = RoleSwitchMsg(
            vp_index=vp_index, epoch=epoch, to_executor=to_executor
        )
        msg.sig = self.signer.sign(msg.signed_payload())
        self.multicast(self.topo.cluster(vp_index).members, msg)
        self._drain_unassigned()
        if to_executor:
            self._rebalance_to(set(self.topo.cluster(vp_index).members))

    def _rebalance_to(self, new_members: set[str]) -> None:
        """Speculatively re-issue part of the outstanding backlog to
        executors that just joined the pool.  The original assignee keeps
        computing; verifiers accept whichever attempt finishes first, so
        this is safe duplication bounded by |new|/|pool| of the backlog."""
        pool = self._executor_pool()
        if not pool:
            return
        for entry in self.outstanding.values():
            if entry.done or entry.executor is None:
                continue
            candidate = pool[(entry.seq + entry.attempt + 1) % len(pool)]
            if candidate in new_members:
                entry.attempt += 1
                self._assign(entry)

    def _fallback(self, entry: _TaskEntry) -> None:
        """Lemma 6.4: hand the task to a verifier sub-cluster outright."""
        entry.done = True
        entry.fallback = True
        vps = self._verifier_pool() or [
            c.index for c in self.topo.worker_clusters
        ]
        vp_index = vps[entry.seq % len(vps)]
        self._report(
            TaskFallback(
                time=self.now, pid=self.pid, task_id=entry.task.task_id
            )
        )
        msg = FallbackExecuteMsg(task=entry.task, vp_index=vp_index)
        msg.sig = self.signer.sign(msg.signed_payload())
        self.multicast(self.topo.cluster(vp_index).members, msg)

    # ----------------------------------------------------- verifier reports
    def on_SuspectExecutorMsg(self, msg: SuspectExecutorMsg) -> None:
        entry = self.outstanding.get(msg.task_id)
        if entry is None or entry.done:
            return
        if msg.attempt != entry.attempt or msg.executor != entry.executor:
            return
        if entry.vp_index < 0:
            return
        vp = self.topo.cluster(entry.vp_index)
        if msg.sender not in vp.members:
            return
        if msg.sig is None or msg.sig.signer != msg.sender:
            return
        if not self.registry.verify(msg.signed_payload(), msg.sig):
            return
        key = (msg.task_id, msg.attempt, msg.byzantine)
        votes = self._suspect_votes.setdefault(key, set())
        votes.add(msg.sender)
        if len(votes) < vp.quorum:
            return
        if msg.byzantine:
            self._submit_ctl(
                f"ctl:blacklist:{msg.executor}",
                {"kind": "blacklist", "executor": msg.executor},
            )
        else:
            self._submit_ctl(
                f"ctl:reassign:{msg.task_id}:{msg.attempt}",
                {
                    "kind": "reassign",
                    "task_id": msg.task_id,
                    "from_attempt": msg.attempt,
                },
            )

    def on_TaskCompleteMsg(self, msg: TaskCompleteMsg) -> None:
        entry = self.outstanding.get(msg.task_id)
        if entry is None or entry.done or entry.vp_index < 0:
            return
        vp = self.topo.cluster(entry.vp_index)
        if msg.sender not in vp.members:
            return
        if msg.sig is None or msg.sig.signer != msg.sender:
            return
        if not self.registry.verify(msg.signed_payload(), msg.sig):
            return
        votes = self._complete_votes.setdefault(msg.task_id, set())
        votes.add(msg.sender)
        if len(votes) >= vp.quorum:
            entry.done = True

    def on_VerifierLoadReport(self, msg) -> None:
        """Track per-member utilization, keyed by sub-cluster."""
        cluster = self.topo.cluster_of(msg.sender)
        if cluster is None or cluster.index != msg.vp_index:
            return
        self._load_reports[msg.vp_index][msg.sender] = (
            msg.utilization,
            msg.pending_chunks,
        )

    def _cluster_utilization(self, vp_index: int) -> Optional[float]:
        """Median member utilization (robust to one Byzantine liar)."""
        reports = self._load_reports.get(vp_index)
        if not reports:
            return None
        utils = sorted(u for u, _ in reports.values())
        return utils[len(utils) // 2]

    def on_OutputSizeReport(self, msg: OutputSizeReport) -> None:
        """Handled so it is not counted as unhandled; nothing reads a
        task's record count.  Dropping the message itself would change
        the protocol traffic (ROADMAP item 11)."""

    # --------------------------------------------------- role-switch policy
    def _role_policy_tick(self) -> None:
        """Sec 5.3's control loop, driven by reported verifier CPU
        utilization with hysteresis in both directions."""
        self.set_timer(
            "role-policy",
            self.config.role_switch_interval,
            self._role_policy_tick,
        )
        if self._switch_cooldown > 0:
            self._switch_cooldown -= 1
            return
        pool = len(self._executor_pool())
        active = self._verifier_pool()
        out = sum(1 for e in self.outstanding.values() if not e.done)
        # clusters eligible for lending: active, not VP_CO, with a load
        # report showing idle capacity
        candidates = [
            (util, idx)
            for idx in active
            if idx != self.topo.coordinator.index
            for util in [self._cluster_utilization(idx)]
            if util is not None and util < self.config.switch_out_util
        ]
        active_utils = [
            u
            for idx in active
            for u in [self._cluster_utilization(idx)]
            if u is not None
        ]
        mean_active_util = (
            sum(active_utils) / len(active_utils) if active_utils else None
        )
        want_out = (
            (pool == 0 or out > self.config.switch_out_backlog * pool)
            and len(active) > self.config.min_verifier_clusters
            and bool(candidates)
            # individual idleness can be round-robin variance; require the
            # verification tier as a whole to be under-utilized too
            and mean_active_util is not None
            and mean_active_util < self.config.switch_out_util
        )
        want_in = bool(
            self.switched
            and active_utils
            and sum(active_utils) / len(active_utils)
            > self.config.switch_in_util
        )
        # hysteresis: the condition must persist for `switch_patience`
        # consecutive ticks (an emptied executor pool acts immediately)
        self._out_streak = self._out_streak + 1 if want_out else 0
        self._in_streak = self._in_streak + 1 if want_in else 0
        urgent = pool == 0 and len(active) > self.config.min_verifier_clusters
        if (self._out_streak >= self.config.switch_patience or urgent) and (
            want_out or urgent
        ):
            non_co = [
                idx for idx in active if idx != self.topo.coordinator.index
            ]
            if candidates:
                _, vp = min(candidates)
            elif urgent and non_co:
                vp = max(non_co)
            else:
                return
            self._out_streak = 0
            self._switch_cooldown = self.config.switch_cooldown
            self._submit_ctl(
                f"ctl:roleswitch:{self.ctl_epoch + 1}",
                {
                    "kind": "role_switch",
                    "vp_index": vp,
                    "to_executor": True,
                    "epoch": self.ctl_epoch + 1,
                },
            )
        elif self._in_streak >= self.config.switch_patience:
            vp = min(self.switched)
            self._in_streak = 0
            self._switch_cooldown = self.config.switch_cooldown
            self._submit_ctl(
                f"ctl:roleswitch:{self.ctl_epoch + 1}",
                {
                    "kind": "role_switch",
                    "vp_index": vp,
                    "to_executor": False,
                    "epoch": self.ctl_epoch + 1,
                },
            )
