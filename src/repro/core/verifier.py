"""Verifier processes: Algorithm 4 plus the generic failure protocols.

A verifier in VP_i independently checks every record chunk an executor
streams to it — no coordination with fellow verifiers during graceful
execution (Sec 5, "zero coordination among the verifiers during graceful
executions").  It detects:

* **mismatch** — per-record ``is_valid`` + assignment authentication;
* **duplication** — ``happens_before`` over adjacent records and across
  chunk boundaries;
* **omission** — ``output_size`` count versus records seen, checked at
  the final chunk (and speculative-reassignment timeouts for executors
  that never finish).

It also implements the generic protocol machinery of Sec 5.2.2:
negligent-leader elections, equivocation recovery via chunk re-sharing,
the role-switching executor mode (Sec 5.3), and the verifier-side
liveness fallback of Lemma 6.4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.executor import ExecutionEngine
from repro.core.faults import VerifierFault
from repro.core.messages import (
    AssignmentMsg,
    ChunkDigestMsg,
    ChunkMsg,
    ChunkShareMsg,
    EquivocationReport,
    FallbackExecuteMsg,
    LeaderElectMsg,
    NegligentLeaderReport,
    OutputAckMsg,
    OutputSizeReport,
    RoleSwitchMsg,
    SuspectExecutorMsg,
    TaskCompleteMsg,
    VerifiedChunkMsg,
    VerifiedDigestMsg,
)
from repro.core.tasks import Assignment, Chunk, Record, chunk_records
from repro.core.worker import WorkerBase
from repro.crypto.digest import digest
from repro.crypto.signatures import Signature, sign_cost, verify_cost
from repro.net.topology import SubCluster
from repro.obs.events import (
    CATEGORY_CHUNK,
    ChunkVerified,
    EquivocationReported,
    FaultDetected,
    LeaderElection,
)

__all__ = ["Verifier"]


@dataclass
class _VerState:
    """Per-(task, attempt) verification state (Algorithm 4's tables)."""

    assignment: Optional[Assignment] = None
    sigs: dict[str, Signature] = field(default_factory=dict)
    activated: bool = False
    count: Optional[int] = None           # numRecords[t] from outputSize
    count_started: bool = False
    expected_digests: dict[int, tuple[str, bytes]] = field(default_factory=dict)
    raw_chunks: dict[int, ChunkMsg] = field(default_factory=dict)
    next_index: int = 0
    processing: bool = False
    seen_records: int = 0                 # seenRecords[t]
    last_record: Optional[Record] = None
    final_seen: bool = False
    verified: list[tuple[Chunk, bytes]] = field(default_factory=list)
    finished: bool = False
    failed: bool = False


class Verifier(WorkerBase):
    """A member of a verifier sub-cluster VP_i."""

    def __init__(
        self,
        *args,
        cluster: SubCluster,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.cluster = cluster
        #: Byzantine strategy, installed by ``repro.runtime.plan.install_fault``
        self.fault: Optional[VerifierFault] = None
        self.engine = ExecutionEngine(self)  # role-switch executor mode
        self.term = 0
        self.executor_mode = False
        self.role_epoch = 0
        self._tasks: dict[tuple[str, int], _VerState] = {}
        #: task_id -> its attempts in ``_tasks``, in insertion order; the
        #: only way to reach sibling attempts (fallback can push attempt
        #: numbers past max_attempts, so they cannot be enumerated)
        self._attempts: dict[str, list[int]] = {}
        self._completed_tasks: set[str] = set()
        #: task_id -> (tenant, submitted_at) for OP routing/SLO tagging;
        #: grows with _completed_tasks (same unbounded-set precedent)
        self._task_meta: dict[str, tuple[str, float]] = {}
        #: task_id -> (verified chunks, total records, OPs yet to ack):
        #: a completed task's output, held until every OP it went to has
        #: acknowledged it, so memory is bounded by the work in flight
        self._unacked: dict[
            str, tuple[list[tuple[Chunk, bytes]], int, set[str]]
        ] = {}
        #: task_id -> OPs that acked before this member completed the task
        self._early_acks: dict[str, set[str]] = {}
        self._elect_votes: dict[int, set[str]] = {}
        self._op_reported_leaders: dict[str, set[str]] = {}
        self._byzantine_ops: set[str] = set()
        self._role_votes: dict[tuple[int, bool], set[str]] = {}
        self._fallback_votes: dict[str, dict[str, Signature]] = {}
        self._fallback_done: set[str] = set()
        self._suspect_fires: dict[tuple[str, int], int] = {}
        self.chunks_verified = 0
        self.failures_detected = 0
        self._last_busy_snapshot = 0.0

    def on_bind(self) -> None:
        # timers arm at bind time, never in __init__: an unbound core has
        # no clock to arm against
        if self.config.role_switching:
            self.set_timer(
                "load-report",
                self.config.role_switch_interval,
                self._send_load_report,
            )

    # ------------------------------------------------------------- fault gate
    def _faulty(self, attr: str) -> bool:
        return (
            self.fault is not None
            and self.fault.active(self.now)
            and getattr(self.fault, attr)
        )

    @property
    def is_leader(self) -> bool:
        """Whether this member currently leads its sub-cluster."""
        return self.cluster.leader_at(self.term) == self.pid

    # ---------------------------------------------------------- assignments
    def on_AssignmentMsg(self, msg: AssignmentMsg) -> None:
        """Algorithm 3 line 17: verifier copy of ⟨t, E, i⟩."""
        a = msg.assignment
        if a is None or not a.task.opcode.has_compute:
            return
        if a.executor == self.pid:
            # this process was assigned as an *executor* (role switching
            # or a verifier-turned-executor deployment)
            self.engine.handle_assignment(msg)
            return
        if self._faulty("silent"):
            return
        if a.vp_index != self.cluster.index:
            return
        if msg.sender not in self.topo.coordinator.members:
            return
        if msg.sig is None or msg.sig.signer != msg.sender:
            return
        if not self.registry.verify(a.signed_payload(), msg.sig):
            return
        if a.task.task_id in self._completed_tasks:
            return
        st = self._state(a.key)
        if st.assignment is None:
            st.assignment = a
        elif st.assignment.signed_payload() != a.signed_payload():
            return
        st.sigs[msg.sig.signer] = msg.sig
        if len(st.sigs) >= self.topo.coordinator.quorum and not st.activated:
            self._activate(a.key)

    def _state(self, key: tuple[str, int]) -> _VerState:
        """State of one attempt, created and indexed on first sight."""
        st = self._tasks.get(key)
        if st is None:
            st = self._tasks[key] = _VerState()
            self._attempts.setdefault(key[0], []).append(key[1])
        return st

    def _activate(self, key: tuple[str, int]) -> None:
        """f+1 signed assignments held: start outputSize and the watchdog."""
        st = self._tasks[key]
        st.activated = True
        if self._faulty("false_accusation"):
            self._accuse(key, byzantine=True)
        if not st.count_started:
            st.count_started = True
            ts = st.assignment.task.timestamp
            self.store.when_ready(ts, lambda: self._run_count(key))
        self._arm_suspect_timer(key)
        self._pump(key)

    def _run_count(self, key: tuple[str, int]) -> None:
        """Algorithm 3 line 19: compute outputSize(t) asynchronously,
        overlapping the executor's work."""
        st = self._tasks.get(key)
        if st is None or st.failed or st.assignment is None:
            return
        a = st.assignment
        view = self.store.view(a.task.timestamp)
        res = self.app.output_size(view, a.task)
        self.run_job(res.cost, self._count_done, key, res.count)

    def _count_done(self, key: tuple[str, int], count: int) -> None:
        st = self._tasks.get(key)
        if st is None:
            return
        st.count = count
        # report back for workload balancing (Algorithm 3 line 21)
        report = OutputSizeReport(task_id=key[0], count=count)
        self.multicast(self.topo.coordinator.members, report)
        self._maybe_finalize(key)

    # -------------------------------------------------------------- chunks
    def on_ChunkMsg(self, msg: ChunkMsg) -> None:
        """Algorithm 4 line 33: record chunk from an executor."""
        if self._faulty("silent"):
            return
        a = msg.assignment
        chunk = msg.chunk
        if a is None or chunk is None or not a.task.opcode.has_compute:
            return
        # validAssignment(<t,e,vpi>, sender): right executor, right cluster
        if msg.sender != a.executor or a.vp_index != self.cluster.index:
            return
        if chunk.task_id != a.task.task_id:
            return
        if a.task.task_id in self._completed_tasks:
            return
        st = self._state(a.key)
        if st.failed or st.finished:
            return
        if not st.activated:
            # activation ALWAYS needs f+1 coordinator signatures — here
            # via the copies prepended to the chunk (a single Byzantine
            # VP_CO member must never be able to conjure an assignment)
            if self.registry.verify_quorum(
                a.signed_payload(),
                list(msg.assignment_sigs),
                set(self.topo.coordinator.members),
                self.topo.coordinator.quorum,
            ):
                if st.assignment is None:
                    st.assignment = a
                elif st.assignment.signed_payload() != a.signed_payload():
                    return
                self._activate(a.key)
        st.raw_chunks.setdefault(chunk.index, msg)
        if st.activated:
            self._pump(a.key)

    def on_ChunkDigestMsg(self, msg: ChunkDigestMsg) -> None:
        """σ(C) via the non-equivocating primitive."""
        if self._faulty("silent"):
            return
        if not getattr(msg, "_neq", False):
            return  # digests must use the primitive (Sec 5.2.2)
        if msg.task_id in self._completed_tasks:
            return
        key = (msg.task_id, msg.attempt)
        st = self._state(key)
        st.expected_digests.setdefault(msg.index, (msg.sender, msg.digest))
        self._pump(key)

    def _pump(self, key: tuple[str, int]) -> None:
        """Process buffered chunks in index order, one verify job at a time."""
        st = self._tasks.get(key)
        if (
            st is None
            or not st.activated
            or st.processing
            or st.failed
            or st.finished
        ):
            return
        idx = st.next_index
        if idx not in st.raw_chunks or idx not in st.expected_digests:
            return
        a = st.assignment
        if not self.store.ready(a.task.timestamp):
            self.store.when_ready(a.task.timestamp, lambda: self._pump(key))
            return
        msg = st.raw_chunks.pop(idx)
        sender, sigma = st.expected_digests[idx]
        if sender != a.executor:
            return  # digest not from the assigned executor: ignore noise
        if msg.chunk.sigma != sigma:
            # chunk content disagrees with the non-equivocable digest:
            # the executor equivocated or corrupted the stream
            self._fail(key, "digest-mismatch")
            return
        st.processing = True
        cost = verify_cost(1) + sum(
            self.app.verify_record_cost(r) for r in msg.chunk.records
        )
        self.run_job(cost, self._judge, key, msg.chunk, sigma)

    def _judge(self, key: tuple[str, int], chunk: Chunk, sigma: bytes) -> None:
        """Algorithm 4 ``verify()``: ordering, validity, boundary checks."""
        st = self._tasks.get(key)
        if st is None or st.failed or st.finished:
            return
        st.processing = False
        a = st.assignment
        if st.final_seen:
            # prevChunk.taskFinished() — output continued past the final
            # chunk (replayed chunk): duplication
            self._fail(key, "chunk-after-final")
            return
        view = self.store.view(a.task.timestamp)
        records = chunk.records
        if records:
            if st.last_record is not None and not self.app.happens_before(
                st.last_record, records[0]
            ):
                self._fail(key, "inter-chunk-order")
                return
            for i, rec in enumerate(records):
                if not self.app.is_valid(view, rec, a.task):
                    self._fail(key, "invalid-record")
                    return
                if i + 1 < len(records) and not self.app.happens_before(
                    rec, records[i + 1]
                ):
                    self._fail(key, "intra-chunk-order")
                    return
            st.last_record = records[-1]
        st.seen_records += len(records)
        st.verified.append((chunk, sigma))
        st.next_index += 1
        self.chunks_verified += 1
        if self.wants(CATEGORY_CHUNK):
            self.emit(
                ChunkVerified(
                    time=self.now,
                    pid=self.pid,
                    task_id=chunk.task_id,
                    index=chunk.index,
                    records=len(records),
                )
            )
        if chunk.final:
            st.final_seen = True
            self.cancel_timer(self._suspect_timer_name(key))
            self._maybe_finalize(key)
            # keep draining the buffer: any chunk past the final one is a
            # replay and must be caught by the taskFinished check above
            self._pump(key)
        else:
            self._arm_suspect_timer(key)  # resetReassignmentTimeout (l.47)
            self._pump(key)

    def _maybe_finalize(self, key: tuple[str, int]) -> None:
        """Final chunk seen and outputSize known: the omission check."""
        st = self._tasks.get(key)
        if (
            st is None
            or not st.final_seen
            or st.count is None
            or st.failed
            or st.finished
        ):
            return
        if st.seen_records != st.count:
            self._fail(key, "count-mismatch")
            return
        self._complete(key)

    # ----------------------------------------------------- verdict handling
    def _fail(self, key: tuple[str, int], reason: str) -> None:
        """markByzantineExecutor + allChunks[t].clear() (Algorithm 4)."""
        st = self._tasks.get(key)
        if st is None or st.failed:
            return
        st.failed = True
        st.verified.clear()
        st.raw_chunks.clear()
        self.failures_detected += 1
        self.cancel_timer(self._suspect_timer_name(key))
        executor = st.assignment.executor if st.assignment else "?"
        self.emit(
            FaultDetected(
                time=self.now, pid=self.pid, reason=reason, culprit=executor
            )
        )
        self._accuse(key, byzantine=True)

    def _accuse(self, key: tuple[str, int], byzantine: bool) -> None:
        st = self._tasks.get(key)
        executor = st.assignment.executor if st and st.assignment else "?"
        payload_msg = SuspectExecutorMsg(
            task_id=key[0],
            attempt=key[1],
            executor=executor,
            byzantine=byzantine,
        )
        payload_msg.sig = self.signer.sign(payload_msg.signed_payload())
        self.run_ctrl_job(
            sign_cost(1),
            lambda: self.multicast(self.topo.coordinator.members, payload_msg),
        )

    def _complete(self, key: tuple[str, int]) -> None:
        """Task output fully verified: forward downstream ([P4])."""
        st = self._tasks[key]
        st.finished = True
        task_id = key[0]
        if st.assignment is not None:
            t = st.assignment.task
            self._task_meta[task_id] = (t.tenant, t.submitted_at)
        self._forward_output(task_id, st.verified, st.seen_records)
        done = TaskCompleteMsg(
            task_id=task_id, attempt=key[1], count=st.seen_records
        )
        done.sig = self.signer.sign(done.signed_payload())
        self.multicast(self.topo.coordinator.members, done)
        # drop sibling attempts: first finished attempt wins
        for attempt in self._attempts[task_id]:
            if attempt != key[1]:
                other_key = (task_id, attempt)
                self.cancel_timer(self._suspect_timer_name(other_key))
                self._tasks[other_key].failed = True
        self._hold(task_id, st.verified, st.seen_records)

    # ------------------------------------------------ output acknowledgement
    def _hold(
        self, task_id: str, chunks: list[tuple[Chunk, bytes]], total: int
    ) -> None:
        """Mark the task completed here and keep its output until every OP
        it went to has acknowledged it; acks that came first count."""
        if task_id in self._completed_tasks:
            # a repeat completion holds nothing new: its attempt goes with
            # the task's release, or now if that already happened
            if task_id not in self._unacked:
                self._release(task_id)
            return
        self._completed_tasks.add(task_id)
        tenant = self._task_meta.get(task_id, ("", 0.0))[0]
        waiting = set(self.topo.outputs_for(tenant))
        waiting -= self._early_acks.pop(task_id, set())
        self._unacked[task_id] = (chunks, total, waiting)
        if not waiting:
            self._release(task_id)

    def _release(self, task_id: str) -> None:
        """Every OP has the task's output: drop its records, every attempt."""
        self._unacked.pop(task_id, None)
        for attempt in self._attempts.get(task_id, ()):
            st = self._tasks[(task_id, attempt)]
            st.verified.clear()
            st.raw_chunks.clear()
            st.last_record = None

    def on_OutputAckMsg(self, msg: OutputAckMsg) -> None:
        """An OP accepted every chunk of the task."""
        if msg.sender not in self.topo.output_pids:
            return  # an ack drops data bound for its sender: OPs only
        held = self._unacked.get(msg.task_id)
        if held is None:
            if msg.task_id not in self._completed_tasks:
                self._early_acks.setdefault(msg.task_id, set()).add(msg.sender)
            return
        waiting = held[2]
        waiting.discard(msg.sender)
        if not waiting:
            self._release(msg.task_id)

    def _forward_output(
        self,
        task_id: str,
        chunks: list[tuple[Chunk, bytes]],
        total: int,
        force_leader: bool = False,
    ) -> None:
        """Leader sends ⟨C, σ(C)⟩; everyone else sends σ(C) only."""
        leader = self.is_leader or force_leader
        if leader and self._faulty("negligent_leader"):
            return
        tenant, submitted_at = self._task_meta.get(task_id, ("", 0.0))
        outputs = self.topo.outputs_for(tenant)
        for chunk, sigma in chunks:
            if self._faulty("bogus_digest"):
                sigma = digest(["bogus", chunk.task_id, chunk.index])
            for op in outputs:
                if leader:
                    self.send(
                        op,
                        VerifiedChunkMsg(
                            vp_index=self.cluster.index,
                            task_id=task_id,
                            index=chunk.index,
                            final=chunk.final,
                            chunk=chunk,
                            digest=sigma,
                            total_records=total,
                            tenant=tenant,
                            submitted_at=submitted_at,
                        ),
                    )
                else:
                    self.send(
                        op,
                        VerifiedDigestMsg(
                            vp_index=self.cluster.index,
                            task_id=task_id,
                            index=chunk.index,
                            final=chunk.final,
                            digest=sigma,
                            total_records=total,
                            tenant=tenant,
                            submitted_at=submitted_at,
                        ),
                    )

    # ------------------------------------------------- speculative timeouts
    def _suspect_timer_name(self, key: tuple[str, int]) -> str:
        return f"suspect-{key[0]}-{key[1]}"

    def _arm_suspect_timer(self, key: tuple[str, int]) -> None:
        # "the timeout duration for a given task is increased using
        # exponential backoff" (Sec 5.2.2): double per attempt AND per
        # firing, so queueing delays cannot cause reassignment storms
        fires = self._suspect_fires.get(key, 0)
        timeout = self.config.suspect_timeout * (
            2 ** min(key[1] + fires, 10)
        )
        self.set_timer(
            self._suspect_timer_name(key), timeout, self._on_suspect_timeout, key
        )

    def _on_suspect_timeout(self, key: tuple[str, int]) -> None:
        st = self._tasks.get(key)
        if st is None or st.failed or st.finished:
            return
        self._suspect_fires[key] = self._suspect_fires.get(key, 0) + 1
        self._accuse(key, byzantine=False)
        # keep watching: the executor may still finish and win the race
        self._arm_suspect_timer(key)

    # ------------------------------------------- negligent leader handling
    def on_NegligentLeaderReport(self, msg: NegligentLeaderReport) -> None:
        if msg.vp_index != self.cluster.index or self._faulty("silent"):
            return
        if msg.sender in self._byzantine_ops:
            return
        reported = self._op_reported_leaders.setdefault(msg.sender, set())
        leader = self.cluster.leader_at(msg.term)
        if leader in reported:
            return  # duplicate report about the same leader: no new vote
        reported.add(leader)
        if len(reported) >= self.cluster.quorum:
            # an OP that reported f+1 distinct leaders must be Byzantine
            # (at most f verifiers here are faulty, Sec 5.2.2)
            self._byzantine_ops.add(msg.sender)
            return
        self._vote_elect(self.term + 1)

    def _vote_elect(self, new_term: int) -> None:
        vote = LeaderElectMsg(vp_index=self.cluster.index, new_term=new_term)
        vote.sig = self.signer.sign(vote.signed_payload())
        self.multicast(self.cluster.members, vote)
        self._record_elect(self.pid, new_term)

    def on_LeaderElectMsg(self, msg: LeaderElectMsg) -> None:
        if msg.vp_index != self.cluster.index or self._faulty("silent"):
            return
        if msg.sender not in self.cluster.members:
            return
        if msg.sig is None or msg.sig.signer != msg.sender:
            return
        if not self.registry.verify(msg.signed_payload(), msg.sig):
            return
        self._record_elect(msg.sender, msg.new_term)

    def _record_elect(self, pid: str, new_term: int) -> None:
        if new_term <= self.term:
            return
        votes = self._elect_votes.setdefault(new_term, set())
        votes.add(pid)
        if len(votes) >= self.cluster.quorum:
            self.term = new_term
            self._elect_votes = {
                t: v for t, v in self._elect_votes.items() if t > new_term
            }
            self.emit(
                LeaderElection(
                    time=self.now,
                    pid=self.pid,
                    vp_index=self.cluster.index,
                    term=new_term,
                )
            )
            if self.is_leader:
                # the new leader re-sends every output an OP has not yet
                # acknowledged: the chunk data a negligent leader withheld
                for task_id, (chunks, total, _) in self._unacked.items():
                    self._forward_output(
                        task_id, chunks, total, force_leader=True
                    )

    # -------------------------------------------- equivocation recovery
    def on_EquivocationReport(self, msg: EquivocationReport) -> None:
        """OP saw ≥1 but <f+1 digests: re-share the chunk (Sec 5.2.2)."""
        if msg.vp_index != self.cluster.index or self._faulty("silent"):
            return
        self.emit(
            EquivocationReported(
                time=self.now,
                pid=self.pid,
                task_id=msg.task_id,
                index=msg.index,
            )
        )
        # Re-share our *verified* chunk for that index (``st.verified``, the
        # list ``_unacked`` holds) even when the OP's quoted digest differs
        # — a Byzantine leader may have fed the OP a bogus digest, and
        # receivers validate any share against their own non-equivocable
        # σ(C) regardless.
        for attempt in self._attempts.get(msg.task_id, ()):
            key = (msg.task_id, attempt)
            st = self._tasks[key]
            if st.assignment is None:
                continue
            for chunk, sigma in st.verified:
                if chunk.index == msg.index:
                    quorum = self.topo.coordinator.quorum
                    share = ChunkShareMsg(
                        task_id=key[0],
                        attempt=key[1],
                        index=chunk.index,
                        chunk=chunk,
                        assignment=st.assignment,
                        assignment_sigs=tuple(st.sigs.values())[:quorum],
                    )
                    others = [
                        p for p in self.cluster.members if p != self.pid
                    ]
                    if others:
                        self.multicast(others, share)
                    return

    def on_ChunkShareMsg(self, msg: ChunkShareMsg) -> None:
        """Fellow verifier re-shared a chunk: process it as if it came
        from the original executor."""
        if msg.sender not in self.cluster.members or self._faulty("silent"):
            return
        if msg.chunk is None or msg.assignment is None:
            return
        key = (msg.task_id, msg.attempt)
        st = self._tasks.get(key)
        if st is None or st.finished:
            return
        expected = st.expected_digests.get(msg.index)
        if expected is None or expected[1] != msg.chunk.sigma:
            return  # only accept shares matching the executor's own σ(C)
        if st.failed:
            # The executor equivocated *at us* (its plain-channel chunk
            # mismatched the non-equivocable σ(C)); the executor stays
            # accused, but the re-shared chunk matches σ(C), so we can
            # still verify and forward the correct output (Sec 5.2.2:
            # "processes C as if it were sent from the original
            # executor").  Rebuild a clean verification state.
            st = _VerState(
                assignment=st.assignment,
                sigs=st.sigs,
                activated=False,
                count=st.count,
                count_started=st.count_started,
                expected_digests=st.expected_digests,
            )
            self._tasks[key] = st
            if st.assignment is not None and len(st.sigs) >= (
                self.topo.coordinator.quorum
            ):
                self._activate(key)
        if msg.index in st.raw_chunks or msg.index < st.next_index:
            return
        relabeled = ChunkMsg(
            chunk=msg.chunk,
            assignment=msg.assignment,
            assignment_sigs=msg.assignment_sigs,
        )
        relabeled.sender = msg.assignment.executor
        if not st.activated:
            # same rule as on_ChunkMsg: no activation below the f+1 bar
            if self.registry.verify_quorum(
                msg.assignment.signed_payload(),
                list(msg.assignment_sigs),
                set(self.topo.coordinator.members),
                self.topo.coordinator.quorum,
            ):
                if st.assignment is None:
                    st.assignment = msg.assignment
                elif (
                    st.assignment.signed_payload()
                    != msg.assignment.signed_payload()
                ):
                    return
                self._activate(key)
        st.raw_chunks.setdefault(msg.index, relabeled)
        if st.activated:
            self._pump(key)

    # ------------------------------------------------------- role switching
    def _send_load_report(self) -> None:
        """Periodic utilization report to VP_CO (the Sec 5.3 signal)."""
        interval = self.config.role_switch_interval
        self.set_timer("load-report", interval, self._send_load_report)
        if self._faulty("silent"):
            return
        busy = self.cpu.busy_seconds
        util = min(
            1.0,
            (busy - self._last_busy_snapshot)
            / (interval * self.cpu.cores),
        )
        self._last_busy_snapshot = busy
        pending = sum(
            len(st.raw_chunks)
            for st in self._tasks.values()
            if not st.finished and not st.failed
        )
        from repro.core.messages import VerifierLoadReport

        report = VerifierLoadReport(
            vp_index=self.cluster.index,
            utilization=util,
            pending_chunks=pending,
        )
        self.multicast(self.topo.coordinator.members, report)

    def on_RoleSwitchMsg(self, msg: RoleSwitchMsg) -> None:
        if msg.vp_index != self.cluster.index:
            return
        if msg.sender not in self.topo.coordinator.members:
            return
        if msg.sig is None or msg.sig.signer != msg.sender:
            return
        if not self.registry.verify(msg.signed_payload(), msg.sig):
            return
        votes = self._role_votes.setdefault((msg.epoch, msg.to_executor), set())
        votes.add(msg.sender)
        if (
            len(votes) >= self.topo.coordinator.quorum
            and msg.epoch > self.role_epoch
        ):
            self.role_epoch = msg.epoch
            self.executor_mode = msg.to_executor

    # --------------------------------------------------- liveness fallback
    def on_FallbackExecuteMsg(self, msg: FallbackExecuteMsg) -> None:
        """Lemma 6.4 worst case: the sub-cluster executes the task itself
        and skips straight to [P4]."""
        if msg.vp_index != self.cluster.index or self._faulty("silent"):
            return
        if msg.sender not in self.topo.coordinator.members:
            return
        if msg.sig is None or msg.sig.signer != msg.sender:
            return
        if not self.registry.verify(msg.signed_payload(), msg.sig):
            return
        task = msg.task
        if task is None or task.task_id in self._fallback_done:
            return
        votes = self._fallback_votes.setdefault(task.task_id, {})
        votes[msg.sender] = msg.sig
        if len(votes) < self.topo.coordinator.quorum:
            return
        self._fallback_done.add(task.task_id)
        self.store.when_ready(
            task.timestamp, lambda: self._fallback_execute(task)
        )

    def _fallback_execute(self, task) -> None:
        if self.crashed:
            return
        self._task_meta[task.task_id] = (task.tenant, task.submitted_at)
        view = self.store.view(task.timestamp)
        result = self.app.compute(view, task)
        chunks = chunk_records(
            task.task_id, list(result.records), self.config.chunk_bytes
        )
        pairs = [(c, c.sigma) for c in chunks]
        total = len(result.records)
        self.run_job(
            result.cost, self._fallback_emit, task.task_id, pairs, total
        )

    def _fallback_emit(self, task_id: str, pairs, total: int) -> None:
        self._forward_output(task_id, pairs, total)
        self._hold(task_id, pairs, total)
