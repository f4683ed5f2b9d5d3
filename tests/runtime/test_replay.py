"""Standalone replay of captured inboxes (Fig 7a style).

A live deployment runs a recovery scenario — a Byzantine executor
corrupts records, a verifier cluster detects the mismatch, accuses, and
the task is reassigned — with replay capture enabled on every verifier,
on the honest executor and on the input process.  The captured JSONL
trace is then replayed against freshly constructed cores with no
Simulator and no Network, and each replayed effect stream must match
its live counterpart signature-for-signature.  The executor's inbox
carries ``milestone`` inputs (streamed chunks of one compute job) and
the input process's carries ``sched`` inputs (its workload pump).
"""

from __future__ import annotations

import io

import pytest

from repro.apps.synthetic import SyntheticApp, make_compute_task
from repro.core import OsirisConfig, build_osiris_cluster
from repro.core.coordinator import Coordinator
from repro.core.executor import Executor
from repro.core.faults import CorruptRecordFault
from repro.core.input_output import InputProcess
from repro.core.verifier import Verifier
from repro.obs import CATEGORY_REPLAY, JsonlTraceSink
from repro.runtime.core import ProtocolCore
from repro.runtime.replay import ReplayLog, effect_signature, replay

VERIFIER_PIDS = ("v0", "v1", "v2", "v3", "v4", "v5")
CAPTURED = VERIFIER_PIDS + ("e1", "ip0")


def make_workload():
    return [(i * 0.01, make_compute_task(i)) for i in range(6)]


@pytest.fixture(scope="module")
def capture():
    """One live recovery run; returns (cluster, captured jsonl lines)."""
    app = SyntheticApp(records_per_task=6, compute_cost=2e-3)
    buf = io.StringIO()
    cluster = build_osiris_cluster(
        app,
        workload=iter(make_workload()),
        n_workers=8,
        k=2,
        seed=11,
        config=OsirisConfig(suspect_timeout=60.0, chunk_bytes=4096),
        faults={"e0": CorruptRecordFault(activate_at=0.0)},
        sinks=(JsonlTraceSink(buf, categories=frozenset({CATEGORY_REPLAY})),),
        capture=CAPTURED,
    )
    cluster.start()
    cluster.run(until=30.0)
    return cluster, buf.getvalue().splitlines()


class _StartedInput(InputProcess):
    """An input process that starts its stream when bound, exactly as
    ``cluster.start()`` starts the live one right after wiring."""

    def on_bind(self) -> None:
        self.start()


def fresh_core(cluster, pid):
    """A brand-new core identical to the captured one at birth."""
    live = cluster.worker(pid)
    if isinstance(live, InputProcess):
        return _StartedInput(
            pid, cluster.topo, iter(make_workload()), config=cluster.config
        )
    if isinstance(live, Executor):
        cls = Executor
        kwargs = {}
    else:
        cls = Coordinator if isinstance(live, Coordinator) else Verifier
        kwargs = {"cluster": live.cluster}
    return cls(
        pid,
        cluster.topo,
        cluster.registry,
        live.signer,
        cluster.app,
        cluster.config,
        **kwargs,
    )


def replay_pid(cluster, lines, pid):
    log = ReplayLog.from_jsonl(lines, pid)
    rt = replay(
        fresh_core(cluster, pid),
        log,
        cores=cluster.config.cores_per_node,
        wants=cluster.bus.wants,
    )
    return log, rt


def signatures(rt) -> list[str]:
    """The replayed effect stream in capture-log form."""
    return [effect_signature(effect) for effect in rt.effects]


class TestVerifierReplay:
    def test_scenario_is_a_recovery(self, capture):
        """Sanity: the live run actually exercised detection + recovery,
        so the capture is a Fig 7a-style inbox rather than a happy path."""
        cluster, lines = capture
        assert sum(v.failures_detected for v in cluster.all_verifiers) >= 1
        assert all(v.chunks_verified >= 1 for v in cluster.all_verifiers)
        log = ReplayLog.from_jsonl(lines, "v3")
        assert log.inputs and log.effects
        kinds = {kind for _, kind, _ in log.inputs}
        assert "msg" in kinds and "job" in kinds

    def test_replayed_verifier_stream_matches_live(self, capture):
        cluster, lines = capture
        log, rt = replay_pid(cluster, lines, "v3")
        assert signatures(rt) == log.effects

    def test_replayed_detecting_core_matches_live(self, capture):
        """The member that detected the corruption replays too — its
        inbox includes the mismatching chunk and the accusation flow."""
        cluster, lines = capture
        detecting = next(
            v for v in cluster.all_verifiers if v.failures_detected >= 1
        )
        log, rt = replay_pid(cluster, lines, detecting.pid)
        assert signatures(rt) == log.effects
        assert rt.core.failures_detected == detecting.failures_detected

    def test_replayed_core_reaches_live_state(self, capture):
        """Replay is a full re-execution: the rebuilt core lands on the
        live core's counters, not just its outbox."""
        cluster, lines = capture
        live = cluster.worker("v3")
        _, rt = replay_pid(cluster, lines, "v3")
        assert rt.core.failures_detected == live.failures_detected
        assert rt.core.chunks_verified == live.chunks_verified
        assert rt.core.role_epoch == live.role_epoch

    def test_every_verifier_inbox_replays(self, capture):
        cluster, lines = capture
        for pid in VERIFIER_PIDS:
            log, rt = replay_pid(cluster, lines, pid)
            assert signatures(rt) == log.effects, f"divergence for {pid}"

    def test_unknown_pid_yields_empty_log(self, capture):
        _, lines = capture
        log = ReplayLog.from_jsonl(lines, "nobody")
        assert log.inputs == [] and log.effects == []


class TestMilestoneAndSchedReplay:
    def test_executor_inbox_with_milestones_replays(self, capture):
        """The honest executor streams each task's chunks as milestones
        of one compute job; replay re-fires them one at a time, by
        ``job_id:index``, interleaved with the job completions."""
        cluster, lines = capture
        log, rt = replay_pid(cluster, lines, "e1")
        kinds = {kind for _, kind, _ in log.inputs}
        assert {"msg", "job", "milestone"} <= kinds
        assert signatures(rt) == log.effects
        assert rt.core.engine.tasks_executed == (
            cluster.worker("e1").engine.tasks_executed
        )

    def test_input_process_inbox_with_scheds_replays(self, capture):
        """The input process's workload pump is a chain of unguarded
        ``Schedule`` continuations, replayed by ``sched_id``."""
        cluster, lines = capture
        log, rt = replay_pid(cluster, lines, "ip0")
        kinds = {kind for _, kind, _ in log.inputs}
        assert "sched" in kinds
        assert signatures(rt) == log.effects
        assert rt.core.tasks_submitted == cluster.worker("ip0").tasks_submitted


class TestReplayCrash:
    def test_crash_disarms_timers(self):
        """``Halt`` drops armed timers on the replay backend too, as it
        does on every other backend."""
        core = ProtocolCore("w0")
        replay(core, ReplayLog(pid="w0"))
        core.set_timer("probe", 1.0, lambda: None)
        assert core.timer_armed("probe")
        core.crash()
        assert not core.timer_armed("probe")
