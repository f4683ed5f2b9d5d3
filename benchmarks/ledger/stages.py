"""Per-task stage latencies and protocol counts from the event stream.

Works on the events an all-category :class:`~repro.obs.sinks.CollectorSink`
gathered.  Event stamps are simulated seconds; at ``time_scale=1.0`` on
the live backend every process derives them from one shared monotonic
epoch, so stamps from different OS processes are directly comparable.
On the DES workloads the same stamps are simulated time.

A task's path is cut at five events (earliest stamp wins where several
processes report the same step):

``offered → TaskSubmitted → TaskLinearized → TaskAssigned →
verifier quorum on the final chunk → observed complete``

so the five stage durations of one task add up to its latency exactly.
The reported breakdown is that of the *typical* task: the mean of each
stage over the tasks whose latency lies in the middle fifth (40th to
60th percentile).  Unlike per-stage medians, these add up — to the mean
latency of that band, which sits within a few percent of the median.
"""

from __future__ import annotations

from repro.obs.events import (
    ChunkEmitted,
    ChunkVerified,
    ConsensusCommit,
    FaultDetected,
    TaskAssigned,
    TaskCompleted,
    TaskLinearized,
    TaskReassigned,
    TaskSubmitted,
    ViewChange,
)

STAGES = ("submit", "linearize", "assign", "execute_verify", "accept")


def _earliest(table: dict, key, when: float) -> None:
    if key not in table or when < table[key]:
        table[key] = when


def typical_stages_ms(
    events, offered: dict[str, float], observed: dict[str, float], quorum: int
) -> tuple[dict[str, float], float]:
    """Stage durations of the typical task, in ms, over the tasks in
    ``offered`` that completed (see the module docstring), and the
    median latency of all of those tasks.

    ``offered`` / ``observed`` are the benchmark's own stamps (same
    clock as the events) for when a task was handed to the system and
    when the benchmark saw it complete; a task missing from ``observed``
    falls back to its ``TaskCompleted`` stamp.  ``quorum`` is f+1.
    """
    submitted: dict = {}
    linearized: dict = {}
    assigned: dict = {}
    completed: dict = {}
    final_index: dict = {}
    verified: dict = {}  # (task, index) -> sorted stamps
    for ev in events:
        kind = type(ev)
        if kind is TaskSubmitted:
            _earliest(submitted, ev.task_id, ev.time)
        elif kind is TaskLinearized:
            _earliest(linearized, ev.task_id, ev.time)
        elif kind is TaskAssigned:
            _earliest(assigned, ev.task_id, ev.time)
        elif kind is TaskCompleted:
            _earliest(completed, ev.task_id, ev.time)
        elif kind is ChunkEmitted and ev.final:
            final_index[ev.task_id] = ev.index
        elif kind is ChunkVerified:
            verified.setdefault((ev.task_id, ev.index), []).append(ev.time)
    paths = []
    for task_id, t0 in offered.items():
        votes = sorted(verified.get((task_id, final_index.get(task_id)), ()))
        t5 = observed.get(task_id, completed.get(task_id))
        if (
            task_id not in submitted
            or task_id not in linearized
            or task_id not in assigned
            or len(votes) < quorum
            or t5 is None
        ):
            continue
        paths.append(
            (
                t0,
                submitted[task_id],
                linearized[task_id],
                assigned[task_id],
                votes[quorum - 1],
                t5,
            )
        )
    paths.sort(key=lambda cuts: cuts[-1] - cuts[0])
    band = paths[len(paths) * 2 // 5:max(len(paths) * 3 // 5, 1)]
    stages = {
        stage: (
            sum(cuts[i + 1] - cuts[i] for cuts in band) * 1e3 / len(band)
            if band
            else 0.0
        )
        for i, stage in enumerate(STAGES)
    }
    mid = paths[len(paths) // 2] if paths else (0.0, 0.0)
    return stages, (mid[-1] - mid[0]) * 1e3


def protocol_counts(events) -> dict[str, float]:
    """Consensus and recovery counts of one run (exact per seed on the
    DES).  Every coordinator member reports each slot; distinct sequence
    numbers are counted once."""
    slots: dict[int, int] = {}
    views: set = set()
    reassigned = faults = 0
    for ev in events:
        kind = type(ev)
        if kind is ConsensusCommit:
            slots.setdefault(ev.seq, ev.batch)
        elif kind is ViewChange:
            views.add(ev.view)
        elif kind is TaskReassigned:
            reassigned += 1
        elif kind is FaultDetected:
            faults += 1
    return {
        "consensus.slots": len(slots),
        "consensus.tasks_per_slot": (
            sum(slots.values()) / len(slots) if slots else 0.0
        ),
        "consensus.view_changes": len(views),
        "core.reassignments": reassigned,
        "core.faults_detected": faults,
    }
