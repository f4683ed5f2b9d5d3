"""Shared post-run safety-invariant evaluation (Theorem 6.3).

One implementation serves two drivers:

* the DES :class:`~repro.check.conservation.ConservationSink` delegates
  its post-run cluster audit here (its event-stream counter
  cross-checks stay in the sink, since only the sink sees the trace);
* the bounded interleaving explorer (:mod:`repro.mc`) evaluates the
  exact same invariants in every reachable terminal state of a small
  model, so a finding from either driver means the same thing.

``cluster`` is duck-typed — it needs ``.topo``, ``.app``,
``.coordinators`` (coordinator cores with the replicated task table)
and ``.outputs`` (OutputProcess cores) — satisfied both by the DES
``OsirisCluster`` and by :mod:`repro.mc`'s in-memory deployments.

Invariant names are stable and shared with the live checkers:

* ``committed-equivocation`` — two quorum-endorsed digests whose
  chunk data arrived in one chunk slot, or two OPs committing different
  digests for the same slot;
* ``accept-without-quorum`` — an accepted slot whose accepted digest is
  not quorum-endorsed or whose chunk data never arrived;
* ``accept-conservation`` — an OP's acceptance counters disagree with
  its accepted-slot state (slot count, and the sum of the accepted
  slots' record counts).  This is the *structural* exactly-once
  commit check: unlike the sink's event-stream double-accept check it
  needs no trace, and it holds in a state regardless of which schedule
  reached it — which is what makes it usable under the explorer's
  state-fingerprint merging;
* ``completion-without-accept`` — a task marked completed whose slots
  ``0..final_index`` are not all accepted;
* ``output-failure`` — a completed compute task whose committed chunks
  are not A(s, t), recomputed from the coordinator's replica at the
  task's snapshot.  The OP keeps only each accepted chunk's σ and
  record count, so A(s, t) is cut along those counts into chunks and
  every σ must match, and the counts must sum to ``len(A(s, t))``.
  σ covers the records, the index and the final flag, so this is at
  least as strict as ``classify_output(...) == NONE``: it also pins
  order and chunk boundaries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.tasks import Chunk

if TYPE_CHECKING:  # pragma: no cover
    from repro.check.report import SanitizerReport

__all__ = ["audit_safety"]


def audit_safety(cluster, report: "SanitizerReport") -> None:
    """Audit an OsirisBFT deployment's output safety end to end.

    Appends one :class:`~repro.check.report.Violation` per finding to
    ``report`` and bumps ``report.outputs_recomputed`` for every task
    whose committed output was recomputed and compared.
    """
    expected_cache: dict[str, tuple] = {}
    coordinator = cluster.coordinators[0]
    # (task_id, index) -> committed digest, for cross-OP agreement
    committed: dict[tuple[str, int], bytes] = {}

    for op in cluster.outputs:
        accepted_slots = 0
        winner_records = 0
        # counter comparison is only meaningful when every accepted slot
        # has exactly one derivable winner; otherwise a sharper
        # violation was already reported above
        countable = True
        for task_id, ot in op._tasks.items():
            accepted_slots += len(ot.accepted)
            if ot.vp_index < 0:
                if ot.accepted:
                    countable = False
                continue
            quorum = cluster.topo.cluster(ot.vp_index).quorum
            winners_by_index: dict[int, bytes] = {}
            for index, slot in ot.slots.items():
                winners = [
                    sigma
                    for sigma, endorsers in slot.endorsements.items()
                    if len(endorsers) >= quorum and sigma in slot.arrived
                ]
                if len(winners) > 1:
                    report.add(
                        "committed-equivocation",
                        op.pid,
                        -1.0,
                        f"task {task_id}#{index}: {len(winners)} "
                        f"distinct digests each hold a quorum — "
                        f"sub-cluster VP{ot.vp_index} committed to "
                        f"conflicting chunks",
                    )
                    countable = False
                    continue
                if index in ot.accepted:
                    sigma = slot.winner
                    if sigma not in winners:
                        report.add(
                            "accept-without-quorum",
                            op.pid,
                            -1.0,
                            f"task {task_id}#{index} accepted but its "
                            f"digest does not hold a quorum of {quorum} "
                            f"with data present",
                        )
                        countable = False
                        continue
                    winners_by_index[index] = sigma
                    winner_records += slot.records
                    prev = committed.get((task_id, index))
                    if prev is not None and prev != sigma:
                        report.add(
                            "committed-equivocation",
                            op.pid,
                            -1.0,
                            f"task {task_id}#{index}: this OP "
                            f"committed a different digest than "
                            f"another OP",
                        )
                    committed[(task_id, index)] = sigma

            if ot.completed and (
                ot.final_index is None
                or any(
                    i not in ot.accepted for i in range(ot.final_index + 1)
                )
            ):
                report.add(
                    "completion-without-accept",
                    op.pid,
                    -1.0,
                    f"task {task_id} completed with accepted="
                    f"{sorted(ot.accepted)} but final_index="
                    f"{ot.final_index}",
                )

            _audit_output(
                cluster, coordinator, op, task_id, ot, winners_by_index,
                expected_cache, report,
            )

        if countable:
            if op.chunks_accepted != accepted_slots:
                report.add(
                    "accept-conservation",
                    op.pid,
                    -1.0,
                    f"counter chunks_accepted={op.chunks_accepted} but "
                    f"{accepted_slots} slot(s) are marked accepted",
                )
            if op.records_accepted != winner_records:
                report.add(
                    "accept-conservation",
                    op.pid,
                    -1.0,
                    f"counter records_accepted={op.records_accepted} "
                    f"but the accepted winner chunks hold "
                    f"{winner_records} record(s)",
                )


def _audit_output(
    cluster, coordinator, op, task_id, ot, winners_by_index,
    expected_cache, report,
) -> None:
    """Recompute A(s, t), cut it along the committed record counts and
    compare every chunk's σ with the committed one."""
    if not ot.completed:
        return
    entry = coordinator.outstanding.get(task_id)
    if entry is None:
        return
    task = entry.task
    if not task.opcode.has_compute or task.timestamp < 0:
        return
    indices = sorted(ot.accepted)
    if any(i not in winners_by_index for i in indices):
        return  # already reported above; a comparison would lie
    if task_id not in expected_cache:
        view = coordinator.store.view(task.timestamp)
        records = cluster.app.compute(view, task).records
        expected_cache[task_id] = tuple(records)
    expected = expected_cache[task_id]
    report.outputs_recomputed += 1
    observed = sum(ot.slots[i].records for i in indices)
    diverging = None
    start = 0
    for i in indices:
        count = ot.slots[i].records
        final = i == ot.final_index
        piece = Chunk(task_id, i, expected[start:start + count], final)
        start += count
        if piece.sigma != winners_by_index[i]:
            diverging = i
            break
    if diverging is None:
        if observed == len(expected):
            return
        diverging = max(indices, default=0)  # every σ matched: cut short
    report.add(
        "output-failure",
        op.pid,
        -1.0,
        f"task {task_id} committed output diverges from A(s, t) "
        f"recomputed at ts={task.timestamp} at chunk #{diverging} "
        f"({observed} observed vs {len(expected)} expected records)",
    )
