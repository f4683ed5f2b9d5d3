"""Shared helpers for core protocol tests."""

from __future__ import annotations

import hashlib

from repro.apps.synthetic import SyntheticApp, make_compute_task
from repro.core import OsirisConfig, build_osiris_cluster
from repro.core.tasks import Chunk


def fast_config(**overrides) -> OsirisConfig:
    """Config with short timeouts so failure tests converge quickly."""
    defaults = dict(
        suspect_timeout=0.1,
        op_timeout=0.05,
        role_switching=False,
        chunk_bytes=256,
    )
    defaults.update(overrides)
    return OsirisConfig(**defaults)


def compute_workload(n_tasks: int, period: float = 0.01, records=None):
    """(time, task) pairs of pure compute tasks."""
    return [
        (i * period, make_compute_task(i, n=records)) for i in range(n_tasks)
    ]


def run_cluster(
    n_tasks=10,
    n_workers=10,
    k=2,
    seed=1,
    until=30.0,
    app=None,
    config=None,
    workload=None,
    **kwargs,
):
    """Build, run and return a cluster with a simple compute workload."""
    app = app or SyntheticApp(records_per_task=5, compute_cost=5e-3)
    workload = workload if workload is not None else compute_workload(n_tasks)
    cluster = build_osiris_cluster(
        app,
        workload=iter(workload),
        n_workers=n_workers,
        k=k,
        seed=seed,
        config=config or fast_config(),
        **kwargs,
    )
    cluster.start()
    cluster.run(until=until)
    return cluster


def expected_record_data(task_id: str, i: int) -> int:
    """The datum SyntheticApp must produce at position i of a task."""
    raw = hashlib.sha256(f"{task_id}:{i}".encode()).digest()
    return int.from_bytes(raw[:8], "big")


def held_chunks(verifier, task_id=None) -> list:
    """Chunks ``verifier`` still holds, for ``task_id`` or for every task:
    output awaiting the OP's acknowledgement, plus every attempt's
    verified and buffered chunks."""
    held = [
        chunk
        for tid, (chunks, _, _) in verifier._unacked.items()
        if task_id in (None, tid)
        for chunk, _ in chunks
    ]
    for (tid, _), st in verifier._tasks.items():
        if task_id in (None, tid):
            held += [chunk for chunk, _ in st.verified]
            held += [m.chunk for m in st.raw_chunks.values()]
    return held


def op_held_chunks(op) -> list:
    """Chunks the output process ``op`` still holds in any chunk slot of
    any task, whatever the slot's field that holds them is called."""
    return [
        value
        for ot in op._tasks.values()
        for slot in ot.slots.values()
        for held in vars(slot).values()
        if isinstance(held, dict)
        for value in held.values()
        if isinstance(value, Chunk)
    ]


def audited_outputs(cluster) -> int:
    """Run the sanitizer's post-run audit of a cluster built with
    ``sanitize=True``, assert it is clean, and return how many committed
    task outputs it recomputed and compared against A(s, t)."""
    report = cluster.sanitizer.audit(cluster)
    assert report.ok, report.summary()
    return report.outputs_recomputed
