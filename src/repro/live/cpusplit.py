"""Where a live node's CPU goes: codec, delivery and receive, per task.

::

    python -m repro live split [--tasks 400] [--n 4] [--seed 0]

runs one live burst (:func:`burst_spec`) with thread-CPU timers around
four things every child's main thread does per message — encode
(``encode_frame`` of every mesh frame, ``encode_json`` of the up queue's
batches) and decode (``decode_frame``) as :mod:`repro.live.host` calls
them, ``deliver`` (the protocol handler and the effects it performs) and
``_recv`` (the wait, the pipe reads and the frame parse) — and prints,
per node, milliseconds per committed task.  Timers nest exclusively: an encode
inside a handler counts as encode, not as deliver.  ``other`` is the
rest of the main thread (timers, jobs, the flushes' pipe writes, the
loop); ``process`` also counts the up queue's feeder thread, which
pickles and writes the events and reports the main thread put.  Each
timer costs two ``thread_time`` reads, a few microseconds per message,
charged to the category it wraps.  ``rss MB`` is the node's peak
resident set (``ru_maxrss``) at exit, pages shared with the parent it
forked from included; it is not divided by the task count.
"""

from __future__ import annotations

import json
import os
import resource
import tempfile
import time
from typing import Any, Callable

CATEGORIES = ("encode", "decode", "deliver", "recv")
#: the codec calls of :mod:`repro.live.host`, by the category they count as
_CODEC = (
    ("encode_frame", "encode"),
    ("encode_json", "encode"),
    ("decode_frame", "decode"),
)
#: protocol timers long enough that a busy 2-vCPU host does not set off
#: view changes, whose state transfers would swamp the per-task split
QUIET_TIMERS = (
    ("consensus_view_timeout", 2.0),
    ("op_timeout", 10.0),
    ("suspect_timeout", 600.0),
)


def burst_spec(n_tasks: int = 400, n: int = 4, seed: int = 0):
    """A live burst of synthetic tasks whose emulated compute is 1 ms, so
    Python, codec and transport costs dominate what is measured."""
    from repro.api import DeploymentSpec

    return DeploymentSpec(
        workload="synthetic",
        workload_params={"n_tasks": n_tasks, "compute_cost": 1e-3},
        n=n,
        seed=seed,
        backend="live",
        config=QUIET_TIMERS,
    )


class _Split:
    """Exclusive thread-CPU accounting over nested categories."""

    def __init__(self) -> None:
        self.acc = dict.fromkeys(CATEGORIES, 0.0)
        self.stack: list[str] = []
        self.mark = 0.0

    def timed(self, cat: str, fn: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            now = time.thread_time()
            if self.stack:
                self.acc[self.stack[-1]] += now - self.mark
            self.stack.append(cat)
            self.mark = now
            try:
                return fn(*args, **kwargs)
            finally:
                now = time.thread_time()
                self.acc[self.stack.pop()] += now - self.mark
                self.mark = now

        return wrapper


def _instrument(out_dir: str) -> Callable[[], None]:
    """Wrap the live host's hot calls (inherited by every forked child);
    each child writes its totals to ``out_dir/<pid>.json`` as its loop
    ends.  Returns the undo."""
    from repro.live import host

    split = _Split()
    saved = {
        **{name: getattr(host, name) for name, _ in _CODEC},
        "deliver": host.LiveHost.deliver,
        "_recv": host.LiveHost._recv,
        "run": host.LiveHost.run,
    }

    def run(self) -> None:
        try:
            saved["run"](self)
        finally:
            path = os.path.join(out_dir, f"{self.pid}.json")
            with open(path, "w") as fh:
                json.dump(
                    {
                        **split.acc,
                        "thread": time.thread_time(),
                        "process": time.process_time(),
                        # Linux reports ru_maxrss in KiB
                        "rss_mb": resource.getrusage(
                            resource.RUSAGE_SELF
                        ).ru_maxrss / 1024,
                    },
                    fh,
                )

    for name, cat in _CODEC:
        setattr(host, name, split.timed(cat, saved[name]))
    host.LiveHost.deliver = split.timed("deliver", saved["deliver"])
    host.LiveHost._recv = split.timed("recv", saved["_recv"])
    host.LiveHost.run = run

    def undo() -> None:
        for name, _ in _CODEC:
            setattr(host, name, saved[name])
        for name in ("deliver", "_recv", "run"):
            setattr(host.LiveHost, name, saved[name])

    return undo


def measure(spec, time_scale: float) -> dict[str, dict[str, float]]:
    """Run ``spec`` (``backend="live"``) instrumented; per pid, CPU
    milliseconds per committed task by category, and peak RSS in MB."""
    from repro.api import run

    with tempfile.TemporaryDirectory() as out_dir:
        undo = _instrument(out_dir)
        try:
            result = run(spec, time_scale=time_scale)
        finally:
            undo()
        tasks = max(1, result.tasks_completed)
        table = {}
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name)) as fh:
                raw = json.load(fh)
            row = {cat: raw[cat] for cat in CATEGORIES}
            row["other"] = raw["thread"] - sum(row.values())
            row["process"] = raw["process"]
            table[name[: -len(".json")]] = {
                **{k: v * 1e3 / tasks for k, v in row.items()},
                "rss_mb": raw["rss_mb"],
            }
    return table


def render(table: dict[str, dict[str, float]]) -> str:
    """The table as text, one row per node plus the total."""
    cols = (*CATEGORIES, "other", "process")
    total = {c: sum(row[c] for row in table.values()) for c in (*cols, "rss_mb")}
    lines = ["ms/task " + "".join(f"{c:>9}" for c in cols) + "   rss MB"]
    for pid, row in (*table.items(), ("total", total)):
        lines.append(
            f"{pid:<8}"
            + "".join(f"{row[c]:9.3f}" for c in cols)
            + f"{row['rss_mb']:9.1f}"
        )
    share = (total["encode"] + total["decode"]) / max(total["process"], 1e-12)
    lines.append(f"codec share of process CPU: {share:.1%}")
    return "\n".join(lines)
