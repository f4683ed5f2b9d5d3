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

A second table counts, per node and task, the loop's turns and the
clock's fired continuations (timers, schedules, job completions and
milestones), and gives the p50 and p99 lateness of the fired ones: wall
milliseconds from the due time to the call.  Its ``all`` row pools the
lateness of every node (:func:`lateness`).
"""

from __future__ import annotations

import json
import math
import os
import resource
import tempfile
import time
from typing import Any, Callable, Iterable

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
    turns = [0]
    late: list[float] = []  # wall seconds from due time to call
    saved = {
        **{name: getattr(host, name) for name, _ in _CODEC},
        "deliver": host.LiveHost.deliver,
        "_recv": host.LiveHost._recv,
        "_next": host.LiveHost._next,
        "run": host.LiveHost.run,
        "schedule_at": host._WallClock.schedule_at,
    }

    def next_item(self, timeout: float) -> Any:
        turns[0] += 1  # one call starts each turn of the loop
        return saved["_next"](self, timeout)

    def schedule_at(self, at: float, fn, *args: Any, handle=None):
        def fire(*fire_args: Any) -> None:
            if self.t0 is not None:  # a clock not started fires at 0
                late.append(time.monotonic() - self.t0 - at * self.scale)
            fn(*fire_args)

        return saved["schedule_at"](self, at, fire, *args, handle=handle)

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
                        "turns": turns[0],
                        "late": late,
                    },
                    fh,
                )

    for name, cat in _CODEC:
        setattr(host, name, split.timed(cat, saved[name]))
    host.LiveHost.deliver = split.timed("deliver", saved["deliver"])
    host.LiveHost._recv = split.timed("recv", saved["_recv"])
    host.LiveHost._next = next_item
    host.LiveHost.run = run
    host._WallClock.schedule_at = schedule_at

    def undo() -> None:
        for name, _ in _CODEC:
            setattr(host, name, saved[name])
        for name in ("deliver", "_recv", "_next", "run"):
            setattr(host.LiveHost, name, saved[name])
        host._WallClock.schedule_at = saved["schedule_at"]

    return undo


def measure(spec, time_scale: float) -> dict[str, dict[str, float]]:
    """Run ``spec`` (``backend="live"``) instrumented; per pid, CPU
    milliseconds per committed task by category, peak RSS in MB, loop
    turns and fired continuations per task, and the fired ones'
    lateness in wall milliseconds (``late_ms``)."""
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
                "turns": raw["turns"] / tasks,
                "fires": len(raw["late"]) / tasks,
                "late_ms": [x * 1e3 for x in raw["late"]],
            }
    return table


def _pct(ordered: list[float], q: float) -> float:
    """The ``q`` quantile of a sorted list, nearest rank (NaN if empty)."""
    if not ordered:
        return math.nan
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def lateness(rows: Iterable[dict]) -> tuple[float, float]:
    """p50 and p99 lateness, in ms, of the continuations fired in all
    of ``rows`` pooled."""
    pooled = sorted(x for row in rows for x in row["late_ms"])
    return _pct(pooled, 0.5), _pct(pooled, 0.99)


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
    lines.append(
        "per task   turns    fires  late p50  late p99 (ms, due to call)"
    )
    timers = {
        pid: (row["turns"], row["fires"], *lateness((row,)))
        for pid, row in table.items()
    }
    timers["all"] = (
        sum(row["turns"] for row in table.values()),
        sum(row["fires"] for row in table.values()),
        *lateness(table.values()),
    )
    for pid, (turns, fires, p50, p99) in timers.items():
        lines.append(f"{pid:<8}{turns:8.1f}{fires:9.1f}{p50:10.3f}{p99:10.3f}")
    return "\n".join(lines)
