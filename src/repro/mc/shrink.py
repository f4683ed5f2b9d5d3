"""Trace shrinking and JSON reproducers for explorer findings.

A violation comes out of the DFS as the full schedule that reached the
bad terminal state.  :func:`shrink_trace` reduces it to a locally
minimal schedule with deterministic replay as the oracle:

1. *prefix search* — the shortest prefix whose resulting state already
   exhibits one of the target invariants (violations are state
   properties, so a failing prefix stays failing);
2. *greedy deletion to fixpoint* — drop one action at a time (from the
   end, where consequences live), keeping the deletion whenever the
   trace still fails; repeat until a full pass removes nothing.

Replay is skip-if-infeasible: after a deletion, later keys whose
action no longer exists (its cause was deleted) are skipped rather
than failing the replay — the oracle only cares whether the surviving
schedule still reaches a violating state.

The JSON reproducer (:class:`McReproducer`) carries the model, the
shrunk trace and the expected invariants, and replays via
``python -m repro mc replay`` — the same pattern as ``check.fuzz``
point reproducers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.check.report import SanitizerReport
from repro.mc.model import McModel, build_world
from repro.mc.world import Action, McWorld, audit_world

__all__ = [
    "run_trace",
    "check_trace",
    "shrink_trace",
    "McReproducer",
    "reproduce",
]

#: Replay budget for one shrink: prefix search + deletion passes.
MAX_SHRINK_REPLAYS = 500


def run_trace(model: McModel, trace) -> McWorld:
    """Rebuild the world and execute ``trace``, skipping infeasible keys.

    Keys are matched by identity against the pending frontier (action
    keys are content-based, so a rebuilt world re-derives the same
    keys); timer keys fire if the timer is armed, with the occurrence
    element re-derived from the replay's own budget accounting.
    """
    world = build_world(model)
    for raw in trace:
        key = tuple(raw)
        if key[0] == "t":
            pid, name = key[1], key[2]
            rt = world.runtimes.get(pid)
            if rt is None or name not in rt.timers:
                continue
            spent = world.timer_spent.get((pid, name), 0)
            world.execute(Action(("t", pid, name, spent)))
        else:
            action = world.pending.get(key)
            if action is None:
                continue
            world.execute(action)
    return world


def check_trace(model: McModel, trace, target: set) -> SanitizerReport:
    """Replay ``trace`` and audit; a hit means the violation survives.

    Returns the report; callers test ``invariants_hit() & target``.
    """
    return audit_world(run_trace(model, trace))


def shrink_trace(model: McModel, trace, target: set):
    """Locally minimal sub-trace still hitting a ``target`` invariant."""
    trace = [tuple(k) for k in trace]
    replays = 0

    def fails(candidate) -> bool:
        nonlocal replays
        replays += 1
        report = check_trace(model, candidate, target)
        return bool(report.invariants_hit() & target)

    if not fails(trace):  # not deterministic after all — keep as-is
        return trace

    # 1. earliest failing prefix
    for length in range(1, len(trace)):
        if replays >= MAX_SHRINK_REPLAYS:
            return trace
        if fails(trace[:length]):
            trace = trace[:length]
            break

    # 2. greedy one-at-a-time deletion, to fixpoint
    changed = True
    while changed and replays < MAX_SHRINK_REPLAYS:
        changed = False
        for i in range(len(trace) - 1, -1, -1):
            if replays >= MAX_SHRINK_REPLAYS:
                break
            candidate = trace[:i] + trace[i + 1 :]
            if fails(candidate):
                trace = candidate
                changed = True
    return trace


@dataclass
class McReproducer:
    """Replayable record of one explorer finding."""

    model: McModel
    invariants: list[str]
    trace: list = field(default_factory=list)
    details: list[str] = field(default_factory=list)

    KIND = "mc-reproducer"

    def to_dict(self) -> dict:
        return {
            "kind": self.KIND,
            "model": self.model.to_dict(),
            "invariants": list(self.invariants),
            "details": list(self.details),
            "trace": [list(k) for k in self.trace],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "McReproducer":
        if data.get("kind") != cls.KIND:
            raise ValueError(
                f"not an mc reproducer: kind={data.get('kind')!r}"
            )
        return cls(
            model=McModel.from_dict(data.get("model", {})),
            invariants=list(data.get("invariants", [])),
            trace=[tuple(k) for k in data.get("trace", [])],
            details=list(data.get("details", [])),
        )


def reproduce(rep: McReproducer) -> tuple[bool, SanitizerReport]:
    """Replay a reproducer; True when an expected invariant re-fires."""
    report = check_trace(rep.model, rep.trace, set(rep.invariants))
    hit = bool(report.invariants_hit() & set(rep.invariants))
    return hit, report
