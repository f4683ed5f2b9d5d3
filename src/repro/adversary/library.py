"""Built-in campaigns: the paper's attacks plus the adaptive classics.

Each factory returns a frozen :class:`~repro.adversary.campaign.Campaign`
with sensible defaults; the :data:`BUILTIN` registry maps names to
zero-argument factories for the CLI (``python -m repro adversary list``)
and the attack-matrix benchmarks; :func:`resolve_campaign` is how every
command turns a campaign argument into a :class:`Campaign`.
"""

from __future__ import annotations

import inspect
from pathlib import Path
from typing import Callable, Optional

from repro.adversary.campaign import (
    Action,
    Campaign,
    FaultSpec,
    Phase,
    Trigger,
)
from repro.errors import ReproError

__all__ = [
    "fig7a",
    "mass_equivocation",
    "silent_minority",
    "negligent_cluster",
    "slow_then_recover",
    "turncoat",
    "coup",
    "BUILTIN",
    "resolve_campaign",
]


def _set(select: str, role: str, kind: str, **params) -> Action:
    return Action(
        op="set",
        select=select,
        fault=FaultSpec(role=role, kind=kind, params=tuple(params.items())),
    )


def fig7a(at: float = 45.0, kind: str = "corrupt-record") -> Campaign:
    """Fig 7a: *every* executor turns Byzantine at ``at`` seconds — each
    corrupts the final record of its next output to cause a mismatch.
    The system must detect, blacklist, reassign, and recover on verifier
    fallback capacity alone."""
    return Campaign(
        name="fig7a",
        note=f"all executors fail at t={at:g}s ({kind})",
        phases=(
            Phase(
                at=at,
                name="all-executors-fail",
                actions=(_set("executors", "executor", kind),),
            ),
        ),
    )


def mass_equivocation(at: float = 10.0) -> Campaign:
    """Coordinated group attack: every executor equivocates over the
    plain channel in the same epoch.  The non-equivocating primitive must
    make this detectable without ever accepting mismatched output."""
    return Campaign(
        name="mass-equivocation",
        note=f"all executors equivocate from t={at:g}s",
        phases=(
            Phase(
                at=at,
                name="equivocate",
                actions=(_set("executors", "executor", "equivocate-chunks"),),
            ),
        ),
    )


def silent_minority(at: float = 10.0, count: int = 2) -> Campaign:
    """``count`` executors go silent together — the speculative
    reassignment (Sec 5.2.2) workload."""
    return Campaign(
        name="silent-minority",
        note=f"{count} executors go silent at t={at:g}s",
        phases=(
            Phase(
                at=at,
                name="silence",
                actions=(_set(f"executors[:{count}]", "executor", "silent"),),
            ),
        ),
    )


def negligent_cluster(at: float = 10.0, index: int = 0, f: int = 1) -> Campaign:
    """``f`` verifiers of one sub-cluster turn negligent together — the
    maximum the 2f+1 sizing tolerates; quorums must still form."""
    return Campaign(
        name="negligent-cluster",
        note=f"{f} verifier(s) of cluster {index} negligent from t={at:g}s",
        phases=(
            Phase(
                at=at,
                name="negligence",
                actions=(
                    _set(
                        f"cluster:{index}[:{f}]",
                        "verifier",
                        "silent-verifier",
                    ),
                ),
            ),
        ),
    )


def slow_then_recover(
    at: float = 10.0, until: float = 30.0, count: int = 2, delay: float = 5.0
) -> Campaign:
    """Grey failure with remission: ``count`` executors turn
    pathologically slow at ``at`` and honest again at ``until`` —
    exercises the ``clear`` path and the slow × speculative-reassignment
    race (duplicate attempts racing to acceptance)."""
    select = f"executors[:{count}]"
    return Campaign(
        name="slow-then-recover",
        note=f"{count} slow executors in [{at:g}, {until:g})s",
        phases=(
            Phase(
                at=at,
                name="slowdown",
                actions=(_set(select, "executor", "slow", delay=delay),),
            ),
            Phase(
                at=until,
                name="remission",
                actions=(Action(op="clear", select=select),),
            ),
        ),
    )


def turncoat(target: str = "e0") -> Campaign:
    """Adaptive: ``target`` behaves honestly until the first chunk is
    accepted (building trust), then starts omitting records."""
    return Campaign(
        name="turncoat",
        note=f"{target} omits records once output is being accepted",
        triggers=(
            Trigger(
                on="chunk-accepted",
                name="betray",
                once=True,
                actions=(_set(target, "executor", "omit-record"),),
            ),
        ),
    )


def coup(at: float = 10.0, index: int = 0) -> Campaign:
    """Adaptive: the leader of sub-cluster ``index`` turns negligent;
    when the resulting leader election fires, the *new* leader turns
    negligent too.  Over-budget for f=1 by construction — liveness may
    suffer, safety must not."""
    return Campaign(
        name="coup",
        note=f"successive negligent leaders in cluster {index}",
        phases=(
            Phase(
                at=at,
                name="first-negligence",
                actions=(
                    _set(f"cluster:{index}[:1]", "verifier", "negligent-leader"),
                ),
            ),
        ),
        triggers=(
            Trigger(
                on="leader-election",
                name="corrupt-successor",
                where=(("vp_index", index),),
                once=True,
                actions=(
                    _set("event:new-leader", "verifier", "negligent-leader"),
                ),
            ),
        ),
    )


#: Campaign name → zero-argument factory with default parameters.
BUILTIN: dict[str, Callable[[], Campaign]] = {
    "fig7a": fig7a,
    "mass-equivocation": mass_equivocation,
    "silent-minority": silent_minority,
    "negligent-cluster": negligent_cluster,
    "slow-then-recover": slow_then_recover,
    "turncoat": turncoat,
    "coup": coup,
}


def resolve_campaign(
    ref: str, at: Optional[float] = None, lenient: bool = False
) -> Campaign:
    """A :data:`BUILTIN` name (re-timed to ``at`` when given) or a JSON
    file path, as a campaign.  A built-in that takes no ``at`` rejects
    one, unless ``lenient`` keeps its default timing instead (the
    attack matrix re-times what it can)."""
    factory = BUILTIN.get(ref)
    if factory is not None:
        if at is None:
            return factory()
        if "at" in inspect.signature(factory).parameters:
            return factory(at=at)
        if lenient:
            return factory()
        raise ReproError(f"campaign {ref!r} does not take an --at override")
    path = Path(ref)
    if path.is_file():
        return Campaign.from_json(path.read_text())
    raise ReproError(
        f"unknown campaign {ref!r}: not a built-in "
        f"({', '.join(sorted(BUILTIN))}) and not a JSON file"
    )
