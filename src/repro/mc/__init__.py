"""Bounded interleaving exploration of small OsirisBFT deployments.

``repro.mc`` drives the pure protocol cores, each on the same in-memory
:class:`~repro.runtime.testing.TestRuntime` unit tests and replay use,
and treats their shared pending frontier (sends and queued jobs the
world collects after every step) as a *choice point*: a DFS with
sleep-set partial-order reduction, state-fingerprint merging and
CHESS-style delay bounding enumerates delivery orders and audits the
sanitizer's safety invariants (via the
shared :mod:`repro.check.invariants`) in every reachable terminal
state.  Violations shrink to minimal schedules serialized as JSON
reproducers; ``python -m repro mc`` exposes ``explore``, ``replay``
and ``stats``.
"""

from repro.mc.explore import ExploreResult, ExploreStats, McViolation, explore
from repro.mc.model import McModel, build_world
from repro.mc.shrink import (
    McReproducer,
    check_trace,
    reproduce,
    run_trace,
    shrink_trace,
)
from repro.mc.world import Action, McWorld, audit_world

__all__ = [
    "Action",
    "ExploreResult",
    "ExploreStats",
    "McModel",
    "McReproducer",
    "McViolation",
    "McWorld",
    "audit_world",
    "build_world",
    "check_trace",
    "explore",
    "reproduce",
    "run_trace",
    "shrink_trace",
]
