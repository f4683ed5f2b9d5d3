"""The explorable world: cores + pending frontier as a choice point.

A :class:`McWorld` owns every core of one small deployment (each bound
to its own :class:`~repro.runtime.testing.TestRuntime`), the shared
pending frontier (undelivered messages and unexecuted local jobs), and
the per-(pid, timer) fire budgets.  After every step the world moves
each runtime's recorded sends and queued jobs/scheds into the frontier
(:meth:`collect`); execution itself — delivery, the crash rules of
local jobs and timers — is the runtime's, so the explorer runs the
cores exactly as unit tests and replay do and only the *order* is its
own.  The explorer drives the world through exactly three operations:
:meth:`enabled` (the current choice point), :meth:`execute` (commit one
action, optionally draining its local follow-ups), and :meth:`clone`
(snapshot for backtracking).

Action identity is *content-based*, not queue-positional: a delivery is
keyed by (target, sender, payload-hash, occurrence#), so the same
logical action has the same key in every schedule — which is what lets
sleep sets and the delay budget compare actions across branches, and
lets a shrunk trace replay as a list of keys.

Fingerprints (:meth:`fingerprint`) compose cached per-core structural
digests with the occurrence-stripped multiset of pending keys and the
timer budgets spent.  The occurrence counters themselves are excluded:
two states differing only in how many identical payloads have *ever*
been enqueued behave identically going forward.
"""

from __future__ import annotations

import copy
import hashlib
from typing import Any

from repro.check.invariants import audit_safety
from repro.check.report import SanitizerReport
from repro.mc.fingerprint import DEFAULT_SKIP, stable_digest
from repro.runtime.effects import Multicast, NeqMulticast, Schedule, Send
from repro.runtime.testing import TestRuntime, describe_effect

__all__ = ["Action", "McWorld", "audit_world", "describe_action"]

# sender/_neq are transport stamps applied at delivery, not payload
_MSG_SKIP = frozenset(DEFAULT_SKIP | {"sender", "_neq"})


class Action:
    """One schedulable unit: a delivery, a local job, or a timer.

    ``key`` is the identity used for ordering, sleep sets, fingerprints
    and trace serialization:

    * ``("d", dst, src, payload_hash, occurrence)`` — deliver;
    * ``("l", pid, effect_type, id)`` — run a queued Job/CtrlJob/Schedule;
    * ``("t", pid, timer_name, spent)`` — fire an armed timer.

    The kind letters sort ``d < l < t``, so sorted choice points try
    deliveries first — that makes the canonical (0-delay) schedule a
    natural "network faster than timeouts" run.
    """

    __slots__ = ("key", "src", "msg", "neq", "effect")

    def __init__(self, key, src=None, msg=None, neq=False, effect=None):
        self.key = key
        self.src = src
        self.msg = msg
        self.neq = neq
        self.effect = effect

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Action{self.key!r}"


def describe_action(action: Action) -> str:
    """Human-oriented one-liner for logs and reproducer metadata."""
    key = action.key
    if key[0] == "d":
        tag = type(action.msg).__name__ if action.msg is not None else key[3]
        neq = " (neq)" if action.neq else ""
        return f"deliver {key[2]}->{key[1]} {tag}{neq} #{key[4]}"
    if key[0] == "l":
        if action.effect is not None:
            return f"local {key[1]} {describe_effect(action.effect)}"
        return f"local {key[1]} {key[2]}#{key[3]}"
    return f"timer {key[1]} {key[2]} (fire #{key[3] + 1})"


class McWorld:
    """Cores, frontier, and budgets of one explorable deployment."""

    def __init__(self, model, topo, config, app, registry) -> None:
        self.model = model
        self.topo = topo
        self.config = config
        self.app = app
        self.registry = registry
        self.cores: dict[str, Any] = {}
        self.runtimes: dict[str, TestRuntime] = {}
        self.coordinators: list = []
        self.outputs: list = []
        self.pending: dict[tuple, Action] = {}
        # (dst, src, payload_hash) -> next occurrence number
        self._occ: dict[tuple, int] = {}
        # (pid, timer_name) -> fires consumed
        self.timer_spent: dict[tuple, int] = {}
        # pid -> cached structural digest (invalidated on mutation)
        self._core_fp: dict[str, str] = {}

    # ------------------------------------------------------------- building
    def add_core(self, core, coordinator: bool = False,
                 output: bool = False) -> None:
        # trace events never feed back into core state: dropping them
        # keeps snapshots small and states comparable across schedules
        rt = TestRuntime(core, cores=self.config.cores_per_node,
                         wanted=lambda category: False)
        self.cores[core.pid] = core
        self.runtimes[core.pid] = rt
        if coordinator:
            self.coordinators.append(core)
        if output:
            self.outputs.append(core)

    # ---------------------------------------------------- frontier plumbing
    def collect(self) -> None:
        """Move every runtime's recorded sends and queued jobs/scheds
        into the frontier, then clear both (other effects need nothing
        from the world: timers stay armed on their runtime)."""
        for src, rt in self.runtimes.items():
            for effect in rt.effects:
                t = type(effect)
                if t is Send:
                    self._enqueue_send(src, effect.dst, effect.msg, False)
                elif t is Multicast or t is NeqMulticast:
                    neq = t is NeqMulticast
                    for dst in effect.dsts:
                        self._enqueue_send(src, dst, effect.msg, neq)
            for effect in rt.pending:
                t = type(effect)
                ident = effect.sched_id if t is Schedule else effect.job_id
                key = ("l", src, t.__name__, ident)
                self.pending[key] = Action(key, effect=effect)
            rt.clear()
            rt.pending.clear()

    def _enqueue_send(self, src: str, dst: str, msg, neq: bool) -> None:
        payload = stable_digest(msg, _MSG_SKIP)[:16]
        if neq:
            payload += ":q"
        occ = self._occ.get((dst, src, payload), 0)
        self._occ[(dst, src, payload)] = occ + 1
        key = ("d", dst, src, payload, occ)
        self.pending[key] = Action(key, src=src, msg=msg, neq=neq)

    # --------------------------------------------------------- choice point
    def enabled(self) -> list[Action]:
        """Schedulable actions, in canonical (sorted-key) order.

        While messages or local jobs are pending, only those are
        enabled; timers become schedulable at quiescence — a timeout
        firing while its answer sits in the network is the
        asynchronous case, but exploring it multiplies the space for
        schedules the timer *budget* already covers (fire budgets make
        each timer's late firing reachable from the quiescent state).
        """
        keys = sorted(self.pending)
        if keys:
            return [self.pending[k] for k in keys]
        out = []
        for pid in sorted(self.runtimes):
            rt = self.runtimes[pid]
            for name in sorted(rt.timers):
                spent = self.timer_spent.get((pid, name), 0)
                if spent < self.model.timer_budget:
                    out.append(Action(("t", pid, name, spent)))
        return out

    # ------------------------------------------------------------ execution
    def execute(self, action: Action) -> bool:
        """Commit one action (plus eager local follow-ups).

        Returns True when the step was a *stutter*: a delivery that
        left its target core structurally unchanged and enqueued
        nothing — the explorer may commit such steps without branching
        on their alternatives.
        """
        key = action.key
        kind = key[0]
        target = key[1]
        check_stutter = kind == "d" and self.model.stutter
        pre_digest = self.core_digest(target) if check_stutter else None
        self.pending.pop(key, None)
        pre_keys = frozenset(self.pending) if check_stutter else None

        rt = self.runtimes[target]
        if kind == "d":
            # the transport's neq stamp; ``deliver`` stamps the sender
            msg = action.msg
            if action.neq:
                msg._neq = True
            elif getattr(msg, "_neq", False):
                msg._neq = False
            rt.deliver(msg, action.src)
        elif kind == "l":
            rt.run(action.effect)
        else:
            name = key[2]
            self.timer_spent[(target, name)] = (
                self.timer_spent.get((target, name), 0) + 1
            )
            rt.fire_timer(name)

        if self.model.eager_local:
            # locals only ever target the core that queued them, so the
            # macro-step still mutates exactly one core
            self.drain_local()
        else:
            self.collect()
        self.invalidate(target)

        if check_stutter:
            return (
                self.core_digest(target) == pre_digest
                and frozenset(self.pending) == pre_keys
            )
        return False

    def drain_local(self) -> None:
        """Run all pending local jobs to rest, in sorted-key order."""
        while True:
            self.collect()
            local_keys = sorted(k for k in self.pending if k[0] == "l")
            if not local_keys:
                return
            for key in local_keys:
                self.runtimes[key[1]].run(self.pending.pop(key).effect)

    def is_terminal(self) -> bool:
        return not self.enabled()

    # --------------------------------------------------------- fingerprints
    def invalidate(self, pid: str) -> None:
        self._core_fp.pop(pid, None)

    def invalidate_all(self) -> None:
        self._core_fp.clear()

    def core_digest(self, pid: str) -> str:
        """Cached structural digest of one core plus its armed timers."""
        fp = self._core_fp.get(pid)
        if fp is None:
            rt = self.runtimes[pid]
            fp = stable_digest((self.cores[pid], rt.timers))
            self._core_fp[pid] = fp
        return fp

    def fingerprint(self) -> str:
        """Digest of the whole state, stable across schedules and runs."""
        h = hashlib.sha256()
        for pid in sorted(self.cores):
            h.update(pid.encode())
            h.update(self.core_digest(pid).encode())
        # occurrence-stripped pending multiset: two enqueues of the
        # same payload stay distinct via multiplicity, but *which*
        # occurrence number they carry is schedule history, not state
        stripped = sorted(
            repr(k[:-1] if k[0] == "d" else k) for k in self.pending
        )
        for item in stripped:
            h.update(item.encode())
            h.update(b";")
        for (pid, name), spent in sorted(self.timer_spent.items()):
            h.update(f"t:{pid}:{name}={spent}".encode())
        return h.hexdigest()

    # ------------------------------------------------------------ snapshots
    def clone(self) -> "McWorld":
        """Deep copy for backtracking; shared environment stays shared.

        Topology, config, app, registry, model and the signers are
        immutable during exploration (the registry's MAC cache is a
        deterministic memo, so sharing it across branches is sound and
        keeps it warm), so the memo pre-seeds them as already-copied.
        """
        memo: dict[int, Any] = {}
        for shared in (self.model, self.topo, self.config, self.app,
                       self.registry):
            memo[id(shared)] = shared
        for core in self.cores.values():
            signer = getattr(core, "signer", None)
            if signer is not None:
                memo[id(signer)] = signer
        return copy.deepcopy(self, memo)


def audit_world(world: McWorld) -> SanitizerReport:
    """Evaluate the shared safety invariants against ``world``.

    ``McWorld`` satisfies :func:`repro.check.invariants.audit_safety`'s
    duck-typed cluster protocol directly (``topo``/``app``/
    ``coordinators``/``outputs``).
    """
    report = SanitizerReport()
    audit_safety(world, report)
    return report
