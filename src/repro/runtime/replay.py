"""Standalone re-execution of one core from a bus-captured inbox.

Enable :attr:`DesHost.capture` on a host during a DES run and attach a
:class:`~repro.obs.sinks.JsonlTraceSink` subscribed to
``CATEGORY_REPLAY``: the sink then records every *input* the core
consumed (messages in codec form; timer, job, milestone and sched fires
by identifier) interleaved with the *signature* of every effect the core
performed.  :func:`replay` re-runs a freshly constructed core against
that input log on a :class:`~repro.runtime.testing.TestRuntime` — with
no Simulator and no Network — re-invoking the new core's own pending
continuations by identifier; :func:`effect_signature` over the
runtime's recorded effects is then comparable against the live stream.

This is the post-mortem workflow for chaos-test failures: rebuild the
one suspect role, replay its exact inbox, and single-step its decisions
without re-running (or perturbing) the whole deployment.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Optional

from repro.errors import ReplayError
from repro.runtime.codec import decode_json, encode_json
from repro.runtime.core import ProtocolCore
from repro.runtime.effects import (
    ApplyUpdate,
    CancelTimer,
    CtrlJob,
    Emit,
    Halt,
    Job,
    Multicast,
    NeqMulticast,
    Schedule,
    Send,
    SetTimer,
)
from repro.runtime.testing import TestRuntime

__all__ = [
    "effect_signature",
    "encode_message",
    "decode_message",
    "ReplayLog",
    "replay",
]


def encode_message(msg: Any) -> str:
    """Wire form of a delivered message for the capture log."""
    return encode_json(msg, with_sender=True)


def decode_message(text: str) -> Any:
    return decode_json(text)


def _content_digest(msg: Any) -> str:
    # sender excluded: outgoing messages are unstamped on the live side
    # at perform time only when fresh — a retained message re-sent later
    # still carries the stamp of its first trip, which the replayed copy
    # cannot reproduce.
    body = encode_json(msg, with_sender=False)
    return hashlib.sha256(body.encode()).hexdigest()[:12]


def effect_signature(effect) -> str:
    """Deterministic one-line fingerprint of an effect.

    Strong enough to pin message content (codec digest), timer names
    and deadlines, and job costs; stable across live and replayed
    execution because it never includes substrate-assigned values.
    """
    t = type(effect)
    if t is Send:
        return (
            f"send:{effect.dst}:{type(effect.msg).__name__}"
            f":{_content_digest(effect.msg)}"
        )
    if t is Multicast:
        return (
            f"mcast:{','.join(effect.dsts)}:{type(effect.msg).__name__}"
            f":{_content_digest(effect.msg)}"
        )
    if t is NeqMulticast:
        return (
            f"neq:{','.join(effect.dsts)}:{type(effect.msg).__name__}"
            f":{_content_digest(effect.msg)}"
        )
    if t is SetTimer:
        return f"set-timer:{effect.name}:{effect.delay!r}"
    if t is CancelTimer:
        return f"cancel-timer:{effect.name}"
    if t is Schedule:
        return f"sched:{effect.sched_id}:{effect.delay!r}"
    if t is Job:
        return (
            f"job:{effect.job_id}:{effect.cost!r}:g{int(effect.guarded)}"
            f":m{len(effect.milestones)}"
        )
    if t is CtrlJob:
        return f"ctrl-job:{effect.job_id}:{effect.cost!r}"
    if t is ApplyUpdate:
        return f"apply-update:{effect.cost!r}"
    if t is Emit:
        ev = effect.event
        body = json.dumps(
            ev.as_dict(), sort_keys=True, separators=(",", ":"), default=str
        )
        return f"emit:{ev.kind}:{hashlib.sha256(body.encode()).hexdigest()[:12]}"
    if t is Halt:
        return "halt"
    raise ReplayError(f"unknown effect {effect!r}")


@dataclass
class ReplayLog:
    """Parsed capture for one pid: inputs and live effect signatures."""

    pid: str
    #: ``(time, input_kind, ref)`` in consumption order
    inputs: list[tuple[float, str, str]] = field(default_factory=list)
    #: live effect signatures, in perform order
    effects: list[str] = field(default_factory=list)

    @classmethod
    def from_jsonl(cls, lines: Iterable[str], pid: str) -> "ReplayLog":
        """Extract one core's log from JSONL trace output (other pids'
        and non-replay lines are ignored)."""
        log = cls(pid=pid)
        for line in lines:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("pid") != pid:
                continue
            if rec.get("kind") == "replay-input":
                log.inputs.append((rec["time"], rec["input_kind"], rec["ref"]))
            elif rec.get("kind") == "replay-effect":
                log.effects.append(rec["signature"])
        return log


def replay(
    core: ProtocolCore,
    log: ReplayLog,
    cores: int = 7,
    wants: Optional[Callable[[str], bool]] = None,
) -> TestRuntime:
    """Drive a fresh ``core`` through every input in ``log``.

    The core runs on a :class:`TestRuntime` whose clock follows the
    log.  A ``job``/``sched`` input runs the queued effect with that
    ``job_id``/``sched_id`` through :meth:`TestRuntime.run`; a job's
    milestones are inputs of their own (``job_id:index``), fired one at
    a time, so the job itself runs without them.  Returns the runtime;
    ``effect_signature`` over ``runtime.effects`` is directly comparable
    to ``log.effects`` from the live run.
    """
    rt = TestRuntime(core, cores=cores, wanted=wants)
    milestones: dict[str, tuple] = {}
    seen = 0
    for time, input_kind, ref in log.inputs:
        # index the milestones of every job performed since the last input
        for effect in rt.effects[seen:]:
            if type(effect) is Job:
                for idx, milestone in enumerate(effect.milestones):
                    milestones[f"{effect.job_id}:{idx}"] = milestone
        seen = len(rt.effects)
        rt.clock = time
        if input_kind == "msg":
            rt.deliver(decode_message(ref))
        elif input_kind == "timer":
            if not rt.timer_armed(ref):
                raise ReplayError(f"timer {ref!r} not armed at replay time")
            rt.fire_timer(ref)
        elif input_kind == "milestone":
            milestone = milestones.pop(ref, None)
            if milestone is None:
                raise ReplayError(
                    f"milestone {ref!r} not pending at replay time"
                )
            _, fn, args = milestone
            fn(*args)
        elif input_kind in ("job", "sched"):
            rt.run(_take_pending(rt, input_kind, int(ref)))
        else:
            raise ReplayError(f"unknown input kind {input_kind!r}")
    return rt


def _take_pending(rt: TestRuntime, input_kind: str, ident: int):
    """Dequeue the job (``job_id``) or sched (``sched_id``) ``ident``."""
    for i, effect in enumerate(rt.pending):
        if type(effect) is Schedule:
            if input_kind == "sched" and effect.sched_id == ident:
                return rt.pending.pop(i)
        elif input_kind == "job" and effect.job_id == ident:
            rt.pending.pop(i)
            if type(effect) is Job:
                return replace(effect, milestones=())
            return effect
    raise ReplayError(f"{input_kind} {ident} not pending at replay time")
