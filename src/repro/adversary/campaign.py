"""Declarative Byzantine campaign vocabulary.

A :class:`Campaign` is a *value*: a frozen, hashable, JSON-serializable
adversary schedule.  It composes the fault strategies of
:mod:`repro.core.faults` three ways:

* **Phases** — time-scheduled: at simulated time ``at``, apply a batch of
  :class:`Action`\\ s (set / clear / swap strategies on process selectors).
  Coordinated group attacks are just phases whose selector matches many
  processes ("all executors equivocate in the same epoch").
* **Triggers** — adaptive: subscribe to the :mod:`repro.obs` bus and
  react to protocol events ("when my chunk is accepted, start omitting";
  "when a leader election fires, the new leader turns negligent").
* **Selectors** — role- or topology-level targeting, resolved against the
  deployment's :class:`~repro.net.topology.Topology` at application time
  (see :func:`resolve_selector`).

Campaigns and :class:`FaultSpec` entries carry no live objects, so they
ride inside a serializable :class:`repro.api.DeploymentSpec` — sweepable
and content-addressed-cacheable by :mod:`repro.exp`, randomly generated
and shrunk by :mod:`repro.check.fuzz`.
uBFT and the verified-log line of work both stress that adversary
*schedules*, not just fault types, decide whether recovery paths are
exercised — the campaign is the schedule made first-class.

Selector grammar
----------------
========================= ==============================================
selector                  resolves to
========================= ==============================================
``e0`` / any exact pid    that process
``executors``             every EP member
``verifiers``             every verifier (coordinators included)
``coordinators``          the VP_CO members
``outputs``               every OP
``cluster:<i>``           members of verifier sub-cluster ``i``
``<multi>[a:b]``          Python slice of any multi-selector above,
                          e.g. ``executors[:5]``, ``cluster:1[:2]``
``event:<field>``         (triggers only) the value of ``<field>`` on
                          the triggering event, e.g. ``event:pid``,
                          ``event:culprit``, ``event:executor``
``event:new-leader``      (triggers only) the leader elected by a
                          ``leader-election`` event
========================= ==============================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any, Mapping, Sequence

from repro.core.faults import FAULT_REGISTRIES, make_fault
from repro.errors import AdversaryError

__all__ = [
    "FaultSpec",
    "Action",
    "Phase",
    "Trigger",
    "Campaign",
    "resolve_selector",
]

_SCALARS = (str, int, float, bool, type(None))


def _kv(params: Mapping[str, Any] | Sequence | None) -> tuple[tuple[str, Any], ...]:
    """Normalize params to a sorted, hashable, JSON-scalar kv-tuple."""
    if not params:
        return ()
    items = dict(params)
    out = []
    for key in sorted(items):
        value = items[key]
        if not isinstance(value, _SCALARS):
            raise AdversaryError(
                f"campaign param {key!r} must be a JSON scalar, "
                f"got {type(value).__name__}"
            )
        out.append((str(key), value))
    return tuple(out)


# ------------------------------------------------------------------ pieces
@dataclass(frozen=True)
class FaultSpec:
    """One named fault strategy: role registry + kind + constructor kv."""

    role: str
    kind: str
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        registry = FAULT_REGISTRIES.get(self.role)
        if registry is None:
            raise AdversaryError(
                f"unknown fault role {self.role!r}; expected one of "
                f"{sorted(FAULT_REGISTRIES)}"
            )
        if self.kind not in registry:
            raise AdversaryError(
                f"unknown {self.role} fault {self.kind!r}; "
                f"registered: {sorted(registry)}"
            )
        object.__setattr__(self, "params", _kv(self.params))

    def build(self):
        """Fresh strategy instance (never shared across targets)."""
        return make_fault(self.role, self.kind, dict(self.params))

    def to_dict(self) -> dict[str, Any]:
        return {
            "role": self.role,
            "kind": self.kind,
            "params": [list(p) for p in self.params],
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "FaultSpec":
        return cls(
            role=d["role"],
            kind=d["kind"],
            params=tuple((k, v) for k, v in d.get("params", ())),
        )


@dataclass(frozen=True)
class Action:
    """Set or clear a fault strategy on every process a selector matches.

    ``op`` is ``"set"`` (install/swap — installing over an existing
    strategy *is* the swap) or ``"clear"`` (restore honest behaviour).
    ``fault`` is required for ``set`` and must be absent for ``clear``.
    """

    op: str
    select: str
    fault: FaultSpec | None = None

    def __post_init__(self) -> None:
        if self.op not in ("set", "clear"):
            raise AdversaryError(f"unknown action op {self.op!r}")
        if self.op == "set" and self.fault is None:
            raise AdversaryError("set action needs a fault spec")
        if self.op == "clear" and self.fault is not None:
            raise AdversaryError("clear action must not carry a fault spec")
        if not self.select:
            raise AdversaryError("action needs a selector")

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {"op": self.op, "select": self.select}
        if self.fault is not None:
            d["fault"] = self.fault.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Action":
        fault = d.get("fault")
        return cls(
            op=d["op"],
            select=d["select"],
            fault=FaultSpec.from_dict(fault) if fault is not None else None,
        )


@dataclass(frozen=True)
class Phase:
    """A batch of actions applied at one simulated time."""

    at: float
    actions: tuple[Action, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if self.at < 0:
            raise AdversaryError(f"phase time must be >= 0, got {self.at}")
        object.__setattr__(self, "actions", tuple(self.actions))
        if not self.actions:
            raise AdversaryError("phase needs at least one action")

    def to_dict(self) -> dict[str, Any]:
        return {
            "at": self.at,
            "name": self.name,
            "actions": [a.to_dict() for a in self.actions],
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Phase":
        return cls(
            at=d["at"],
            actions=tuple(Action.from_dict(a) for a in d["actions"]),
            name=d.get("name", ""),
        )


@dataclass(frozen=True)
class Trigger:
    """Adaptive rule: when a matching protocol event fires, apply actions.

    ``on`` is a trace-event ``kind`` (e.g. ``"chunk-accepted"``,
    ``"leader-election"``, ``"task-assigned"`` — see
    :mod:`repro.obs.events`).  ``where`` is a kv-tuple of event-field
    equality filters (``(("pid", "e0"),)`` matches only events whose
    ``pid`` is ``e0``).  ``once=True`` disarms the trigger after the
    first match; ``after`` delays the actions by simulated seconds
    (0 applies them synchronously, *during* the triggering emission).
    Action selectors may use the ``event:`` forms to target processes
    named by the triggering event itself.
    """

    on: str
    actions: tuple[Action, ...]
    where: tuple[tuple[str, Any], ...] = ()
    once: bool = True
    after: float = 0.0
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", tuple(self.actions))
        object.__setattr__(self, "where", _kv(self.where))
        if not self.actions:
            raise AdversaryError("trigger needs at least one action")
        if self.after < 0:
            raise AdversaryError(f"trigger delay must be >= 0, got {self.after}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "on": self.on,
            "name": self.name,
            "where": [list(p) for p in self.where],
            "once": self.once,
            "after": self.after,
            "actions": [a.to_dict() for a in self.actions],
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Trigger":
        return cls(
            on=d["on"],
            actions=tuple(Action.from_dict(a) for a in d["actions"]),
            where=tuple((k, v) for k, v in d.get("where", ())),
            once=d.get("once", True),
            after=d.get("after", 0.0),
            name=d.get("name", ""),
        )


@dataclass(frozen=True)
class Campaign:
    """A full adversary schedule: timed phases plus adaptive triggers."""

    name: str
    phases: tuple[Phase, ...] = ()
    triggers: tuple[Trigger, ...] = ()
    #: free-form note for reports ("Fig 7a: all executors fail at t=45s")
    note: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "phases", tuple(self.phases))
        object.__setattr__(self, "triggers", tuple(self.triggers))

    # ------------------------------------------------------------- queries
    @property
    def empty(self) -> bool:
        return not self.phases and not self.triggers

    def first_injection(self) -> float | None:
        """Earliest *scheduled* destructive action time (``set`` in a
        phase), the reference point for recovery metrics.  ``None`` when
        the campaign is purely adaptive (the engine then records the
        first applied action's time at runtime)."""
        times = [
            p.at
            for p in self.phases
            if any(a.op == "set" for a in p.actions)
        ]
        return min(times) if times else None

    # ------------------------------------------------------- serialization
    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "note": self.note,
            "phases": [p.to_dict() for p in self.phases],
            "triggers": [t.to_dict() for t in self.triggers],
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Campaign":
        return cls(
            name=d["name"],
            phases=tuple(Phase.from_dict(p) for p in d.get("phases", ())),
            triggers=tuple(
                Trigger.from_dict(t) for t in d.get("triggers", ())
            ),
            note=d.get("note", ""),
        )

    def to_json(self) -> str:
        """Canonical frozen form (sorted keys, no whitespace) — how a
        campaign rides inside a :meth:`repro.api.DeploymentSpec.descriptor`."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "Campaign":
        try:
            return cls.from_dict(json.loads(text))
        except (ValueError, KeyError, TypeError) as exc:
            raise AdversaryError(f"malformed campaign JSON: {exc}") from exc

    def with_name(self, name: str) -> "Campaign":
        return replace(self, name=name)


# ---------------------------------------------------------------- selectors
def _slice(expr: str) -> tuple[str, slice | None]:
    """Split ``base[a:b]`` into (base, slice); no suffix → (expr, None)."""
    if not expr.endswith("]") or "[" not in expr:
        return expr, None
    base, _, tail = expr.rpartition("[")
    body = tail[:-1]
    if ":" not in body:
        raise AdversaryError(
            f"selector slice must be a range, got [{body}] in {expr!r}"
        )
    lo_s, _, hi_s = body.partition(":")
    try:
        lo = int(lo_s) if lo_s else None
        hi = int(hi_s) if hi_s else None
    except ValueError as exc:
        raise AdversaryError(f"bad selector slice in {expr!r}") from exc
    return base, slice(lo, hi)


def resolve_selector(select: str, topo, event=None) -> tuple[str, ...]:
    """Resolve a selector expression to target pids (see module doc).

    ``event`` enables the ``event:*`` forms; passing one outside a
    trigger context is an error the caller enforces.
    """
    if select.startswith("event:"):
        if event is None:
            raise AdversaryError(
                f"selector {select!r} is only valid inside a trigger"
            )
        field_name = select[len("event:"):]
        if field_name == "new-leader":
            vp_index = getattr(event, "vp_index", None)
            term = getattr(event, "term", None)
            if vp_index is None or term is None:
                raise AdversaryError(
                    f"event:new-leader needs vp_index/term, "
                    f"but {event.kind!r} has neither"
                )
            return (topo.cluster(vp_index).leader_at(term),)
        value = getattr(event, field_name, None)
        if not isinstance(value, str) or not value:
            raise AdversaryError(
                f"event field {field_name!r} of {event.kind!r} is not a pid"
            )
        return (value,)

    base, sl = _slice(select)
    if base == "executors":
        pids: tuple[str, ...] = tuple(topo.executor_pids)
    elif base == "verifiers":
        pids = topo.all_verifier_pids()
    elif base == "coordinators":
        pids = tuple(topo.coordinator.members)
    elif base == "outputs":
        pids = tuple(topo.output_pids)
    elif base.startswith("cluster:"):
        try:
            index = int(base[len("cluster:"):])
        except ValueError as exc:
            raise AdversaryError(f"bad cluster selector {select!r}") from exc
        pids = tuple(topo.cluster(index).members)
    else:
        if sl is not None:
            raise AdversaryError(f"cannot slice single-pid selector {select!r}")
        if base not in topo.all_pids():
            raise AdversaryError(f"selector {select!r} names no process")
        return (base,)
    return pids[sl] if sl is not None else pids
