"""Campaign execution: bind a frozen :class:`Campaign` to a deployment.

The :class:`CampaignController` is an *active* component — unlike every
other bus consumer it exists to perturb the run.  It stays deterministic
the same way the rest of the substrate does: phase boundaries are plain
simulator events (scheduled at install time, fired in timestamp/seq
order), adaptive triggers react synchronously from the emitting call
site in attach order, and nothing consumes RNG.  Same campaign + same
seed ⇒ bit-identical traces (pinned by the golden campaign fixture).

A ``set`` action installs its fault through
:func:`repro.runtime.plan.install_fault`, the function that installs a
deployment's static ``faults=`` entries — so a campaign can do anything
a deployment-time fault can, plus activate / deactivate / swap it at any
simulated time or protocol event.
"""

from __future__ import annotations

import inspect
from typing import TYPE_CHECKING, Optional

from repro.adversary.campaign import Action, Campaign, Phase, Trigger, resolve_selector
from repro.errors import AdversaryError, ProtocolError
from repro.obs import events as _events
from repro.obs.bus import Sink
from repro.obs.events import (
    CATEGORY_ADVERSARY,
    AdversaryAction,
    AdversaryPhase,
    AdversaryTrigger,
    TraceEvent,
)
from repro.runtime.plan import install_fault

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.deploy import OsirisCluster

__all__ = [
    "CampaignController",
    "KIND_CATEGORIES",
    "apply_action_to_core",
    "install_campaign",
]


def _kind_categories() -> dict[str, str]:
    """Trace-event ``kind`` → category, scanned once from the vocabulary."""
    out: dict[str, str] = {}
    for name in _events.__all__:
        obj = getattr(_events, name)
        if (
            inspect.isclass(obj)
            and issubclass(obj, TraceEvent)
            and obj is not TraceEvent
        ):
            out[obj.kind] = obj.category
    return out


#: kind → category for every event in :mod:`repro.obs.events`.
KIND_CATEGORIES: dict[str, str] = _kind_categories()


class _TriggerSink(Sink):
    """Routes matching protocol events to the controller's triggers."""

    def __init__(self, controller: "CampaignController") -> None:
        self.controller = controller
        self.categories = frozenset(
            KIND_CATEGORIES[t.on] for t in controller.campaign.triggers
        )

    def handle(self, event: TraceEvent) -> None:
        self.controller._on_event(event)


class CampaignController:
    """Runs one campaign against one built (not yet started) deployment."""

    def __init__(self, campaign: Campaign, cluster: "OsirisCluster") -> None:
        self.campaign = campaign
        self.cluster = cluster
        self.sim = cluster.sim
        self.topo = cluster.topo
        self.bus = cluster.bus
        #: (time, op, target pid, role, fault kind) — every applied action
        self.applied: list[tuple[float, str, str, str, str]] = []
        #: time of the first destructive (``set``) action actually applied
        self.first_injection_at: Optional[float] = None
        self._armed: list[Trigger] = []
        self._sink: Optional[_TriggerSink] = None
        self._installed = False
        for trigger in campaign.triggers:
            if trigger.on not in KIND_CATEGORIES:
                raise AdversaryError(
                    f"trigger {trigger.name or trigger.on!r} watches unknown "
                    f"event kind {trigger.on!r}"
                )

    # ------------------------------------------------------------- install
    def install(self) -> "CampaignController":
        """Schedule every phase and arm every trigger.  Call after the
        cluster is built and before it is started."""
        if self._installed:
            raise AdversaryError("campaign already installed")
        self._installed = True
        for phase in self.campaign.phases:
            if phase.at <= self.sim.now:
                self._apply_phase(phase)
            else:
                self.sim.schedule_at(phase.at, self._apply_phase, phase)
        if self.campaign.triggers:
            self._armed = list(self.campaign.triggers)
            self._sink = _TriggerSink(self)
            self.bus.attach(self._sink)
        return self

    # -------------------------------------------------------------- phases
    def _apply_phase(self, phase: Phase) -> None:
        if self.bus.wants(CATEGORY_ADVERSARY):
            self.bus.emit(
                AdversaryPhase(
                    time=self.sim.now,
                    pid="adversary",
                    campaign=self.campaign.name,
                    phase=phase.name or f"t={phase.at:g}",
                )
            )
        for action in phase.actions:
            self._apply_action(action)

    # ------------------------------------------------------------ triggers
    def _on_event(self, event: TraceEvent) -> None:
        if not self._armed:
            return
        still_armed: list[Trigger] = []
        fired: list[Trigger] = []
        for trigger in self._armed:
            if event.kind == trigger.on and self._matches(trigger, event):
                fired.append(trigger)
                if not trigger.once:
                    still_armed.append(trigger)
            else:
                still_armed.append(trigger)
        if not fired:
            return
        self._armed = still_armed
        for trigger in fired:
            if self.bus.wants(CATEGORY_ADVERSARY):
                self.bus.emit(
                    AdversaryTrigger(
                        time=self.sim.now,
                        pid="adversary",
                        campaign=self.campaign.name,
                        trigger=trigger.name or trigger.on,
                        on=trigger.on,
                    )
                )
            if trigger.after > 0:
                self.sim.schedule(
                    trigger.after, self._apply_trigger, trigger, event
                )
            else:
                self._apply_trigger(trigger, event)

    def _apply_trigger(self, trigger: Trigger, event: TraceEvent) -> None:
        for action in trigger.actions:
            self._apply_action(action, event)

    @staticmethod
    def _matches(trigger: Trigger, event: TraceEvent) -> bool:
        return all(
            getattr(event, key, None) == value for key, value in trigger.where
        )

    # ------------------------------------------------------------- actions
    def _apply_action(self, action: Action, event: TraceEvent | None = None) -> None:
        pids = resolve_selector(action.select, self.topo, event)
        for pid in pids:
            applied_role = self._apply_to(pid, action)
            kind = action.fault.kind if action.fault is not None else ""
            self.applied.append(
                (self.sim.now, action.op, pid, applied_role, kind)
            )
            if action.op == "set" and self.first_injection_at is None:
                self.first_injection_at = self.sim.now
            if self.bus.wants(CATEGORY_ADVERSARY):
                self.bus.emit(
                    AdversaryAction(
                        time=self.sim.now,
                        pid="adversary",
                        campaign=self.campaign.name,
                        op=action.op,
                        target=pid,
                        role=applied_role,
                        fault=kind,
                    )
                )

    def _apply_to(self, pid: str, action: Action) -> str:
        """Install/clear the strategy on ``pid``'s injection point."""
        return apply_action_to_core(
            self.cluster.worker(pid), self.topo, pid, action
        )


def apply_action_to_core(core, topo, pid: str, action: Action) -> str:
    """Install/clear one action's strategy on ``pid``'s injection point.

    Shared by the DES :class:`CampaignController` (which holds every core
    in-process) and the live backend (where each child process applies
    the action to its own core on receipt of a control envelope).
    Returns the role label the action landed on.
    """
    if action.op == "clear":
        # honest again: clear every injection point the process carries
        cleared = []
        engine = getattr(core, "engine", None)
        if engine is not None:
            if engine.fault is not None:
                cleared.append("executor")
            engine.fault = None
        if getattr(core, "fault", None) is not None:
            cleared.append("output" if pid in topo.output_pids else "verifier")
            core.fault = None
        return "+".join(cleared) or "none"
    try:
        return install_fault(core, topo, pid, action.fault.build())
    except ProtocolError as exc:
        raise AdversaryError(
            f"{exc} (fault {action.fault.kind!r}, selector {action.select!r})"
        ) from exc


def install_campaign(campaign: Campaign, cluster) -> CampaignController:
    """Convenience: build a controller and install it in one call."""
    return CampaignController(campaign, cluster).install()
