"""Declarative Byzantine campaign engine (see :mod:`repro.adversary.campaign`).

Compose fault strategies into time-scheduled phases and adaptive
bus-driven triggers, run them against any deployment via
:mod:`repro.api`, and score robustness with
:meth:`RecoveryReport.from_metrics` over the deployment's metrics hub.
"""

from repro.adversary.campaign import (
    Action,
    Campaign,
    FaultSpec,
    Phase,
    Trigger,
    resolve_selector,
)
from repro.adversary.engine import CampaignController, install_campaign
from repro.adversary.library import BUILTIN
from repro.adversary.recovery import RECOVERY_FRACTION, RecoveryReport

__all__ = [
    "Action",
    "BUILTIN",
    "Campaign",
    "CampaignController",
    "FaultSpec",
    "Phase",
    "RECOVERY_FRACTION",
    "RecoveryReport",
    "Trigger",
    "install_campaign",
    "resolve_selector",
]
