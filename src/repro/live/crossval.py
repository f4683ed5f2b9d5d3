"""DES ↔ live cross-validation: one spec on both backends, one diff.

The live backend replays none of the DES's timing, so what must coincide
is the commit records :func:`repro.check.crossval.crossval` compares.
"""

from __future__ import annotations

from repro.core.input_output import OutputProcess

__all__ = ["commit_outcomes", "cross_validate"]

#: the performance ledger's name for the record
commit_outcomes = OutputProcess.commit_record


def cross_validate(spec, time_scale: float = 0.25) -> tuple:
    """Run a live-eligible ``spec`` on the DES (side ``a``) and live
    (side ``b``), both sanitized; returns ``(des, live, crossval(des,
    live))``."""
    from repro.api import run
    from repro.check.crossval import crossval

    des = run(spec.with_(backend="des", sanitize=True, sinks=()))
    live = run(
        spec.with_(backend="live", sanitize=True, sinks=()),
        time_scale=time_scale,
    )
    return des, live, crossval(des, live)
