"""Live OS-process backend: the protocol cores as real processes.

The same pure :class:`~repro.runtime.core.ProtocolCore` state machines
the DES hosts, run as one OS process per node over a mesh of OS pipes,
selected by ``backend="live"`` on a
:class:`~repro.api.DeploymentSpec`.  See :mod:`repro.live.host` (child
side), :mod:`repro.live.runtime` (parent side) and
:mod:`repro.live.crossval` (runs one spec on DES and live and compares
the commit records with :func:`repro.check.crossval.crossval`).
"""

from repro.live.crossval import cross_validate
from repro.live.host import LiveHost
from repro.live.runtime import LiveReport, LiveRuntime

__all__ = [
    "LiveHost",
    "LiveReport",
    "LiveRuntime",
    "cross_validate",
]
