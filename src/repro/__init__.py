"""OsirisBFT reproduction (PPoPP '24).

A verification-based Byzantine fault tolerant processing architecture for
distributed task-parallel analytics, rebuilt in Python on a deterministic
discrete-event simulation of the paper's testbed.  See ``DESIGN.md`` for
the system inventory and ``EXPERIMENTS.md`` for paper-vs-measured results.

Public entry points:

* :mod:`repro.core` — the OsirisBFT architecture (deploy via
  :func:`repro.runtime.deploy.build_osiris_cluster`).
* :mod:`repro.baselines` — ZFT and RCP comparison systems.
* :mod:`repro.apps` — Anomaly Detection, Motion Planning, Video Analysis.
* :mod:`repro.bench` — scenario harness regenerating every paper figure.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
