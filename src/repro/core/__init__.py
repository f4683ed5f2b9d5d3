"""The OsirisBFT architecture: verification-based BFT processing.

Public surface:

* :func:`build_osiris_cluster` — wire a deployment on the simulator.
* :class:`VerifiableApplication` — the ⟨U, A⟩ + verification-operator
  API applications implement (Algorithm 1).
* :class:`OsirisConfig` — deployment tunables.
* :class:`Task` / :class:`Record` / :class:`Opcode` — the data plane.
* :mod:`repro.core.faults` — Byzantine fault injection strategies.

Every name resolves on first use, so importing one light submodule
(the serve frames import :mod:`repro.core.admission`) does not pull in
the protocol cores, numpy or the deployment builder.
"""

from importlib import import_module

#: module -> the public names it defines.  The deployment builder lives
#: in repro.runtime.deploy (it binds cores to the DES backend).
_EXPORTS = {
    "repro.core.api": "ComputeResult CountResult VerifiableApplication",
    "repro.core.config": "OsirisConfig",
    "repro.core.coordinator": "Coordinator",
    "repro.core.executor": "ExecutionEngine Executor",
    "repro.core.failure_model": "OutputFailure classify_output operators_accept",
    "repro.core.input_output": "InputProcess OutputProcess",
    "repro.core.tasks": "Assignment Chunk Opcode Record Task chunk_records",
    "repro.core.verifier": "Verifier",
    "repro.runtime.deploy": "OsirisCluster build_osiris_cluster default_cluster_count",
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(home), name)


__all__ = sorted(_HOME)
