"""Declarative experiment sweeps: specs, a runner, and a result cache.

``repro.exp`` turns the benchmark harness's ad-hoc nested loops into
data: a :class:`~repro.exp.spec.SweepSpec` is a named, ordered tuple of
:class:`repro.api.DeploymentSpec` points — each one fully describing a
single deterministic scenario run (system × cluster size × fault level ×
workload × seed × config overrides).  The runner executes points
serially or fanned out over a ``multiprocessing`` pool with bit-identical
results, and a content-addressed cache keyed on the spec descriptor
plus the repro code version makes re-runs instant.
"""

from repro.exp.cache import ResultCache, code_version, default_cache_dir
from repro.exp.runner import PointOutcome, SweepOutcome, execute_point, run_sweep
from repro.exp.spec import SweepSpec

__all__ = [
    "SweepSpec",
    "PointOutcome",
    "SweepOutcome",
    "ResultCache",
    "code_version",
    "default_cache_dir",
    "execute_point",
    "run_sweep",
]
