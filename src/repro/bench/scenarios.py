"""Scenario result type and the shared bandwidth operating point.

The measurement engine lives in :mod:`repro.api`: build a
:class:`repro.api.DeploymentSpec` and call :func:`repro.api.run` (or
:func:`repro.api.serve` to front a live deployment with the socket
gateway).  :class:`ScenarioResult` and :data:`BENCH_BANDWIDTH` live
here.

The harness scales the paper's testbed down uniformly: each worker has
one aggregate app core, tasks cost ~0.1-1.0 simulated seconds, and the
OP link ceiling (:data:`BENCH_BANDWIDTH`) sits where LH/MM saturate it
at n=32 — the same *relative* operating points as the paper's 8-core
nodes on a 100 Gbps fabric with its ~3.4 GB/s app-level ceiling
(Sec 7.2), at a size a Python DES can sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["ScenarioResult", "BENCH_BANDWIDTH"]

#: Application-level OP link ceiling (bytes/sec).  Scaled with the rest
#: of the cost model: one aggregate app core per node and ~0.1-1.0 s
#: simulated tasks put the LH/MM saturation point here, mirroring where
#: the paper's 100 Gbps fabric saturates at app level (Sec 7.2).
BENCH_BANDWIDTH = 60e6


_JSON_SCALARS = (str, int, float, bool, type(None))


@dataclass
class ScenarioResult:
    """Measured outcome of one scenario run."""

    system: str
    n: int
    f: int
    throughput: float          # records/sec over the active window
    records: int
    tasks_completed: int
    makespan: float            # last completion time (sim seconds)
    mean_latency: float
    p99_latency: float
    op_bandwidth: float        # bytes/sec into OP over the active window
    executor_utilization: float
    peak_throughput: float
    extra: dict = field(default_factory=dict)
    # SLO fields: defaulted, so a dict written without them round-trips
    p50_latency: float = 0.0
    p999_latency: float = 0.0
    #: accepted records/sec over the run horizon — unlike ``throughput``
    #: (capacity over the active window) this charges idle/shed time, so
    #: it is the figure of merit under open-loop offered load
    goodput: float = 0.0
    #: tenant -> {count, p50, p99, p999} latency summary (seconds)
    per_tenant: dict = field(default_factory=dict)
    #: output pid -> completed-task count (sharded runs)
    per_shard: dict = field(default_factory=dict)
    #: substrate/conservation audit: violation count when the run was
    #: sanitized, ``None`` when it was not (the live report object stays
    #: in ``extra["sanitizer_report"]`` for in-process consumers)
    sanitizer_violations: Optional[int] = None
    #: campaign runs: the recovery report's scalar fields, keyed by the
    #: report's own field names; ``None`` when no campaign ran (the live
    #: report object stays in ``extra["recovery_report"]``)
    recovery: Optional[dict] = None
    #: client-observed SLO summary (serve-gateway runs): what the
    #: submitting clients measured on their own wall clocks —
    #: ``p50``/``p99`` latency, ``goodput``, admission verdict counts
    client_slo: dict = field(default_factory=dict)
    #: output pid -> ``OutputProcess.commit_record()`` (OsirisBFT runs),
    #: what :func:`repro.check.crossval.crossval` compares
    commits: dict = field(default_factory=dict)

    def row(self) -> str:
        """One printable table row (formatting lives in reporting)."""
        from repro.bench.reporting import format_result_row

        return format_result_row(self)

    def to_dict(self) -> dict:
        """JSON-safe form: live handles in ``extra`` (e.g. the cluster
        object scenario runners stash there) are dropped; only scalar
        telemetry survives serialization."""
        d = {
            "system": self.system,
            "n": self.n,
            "f": self.f,
            "throughput": self.throughput,
            "records": self.records,
            "tasks_completed": self.tasks_completed,
            "makespan": self.makespan,
            "mean_latency": self.mean_latency,
            "p99_latency": self.p99_latency,
            "op_bandwidth": self.op_bandwidth,
            "executor_utilization": self.executor_utilization,
            "peak_throughput": self.peak_throughput,
            "p50_latency": self.p50_latency,
            "p999_latency": self.p999_latency,
            "goodput": self.goodput,
            "per_tenant": {
                t: dict(summary) for t, summary in self.per_tenant.items()
            },
            "per_shard": dict(self.per_shard),
            "sanitizer_violations": self.sanitizer_violations,
            "recovery": dict(self.recovery) if self.recovery is not None else None,
            "client_slo": dict(self.client_slo),
            "commits": dict(self.commits),
            "extra": {
                k: v
                for k, v in self.extra.items()
                if isinstance(v, _JSON_SCALARS)
            },
        }
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioResult":
        recovery = d.get("recovery")
        return cls(
            system=d["system"],
            n=d["n"],
            f=d["f"],
            throughput=d["throughput"],
            records=d["records"],
            tasks_completed=d["tasks_completed"],
            makespan=d["makespan"],
            mean_latency=d["mean_latency"],
            p99_latency=d["p99_latency"],
            op_bandwidth=d["op_bandwidth"],
            executor_utilization=d["executor_utilization"],
            peak_throughput=d["peak_throughput"],
            p50_latency=d.get("p50_latency", 0.0),
            p999_latency=d.get("p999_latency", 0.0),
            goodput=d.get("goodput", 0.0),
            per_tenant=dict(d.get("per_tenant", {})),
            per_shard=dict(d.get("per_shard", {})),
            sanitizer_violations=d.get("sanitizer_violations"),
            recovery=dict(recovery) if recovery is not None else None,
            client_slo=dict(d.get("client_slo", {})),
            commits=dict(d.get("commits", {})),
            extra=dict(d.get("extra", {})),
        )
