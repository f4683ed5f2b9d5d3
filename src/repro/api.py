"""Unified deployment façade: one frozen spec, one build path, one runner.

Historically each entry point grew its own kwargs plumbing — the builder
took three per-role fault dicts, every scenario runner re-declared
``seed``/``deadline``/``sinks``/``sanitize``, and the sweep engine
translated its points into those kwargs by hand.  This module replaces
all of that with a single value type:

* :class:`DeploymentSpec` — everything one run depends on (system,
  workload, topology, config overrides, faults *or* an adversary
  campaign, sinks, sanitizer), as one frozen dataclass.
* :func:`build` — spec → wired :class:`~repro.runtime.deploy.OsirisCluster`
  (campaign installed, sinks attached, not yet started).
* :func:`run` — spec → measured
  :class:`~repro.bench.scenarios.ScenarioResult`, for OsirisBFT and both
  baselines.
* :func:`serve` — spec (``backend="live"``) → started
  :class:`~repro.serve.Gateway`: the deployment runs as real OS
  processes behind a TCP socket accepting client-submitted tasks, with
  admission control enforced at the gateway edge.
* :func:`normalize_faults` — the one helper that turns *any* accepted
  fault argument (legacy pid→strategy mapping, per-role dicts, a
  :class:`~repro.adversary.campaign.Campaign`, campaign JSON) into a
  :class:`FaultPlan`.

The legacy per-system entry points (``run_osiris``/``run_zft``/
``run_rcp``) are gone; every caller builds a spec.  Results are
bit-identical to the shim era (the golden-trace tests pin this).
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, replace
from typing import Any, Iterable, Mapping, Optional

from repro.adversary.campaign import Campaign, FaultSpec
from repro.bench.scenarios import BENCH_BANDWIDTH, ScenarioResult
from repro.bench.workloads import WORKLOADS, BenchWorkload, TenantTaggedSource
from repro.core.config import OsirisConfig
from repro.core.faults import ExecutorFault, OutputFault, VerifierFault
from repro.errors import BenchmarkError

__all__ = [
    "DeploymentSpec",
    "FaultPlan",
    "normalize_faults",
    "build",
    "run",
    "serve",
]

_SCALARS = (str, int, float, bool, type(None))

#: Systems a spec can run, in the canonical sweep order.
SYSTEMS = ("zft", "osiris", "rcp")


def _kv(params: Mapping[str, Any] | Iterable | None) -> tuple[tuple[str, Any], ...]:
    """Normalize a params mapping to a sorted, hashable kv-tuple of
    JSON scalars."""
    if not params:
        return ()
    items = dict(params)
    out = []
    for key in sorted(items):
        value = items[key]
        if not isinstance(value, _SCALARS):
            raise BenchmarkError(
                f"spec param {key!r} must be a JSON scalar, "
                f"got {type(value).__name__}"
            )
        out.append((str(key), value))
    return tuple(out)


# -------------------------------------------------------------- fault plans
def _strategies(entries) -> dict:
    """pid → strategy, with a fresh instance built for every declarative
    :class:`~repro.adversary.campaign.FaultSpec` entry."""
    return {
        pid: fault.build() if isinstance(fault, FaultSpec) else fault
        for pid, fault in entries
    }


@dataclass(frozen=True)
class FaultPlan:
    """Normalized fault configuration: per-role static fault maps plus an
    optional adversary campaign.  Produced by :func:`normalize_faults`;
    everything downstream consumes this, never the raw argument.

    A static fault is either a live strategy object or a declarative
    :class:`~repro.adversary.campaign.FaultSpec`.  Declarative entries
    serialize (see :meth:`DeploymentSpec.descriptor`) and the role maps
    build a fresh strategy from each one, so no two runs of a plan share
    strategy state.
    """

    executors: tuple[tuple[str, ExecutorFault | FaultSpec], ...] = ()
    verifiers: tuple[tuple[str, VerifierFault | FaultSpec], ...] = ()
    outputs: tuple[tuple[str, OutputFault | FaultSpec], ...] = ()
    campaign: Optional[Campaign] = None

    @property
    def empty(self) -> bool:
        return (
            not self.executors
            and not self.verifiers
            and not self.outputs
            and self.campaign is None
        )

    def executor_map(self) -> dict[str, ExecutorFault]:
        return _strategies(self.executors)

    def verifier_map(self) -> dict[str, VerifierFault]:
        return _strategies(self.verifiers)

    def output_map(self) -> dict[str, OutputFault]:
        return _strategies(self.outputs)


def _route(mapping: Mapping[str, Any]) -> tuple[dict, dict, dict]:
    """Split a pid→fault mapping by role: strategies by type, declarative
    :class:`~repro.adversary.campaign.FaultSpec` entries by ``role``."""
    executors: dict = {}
    verifiers: dict = {}
    outputs: dict = {}
    for pid, fault in mapping.items():
        role = fault.role if isinstance(fault, FaultSpec) else None
        if role == "executor" or isinstance(fault, ExecutorFault):
            executors[pid] = fault
        elif role == "verifier" or isinstance(fault, VerifierFault):
            verifiers[pid] = fault
        elif role == "output" or isinstance(fault, OutputFault):
            outputs[pid] = fault
        else:
            raise BenchmarkError(
                f"fault for {pid!r} must be an Executor/Verifier/Output "
                f"fault strategy or a FaultSpec, got {type(fault).__name__}"
            )
    return executors, verifiers, outputs


def normalize_faults(
    faults: Any = None,
    *,
    executors: Optional[Mapping[str, ExecutorFault]] = None,
    verifiers: Optional[Mapping[str, VerifierFault]] = None,
    outputs: Optional[Mapping[str, OutputFault]] = None,
) -> FaultPlan:
    """Turn any accepted fault argument into a :class:`FaultPlan`.

    ``faults`` may be ``None``, an existing plan, a
    :class:`~repro.adversary.campaign.Campaign` (or its canonical JSON
    string), or a pid→fault mapping — strategies are routed to their
    role by type, :class:`~repro.adversary.campaign.FaultSpec` entries by
    their ``role``.  The keyword role maps carry the builder's legacy
    per-role dicts; on a pid collision they win over ``faults``.
    """
    campaign: Optional[Campaign] = None
    f_exec: dict = {}
    f_verif: dict = {}
    f_out: dict = {}
    if isinstance(faults, FaultPlan):
        campaign = faults.campaign
        f_exec = dict(faults.executors)
        f_verif = dict(faults.verifiers)
        f_out = dict(faults.outputs)
    elif isinstance(faults, Campaign):
        campaign = faults
    elif isinstance(faults, str):
        campaign = Campaign.from_json(faults)
    elif isinstance(faults, Mapping):
        f_exec, f_verif, f_out = _route(faults)
    elif faults is not None:
        raise BenchmarkError(
            f"faults must be a mapping, Campaign, campaign JSON or "
            f"FaultPlan, got {type(faults).__name__}"
        )
    f_exec.update(executors or {})
    f_verif.update(verifiers or {})
    f_out.update(outputs or {})
    return FaultPlan(
        executors=tuple(sorted(f_exec.items())),
        verifiers=tuple(sorted(f_verif.items())),
        outputs=tuple(sorted(f_out.items())),
        campaign=campaign,
    )


# -------------------------------------------------------------------- spec
@dataclass(frozen=True)
class DeploymentSpec:
    """One deployment + workload + adversary + instrumentation, frozen.

    ``workload`` is either a live :class:`~repro.bench.workloads.BenchWorkload`
    or a factory name from the workload registry (then ``workload_params``
    are its kwargs — the fully-serializable form that :mod:`repro.exp`
    sweeps, the result cache and the fuzz driver use).  ``config``
    holds :class:`~repro.core.config.OsirisConfig` overrides as a
    kv-tuple; unset keys get the scenario defaults
    (``chunk_bytes`` from the workload, ``suspect_timeout=60``, one core
    per node).  ``faults`` accepts anything :func:`normalize_faults`
    does and is normalized at construction.  ``duration`` switches from
    drain-to-completion (with ``deadline`` enforcement) to a
    fixed-duration streaming run — the Fig 7a shape.  ``sinks`` are live
    bus sinks attached after build, before start; they (and live
    workloads/strategies) are excluded from serialization.
    """

    workload: Any
    n: int
    system: str = "osiris"
    workload_params: tuple[tuple[str, Any], ...] = ()
    f: int = 1
    k: Optional[int] = None
    seed: int = 0
    deadline: float = 600.0
    duration: Optional[float] = None
    bandwidth: Optional[float] = None
    config: tuple[tuple[str, Any], ...] = ()
    faults: Any = None
    sinks: tuple = ()
    capture: tuple[str, ...] = ()
    sanitize: bool = False
    backend: str = "des"
    #: number of independent IP→OP pipelines over the shared verifier
    #: fleet; >1 requires the OsirisBFT DES backend
    shards: int = 1
    #: tenants>1 round-robin-tags the workload's tasks (``t0``..``tN-1``)
    #: so results carry per-tenant SLO breakdowns; tasks route to shards
    #: by tenant-key hash
    tenants: int = 1
    label: str = ""

    def __post_init__(self) -> None:
        if self.system not in SYSTEMS:
            raise BenchmarkError(
                f"unknown system {self.system!r}; expected one of {SYSTEMS}"
            )
        if self.backend not in ("des", "live"):
            raise BenchmarkError(
                f"unknown backend {self.backend!r}; expected 'des' "
                f"(discrete-event simulation) or 'live' (OS processes)"
            )
        if self.n < 1:
            raise BenchmarkError(f"cluster size must be >=1, got {self.n}")
        if self.duration is not None and self.duration <= 0:
            raise BenchmarkError(
                f"duration must be positive, got {self.duration}"
            )
        if self.shards < 1:
            raise BenchmarkError(f"shards must be >=1, got {self.shards}")
        if self.tenants < 1:
            raise BenchmarkError(f"tenants must be >=1, got {self.tenants}")
        if self.shards > 1 or self.tenants > 1:
            # sharded routing and tenant SLO accounting ride OsirisBFT's
            # verified-output metadata; baselines would silently drop
            # both, so they fail loudly instead
            if self.system != "osiris":
                raise BenchmarkError(
                    f"shards/tenants are OsirisBFT-only "
                    f"(spec targets {self.system!r})"
                )
        object.__setattr__(self, "workload_params", _kv(self.workload_params))
        object.__setattr__(self, "config", _kv(self.config))
        object.__setattr__(self, "faults", normalize_faults(self.faults))
        object.__setattr__(self, "sinks", tuple(self.sinks))
        object.__setattr__(self, "capture", tuple(self.capture))
        if self.system != "osiris":
            plan: FaultPlan = self.faults
            if plan.executors or plan.verifiers or plan.outputs or plan.campaign:
                raise BenchmarkError(
                    f"faults/campaigns are OsirisBFT-only "
                    f"(spec targets {self.system!r})"
                )
        if self.backend == "live":
            # every unsupported combination fails here, loudly — a live
            # deployment that silently dropped a feature would hang or
            # mis-measure instead of erroring
            if self.system != "osiris":
                raise BenchmarkError(
                    f"backend='live' hosts OsirisBFT only "
                    f"(spec targets {self.system!r}); baselines are DES-only"
                )
            if self.capture:
                raise BenchmarkError(
                    "replay capture needs the deterministic DES backend; "
                    "drop capture= or use backend='des'"
                )
            plan: FaultPlan = self.faults
            if plan.campaign is not None and plan.campaign.triggers:
                raise BenchmarkError(
                    "trigger campaigns need synchronous bus reentry and are "
                    "DES-only; live runs support timed phases"
                )

    # ------------------------------------------------------------- helpers
    @property
    def campaign(self) -> Optional[Campaign]:
        return self.faults.campaign

    def with_(self, **changes) -> "DeploymentSpec":
        return replace(self, **changes)

    def resolve_workload(self) -> BenchWorkload:
        """Instantiate the workload (registry lookup for named specs);
        ``tenants > 1`` wraps the task source so untagged tasks get
        round-robin tenant keys."""
        if isinstance(self.workload, BenchWorkload):
            wl = self.workload
        else:
            factory = WORKLOADS.get(self.workload)
            if factory is None:
                raise BenchmarkError(
                    f"unknown workload {self.workload!r}; "
                    f"registered: {sorted(WORKLOADS)}"
                )
            wl = factory(**dict(self.workload_params))
        if self.tenants > 1 and not isinstance(wl.source, TenantTaggedSource):
            wl = replace(
                wl, source=TenantTaggedSource(wl.source, self.tenants)
            )
        return wl

    def descriptor(self) -> dict[str, Any]:
        """Canonical JSON-able form — the sweep cache identity, the fuzz
        reproducer and the input of ``python -m repro.check point``.

        Requires the fully-declarative shape: a named workload and
        static faults given as :class:`~repro.adversary.campaign.FaultSpec`
        entries (campaigns serialize fine).  ``sinks``/``capture``/
        ``label`` are excluded, so a relabelled spec keeps its identity.
        """
        if not isinstance(self.workload, str):
            raise BenchmarkError(
                "only specs with a registry-named workload are serializable"
            )
        plan: FaultPlan = self.faults
        static = plan.executors + plan.verifiers + plan.outputs
        if not all(isinstance(fault, FaultSpec) for _, fault in static):
            raise BenchmarkError(
                "specs carrying live fault strategies are not serializable; "
                "express the faults as FaultSpec entries or a Campaign"
            )
        return {
            "system": self.system,
            "backend": self.backend,
            "workload": self.workload,
            "workload_params": [list(p) for p in self.workload_params],
            "n": self.n,
            "f": self.f,
            "k": self.k,
            "seed": self.seed,
            "deadline": self.deadline,
            "duration": self.duration,
            "bandwidth": self.bandwidth,
            "config": [list(p) for p in self.config],
            "faults": [[pid, fault.to_dict()] for pid, fault in static],
            "campaign": plan.campaign.to_json() if plan.campaign else "",
            "sanitize": self.sanitize,
            "shards": self.shards,
            "tenants": self.tenants,
        }

    def to_dict(self) -> dict[str, Any]:
        """Descriptor plus the presentation label (artifact form)."""
        return {**self.descriptor(), "label": self.label}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "DeploymentSpec":
        faults = normalize_faults(
            {pid: FaultSpec.from_dict(f) for pid, f in d.get("faults", ())}
        )
        if d.get("campaign"):
            faults = replace(faults, campaign=Campaign.from_json(d["campaign"]))
        return cls(
            workload=d["workload"],
            n=d["n"],
            system=d.get("system", "osiris"),
            workload_params=tuple(
                (k, v) for k, v in d.get("workload_params", ())
            ),
            f=d.get("f", 1),
            k=d.get("k"),
            seed=d.get("seed", 0),
            deadline=d.get("deadline", 600.0),
            duration=d.get("duration"),
            bandwidth=d.get("bandwidth"),
            config=tuple((k, v) for k, v in d.get("config", ())),
            faults=faults,
            sanitize=d.get("sanitize", False),
            backend=d.get("backend", "des"),
            shards=d.get("shards", 1),
            tenants=d.get("tenants", 1),
            label=d.get("label", ""),
        )


# ------------------------------------------------------------------- build
def _osiris_config(spec: DeploymentSpec, workload: BenchWorkload) -> OsirisConfig:
    """Scenario-default config overlaid with the spec's overrides (the
    long base timeout keeps graceful burst runs free of reassignment
    churn; failure specs override it)."""
    base = dict(
        f=spec.f,
        chunk_bytes=workload.chunk_bytes,
        suspect_timeout=60.0,
        cores_per_node=1,
    )
    base.update(dict(spec.config))
    return OsirisConfig(**base)


def _bandwidth(spec: DeploymentSpec) -> float:
    return spec.bandwidth if spec.bandwidth is not None else BENCH_BANDWIDTH


def build(spec: DeploymentSpec, **build_extra):
    """Build (don't start) the deployment a spec describes.

    ``backend="des"`` (the default) returns a wired
    :class:`~repro.runtime.deploy.OsirisCluster`: the campaign (if any)
    is installed — its phase timers scheduled, its trigger sink and a
    :class:`~repro.adversary.recovery.RecoverySink` attached — and the
    spec's sinks are attached last.  ``build_extra`` passes through to
    the low-level builder (``synchrony``, ``n_inputs``, ``n_outputs``).

    ``backend="live"`` returns an unstarted
    :class:`~repro.live.runtime.LiveRuntime` built from the same
    :class:`~repro.runtime.plan.ClusterPlan`; ``build_extra`` accepts
    ``time_scale`` (wall seconds per simulated second).
    """
    if spec.system != "osiris":
        raise BenchmarkError(
            f"build() wires OsirisBFT deployments only; use run() for "
            f"{spec.system!r}"
        )
    if spec.backend == "live":
        return _build_live(spec, **build_extra)
    from repro.runtime.deploy import build_osiris_cluster

    workload = spec.resolve_workload()
    cluster = build_osiris_cluster(
        workload.app,
        workload=workload.stream,
        n_workers=spec.n,
        shards=spec.shards,
        k=spec.k,
        seed=spec.seed,
        config=_osiris_config(spec, workload),
        bandwidth=_bandwidth(spec),
        faults=spec.faults,
        capture=spec.capture,
        sanitize=spec.sanitize,
        **build_extra,
    )
    for sink in spec.sinks:
        cluster.bus.attach(sink)
    return cluster


def _build_live(spec: DeploymentSpec, time_scale: float = 0.25, **extra):
    """Plan the deployment and wrap it in an unstarted LiveRuntime."""
    if extra:
        raise BenchmarkError(
            f"backend='live' accepts only time_scale as a builder "
            f"override, got {sorted(extra)}"
        )
    from repro.live.runtime import LiveRuntime

    workload = spec.resolve_workload()
    return LiveRuntime(
        _live_plan(spec, _osiris_config(spec, workload)),
        workload.app,
        workload=workload,
        sinks=spec.sinks,
        time_scale=time_scale,
    )


def _live_plan(spec: DeploymentSpec, config: OsirisConfig):
    """The :class:`~repro.runtime.plan.ClusterPlan` a live deployment of
    ``spec`` runs under ``config`` (also the serve gateway's plan)."""
    from repro.runtime.plan import plan_osiris_cluster

    return plan_osiris_cluster(
        n_workers=spec.n,
        k=spec.k,
        seed=spec.seed,
        config=config,
        bandwidth=_bandwidth(spec),
        faults=spec.faults,
        capture=spec.capture,
        sanitize=spec.sanitize,
        shards=spec.shards,
    )


# --------------------------------------------------------------------- run
def _drive(cluster, spec: DeploymentSpec, workload: BenchWorkload) -> None:
    """Start and advance the deployment: fixed-duration streaming when
    ``duration`` is set, drain-to-completion with deadline otherwise."""
    cluster.start()
    if spec.duration is not None:
        cluster.sim.run(until=spec.duration)
        return
    _run_to_completion(cluster.sim, cluster.metrics, workload, spec.deadline)


def _run_to_completion(sim, metrics, workload: BenchWorkload, deadline: float):
    """Advance until every compute task completed (or the deadline)."""
    target = workload.n_compute_tasks
    step = 1.0
    while sim.now < deadline:
        sim.run(until=min(sim.now + step, deadline))
        if metrics.tasks_completed >= target:
            return
        if sim.drained():
            return
    if metrics.tasks_completed < target:
        raise BenchmarkError(
            f"scenario missed deadline: {metrics.tasks_completed}/{target} "
            f"tasks by t={deadline}"
        )


def _finish(
    system, n, f, metrics, net, busy_fn, cores, extra=None,
    horizon=0.0, output_pids=(),
    sanitizer_violations=None, recovery=None, commits=None,
):
    sharded = len(output_pids) > 1
    if metrics.completion_times:
        makespan = max(metrics.completion_times)
        # tail-insensitive: heavy-tailed task costs must not let one
        # straggler define a burst's capacity measurement
        throughput = metrics.p90_throughput()
        active = metrics.time_to_fraction(0.9)
        if active > 0 and net is not None:
            # the legacy single-pipeline figure is op0's link; sharded
            # runs report the aggregate over every output pipeline
            pids = output_pids if sharded else ("op0",)
            op_bw = sum(
                net.nic(pid).ingress_meter.mean_rate(0.0, active)
                for pid in pids
            )
        else:
            op_bw = 0.0
    else:
        makespan = 0.0
        active = 0.0
        throughput = 0.0
        op_bw = 0.0
    busy, n_exec = busy_fn()
    window = active if active > 0 else makespan
    util = (
        busy / (window * cores * max(n_exec, 1)) if window > 0 else 0.0
    )
    return ScenarioResult(
        system=system,
        n=n,
        f=f,
        throughput=throughput,
        records=metrics.records_accepted,
        tasks_completed=metrics.tasks_completed,
        makespan=makespan,
        mean_latency=metrics.mean_latency(),
        p99_latency=metrics.latency_percentile(99),
        op_bandwidth=op_bw,
        executor_utilization=min(1.0, util),
        peak_throughput=metrics.peak_throughput(),
        p50_latency=metrics.slo_percentile(50.0),
        p999_latency=metrics.slo_percentile(99.9),
        goodput=(
            metrics.records_accepted / horizon if horizon > 0 else 0.0
        ),
        per_tenant=metrics.per_tenant(),
        per_shard=metrics.per_shard() if sharded else {},
        sanitizer_violations=sanitizer_violations,
        recovery=recovery,
        commits=commits or {},
        extra=extra or {},
    )


def _attach_sanitizer(cluster):
    """Attach a substrate sanitizer to an already-built baseline cluster
    (the osiris builder wires its own via ``sanitize=True``).  No link
    or CPU events fire before ``cluster.start()``, so the shadows still
    observe the run from birth."""
    from repro.check.sanitizer import Sanitizer  # lazy: optional layer

    sanitizer = Sanitizer(cluster.net)
    sanitizer.attach(cluster.bus)
    return sanitizer


def _audit_sanitizer(sanitizer, extra: dict, cluster=None) -> Optional[int]:
    """Run the post-run sanitizer audit.  Returns the violation count
    (``None`` when the run was unsanitized) for the result's typed
    ``sanitizer_violations`` field; the live report rides in ``extra``
    for in-process consumers."""
    if sanitizer is None:
        return None
    report = sanitizer.audit(cluster)
    extra["sanitizer_report"] = report
    return len(report.violations)


def _recovery_scalars(report) -> dict:
    """The recovery report's JSON-scalar fields, for the result's typed
    ``recovery`` field (survives serialization: sweep cache, pools)."""
    return {
        key: value
        for key, value in report.to_dict().items()
        if isinstance(value, _SCALARS) or isinstance(value, numbers.Real)
    }


def _fold_recovery(cluster, extra: dict, sanitizer_violations) -> Optional[dict]:
    """Campaign runs: distil the RecoverySink into the result.  Returns
    the scalar summary for the typed ``recovery`` field (``None`` when
    no campaign ran); the live
    :class:`~repro.adversary.recovery.RecoveryReport` rides in
    ``extra["recovery_report"]``."""
    if cluster.recovery is None:
        return None
    report = cluster.recovery.report(
        campaign=cluster.campaign.campaign.name if cluster.campaign else "",
        until=cluster.sim.now,
        sanitizer_violations=sanitizer_violations,
    )
    extra["recovery_report"] = report
    return _recovery_scalars(report)


def _run_osiris(spec: DeploymentSpec, **build_extra) -> ScenarioResult:
    workload = spec.resolve_workload()
    cluster = build(spec.with_(workload=workload), **build_extra)
    _drive(cluster, spec, workload)

    def busy():
        execs = [e for e in cluster.executors]
        verif = cluster.all_verifiers
        busy_total = sum(e.cpu.busy_seconds for e in execs)
        # role-switched verifiers execute too; count their engine work via
        # cpu time (approximation: all their busy time)
        switched = [v for v in verif if v.engine.tasks_executed > 0]
        busy_total += sum(v.cpu.busy_seconds for v in switched)
        return busy_total, len(execs) + len(switched)

    extra = {
        "reassignments": len(cluster.metrics.reassignments),
        "role_switches": len(cluster.metrics.role_switches),
        "faults_detected": len(cluster.metrics.faults_detected),
        "cluster": cluster,
    }
    violations = _audit_sanitizer(cluster.sanitizer, extra, cluster)
    recovery = _fold_recovery(cluster, extra, violations)
    return _finish(
        "OsirisBFT", spec.n, spec.f, cluster.metrics, cluster.net, busy,
        cluster.config.cores_per_node, extra,
        horizon=cluster.sim.now,
        output_pids=tuple(cluster.topo.output_pids),
        sanitizer_violations=violations,
        recovery=recovery,
        commits={op.pid: op.commit_record() for op in cluster.outputs},
    )


def _run_live(spec: DeploymentSpec, time_scale: float = 0.25) -> ScenarioResult:
    """Run the spec as real OS processes; same result shape as the DES.

    Timing-derived numbers (throughput, latency, utilization) come from
    the forwarded event stream and the emulated CPU banks — comparable
    in shape, not in value, to DES results.  ``op_bandwidth`` is zero:
    there is no modelled NIC on real queues.
    """
    if spec.shards > 1:
        raise BenchmarkError(
            "a pre-planned workload stream feeds only the primary input "
            "pipeline; sharded live deployments serve client traffic — "
            "use repro.api.serve()"
        )
    workload = spec.resolve_workload()
    rt = _build_live(spec, time_scale=time_scale)
    report = rt.run(
        deadline=spec.deadline,
        duration=spec.duration,
        target_tasks=workload.n_compute_tasks,
    )
    return _fold_live_result(spec, rt, report)


def _fold_live_result(spec: DeploymentSpec, rt, report) -> ScenarioResult:
    """Fold a finished live runtime + its report into a
    :class:`ScenarioResult` — shared by :func:`_run_live` and
    :meth:`repro.serve.Gateway.result`."""
    plan = rt.plan
    executor_pids = set(plan.topo.executor_pids)

    def busy():
        busy_total = sum(
            report.busy_seconds.get(pid, 0.0) for pid in executor_pids
        )
        # role-switched verifiers execute too (same approximation as the
        # DES runner: count all their busy time)
        switched = [
            pid
            for pid in report.tasks_executed
            if pid not in executor_pids and report.tasks_executed[pid] > 0
        ]
        busy_total += sum(report.busy_seconds.get(pid, 0.0) for pid in switched)
        return busy_total, len(executor_pids) + len(switched)

    extra = {
        "backend": "live",
        "live_report": report,
        "unhandled_messages": report.unhandled_messages,
        "reassignments": len(rt.metrics.reassignments),
        "role_switches": len(rt.metrics.role_switches),
        "faults_detected": len(rt.metrics.faults_detected),
    }
    violations = None
    if rt.sanitizer_report is not None:
        violations = len(rt.sanitizer_report.violations)
        extra["sanitizer_report"] = rt.sanitizer_report
    recovery_scalars = None
    if rt.recovery is not None:
        recovery = rt.recovery.report(
            campaign=plan.campaign.name if plan.campaign else "",
            until=report.sim_seconds,
            sanitizer_violations=violations,
        )
        extra["recovery_report"] = recovery
        recovery_scalars = _recovery_scalars(recovery)
    return _finish(
        "OsirisBFT", spec.n, spec.f, rt.metrics, None, busy,
        plan.config.cores_per_node, extra,
        horizon=report.sim_seconds,
        output_pids=tuple(plan.topo.output_pids),
        sanitizer_violations=violations,
        recovery=recovery_scalars,
        commits=report.commits,
    )


def _baseline_cores(spec: DeploymentSpec) -> int:
    cfg = dict(spec.config)
    cores = cfg.pop("cores_per_node", 1)
    if cfg:
        raise BenchmarkError(
            f"config overrides are OsirisBFT-only (baselines accept just "
            f"cores_per_node); got {sorted(cfg)} for {spec.system!r}"
        )
    return cores


def _run_baseline(spec: DeploymentSpec) -> ScenarioResult:
    workload = spec.resolve_workload()
    cores = _baseline_cores(spec)
    bandwidth = _bandwidth(spec)
    if spec.system == "zft":
        from repro.baselines.zft import build_zft_cluster

        cluster = build_zft_cluster(
            workload.app,
            workload=workload.stream,
            n_workers=spec.n,
            seed=spec.seed,
            bandwidth=bandwidth,
            chunk_bytes=workload.chunk_bytes,
            cores_per_node=cores,
        )
        system, f = "ZFT", 0
    else:
        from repro.baselines.rcp import build_rcp_cluster

        cluster = build_rcp_cluster(
            workload.app,
            workload=workload.stream,
            n_workers=spec.n,
            f=spec.f,
            seed=spec.seed,
            bandwidth=bandwidth,
            chunk_bytes=workload.chunk_bytes,
            cores_per_node=cores,
        )
        system, f = "RCP", spec.f
    sanitizer = _attach_sanitizer(cluster) if spec.sanitize else None
    for sink in spec.sinks:
        cluster.bus.attach(sink)
    _drive(cluster, spec, workload)

    def busy():
        return sum(w.cpu.busy_seconds for w in cluster.workers), len(
            cluster.workers
        )

    extra = {"cluster": cluster}
    violations = _audit_sanitizer(sanitizer, extra)
    return _finish(
        system, spec.n, f, cluster.metrics, cluster.net, busy, cores, extra,
        horizon=cluster.sim.now,
        sanitizer_violations=violations,
    )


def run(spec: DeploymentSpec, **build_extra) -> ScenarioResult:
    """Run the deployment a spec describes; returns the measured result.

    This is the single execution path behind :mod:`repro.exp` sweeps,
    the bench CLI, the fuzz driver and the adversary CLI.  Campaign
    runs additionally report recovery metrics in the result's typed
    ``recovery`` field (the live ``recovery_report`` rides in
    ``result.extra``).
    """
    if spec.backend == "live":
        return _run_live(spec, **build_extra)
    if spec.system == "osiris":
        return _run_osiris(spec, **build_extra)
    if build_extra:
        raise BenchmarkError(
            f"builder overrides are OsirisBFT-only, got {sorted(build_extra)}"
        )
    return _run_baseline(spec)


def serve(
    spec: DeploymentSpec,
    host: str = "127.0.0.1",
    port: int = 0,
    time_scale: float = 0.25,
):
    """Serve a live deployment to real clients over a TCP socket.

    Builds and **starts** a :class:`~repro.serve.Gateway` over the
    deployment ``spec`` describes (``backend="live"`` required; the
    spec's workload supplies the application — client connections
    supply the traffic).  The spec's ``admission_queue`` /
    ``admission_rate`` config knobs are enforced once, at the gateway
    edge, with explicit backpressure replies to clients; ``shards > 1``
    fans client tasks out tenant-keyed across independent input→output
    pipelines.  The caller owns the lifecycle::

        with api.serve(spec, port=0) as gw:
            client = repro.serve.Client(*gw.address)
            ...
        result = gw.result()   # same shape as api.run(spec)

    ``port=0`` binds an ephemeral port; the bound address is
    ``gateway.address``.
    """
    from repro.serve.gateway import Gateway

    if spec.backend != "live":
        raise BenchmarkError(
            "serve() fronts real OS processes; build the spec with "
            "backend='live' (the DES backend has no sockets to serve)"
        )
    return Gateway(spec, host=host, port=port, time_scale=time_scale).start()


def config_overrides(config: Optional[OsirisConfig]) -> tuple:
    """Express a full :class:`~repro.core.config.OsirisConfig` object as
    a spec ``config`` kv-tuple (the bench CLI uses this to map
    file-loaded config objects onto specs)."""
    if config is None:
        return ()
    return _kv(asdict(config))
