"""Unified deployment façade: one frozen spec, one build path, one runner.

* :class:`DeploymentSpec` — everything one run depends on (system,
  workload, topology, config overrides, faults *or* an adversary
  campaign, sinks, sanitizer), as one frozen dataclass.
* :func:`build` — spec → wired :class:`~repro.runtime.deploy.OsirisCluster`
  (campaign installed, sinks attached, not yet started).  OsirisBFT and
  both baselines are planned as one
  :class:`~repro.runtime.plan.ClusterPlan` each and instantiated the
  same way.
* :func:`run` — spec → measured
  :class:`~repro.bench.scenarios.ScenarioResult`.
* :func:`serve` — spec (``backend="live"``) → started
  :class:`~repro.serve.Gateway`: the deployment runs as real OS
  processes behind a TCP socket accepting client-submitted tasks, with
  admission control enforced at the gateway edge.
* :func:`normalize_faults` — the one helper that turns *any* accepted
  fault argument (a pid → strategy or
  :class:`~repro.adversary.campaign.FaultSpec` mapping, a
  :class:`~repro.adversary.campaign.Campaign`, campaign JSON) into a
  :class:`FaultPlan`.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, replace
from typing import Any, Iterable, Mapping, Optional

from repro.adversary.campaign import Campaign, FaultSpec
from repro.adversary.recovery import RecoveryReport
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
#: each system's name in results
_LABELS = {"zft": "ZFT", "osiris": "OsirisBFT", "rcp": "RCP"}


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
_STRATEGIES = (ExecutorFault, VerifierFault, OutputFault, FaultSpec)


@dataclass(frozen=True)
class FaultPlan:
    """Normalized fault configuration: static pid → fault entries (in
    pid order) plus an optional adversary campaign.  Produced by
    :func:`normalize_faults`; everything downstream consumes this, never
    the raw argument.

    A static fault is either a live strategy object or a declarative
    :class:`~repro.adversary.campaign.FaultSpec`.  Declarative entries
    serialize (see :meth:`DeploymentSpec.descriptor`) and
    :meth:`strategies` builds a fresh strategy from each one, so no two
    runs of a plan share strategy state.
    """

    static: tuple[tuple[str, Any], ...] = ()
    campaign: Optional[Campaign] = None

    @property
    def empty(self) -> bool:
        return not self.static and self.campaign is None

    def strategies(self) -> dict[str, Any]:
        """pid → strategy, a fresh instance for every ``FaultSpec``."""
        return {
            pid: fault.build() if isinstance(fault, FaultSpec) else fault
            for pid, fault in self.static
        }


def normalize_faults(faults: Any = None) -> FaultPlan:
    """Turn any accepted fault argument into a :class:`FaultPlan`.

    ``faults`` may be ``None``, an existing plan, a
    :class:`~repro.adversary.campaign.Campaign` (or its canonical JSON
    string), or a pid → fault mapping whose values are fault strategies
    or :class:`~repro.adversary.campaign.FaultSpec` entries.  Which role
    a static fault acts in is decided when it is installed
    (:func:`repro.runtime.plan.install_fault`).
    """
    if faults is None:
        return FaultPlan()
    if isinstance(faults, FaultPlan):
        return faults
    if isinstance(faults, Campaign):
        return FaultPlan(campaign=faults)
    if isinstance(faults, str):
        return FaultPlan(campaign=Campaign.from_json(faults))
    if not isinstance(faults, Mapping):
        raise BenchmarkError(
            f"faults must be a mapping, Campaign, campaign JSON or "
            f"FaultPlan, got {type(faults).__name__}"
        )
    for pid, fault in faults.items():
        if not isinstance(fault, _STRATEGIES):
            raise BenchmarkError(
                f"fault for {pid!r} must be an Executor/Verifier/Output "
                f"fault strategy or a FaultSpec, got {type(fault).__name__}"
            )
    return FaultPlan(static=tuple(sorted(faults.items())))


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
            if not self.faults.empty:
                raise BenchmarkError(
                    f"faults/campaigns are OsirisBFT-only "
                    f"(spec targets {self.system!r})"
                )
            if self.k is not None:
                # RCP's sub-cluster count is n // (2f+1); ZFT has none
                raise BenchmarkError(
                    f"k is OsirisBFT-only (spec targets {self.system!r})"
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
        if not all(isinstance(fault, FaultSpec) for _, fault in plan.static):
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
            "faults": [[pid, fault.to_dict()] for pid, fault in plan.static],
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
def _config(spec: DeploymentSpec, workload: BenchWorkload) -> OsirisConfig:
    """Scenario-default config overlaid with the spec's overrides (the
    long base timeout keeps graceful burst runs free of reassignment
    churn; failure specs override it).  A baseline reads only ``f`` (RCP),
    the chunk size and the cores per node, so it accepts no other
    override."""
    overrides = dict(spec.config)
    if spec.system != "osiris":
        other = sorted(set(overrides) - {"cores_per_node"})
        if other:
            raise BenchmarkError(
                f"config overrides are OsirisBFT-only (baselines accept just "
                f"cores_per_node); got {other} for {spec.system!r}"
            )
    base = dict(
        chunk_bytes=workload.chunk_bytes,
        suspect_timeout=60.0,
        cores_per_node=1,
    )
    if spec.system != "zft":  # ZFT tolerates no fault: f is not read
        base["f"] = spec.f
    base.update(overrides)
    return OsirisConfig(**base)


def _bandwidth(spec: DeploymentSpec) -> float:
    return spec.bandwidth if spec.bandwidth is not None else BENCH_BANDWIDTH


def build(spec: DeploymentSpec, time_scale: Optional[float] = None):
    """Build (don't start) the deployment a spec describes.

    Every backend instantiates the one
    :class:`~repro.runtime.plan.ClusterPlan` :func:`_plan` derives from
    the spec.  ``backend="des"`` (the default) returns a wired
    :class:`~repro.runtime.deploy.OsirisCluster` for any of the three
    systems: the campaign (if any) is installed — its phase timers
    scheduled, its trigger sink attached — and the spec's sinks are
    attached last.

    ``backend="live"`` (OsirisBFT only) returns an unstarted
    :class:`~repro.live.runtime.LiveRuntime`; ``time_scale`` (wall
    seconds per simulated second, default 0.25) is live-only.
    """
    if spec.backend == "live":
        return _build_live(spec, time_scale)
    _des_has_no_time_scale(time_scale)
    from repro.runtime.deploy import instantiate_plan_des

    workload = spec.resolve_workload()
    cluster = instantiate_plan_des(
        _plan(spec, _config(spec, workload)),
        workload.app,
        workload.stream,
    )
    for sink in spec.sinks:
        cluster.bus.attach(sink)
    return cluster


def _des_has_no_time_scale(time_scale: Optional[float]) -> None:
    if time_scale is not None:
        raise BenchmarkError(
            "time_scale paces the live backend; a DES run has no wall clock"
        )


def _build_live(spec: DeploymentSpec, time_scale: Optional[float]):
    """Plan the deployment and wrap it in an unstarted LiveRuntime
    (``time_scale`` defaults to 0.25 wall seconds per simulated one)."""
    from repro.live.runtime import LiveRuntime

    workload = spec.resolve_workload()
    return LiveRuntime(
        _plan(spec, _config(spec, workload)),
        workload.app,
        workload=workload,
        sinks=spec.sinks,
        time_scale=0.25 if time_scale is None else time_scale,
    )


def _plan(spec: DeploymentSpec, config: OsirisConfig):
    """The :class:`~repro.runtime.plan.ClusterPlan` a deployment of
    ``spec`` runs under ``config`` — on the DES, on the live backend and
    behind the serve gateway."""
    common = dict(
        n_workers=spec.n,
        config=config,
        seed=spec.seed,
        bandwidth=_bandwidth(spec),
        capture=spec.capture,
        sanitize=spec.sanitize,
    )
    if spec.system == "zft":
        from repro.baselines.zft import plan_zft_cluster

        return plan_zft_cluster(**common)
    if spec.system == "rcp":
        from repro.baselines.rcp import plan_rcp_cluster

        return plan_rcp_cluster(**common)
    from repro.runtime.plan import plan_osiris_cluster

    return plan_osiris_cluster(
        **common, k=spec.k, faults=spec.faults, shards=spec.shards
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
            # op0's link, or the aggregate over every output pipeline
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


def _fold_faults(
    metrics, extra: dict, campaign: Optional[Campaign], horizon: float,
    sanitizer_violations: Optional[int],
) -> Optional[dict]:
    """Fold the hub's fault counters into ``extra`` and, for a campaign
    run, distil its recovery report.  Returns the report's JSON-scalar
    fields for the typed ``recovery`` field, which survives
    serialization (sweep cache, pools); ``None`` when no campaign ran.
    The live :class:`~repro.adversary.recovery.RecoveryReport` rides in
    ``extra["recovery_report"]``."""
    extra["reassignments"] = len(metrics.reassignments)
    extra["role_switches"] = len(metrics.role_switches)
    extra["faults_detected"] = len(metrics.faults_detected)
    if campaign is None:
        return None
    report = RecoveryReport.from_metrics(
        metrics,
        campaign=campaign.name,
        until=horizon,
        sanitizer_violations=sanitizer_violations,
    )
    extra["recovery_report"] = report
    return {
        key: value
        for key, value in report.to_dict().items()
        if isinstance(value, _SCALARS) or isinstance(value, numbers.Real)
    }


def _run_des(spec: DeploymentSpec) -> ScenarioResult:
    workload = spec.resolve_workload()
    cluster = build(spec.with_(workload=workload))
    _drive(cluster, spec, workload)

    def busy():
        # executors (all of a baseline's workers) count; role-switched
        # verifiers execute too, so count their engine work via cpu time
        # (approximation: all their busy time)
        busy_total = sum(e.cpu.busy_seconds for e in cluster.executors)
        switched = [
            v for v in cluster.all_verifiers if v.engine.tasks_executed > 0
        ]
        busy_total += sum(v.cpu.busy_seconds for v in switched)
        return busy_total, len(cluster.executors) + len(switched)

    extra = {"cluster": cluster}
    violations = _audit_sanitizer(cluster.sanitizer, extra, cluster)
    recovery = _fold_faults(
        cluster.metrics, extra, spec.campaign, cluster.sim.now, violations
    )
    return _finish(
        _LABELS[spec.system], spec.n, 0 if spec.system == "zft" else spec.f,
        cluster.metrics, cluster.net, busy,
        cluster.config.cores_per_node, extra,
        horizon=cluster.sim.now,
        output_pids=tuple(cluster.topo.output_pids),
        sanitizer_violations=violations,
        recovery=recovery,
        commits=(
            {op.pid: op.commit_record() for op in cluster.outputs}
            if spec.system == "osiris" else {}
        ),
    )


def _run_live(spec: DeploymentSpec, time_scale: Optional[float]) -> ScenarioResult:
    """Run the spec as real OS processes; same result shape as the DES.

    Timing-derived numbers (throughput, latency, utilization) come from
    the forwarded event stream and the emulated CPU banks — comparable
    in shape, not in value, to DES results.  ``op_bandwidth`` is zero:
    there is no modelled NIC on real pipes.
    """
    if spec.shards > 1:
        raise BenchmarkError(
            "a pre-planned workload stream feeds only the primary input "
            "pipeline; sharded live deployments serve client traffic — "
            "use repro.api.serve()"
        )
    workload = spec.resolve_workload()
    rt = _build_live(spec, time_scale)
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
    }
    violations = None
    if rt.sanitizer_report is not None:
        violations = len(rt.sanitizer_report.violations)
        extra["sanitizer_report"] = rt.sanitizer_report
    recovery = _fold_faults(
        rt.metrics, extra, plan.campaign, report.sim_seconds, violations
    )
    return _finish(
        "OsirisBFT", spec.n, spec.f, rt.metrics, None, busy,
        plan.config.cores_per_node, extra,
        horizon=report.sim_seconds,
        output_pids=tuple(plan.topo.output_pids),
        sanitizer_violations=violations,
        recovery=recovery,
        commits=report.commits,
    )


def run(spec: DeploymentSpec, time_scale: Optional[float] = None) -> ScenarioResult:
    """Run the deployment a spec describes; returns the measured result.

    This is the single execution path behind :mod:`repro.exp` sweeps,
    the bench CLI, the fuzz driver and the adversary CLI.  Campaign
    runs additionally report recovery metrics in the result's typed
    ``recovery`` field (the live ``recovery_report`` rides in
    ``result.extra``).  ``time_scale`` paces a live run (see
    :func:`build`).
    """
    if spec.backend == "live":
        return _run_live(spec, time_scale)
    _des_has_no_time_scale(time_scale)
    return _run_des(spec)


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
