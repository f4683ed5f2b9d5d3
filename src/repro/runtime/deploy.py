"""Deployment builder: bind protocol cores to the DES backend.

Layout decisions (topology, role assignment, the pid → fault map) live
in :mod:`repro.runtime.plan`; this module instantiates a computed
:class:`~repro.runtime.plan.ClusterPlan` — OsirisBFT's or a baseline's —
on the simulated substrate.
Every role is a pure :class:`~repro.runtime.core.ProtocolCore`; this is
the only place where cores meet the simulator — each one is wrapped in
a :class:`~repro.runtime.des.DesHost` immediately after construction
(preserving the pre-refactor event-seq order of initial timers) and
registered on the network.  The live OS-process backend
(:mod:`repro.live`) instantiates the *same* plan with one child process
per node instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from repro.core.api import VerifiableApplication
from repro.core.config import OsirisConfig
from repro.core.coordinator import Coordinator
from repro.core.executor import Executor
from repro.core.input_output import InputProcess, OutputProcess
from repro.core.tasks import Task
from repro.core.verifier import Verifier
from repro.crypto.signatures import KeyRegistry
from repro.net.links import DEFAULT_BANDWIDTH, Network
from repro.net.partial_synchrony import SynchronyModel
from repro.net.topology import Topology, shard_of_tenant
from repro.obs.bus import EventBus
from repro.obs.metrics import MetricsHub
from repro.runtime.des import DesHost
from repro.runtime.plan import (
    ClusterPlan,
    default_cluster_count,
    plan_osiris_cluster,
)
from repro.sim.kernel import Simulator

__all__ = [
    "OsirisCluster",
    "build_osiris_cluster",
    "instantiate_plan_des",
    "default_cluster_count",
]


@dataclass
class OsirisCluster:
    """Handles to a wired deployment of any of the three systems (role
    lists hold the *cores*; a baseline's workers are its executors)."""

    sim: Simulator
    net: Network
    topo: Topology
    registry: KeyRegistry
    metrics: MetricsHub
    bus: EventBus
    config: OsirisConfig
    app: VerifiableApplication
    inputs: list[InputProcess]
    outputs: list[OutputProcess]
    executors: list[Executor]
    verifiers: list[Verifier] = field(default_factory=list)
    coordinators: list[Coordinator] = field(default_factory=list)
    hosts: dict[str, DesHost] = field(default_factory=dict)
    #: set when built with ``sanitize=True`` (a ``repro.check.Sanitizer``)
    sanitizer: Optional[object] = None
    #: set when built with a campaign (the installed
    #: ``repro.adversary.CampaignController``)
    campaign: Optional[object] = None
    #: the plan's system: "osiris", "zft" or "rcp"
    system: str = "osiris"

    def start(self) -> None:
        """Begin streaming the workload."""
        for ip in self.inputs:
            ip.start()

    def run(self, until: float) -> None:
        """Advance simulated time (resumable)."""
        self.sim.run(until=until)

    def worker(self, pid: str):
        """Look up any role's protocol core by pid."""
        return self.hosts[pid].core

    def host(self, pid: str) -> DesHost:
        """The simulated node hosting ``pid`` (timers, CPU banks,
        replay capture flag)."""
        return self.hosts[pid]

    @property
    def all_verifiers(self) -> list[Verifier]:
        """Coordinators + plain verifiers."""
        return list(self.coordinators) + list(self.verifiers)


class _ShardDemux:
    """Split one lazy (time, Task) stream across per-shard input feeds.

    Each shard's InputProcess pulls from its own view; a pull that finds
    the shard's buffer empty advances the shared underlying iterator,
    parking tasks owned by *other* shards in their buffers.  Memory is
    bounded by the inter-shard skew of the arrival interleaving, not the
    stream length — the lazy-source contract survives sharding.
    """

    def __init__(self, source: Iterator[tuple[float, Task]], shards: int):
        from collections import deque

        self._source = source
        self._shards = shards
        self._buffers = [deque() for _ in range(shards)]

    def _pull_into(self, shard: int) -> bool:
        for when, task in self._source:
            owner = shard_of_tenant(task.tenant, self._shards)
            self._buffers[owner].append((when, task))
            if owner == shard:
                return True
        return False

    def stream(self, shard: int) -> Iterator[tuple[float, Task]]:
        buf = self._buffers[shard]
        while buf or self._pull_into(shard):
            yield buf.popleft()


def instantiate_plan_des(
    plan: ClusterPlan,
    app: VerifiableApplication,
    workload: Optional[Iterator[tuple[float, Task]]] = None,
    sinks: Iterable = (),
) -> OsirisCluster:
    """Instantiate a computed plan on the DES substrate."""
    sim = Simulator(seed=plan.seed)
    net = Network(sim, synchrony=plan.synchrony, bandwidth=plan.bandwidth)
    registry = KeyRegistry()
    metrics = MetricsHub()
    sim.bus.attach(metrics)
    sanitizer = None
    if plan.sanitize:
        from repro.check.sanitizer import Sanitizer  # lazy: optional layer

        sanitizer = Sanitizer(net)
        sanitizer.attach(sim.bus)
    for sink in sinks:
        sim.bus.attach(sink)

    hosts: dict[str, DesHost] = {}
    by_role: dict[str, list] = {
        "coordinator": [],
        "verifier": [],
        "executor": [],
        "input": [],
        "output": [],
    }
    primary_ip = plan.topo.input_pids[0] if plan.topo.input_pids else None
    feeds: dict[str, Iterator[tuple[float, Task]]] = {}
    if plan.topo.shards > 1 and workload is not None:
        demux = _ShardDemux(iter(workload), plan.topo.shards)
        for i, pid in enumerate(plan.topo.input_pids):
            feeds[pid] = demux.stream(i)
    elif primary_ip is not None and workload is not None:
        feeds[primary_ip] = workload
    for spec in plan.nodes:
        wl = feeds.get(spec.pid) if spec.role == "input" else None
        core = plan.make_core(spec, app, registry, workload=wl)
        host = DesHost(
            sim, net, core, cores=spec.cores, capture=spec.pid in plan.capture
        )
        net.register(host)
        hosts[spec.pid] = host
        by_role[spec.role].append(core)

    cluster = OsirisCluster(
        sim=sim,
        net=net,
        topo=plan.topo,
        registry=registry,
        metrics=metrics,
        bus=sim.bus,
        config=plan.config,
        app=app,
        inputs=by_role["input"],
        outputs=by_role["output"],
        executors=by_role["executor"],
        verifiers=by_role["verifier"],
        coordinators=by_role["coordinator"],
        hosts=hosts,
        sanitizer=sanitizer,
        system=plan.system,
    )
    if plan.campaign is not None:
        from repro.adversary.engine import install_campaign

        cluster.campaign = install_campaign(plan.campaign, cluster)
    return cluster


def build_osiris_cluster(
    app: VerifiableApplication,
    workload: Optional[Iterator[tuple[float, Task]]] = None,
    n_workers: int = 8,
    config: Optional[OsirisConfig] = None,
    k: Optional[int] = None,
    seed: int = 0,
    synchrony: Optional[SynchronyModel] = None,
    bandwidth: float = DEFAULT_BANDWIDTH,
    n_inputs: int = 1,
    n_outputs: int = 1,
    faults: Optional[object] = None,
    sinks: Iterable = (),
    capture: Iterable[str] = (),
    sanitize: bool = False,
    shards: int = 1,
) -> OsirisCluster:
    """Build and wire an OsirisBFT deployment on the DES backend.

    Parameters
    ----------
    app:
        The verifiable application.
    workload:
        Iterator of (time, Task) pairs fed by IP (may be None for manual
        driving in tests).
    n_workers:
        |WP| — worker processes, split into verifiers and executors.
    k:
        Verifier sub-cluster count (first cluster is VP_CO).  Default:
        ``max(1, n_workers // (2·(2f+1)))``.
    faults:
        Anything :func:`repro.api.normalize_faults` accepts — a pid →
        fault strategy (or ``FaultSpec``) mapping, an adversary
        :class:`~repro.adversary.campaign.Campaign` (or its canonical
        JSON), or a pre-normalized plan.  Each static fault is installed
        on its pid's core by :func:`repro.runtime.plan.install_fault`; a
        campaign is installed on the built cluster (phase timers
        scheduled, trigger sink attached); the metrics hub records its
        injection for the recovery report.
    sinks:
        Event sinks attached to the bus *before* any core is built, so
        they observe construction-time events too.
    capture:
        pids whose hosts record replay inputs/effects from birth (see
        :class:`~repro.runtime.des.DesHost`); combine with a
        ``CATEGORY_REPLAY``-filtered sink in ``sinks`` to produce a
        standalone re-runnable log.
    sanitize:
        Attach the :mod:`repro.check` substrate sanitizer from birth.
        Purely observational (the trace stays byte-identical); call
        ``cluster.sanitizer.audit(cluster)`` after the run for the
        post-run checks.
    shards:
        Tenant-routed IP/OP pipeline count over the shared verifier
        fleet; ``workload`` is demultiplexed across the per-shard
        inputs by each task's tenant key.
    """
    plan = plan_osiris_cluster(
        n_workers=n_workers,
        config=config,
        k=k,
        seed=seed,
        synchrony=synchrony,
        bandwidth=bandwidth,
        n_inputs=n_inputs,
        n_outputs=n_outputs,
        faults=faults,
        capture=capture,
        sanitize=sanitize,
        shards=shards,
    )
    return instantiate_plan_des(plan, app, workload, sinks=sinks)
