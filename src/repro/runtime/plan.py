"""Backend-agnostic deployment planning.

Splitting a deployment into *plan* and *instantiate* phases is what lets
the DES backend and the live OS-process backend share one construction
path: :func:`plan_osiris_cluster` (and the baselines'
:func:`~repro.baselines.zft.plan_zft_cluster` and
:func:`~repro.baselines.rcp.plan_rcp_cluster`) computes everything that
is pure decision-making — topology and role layout, sub-cluster
membership, the pid → fault strategy map, per-node CPU-bank widths,
capture set — and returns a :class:`ClusterPlan`; each backend then
walks :attr:`ClusterPlan.nodes` **in order** and asks
:meth:`ClusterPlan.make_core` for the pure protocol core of each pid.

:func:`install_fault` is the one place a fault strategy meets a core:
``make_core`` builds the honest core and installs the pid's static fault
with it, and an adversary campaign's ``set`` action installs its fault
the same way at run time.

Two invariants matter:

* Node order is canonical (sub-clusters ascending with the coordinator's
  first, then executors, inputs, outputs; see :func:`plan_topology`).
  The DES backend binds hosts in this order, which fixes the event-seq
  numbering of the cores' birth timers — the golden trace fixtures pin
  it.
* ``make_core`` is deterministic given (plan, pid): key material comes
  from :class:`~repro.crypto.signatures.KeyRegistry`'s per-pid seeded
  derivation, so a live child process can rebuild its own registry and
  arrive at the same keys the parent (and every sibling) derives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from repro.core.api import VerifiableApplication
from repro.core.config import OsirisConfig
from repro.core.coordinator import Coordinator
from repro.core.executor import Executor
from repro.core.faults import ExecutorFault, OutputFault, VerifierFault
from repro.core.input_output import InputProcess, OutputProcess
from repro.core.tasks import Task
from repro.core.verifier import Verifier
from repro.crypto.signatures import KeyRegistry
from repro.errors import ProtocolError
from repro.net.links import DEFAULT_BANDWIDTH
from repro.net.partial_synchrony import SynchronyModel
from repro.net.topology import SubCluster, Topology
from repro.runtime.core import ProtocolCore

__all__ = [
    "NodeSpec",
    "ClusterPlan",
    "plan_osiris_cluster",
    "plan_topology",
    "default_cluster_count",
    "install_fault",
]


def install_fault(core: ProtocolCore, topo: Topology, pid: str, fault) -> str:
    """Install ``fault`` on ``pid``'s core; returns the role it acts in.

    The strategy's base class picks the injection point: an executor
    fault drives the core's execution engine (executors, and verifiers
    in role-switched executor mode), a verifier fault the verifier
    logic, an output fault the output process.  A strategy the process
    cannot host raises :class:`~repro.errors.ProtocolError`.
    """
    if isinstance(fault, ExecutorFault):
        role, slot = "executor", getattr(core, "engine", None)
    elif isinstance(fault, VerifierFault):
        role = "verifier"
        slot = core if pid in topo.all_verifier_pids() else None
    elif isinstance(fault, OutputFault):
        role, slot = "output", core if pid in topo.output_pids else None
    else:
        raise ProtocolError(
            f"fault for {pid!r} must be an Executor/Verifier/Output fault "
            f"strategy, got {type(fault).__name__}"
        )
    if slot is None:
        raise ProtocolError(
            f"{pid} cannot host {role} fault {type(fault).__name__}"
        )
    slot.fault = fault
    return role


@dataclass(frozen=True)
class NodeSpec:
    """One node of the deployment: which role runs where, on how many
    (emulated or simulated) cores."""

    pid: str
    role: str  # coordinator | verifier | executor | input | output
    cores: int
    cluster_index: Optional[int] = None  # sub-cluster members only


@dataclass(frozen=True)
class ClusterPlan:
    """Everything both backends need to construct the same deployment."""

    topo: Topology
    config: OsirisConfig
    seed: int
    bandwidth: float
    synchrony: SynchronyModel
    nodes: tuple[NodeSpec, ...]
    #: pid → fault strategy, installed by :meth:`make_core`
    faults: dict = field(default_factory=dict)
    #: normalized adversary campaign (``repro.adversary.Campaign``), if any
    campaign: Optional[object] = None
    capture: frozenset = frozenset()
    sanitize: bool = False
    #: "osiris", "zft" or "rcp": which system's cores :meth:`make_core`
    #: builds; set by the system's plan function, not by a caller
    system: str = "osiris"

    def node(self, pid: str) -> NodeSpec:
        for spec in self.nodes:
            if spec.pid == pid:
                return spec
        raise ProtocolError(f"no node {pid!r} in plan")

    def make_core(
        self,
        spec: NodeSpec,
        app: VerifiableApplication,
        registry: KeyRegistry,
        workload: Optional[Iterator[tuple[float, Task]]] = None,
    ) -> ProtocolCore:
        """Construct the pure core for one node, its static fault (if
        any) installed by :func:`install_fault`.

        ``registry`` may be shared across all nodes (DES) or private to
        the calling process (live) — key derivation is per-pid
        deterministic either way.  ``workload`` is only consumed by the
        primary input role; see :func:`plan_osiris_cluster`.
        """
        if spec.role == "input" and workload is None:
            workload = iter(())
        if self.system == "zft":
            return self._zft_core(spec, app, workload)
        if self.system == "rcp":
            return self._rcp_core(spec, app, registry, workload)
        topo, config = self.topo, self.config
        if spec.role in ("coordinator", "verifier"):
            cluster = topo.verifier_clusters[spec.cluster_index]
            cls = Coordinator if spec.role == "coordinator" else Verifier
            core = cls(
                spec.pid,
                topo,
                registry,
                registry.register(spec.pid),
                app,
                config,
                cluster=cluster,
            )
        elif spec.role == "executor":
            core = Executor(
                spec.pid,
                topo,
                registry,
                registry.register(spec.pid),
                app,
                config,
            )
        elif spec.role == "input":
            core = InputProcess(spec.pid, topo, workload, config=config)
        elif spec.role == "output":
            core = OutputProcess(spec.pid, topo, config)
        else:  # pragma: no cover
            raise ProtocolError(f"unknown role {spec.role!r}")
        fault = self.faults.get(spec.pid)
        if fault is not None:
            install_fault(core, topo, spec.pid, fault)
        return core

    # The baselines load only when a plan of theirs builds a core, so an
    # OsirisBFT node never imports them.  Their workers are all executor
    # nodes; sub-cluster 0 (ZFT's w0 alone) is the coordinator.
    def _zft_core(self, spec, app, workload) -> ProtocolCore:
        from repro.baselines import zft

        topo, chunk_bytes = self.topo, self.config.chunk_bytes
        if spec.role == "input":
            return zft.ZftInput(spec.pid, topo.coordinator.members[0], workload)
        if spec.role == "output":
            return zft.ZftOutput(spec.pid)
        if spec.cluster_index == 0:
            return zft.ZftCoordinator(
                spec.pid,
                app,
                topo.output_pids,
                chunk_bytes,
                worker_pids=topo.coordinator.members + topo.executor_pids,
            )
        return zft.ZftWorker(spec.pid, app, topo.output_pids, chunk_bytes)

    def _rcp_core(self, spec, app, registry, workload) -> ProtocolCore:
        from repro.baselines import rcp

        topo = self.topo
        clusters = list(topo.verifier_clusters)
        if spec.role == "input":
            return rcp.RcpInput(spec.pid, topo.coordinator, workload)
        if spec.role == "output":
            return rcp.RcpOutput(spec.pid, clusters)
        args = (
            spec.pid,
            registry,
            registry.register(spec.pid),
            app,
            clusters[spec.cluster_index],
            topo.coordinator,
            topo.output_pids,
            self.config.chunk_bytes,
        )
        if spec.cluster_index == 0:
            return rcp.RcpCoordinator(*args, clusters=clusters)
        return rcp.RcpWorker(*args)


def default_cluster_count(n_workers: int, config: OsirisConfig) -> int:
    """Steady-state verifier sub-cluster count heuristic: the paper
    starts at |WP|/(2f+1) clusters and role-switching converges near
    half; defaulting to the converged ballpark lets short simulations
    measure steady state (``k`` stays exposed for Fig 6d)."""
    return max(1, n_workers // (2 * config.subcluster_size))


def plan_osiris_cluster(
    n_workers: int = 8,
    config: Optional[OsirisConfig] = None,
    k: Optional[int] = None,
    seed: int = 0,
    synchrony: Optional[SynchronyModel] = None,
    bandwidth: float = DEFAULT_BANDWIDTH,
    n_inputs: int = 1,
    n_outputs: int = 1,
    faults: Optional[object] = None,
    capture: Iterable[str] = (),
    sanitize: bool = False,
    shards: int = 1,
) -> ClusterPlan:
    """Lay out an OsirisBFT deployment (no substrate objects created).

    Maps the paper's Sec 7 setup onto roles: ``n_workers`` worker
    processes split into ``k`` verifier sub-clusters of 2f+1 (the first
    being VP_CO) and a pool of executors; ``n_inputs``/``n_outputs``
    dedicated IP/OP nodes.  ``faults`` accepts anything
    :func:`repro.api.normalize_faults` does; a static fault naming a pid
    the layout does not have raises :class:`~repro.errors.ProtocolError`.

    ``shards`` > 1 expands the layout into that many tenant-routed IP/OP
    pipelines (pipeline i = ``ip{i}``/``op{i}``) sharing the verifier
    fleet and executor pool; it subsumes ``n_inputs``/``n_outputs``,
    which must stay at their defaults.
    """
    config = config or OsirisConfig()
    if shards < 1:
        raise ProtocolError(f"shards must be >= 1, got {shards}")
    if shards > 1:
        if n_inputs != 1 or n_outputs != 1:
            raise ProtocolError(
                "shards expands the pipeline layout itself; do not also "
                "pass n_inputs/n_outputs"
            )
        n_inputs = n_outputs = shards
    size = config.subcluster_size
    if k is None:
        k = default_cluster_count(n_workers, config)
    if k < 1:
        raise ProtocolError("need at least one verifier sub-cluster")
    if n_workers < k * size:
        raise ProtocolError(
            f"n_workers={n_workers} cannot host {k} sub-clusters of {size}"
        )
    n_exec = n_workers - k * size

    clusters = []
    vpid = 0
    for idx in range(k):
        members = tuple(f"v{vpid + j}" for j in range(size))
        clusters.append(SubCluster(index=idx, members=members, f=config.f))
        vpid += size
    topo = Topology(
        input_pids=tuple(f"ip{i}" for i in range(n_inputs)),
        output_pids=tuple(f"op{i}" for i in range(n_outputs)),
        executor_pids=tuple(f"e{i}" for i in range(n_exec)),
        verifier_clusters=tuple(clusters),
        f=config.f,
        shards=shards,
    )

    from repro.api import normalize_faults  # lazy: api sits above runtime

    fault_plan = normalize_faults(faults)
    pids = set(topo.all_pids())
    missing = [pid for pid, _ in fault_plan.static if pid not in pids]
    if missing:
        raise ProtocolError(
            f"faults name {missing}, which the layout does not have"
        )

    return plan_topology(
        "osiris",
        topo,
        config,
        seed=seed,
        synchrony=synchrony,
        bandwidth=bandwidth,
        faults=fault_plan.strategies(),
        campaign=fault_plan.campaign,
        capture=capture,
        sanitize=sanitize,
    )


def plan_topology(
    system: str,
    topo: Topology,
    config: OsirisConfig,
    seed: int = 0,
    synchrony: Optional[SynchronyModel] = None,
    bandwidth: float = DEFAULT_BANDWIDTH,
    capture: Iterable[str] = (),
    sanitize: bool = False,
    **fields,
) -> ClusterPlan:
    """The plan of ``system`` over ``topo``, its nodes in canonical order:
    sub-clusters ascending (the coordinator's first), executors, inputs,
    outputs.  OsirisBFT's sub-clusters verify; every worker of a
    baseline executes, so its sub-cluster members are executor nodes
    too.  Workers get ``config.cores_per_node`` cores, IP/OP nodes two.
    A ``capture`` pid with no node raises
    :class:`~repro.errors.ProtocolError`.
    """
    cores = config.cores_per_node
    nodes: list[NodeSpec] = []
    for cluster in topo.verifier_clusters:
        role = "executor"
        if system == "osiris":
            role = "coordinator" if cluster.index == 0 else "verifier"
        for pid in cluster.members:
            nodes.append(NodeSpec(pid, role, cores, cluster.index))
    for pid in topo.executor_pids:
        nodes.append(NodeSpec(pid, "executor", cores))
    for pid in topo.input_pids:
        nodes.append(NodeSpec(pid, "input", 2))
    for pid in topo.output_pids:
        nodes.append(NodeSpec(pid, "output", 2))
    capture = frozenset(capture)
    missing = sorted(capture - {node.pid for node in nodes})
    if missing:
        raise ProtocolError(
            f"capture names {missing}, which the plan has no node for"
        )
    return ClusterPlan(
        topo=topo,
        config=config,
        seed=seed,
        bandwidth=bandwidth,
        synchrony=synchrony or SynchronyModel(),
        nodes=tuple(nodes),
        capture=capture,
        sanitize=sanitize,
        system=system,
        **fields,
    )
