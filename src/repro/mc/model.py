"""Small OsirisBFT deployments for bounded interleaving exploration.

A :class:`McModel` names everything that defines the explored system:
one verifier sub-cluster of ``n`` members (which doubles as VP_CO, the
k=1 layout), a small executor pool, one output process, ``tasks``
compute-only tasks, and at most one Byzantine fault drawn from the
:mod:`repro.core.faults` registries.  :func:`build_world` constructs
the deployment over pure :class:`~repro.runtime.core.ProtocolCore`
state machines, each bound to its own in-memory
:class:`~repro.runtime.testing.TestRuntime`, then *bootstraps past
consensus*: every coordinator member commits each task directly
(``_commit_task``), exactly as if the consensus instance had delivered
it — so the explored frontier starts
at the signed ``AssignmentMsg`` multicasts of the data plane, the part
of the protocol whose schedules are actually interesting, and
reproducer traces stay short.  Consensus is still *live* during
exploration: suspect/complete quorums route control ops through it.

No input process is modelled (tasks are pre-committed) and
``role_switching`` is off, so no periodic timers exist at the root.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.apps.synthetic import SyntheticApp, make_compute_task
from repro.core.config import OsirisConfig
from repro.core.coordinator import Coordinator
from repro.core.executor import Executor
from repro.core.faults import make_fault
from repro.core.input_output import OutputProcess
from repro.crypto.signatures import KeyRegistry
from repro.errors import ProtocolError
from repro.mc.world import McWorld
from repro.net.topology import SubCluster, Topology
from repro.runtime.plan import install_fault

__all__ = ["McModel", "build_world"]


@dataclass(frozen=True)
class McModel:
    """Parameters of one bounded exploration (all knobs serializable).

    ``delays`` is the CHESS-style reorder budget: every schedule the
    explorer enumerates deviates from the canonical (sorted-key)
    schedule at most ``delays`` times; ``-1`` removes the bound.
    ``timer_budget`` bounds how often each (pid, timer-name) pair may
    fire — timers fire only at message quiescence, and re-arming past
    the budget is inert — which keeps re-arming timeout loops finite.
    ``eager_local`` runs jobs/scheds atomically right after the
    delivery that queued them; ``stutter`` commits deliveries that
    leave their target core unchanged without branching on them.
    """

    n: int = 3
    tasks: int = 2
    executors: int = 1
    records: int = 2
    fault_role: str = ""
    fault_kind: str = ""
    timer_budget: int = 1
    eager_local: bool = True
    stutter: bool = True
    delays: int = 1

    def validate(self) -> None:
        if not 3 <= self.n <= 4:
            raise ProtocolError(f"mc model needs 3 <= n <= 4, got {self.n}")
        if not 1 <= self.tasks <= 3:
            raise ProtocolError(
                f"mc model needs 1 <= tasks <= 3, got {self.tasks}"
            )
        if not 1 <= self.executors <= 2:
            raise ProtocolError(
                f"mc model needs 1 <= executors <= 2, got {self.executors}"
            )
        if self.records < 1:
            raise ProtocolError("mc model needs records >= 1")
        if self.timer_budget < 0:
            raise ProtocolError("mc model needs timer_budget >= 0")
        if bool(self.fault_role) != bool(self.fault_kind):
            raise ProtocolError(
                "fault_role and fault_kind must be set together"
            )
        if self.fault_role and self.fault_role not in ("executor", "verifier"):
            raise ProtocolError(
                f"mc models support executor/verifier faults, "
                f"got {self.fault_role!r}"
            )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "tasks": self.tasks,
            "executors": self.executors,
            "records": self.records,
            "fault_role": self.fault_role,
            "fault_kind": self.fault_kind,
            "timer_budget": self.timer_budget,
            "eager_local": self.eager_local,
            "stutter": self.stutter,
            "delays": self.delays,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "McModel":
        model = cls()
        known = {k: v for k, v in data.items() if k in model.to_dict()}
        return replace(model, **known)


def build_world(model: McModel) -> McWorld:
    """Construct and bootstrap the deployment described by ``model``.

    The returned world's pending frontier holds exactly the data-plane
    deliveries produced by committing every task at every coordinator
    member (assignment multicasts), and no timers are armed.
    """
    model.validate()
    verifiers = tuple(f"v{i}" for i in range(model.n))
    executors = tuple(f"e{i}" for i in range(model.executors))
    topo = Topology(
        input_pids=(),
        output_pids=("op0",),
        executor_pids=executors,
        verifier_clusters=(SubCluster(index=0, members=verifiers, f=1),),
        f=1,
    )
    registry = KeyRegistry()
    signers = {p: registry.register(p) for p in topo.all_pids()}
    config = OsirisConfig(role_switching=False)
    app = SyntheticApp(records_per_task=model.records, compute_cost=1e-3)
    # verifier faults target the initial leader — the most
    # consequential seat for negligence/digest lies
    faulty = {"verifier": verifiers[0], "executor": executors[0]}.get(
        model.fault_role
    )

    world = McWorld(model, topo, config, app, registry)
    for pid in verifiers + executors:
        if pid in verifiers:
            core = Coordinator(
                pid,
                topo,
                registry,
                signers[pid],
                app,
                config,
                cluster=topo.cluster(0),
            )
        else:
            core = Executor(pid, topo, registry, signers[pid], app, config)
        if pid == faulty:
            install_fault(
                core, topo, pid, make_fault(model.fault_role, model.fault_kind)
            )
        world.add_core(core, coordinator=pid in verifiers)
    world.add_core(OutputProcess("op0", topo, config), output=True)

    # bootstrap past consensus: each member commits each task directly,
    # then all queued control jobs (assignment signing) run to rest
    for i in range(model.tasks):
        task = make_compute_task(i, model.records)
        for pid in verifiers:
            world.cores[pid]._commit_task(task)
    world.drain_local()
    world.invalidate_all()
    return world
