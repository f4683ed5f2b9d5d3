"""Cluster topology descriptions.

A :class:`Topology` names the processes of a deployment and their role
partition: input/output processes, the coordinator verifier sub-cluster
VP_CO, additional verifier sub-clusters VP_i, and the executor pool EP.
The plan functions (:mod:`repro.runtime.plan`, the baselines') construct
one and hand it to every process so that role membership is common
knowledge — matching the paper's static membership assumption.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.errors import NetworkError

__all__ = ["SubCluster", "Topology", "shard_of_tenant"]


def shard_of_tenant(tenant: str, shards: int) -> int:
    """Deterministic tenant → shard routing key.

    sha256-based so the mapping is stable across processes and
    platforms (never ``hash()``, which is salted per interpreter).  The
    domain-separation prefix keeps this independent of any other sha256
    use of the bare tenant key (and happens to spread the conventional
    small ``t0``/``t1``/... keys across small shard counts).
    """
    if shards <= 1:
        return 0
    h = hashlib.sha256(("shard:" + tenant).encode("utf-8")).digest()
    return int.from_bytes(h[:8], "big") % shards


@dataclass(frozen=True)
class SubCluster:
    """A BFT verifier sub-cluster: 2f+1 (or 3f+1) member pids."""

    index: int
    members: tuple[str, ...]
    f: int

    def __post_init__(self) -> None:
        if len(self.members) < 2 * self.f + 1:
            raise NetworkError(
                f"sub-cluster {self.index} has {len(self.members)} members, "
                f"needs >= {2 * self.f + 1} for f={self.f}"
            )

    @property
    def quorum(self) -> int:
        """f+1 — the matching-message quorum used throughout the protocols."""
        return self.f + 1

    def leader_at(self, term: int) -> str:
        """Round-robin leader for a given election term."""
        return self.members[term % len(self.members)]


@dataclass
class Topology:
    """Immutable description of who plays which role.

    ``verifier_clusters[0]`` is always VP_CO, the coordinator sub-cluster
    ("one of the verifier sub-clusters is arbitrarily chosen", Sec 2).
    """

    input_pids: tuple[str, ...]
    output_pids: tuple[str, ...]
    executor_pids: tuple[str, ...]
    verifier_clusters: tuple[SubCluster, ...]
    f: int
    #: Number of tenant-routed IP/OP pipelines sharing the verifier
    #: fleet.  1 (default) is the legacy single-pipeline layout; when
    #: > 1, pipeline i is (input_pids[i], output_pids[i]) and completed
    #: output for a tenant is delivered only to its shard's OP.
    shards: int = 1

    def __post_init__(self) -> None:
        if not self.verifier_clusters:
            raise NetworkError("need at least one verifier sub-cluster (VP_CO)")
        all_pids = list(self.all_pids())
        if len(set(all_pids)) != len(all_pids):
            raise NetworkError("process ids overlap across roles")
        if self.shards < 1:
            raise NetworkError(f"shards must be >= 1, got {self.shards}")
        if self.shards > 1 and (
            len(self.input_pids) != self.shards
            or len(self.output_pids) != self.shards
        ):
            raise NetworkError(
                f"sharded topology needs exactly {self.shards} input and "
                f"output pids, got {len(self.input_pids)}/"
                f"{len(self.output_pids)}"
            )

    # ------------------------------------------------------------- accessors
    @property
    def coordinator(self) -> SubCluster:
        """VP_CO — linearizes tasks and coordinates the cluster."""
        return self.verifier_clusters[0]

    @property
    def worker_clusters(self) -> tuple[SubCluster, ...]:
        """Verifier sub-clusters available for record verification.

        VP_CO is "one of the verifier sub-clusters" (Sec 2) — it
        coordinates *in addition to* verifying, so every cluster is in
        the verification rotation (coordination runs on the dedicated
        control core).
        """
        return self.verifier_clusters

    def all_verifier_pids(self) -> tuple[str, ...]:
        """All verifier pids across sub-clusters, coordinator first."""
        out: list[str] = []
        for vc in self.verifier_clusters:
            out.extend(vc.members)
        return tuple(out)

    def worker_pids(self) -> tuple[str, ...]:
        """WP = EP ∪ VP — every process that maintains application state."""
        return tuple(self.executor_pids) + self.all_verifier_pids()

    def all_pids(self) -> tuple[str, ...]:
        """Every process in the deployment."""
        return (
            tuple(self.input_pids)
            + tuple(self.output_pids)
            + self.worker_pids()
        )

    def outputs_for(self, tenant: str) -> tuple[str, ...]:
        """Output pids a completion for ``tenant`` must be delivered to.

        Unsharded topologies (and untenanted tasks, which can only come
        from legacy workloads) broadcast to every OP — the exact legacy
        path.  Sharded topologies route to the tenant's single OP.
        """
        if self.shards <= 1 or not tenant:
            return tuple(self.output_pids)
        return (self.output_pids[shard_of_tenant(tenant, self.shards)],)

    def shard_of(self, tenant: str) -> int:
        """Shard index owning ``tenant`` (0 when unsharded)."""
        return shard_of_tenant(tenant, self.shards)

    def cluster_of(self, pid: str) -> Optional[SubCluster]:
        """The verifier sub-cluster containing ``pid``, if any."""
        for vc in self.verifier_clusters:
            if pid in vc.members:
                return vc
        return None

    def cluster(self, index: int) -> SubCluster:
        """Sub-cluster by index."""
        for vc in self.verifier_clusters:
            if vc.index == index:
                return vc
        raise NetworkError(f"no verifier sub-cluster with index {index}")
