"""Sweep vocabulary: a named, ordered tuple of deployment specs.

Each point of a :class:`SweepSpec` is a :class:`repro.api.DeploymentSpec`
— the same frozen, hashable value every backend runs.  A declarative
spec (registry-named workload, faults as
:class:`~repro.adversary.campaign.FaultSpec` entries or a campaign)
names everything its run depends on, so two specs with equal
:meth:`~repro.api.DeploymentSpec.descriptor`\\ s produce byte-identical
results on the deterministic DES, which is what makes content-addressed
caching and multiprocess fan-out safe.

The :meth:`SweepSpec.grid` constructor reproduces the benchmark
harness's canonical iteration order (sizes outer, systems inner, RCP
skipped below n=3 because it needs 2f+1 workers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.api import SYSTEMS, DeploymentSpec

__all__ = ["SweepSpec"]


@dataclass(frozen=True)
class SweepSpec:
    """A named, ordered experiment sweep."""

    name: str
    points: tuple[DeploymentSpec, ...] = field(default_factory=tuple)

    @classmethod
    def grid(
        cls,
        name: str,
        workload: str,
        workload_params: Mapping[str, Any] | None,
        sizes: Sequence[int],
        systems: Sequence[str] = SYSTEMS,
        f: int = 1,
        seed: int = 0,
        deadline: float = 600.0,
        config: Mapping[str, Any] | None = None,
    ) -> "SweepSpec":
        """The canonical size × system grid: sizes outer, systems inner
        (in the given order), RCP dropped below n=3 (needs 2f+1 nodes)."""
        return cls.of(
            name,
            (
                DeploymentSpec(
                    system=system,
                    workload=workload,
                    workload_params=workload_params,
                    n=n,
                    f=f,
                    seed=seed,
                    deadline=deadline,
                    config=config if system == "osiris" else (),
                    label=f"{system}-n{n}",
                )
                for n in sizes
                for system in systems
                if not (system == "rcp" and n < 3)
            ),
        )

    @classmethod
    def of(cls, name: str, points: Iterable[DeploymentSpec]) -> "SweepSpec":
        return cls(name=name, points=tuple(points))

    def __len__(self) -> int:
        return len(self.points)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "points": [p.to_dict() for p in self.points],
        }
