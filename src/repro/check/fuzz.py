"""Randomized sanitizer sweeps over the scenario space.

The sanitizer's invariants hold on *every* run, so any randomized
point is a test: draw seeds, cluster shapes, workloads and fault mixes
as declarative :class:`repro.api.DeploymentSpec` values, run each with
``sanitize=True``, and flag the ones whose report comes back non-empty
(or that crash outright).  A failing point is then *shrunk* — faults
dropped, config overrides cleared, the workload and cluster halved — to
the smallest spec that still reproduces, which is what gets reported
as its :meth:`~repro.api.DeploymentSpec.descriptor` (and what a
regression test should pin).

Determinism: the sweep is a pure function of ``(budget, seed)`` — point
generation uses one ``random.Random(seed)`` stream and the DES itself is
seeded from each point — so a CI failure replays locally with the same
two numbers.

Entry points: :func:`run_fuzz` (library) and ``python -m repro.check
fuzz --budget N --seed S`` (CLI, exits non-zero on failures).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro import api
from repro.adversary.campaign import Action, Campaign, FaultSpec, Phase, Trigger
from repro.api import DeploymentSpec
from repro.errors import BenchmarkError, ProtocolError

__all__ = [
    "FuzzFailure",
    "FuzzOutcome",
    "generate_campaign",
    "generate_point",
    "run_fuzz",
    "shrink_point",
]

#: Cap on extra runs spent shrinking one failing point.
MAX_SHRINK_RUNS = 24

_EXEC_FAULT_KINDS = (
    "silent",
    "slow",
    "corrupt-record",
    "fabricate-record",
    "duplicate-record",
    "omit-record",
    "equivocate-chunks",
)
_VERIF_FAULT_KINDS = ("negligent-leader", "bogus-digest")

#: Trigger kinds the random campaigns subscribe to.  ``task-assigned``
#: carries an ``executor`` field, so its triggers can target the very
#: process the event names (the adaptive "turncoat" shape).
_TRIGGER_KINDS = ("chunk-accepted", "task-assigned")


def generate_campaign(rng: random.Random, n_exec: int, k: int) -> Campaign:
    """Draw one random-but-valid adversary campaign.

    Phases target executor selectors (plus ``cluster:1`` verifiers when a
    second sub-cluster exists); roughly a third of campaigns add an
    adaptive trigger, and some add a remission (``clear``) phase — so the
    fuzz sweep exercises the engine's set/clear/trigger paths, not just
    deployment-time injection.
    """

    def exec_action() -> Action:
        selector = rng.choice(
            ["executors", f"executors[:{max(1, n_exec // 2)}]"]
            + [f"e{i}" for i in range(n_exec)]
        )
        return Action(
            op="set",
            select=selector,
            fault=FaultSpec(
                role="executor", kind=rng.choice(_EXEC_FAULT_KINDS)
            ),
        )

    phases = [
        Phase(at=rng.choice((0.0, 0.5, 2.0, 5.0)), actions=(exec_action(),))
    ]
    if k >= 2 and rng.random() < 0.3:
        phases.append(
            Phase(
                at=rng.choice((0.0, 1.0, 3.0)),
                actions=(
                    Action(
                        op="set",
                        select="cluster:1[:1]",
                        fault=FaultSpec(
                            role="verifier",
                            kind=rng.choice(_VERIF_FAULT_KINDS),
                        ),
                    ),
                ),
            )
        )
    if rng.random() < 0.3:
        phases.append(
            Phase(
                at=rng.choice((4.0, 8.0)),
                name="remission",
                actions=(Action(op="clear", select="executors"),),
            )
        )
    triggers = ()
    if rng.random() < 0.35:
        on = rng.choice(_TRIGGER_KINDS)
        select = "event:executor" if on == "task-assigned" else (
            f"e{rng.randrange(n_exec)}"
        )
        triggers = (
            Trigger(
                on=on,
                once=True,
                after=rng.choice((0.0, 0.5)),
                actions=(
                    Action(
                        op="set",
                        select=select,
                        fault=FaultSpec(
                            role="executor", kind=rng.choice(_EXEC_FAULT_KINDS)
                        ),
                    ),
                ),
            ),
        )
    return Campaign(name="fuzz", phases=tuple(phases), triggers=triggers)


# --------------------------------------------------------------- generation
def generate_point(rng: random.Random) -> DeploymentSpec:
    """Draw one random-but-valid scenario point.

    Sub-cluster size is 2f+1 = 3 (f is pinned at 1 — the substrate
    invariants don't depend on f, and larger quorums just slow the
    sweep).  Verifier faults are only drawn when a second sub-cluster
    exists (n=8, k=2): the fault registry targets non-coordinator
    verifiers, which k=1 deployments don't have.
    """
    system = rng.choices(("osiris", "zft", "rcp"), weights=(70, 15, 15))[0]

    if rng.random() < 0.75:
        workload = "synthetic"
        wparams = {
            "n_tasks": rng.randint(4, 14),
            "records_per_task": rng.randint(3, 12),
            "compute_cost": rng.choice((20e-3, 50e-3, 120e-3)),
            "record_bytes": rng.choice((256, 1024, 4096)),
            "rate": rng.choice((500.0, 2000.0, 8000.0)),
        }
    else:
        workload = "anomaly"
        wparams = {
            "profile": rng.choice(("MM", "LH", "HL")),
            "n_tasks": rng.randint(4, 10),
            "seed": rng.randrange(1 << 12),
        }

    seed = rng.randrange(1 << 16)
    if system != "osiris":
        return DeploymentSpec(
            system=system,
            workload=workload,
            workload_params=wparams,
            n=rng.choice((3, 4, 5, 8)),
            seed=seed,
            label="fuzz",
        )

    k = 2 if rng.random() < 0.3 else 1
    n = 8 if k == 2 else rng.choice((4, 5, 6, 8))
    n_exec = n - 3 * k

    # A quarter of osiris draws are sharded multi-tenant open-loop
    # deployments: tenant-tagged arrivals (Poisson/diurnal/burst-idle)
    # routed by tenant-key hash across two IP→OP pipelines sharing the
    # verifier fleet — the invariants must hold there too.
    shards, tenants = 1, 1
    if rng.random() < 0.25:
        workload = "open_loop"
        wparams = {
            "n_tasks": rng.randint(6, 14),
            "rate": rng.choice((50.0, 200.0)),
            "process": rng.choice(("poisson", "diurnal", "burst_idle")),
            "seed": rng.randrange(1 << 12),
        }
        shards = 2
        tenants = rng.randint(2, 4)

    config: dict = {}
    if rng.random() < 0.4:
        # short suspect timeout: exercises reassignment + CPU cancellation
        config["suspect_timeout"] = rng.choice((2.0, 5.0, 10.0))
    if rng.random() < 0.2:
        config["cores_per_node"] = 2

    faults: dict | Campaign = {}
    if n_exec > 0 and rng.random() < 0.5:
        for pid in rng.sample(
            [f"e{i}" for i in range(n_exec)], k=min(n_exec, rng.randint(1, 2))
        ):
            faults[pid] = FaultSpec(
                role="executor",
                kind=rng.choice(_EXEC_FAULT_KINDS),
                params={"activate_at": rng.choice((0.0, 0.5, 2.0))},
            )

    if k >= 2 and rng.random() < 0.4:
        pid = f"v{rng.randint(3, 5)}"
        faults[pid] = FaultSpec(
            role="verifier",
            kind=rng.choice(_VERIF_FAULT_KINDS),
            params={"activate_at": rng.choice((0.0, 0.5))},
        )

    # A quarter of osiris points carry a campaign instead of static
    # faults — the engine's scheduling/trigger machinery fuzzes under the
    # same invariants as deployment-time injection.
    if n_exec > 0 and rng.random() < 0.25:
        faults = generate_campaign(rng, n_exec, k)

    return DeploymentSpec(
        system="osiris",
        workload=workload,
        workload_params=wparams,
        n=n,
        k=k,
        seed=seed,
        config=config,
        faults=faults,
        shards=shards,
        tenants=tenants,
        label="fuzz",
    )


# ---------------------------------------------------------------- execution
def _check(point: DeploymentSpec) -> tuple[str, frozenset[str], str]:
    """Run one sanitized point.

    Returns ``(status, invariants, detail)`` where status is ``"ok"``,
    ``"inconclusive"`` (deadline miss — the run didn't finish, so the
    drained-state audits don't apply), ``"violation"`` or ``"crash"``.
    """
    try:
        result = api.run(replace(point, sanitize=True))
    except BenchmarkError:
        return ("inconclusive", frozenset(), "deadline miss")
    except ProtocolError as exc:
        # invalid shape (can happen for shrink candidates): not a repro
        return ("inconclusive", frozenset(), f"invalid: {exc}")
    except Exception as exc:  # noqa: BLE001 - a crash IS a fuzz finding
        return (
            "crash",
            frozenset({type(exc).__name__}),
            f"{type(exc).__name__}: {exc}",
        )
    report = result.extra.get("sanitizer_report")
    if report is None or report.ok:
        return ("ok", frozenset(), "")
    return (
        "violation",
        frozenset(report.invariants_hit()),
        report.summary(),
    )


# ---------------------------------------------------------------- shrinking
def _with_faults(point: DeploymentSpec, **changes) -> DeploymentSpec:
    return replace(point, faults=replace(point.faults, **changes))


def _without(entries: tuple, i: int) -> tuple:
    return entries[:i] + entries[i + 1 :]


def _candidates(point: DeploymentSpec):
    """Simpler variants of ``point``, most aggressive first."""
    plan = point.faults
    campaign = plan.campaign
    if campaign is not None:
        yield _with_faults(point, campaign=None)
        for i in range(len(campaign.triggers)):
            yield _with_faults(
                point,
                campaign=replace(
                    campaign, triggers=_without(campaign.triggers, i)
                ),
            )
        if len(campaign.phases) > 1:
            for i in range(len(campaign.phases)):
                yield _with_faults(
                    point,
                    campaign=replace(
                        campaign, phases=_without(campaign.phases, i)
                    ),
                )
    for i in range(len(plan.static)):
        yield _with_faults(point, static=_without(plan.static, i))
    if point.config:
        yield replace(point, config=())
    # tenancy/sharding shrink before any topology shrink: a violation
    # that persists on the classic single-pipeline layout is the simpler
    # reproducer
    if point.tenants > 1:
        yield replace(point, tenants=1)
    if point.shards > 1:
        yield replace(point, shards=1)
    wp = dict(point.workload_params)
    n_tasks = wp.get("n_tasks")
    if isinstance(n_tasks, int) and n_tasks > 2:
        yield replace(
            point, workload_params={**wp, "n_tasks": max(2, n_tasks // 2)}
        )
    if point.system == "osiris":
        # n/k shrinks are skipped while a campaign remains: its selectors
        # may name specific pids or sub-clusters that a smaller topology
        # no longer has (the drop-campaign candidate unlocks them)
        roles = {fault.role for _, fault in plan.static}
        floor = 3 * (point.k or 1) + (1 if "executor" in roles else 0)
        if point.n > floor and campaign is None:
            yield replace(point, n=max(floor, point.n // 2))
        if (point.k or 1) > 1 and "verifier" not in roles and campaign is None:
            yield replace(point, k=1, n=min(point.n, 5))
    elif point.n > 3:
        yield replace(point, n=3)


def shrink_point(
    point: DeploymentSpec,
    invariants: frozenset[str],
    max_runs: int = MAX_SHRINK_RUNS,
) -> tuple[DeploymentSpec, int]:
    """Greedily minimize a failing point.

    A candidate is accepted when it still fails with an overlapping
    invariant set (same bug, smaller scenario).  Returns the smallest
    reproducer found and the number of extra runs spent.
    """
    runs = 0
    improved = True
    while improved and runs < max_runs:
        improved = False
        for candidate in _candidates(point):
            if runs >= max_runs:
                break
            runs += 1
            status, cand_inv, _ = _check(candidate)
            if status in ("violation", "crash") and cand_inv & invariants:
                point, invariants = candidate, cand_inv
                improved = True
                break
    return point, runs


# ------------------------------------------------------------------ driver
@dataclass
class FuzzFailure:
    """One failing point, minimized."""

    point: DeploymentSpec       #: the original failing draw
    shrunk: DeploymentSpec      #: the minimized reproducer
    status: str                 #: "violation" or "crash"
    invariants: frozenset[str]  #: invariant names (or exception type)
    detail: str                 #: report summary / traceback head
    shrink_runs: int

    def to_dict(self) -> dict:
        return {
            "point": self.point.descriptor(),
            "shrunk": self.shrunk.descriptor(),
            "status": self.status,
            "invariants": sorted(self.invariants),
            "detail": self.detail,
            "shrink_runs": self.shrink_runs,
        }


@dataclass
class FuzzOutcome:
    """Result of one fuzz sweep."""

    budget: int
    seed: int
    executed: int = 0
    passed: int = 0
    inconclusive: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "budget": self.budget,
            "seed": self.seed,
            "executed": self.executed,
            "passed": self.passed,
            "inconclusive": self.inconclusive,
            "failures": [f.to_dict() for f in self.failures],
        }


def run_fuzz(
    budget: int,
    seed: int = 0,
    shrink: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> FuzzOutcome:
    """Run ``budget`` randomized sanitized points; see module docstring."""
    rng = random.Random(seed)
    outcome = FuzzOutcome(budget=budget, seed=seed)
    say = progress or (lambda _msg: None)
    for i in range(budget):
        point = generate_point(rng)
        status, invariants, detail = _check(point)
        outcome.executed += 1
        if status == "ok":
            outcome.passed += 1
            say(f"[{i + 1}/{budget}] ok      {point.descriptor()}")
            continue
        if status == "inconclusive":
            outcome.inconclusive += 1
            say(f"[{i + 1}/{budget}] skip    {detail}")
            continue
        say(f"[{i + 1}/{budget}] FAIL    {sorted(invariants)}")
        shrunk, runs = (
            shrink_point(point, invariants) if shrink else (point, 0)
        )
        outcome.failures.append(
            FuzzFailure(
                point=point,
                shrunk=shrunk,
                status=status,
                invariants=invariants,
                detail=detail,
                shrink_runs=runs,
            )
        )
    return outcome
