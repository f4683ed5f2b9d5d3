"""The paper figures and trace scenarios behind ``python -m repro bench``.

:data:`ANALYTIC` figures are closed-form models printed directly;
:data:`SWEEPS` are measured figures declared as :class:`~repro.exp.SweepSpec`
grids, which the command runs through :func:`repro.exp.run_sweep` —
serial by default, fanned out over a process pool with ``--jobs N``
(bit-identical results either way), with finished points served from
the content-addressed result cache (disable with ``--no-cache``)::

    python -m repro bench fig5b --sizes 4 8 16 --tasks 120
    python -m repro bench fig5b --sizes 4 8 --jobs 4 --out BENCH_sweep.json
    python -m repro bench fig2a

:data:`TRACE_SCENARIOS` are single deployments run with trace sinks
attached, writing a JSONL event log plus a Chrome ``trace_event`` file
loadable in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``::

    python -m repro bench trace --scenario anomaly-mm --n 8

Benchmarks under ``benchmarks/`` remain the canonical reproduction (they
also assert the shapes); this runner trades assertions for speed and is
sized for interactive use.
"""

from __future__ import annotations

from typing import Callable

from repro import api
from repro.adversary.campaign import FaultSpec
from repro.bench.analytic import rsm_parallel_tasks, table1
from repro.bench.reporting import print_table
from repro.baselines.store_models import (
    basil_updates_per_sec,
    kauri_updates_per_sec,
)
from repro.core.config import OsirisConfig
from repro.exp import SweepSpec

__all__ = ["ANALYTIC", "DEADLINE", "SWEEPS", "TRACE_SCENARIOS"]

#: Wall deadline (simulated seconds) for CLI figure runs.
DEADLINE = 3000.0


def _fig2a(args) -> None:
    rows = [
        (n,) + tuple(rsm_parallel_tasks(n, f) for f in (0, 1, 2))
        for n in (1, 25, 50, 75, 100, 125)
    ]
    print_table("Fig 2a: parallel tasks under RSM", ["n", "f=0", "f=1", "f=2"], rows)


def _table1(args) -> None:
    rows = [
        (
            r.system,
            r.computation_replication,
            r.computation_scalability,
            r.communication_replication,
            r.faults_tolerated,
        )
        for r in table1(f=args.f)
    ]
    print_table(
        f"Table 1 (f={args.f})",
        ["system", "comp repl", "scalability", "comm repl", "faults"],
        rows,
    )


def _fig5a(args) -> None:
    rows = [
        (
            n,
            f"{kauri_updates_per_sec(n):.0f}",
            f"{basil_updates_per_sec(n):.0f}",
        )
        for n in args.sizes
    ]
    print_table(
        "Fig 5a comparators (models); run the pytest bench for the "
        "measured OsirisBFT store",
        ["n", "Kauri", "Basil"],
        rows,
    )


def _anomaly_spec(profile: str):
    def build(args) -> SweepSpec:
        return SweepSpec.grid(
            args.figure,
            "anomaly",
            {"profile": profile, "n_tasks": args.tasks, "seed": args.seed},
            sizes=args.sizes,
            seed=args.seed,
            deadline=DEADLINE,
        )

    return build


def _fig5c_spec(args) -> SweepSpec:
    return SweepSpec.grid(
        "fig5c",
        "planning",
        {"n_tasks": args.tasks, "seed": args.seed},
        sizes=args.sizes,
        seed=args.seed,
        deadline=DEADLINE,
    )


def _fig5d_spec(args) -> SweepSpec:
    return SweepSpec.grid(
        "fig5d",
        "video",
        {"n_compute": args.tasks, "seed": args.seed},
        sizes=args.sizes,
        seed=args.seed,
        deadline=DEADLINE,
    )


def _slo_spec(args) -> SweepSpec:
    """Offered load × shard count over the open-loop generator: every
    point reports goodput and latency percentiles, sharded points add
    per-tenant/per-shard breakdowns.  Cluster size is the largest
    ``--sizes`` entry."""
    n = max(args.sizes)
    points = [
        api.DeploymentSpec(
            workload="open_loop",
            workload_params={
                "n_tasks": args.tasks,
                "rate": rate,
                "process": "poisson",
                "seed": args.seed,
            },
            n=n,
            seed=args.seed,
            deadline=DEADLINE,
            shards=shards,
            tenants=2 * shards,
            label=f"s{shards}-r{rate:g}",
        )
        for shards in (1, 2)
        for rate in (50.0, 100.0, 200.0)
    ]
    return SweepSpec.of("slo", points)


def _fig7b_spec(args) -> SweepSpec:
    wp = {
        "n_tasks": args.tasks,
        "records_per_task": 10,
        "compute_cost": 300e-3,
        "record_bytes": 4096,
        "verify_cost_ratio": 0.05,
    }
    points = [
        api.DeploymentSpec(
            system=system, workload="synthetic", workload_params=wp,
            n=32, f=f, seed=args.seed, deadline=DEADLINE,
            label=f"{system}-f{f}",
        )
        for system, levels in (("osiris", (1, 2, 3, 4)), ("rcp", (1, 2)))
        for f in levels
    ]
    return SweepSpec.of("fig7b", points)


# --------------------------------------------------------------------- trace
# Each scenario maps the trace flags to the DeploymentSpec fields they
# do not set themselves; ``--tasks`` counts the workload's tasks.
def _trace_anomaly(profile: str):
    def fields(args) -> dict:
        return {
            "workload": "anomaly",
            "workload_params": {"profile": profile, "seed": args.seed},
        }

    return fields


def _trace_synthetic(args) -> dict:
    return {"workload": "synthetic"}


def _trace_planning(args) -> dict:
    return {"workload": "planning", "workload_params": {"seed": args.seed}}


def _trace_video(args) -> dict:
    return {"workload": "video", "workload_params": {"seed": args.seed}}


def _trace_sharded(args) -> dict:
    """Two tenant-tagged Poisson streams routed by tenant-key hash over
    two IP→OP pipelines sharing one verifier fleet; the trace carries
    the per-tenant admission/outcome events."""
    return {
        "workload": "open_loop",
        "workload_params": {
            "rate": 40.0,
            "process": "poisson",
            "seed": args.seed,
        },
        "shards": 2,
        "tenants": 2,
    }


def _trace_recovery(args) -> dict:
    """Fig 7a shape: a streaming workload where half the executor pool
    starts corrupting records mid-run; the trace shows fault detection,
    reassignment and role-switch recovery on the timeline."""
    rate = 12.0
    config = OsirisConfig(
        f=1,
        chunk_bytes=1_000_000,
        suspect_timeout=2.0,
        cores_per_node=1,
        role_switching=True,
        role_switch_interval=0.5,
        switch_patience=2,
        switch_cooldown=3,
    )
    activate = 0.3 * (args.tasks / rate)
    faults = {
        f"e{i}": FaultSpec("executor", "corrupt-record", {"activate_at": activate})
        for i in range(5)
    }
    return {
        "workload": "synthetic",
        "workload_params": {
            "records_per_task": 10,
            "compute_cost": 250e-3,
            "record_bytes": 4096,
            "rate": rate,
            "verify_cost_ratio": 0.15,
        },
        "n": max(args.n, 14),
        "k": 3,
        "config": api.config_overrides(config),
        "faults": faults,
    }


TRACE_SCENARIOS: dict[str, Callable] = {
    "anomaly-mm": _trace_anomaly("MM"),
    "anomaly-lh": _trace_anomaly("LH"),
    "anomaly-hl": _trace_anomaly("HL"),
    "synthetic": _trace_synthetic,
    "planning": _trace_planning,
    "video": _trace_video,
    "recovery": _trace_recovery,
    "sharded": _trace_sharded,
}


#: Analytic figures: closed-form models, printed directly (no sweep).
ANALYTIC: dict[str, Callable] = {
    "fig2a": _fig2a,
    "table1": _table1,
    "fig5a": _fig5a,
}

#: Measured figures: (title, args -> SweepSpec).
SWEEPS: dict[str, tuple[str, Callable]] = {
    "fig5b": ("Fig 5b: Anomaly Detection", _anomaly_spec("fig5b")),
    "fig6a": ("Fig 6a: LH (low CPU, high output)", _anomaly_spec("LH")),
    "fig6b": ("Fig 6b: HL (high CPU, low output)", _anomaly_spec("HL")),
    "fig6c": ("Fig 6c: MM (medium CPU & output)", _anomaly_spec("MM")),
    "fig5c": ("Fig 5c: Motion Planning", _fig5c_spec),
    "fig5d": ("Fig 5d: Video Analysis", _fig5d_spec),
    "fig7b": ("Fig 7b: throughput vs fault level f (n=32)", _fig7b_spec),
    "slo": ("Multi-tenant SLO: offered load × shard count", _slo_spec),
}
