"""Command-line figure runner: ``python -m repro.bench <figure> [...]``.

A thin convenience layer over the sweep engine for regenerating a
single paper figure without pytest, e.g.::

    python -m repro.bench fig5b --sizes 4 8 16 --tasks 120
    python -m repro.bench fig5b --sizes 4 8 --jobs 4 --json BENCH_sweep.json
    python -m repro.bench fig2a
    python -m repro.bench table1

Measured figures are declared as :class:`~repro.exp.SweepSpec` grids and
executed by :func:`repro.exp.run_sweep` — serial by default, fanned out
over a process pool with ``--jobs N`` (bit-identical results either
way), with finished points served from the content-addressed result
cache (disable with ``--no-cache``).  ``--json PATH`` writes the sweep
artifact (spec + per-point results + cache provenance).

The ``trace`` subcommand runs one scenario with trace sinks attached and
writes a JSONL event log plus a Chrome ``trace_event`` file loadable in
Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``::

    python -m repro.bench trace --scenario anomaly-mm --n 8

Benchmarks under ``benchmarks/`` remain the canonical reproduction (they
also assert the shapes); this runner trades assertions for speed and is
sized for interactive use.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable

from repro import api
from repro.adversary.campaign import FaultSpec
from repro.bench.analytic import rsm_parallel_tasks, table1
from repro.bench.reporting import (
    print_figure,
    print_table,
    write_sweep_json,
)
from repro.baselines.store_models import (
    basil_updates_per_sec,
    kauri_updates_per_sec,
)
from repro.core.config import OsirisConfig
from repro.exp import ResultCache, SweepSpec, run_sweep
from repro.obs.sinks import ChromeTraceSink, JsonlTraceSink

__all__ = ["main"]

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
def _trace_spec(args, sinks, workload: str, workload_params: dict, **kw):
    return api.run(
        api.DeploymentSpec(
            workload=workload,
            workload_params=workload_params,
            n=kw.pop("n", args.n),
            seed=args.seed,
            deadline=DEADLINE,
            sinks=sinks,
            **kw,
        )
    )


def _trace_anomaly(profile: str):
    def run(args, sinks):
        return _trace_spec(
            args, sinks, "anomaly",
            {"profile": profile, "n_tasks": args.tasks, "seed": args.seed},
        )

    return run


def _trace_synthetic(args, sinks):
    return _trace_spec(args, sinks, "synthetic", {"n_tasks": args.tasks})


def _trace_planning(args, sinks):
    return _trace_spec(
        args, sinks, "planning", {"n_tasks": args.tasks, "seed": args.seed}
    )


def _trace_video(args, sinks):
    return _trace_spec(
        args, sinks, "video", {"n_compute": args.tasks, "seed": args.seed}
    )


def _trace_sharded(args, sinks):
    """Two tenant-tagged Poisson streams routed by tenant-key hash over
    two IP→OP pipelines sharing one verifier fleet; the trace carries
    the per-tenant admission/outcome events."""
    return _trace_spec(
        args,
        sinks,
        "open_loop",
        {
            "n_tasks": args.tasks,
            "rate": 40.0,
            "process": "poisson",
            "seed": args.seed,
        },
        shards=2,
        tenants=2,
    )


def _trace_recovery(args, sinks):
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
    return _trace_spec(
        args,
        sinks,
        "synthetic",
        {
            "n_tasks": args.tasks,
            "records_per_task": 10,
            "compute_cost": 250e-3,
            "record_bytes": 4096,
            "rate": rate,
            "verify_cost_ratio": 0.15,
        },
        n=max(args.n, 14),
        k=3,
        config=api.config_overrides(config),
        faults=faults,
    )


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


def _trace_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench trace",
        description="Run one scenario with trace sinks attached; writes a "
        "JSONL event log and a Perfetto-loadable Chrome trace.",
    )
    parser.add_argument(
        "--scenario", choices=sorted(TRACE_SCENARIOS), default="anomaly-mm"
    )
    parser.add_argument("--n", type=int, default=8, help="cluster size")
    parser.add_argument("--tasks", type=int, default=40)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--out",
        default=None,
        help="output path prefix (default: trace-<scenario>)",
    )
    args = parser.parse_args(argv)
    prefix = args.out or f"trace-{args.scenario}"
    jsonl_path = f"{prefix}.jsonl"
    chrome_path = f"{prefix}.chrome.json"
    try:
        jsonl = JsonlTraceSink(jsonl_path)
    except OSError as exc:
        parser.error(f"cannot open trace output {jsonl_path!r}: {exc}")
    chrome = ChromeTraceSink(chrome_path)
    result = TRACE_SCENARIOS[args.scenario](args, [jsonl, chrome])
    jsonl.close()
    chrome.close()
    print(result.row())
    print(f"wrote {jsonl.event_count} events to {jsonl_path}")
    print(
        f"wrote Chrome trace to {chrome_path} "
        "(load in https://ui.perfetto.dev or chrome://tracing)"
    )
    return 0


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

FIGURES: tuple[str, ...] = tuple(sorted({**ANALYTIC, **SWEEPS}))


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "trace":
        return _trace_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate a paper figure interactively "
        "(or 'trace' to capture an event trace).",
    )
    parser.add_argument("figure", choices=FIGURES)
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[4, 8, 16],
        help="cluster sizes to sweep (default: 4 8 16)",
    )
    parser.add_argument(
        "--tasks", type=int, default=120, help="tasks per scenario"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--f", type=int, default=1, help="fault level (table1)")
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="process-pool width for sweep points (default 1: serial; "
        "results are bit-identical at any width)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the sweep artifact (spec, per-point results, cache "
        "provenance) to PATH",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="result cache directory (default: $REPRO_EXP_CACHE_DIR or "
        "~/.cache/repro-exp)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute every point, bypassing the result cache",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.figure in ANALYTIC:
        ANALYTIC[args.figure](args)
        return 0
    title, build_spec = SWEEPS[args.figure]
    spec = build_spec(args)
    cache = (
        None
        if args.no_cache
        else ResultCache(Path(args.cache_dir) if args.cache_dir else None)
    )
    outcome = run_sweep(spec, jobs=args.jobs, cache=cache)
    print_figure(title, outcome.results)
    print(
        f"[{len(spec)} points, jobs={args.jobs}, "
        f"{outcome.cache_hits} cached, {outcome.wall_seconds:.2f}s]"
    )
    if args.json:
        write_sweep_json(args.json, outcome)
        print(f"wrote sweep artifact to {args.json}")
    return 0
