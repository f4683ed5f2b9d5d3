"""Benchmark output formatting: paper-style tables, series, artifacts.

Besides the human-readable tables, this module writes the machine-
readable sweep artifact (``BENCH_sweep.json``) produced by
``python -m repro.bench <figure> --json PATH``: the sweep spec, the
code version the results were computed under, per-point results with
wall-clock and cache provenance, and aggregate cache statistics.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.bench.scenarios import ScenarioResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (exp -> bench)
    from repro.exp.runner import SweepOutcome

__all__ = [
    "format_result_row",
    "format_tenant_rows",
    "print_figure",
    "print_series",
    "print_table",
    "ratio",
    "sweep_artifact",
    "write_sweep_json",
]


#: Accumulated figure output for the session; the benchmarks' conftest
#: replays it in pytest's terminal summary (after capture has ended) so
#: ``pytest benchmarks/ --benchmark-only | tee`` logs contain every
#: reproduced table and series.
_BUFFER: list[str] = []


def get_buffer() -> list[str]:
    """All figure lines emitted so far in this process."""
    return _BUFFER


def _emit(line: str) -> None:
    """Print a figure line and remember it for the terminal summary."""
    _BUFFER.append(line)
    print(line)


def format_result_row(res: ScenarioResult) -> str:
    """One aligned, printable table row for a scenario result.

    Closed-loop results render the base columns only; results carrying
    SLO measurements grow a latency-percentile/goodput segment.
    """
    row = (
        f"{res.system:<10} n={res.n:<3} f={res.f} "
        f"thr={res.throughput:>12.0f} rec/s  "
        f"lat={res.mean_latency * 1e3:>8.1f} ms  "
        f"opbw={res.op_bandwidth / 1e9:>6.2f} GB/s  "
        f"cpu={res.executor_utilization * 100:>5.1f}%"
    )
    if res.goodput or res.per_tenant:
        row += (
            f"  p50={res.p50_latency * 1e3:>7.1f} ms "
            f"p99={res.p99_latency * 1e3:>7.1f} ms "
            f"p999={res.p999_latency * 1e3:>7.1f} ms "
            f"goodput={res.goodput:>10.0f} rec/s"
        )
    return row


def format_tenant_rows(res: ScenarioResult) -> list[str]:
    """Per-tenant breakdown rows (empty for untenanted results)."""
    return [
        f"{tenant:<10} tasks={s.get('count', 0):<6} "
        f"p50={s.get('p50', 0.0) * 1e3:>7.1f} ms  "
        f"p99={s.get('p99', 0.0) * 1e3:>7.1f} ms  "
        f"p999={s.get('p999', 0.0) * 1e3:>7.1f} ms"
        for tenant, s in res.per_tenant.items()
    ]


def print_figure(title: str, results: Iterable[ScenarioResult]) -> None:
    """Print one figure's measurements as aligned rows (multi-tenant
    results additionally get an indented per-tenant breakdown)."""
    _emit(f"\n=== {title} ===")
    for res in results:
        _emit("  " + format_result_row(res))
        for line in format_tenant_rows(res):
            _emit("    " + line)


def print_series(
    title: str,
    series: Sequence[tuple[float, float]],
    unit: str = "",
    max_rows: int = 40,
) -> None:
    """Print a (time, value) trace, downsampled to ``max_rows``."""
    _emit(f"\n=== {title} ===")
    stride = max(1, len(series) // max_rows)
    for t, value in series[::stride]:
        _emit(f"  t={t:>8.2f}  {value:>14.1f} {unit}")


def print_table(title: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Print a generic table with a header."""
    _emit(f"\n=== {title} ===")
    _emit("  " + " | ".join(str(h) for h in header))
    for row in rows:
        _emit("  " + " | ".join(str(c) for c in row))


def ratio(a: float, b: float) -> float:
    """Safe ratio a/b (inf when b == 0)."""
    return a / b if b else float("inf")


# ------------------------------------------------------------------ artifacts
def sweep_artifact(outcome: "SweepOutcome") -> dict:
    """JSON-able artifact for one sweep run (the BENCH_sweep.json body)."""
    cached = sum(1 for o in outcome.outcomes if o.cached)
    return {
        "spec": outcome.spec.to_dict(),
        "code_version": outcome.code_version,
        "jobs": outcome.jobs,
        "wall_seconds": outcome.wall_seconds,
        "cache": {
            "hits": cached,
            "misses": len(outcome.outcomes) - cached,
        },
        "points": [
            {
                "point": o.point.to_dict(),
                "result": o.result.to_dict(),
                "wall_seconds": o.wall_seconds,
                "cached": o.cached,
            }
            for o in outcome.outcomes
        ],
    }


def write_sweep_json(path: str, outcome: "SweepOutcome") -> None:
    """Write the sweep artifact to ``path`` (pretty, sorted keys)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sweep_artifact(outcome), fh, indent=2, sort_keys=True)
        fh.write("\n")
