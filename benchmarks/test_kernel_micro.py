"""Kernel microbenchmarks — substrate hot-path throughput.

Exercises the three hot paths the batched-dispatch refactor targets, at
sizes small enough for CI: event churn through the kernel heap/lane,
multicast fan-out through the flyweight send path, and byte-meter ingest
through the lazy vectorized fold.  The performance ledger
(``benchmarks/ledger/micro.py``) times the same three functions on every
change; these tests pin the operation counts each one performs.
"""

from repro.bench.microbench import (
    bench_event_churn,
    bench_meter_ingest,
    bench_multicast_fanout,
)
from repro.bench.reporting import print_table


def _report(benchmark, res):
    benchmark.extra_info.update(res.to_dict())
    print_table(
        f"Kernel microbench — {res.name}",
        ["ops", "wall (s)", "ops/s"],
        [(res.ops, f"{res.wall_seconds:.4f}", f"{res.ops_per_sec:,.0f}")],
    )


class TestKernelMicro:
    def test_event_churn(self, run_once, benchmark):
        res = run_once(lambda: bench_event_churn(events=50_000))
        _report(benchmark, res)
        # 72 chains fire every round; only canceled victims don't fire
        assert res.ops >= (50_000 // 72) * 72
        assert res.wall_seconds > 0

    def test_multicast_fanout(self, run_once, benchmark):
        res = run_once(lambda: bench_multicast_fanout(n_nodes=16, rounds=400))
        _report(benchmark, res)
        assert res.ops == 400 * 15  # every fan-out delivery counted
        assert res.wall_seconds > 0

    def test_meter_ingest(self, run_once, benchmark):
        res = run_once(lambda: bench_meter_ingest(samples=200_000))
        _report(benchmark, res)
        assert res.ops == 200_000
        assert res.wall_seconds > 0
