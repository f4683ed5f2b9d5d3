#!/usr/bin/env python3
"""Measure the ledger's own repeatability, the way its acceptance does.

    python3 benchmarks/ledger/spread.py [--runs 10] [--first-seed 0]
        [--workload W ...] [--json benchmarks/ledger/baseline.json]

Runs every workload ``--runs`` times, each with another seed, and for
each end-to-end metric reports the median and the spread — the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as
a share of the median — next to the bound ``BENCHMARK.json`` fixes.  A
spread above its bound means the benchmark cannot resolve a regression
of that size on that workload; ``setup_s`` is judged on medians only.
With ``--json`` the table is written out; the committed
``baseline.json`` is this commit's own numbers and claims no gain.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from compare import quartiles, run_once  # noqa: E402


def spread(values: list[float]) -> float:
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / mid


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=contract["run_seconds"])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--json", default=None)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    table: dict = {}
    worst = 0.0
    for workload in args.workload or [w["name"] for w in contract["workloads"]]:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(ROOT, contract, workload, seed, args.seconds)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} failed", file=sys.stderr)
                return 1
            runs.append(result["metrics"])
        table[workload] = {}
        for name, bound in bounds.items():
            values = [r[name]["value"] for r in runs]
            row = {
                "median": statistics.median(values),
                "spread": spread(values),
                "bound": bound,
                "unit": runs[0][name]["unit"],
            }
            table[workload][name] = row
            if name != "setup_s":
                worst = max(worst, row["spread"] / bound)
            print(f"{workload:11s} {name:16s} median {row['median']:10.4g} "
                  f"{row['unit']:8s} spread {row['spread']:6.1%}  "
                  f"bound {bound:4.0%}")
    print(f"worst spread is {worst:.2f} of its bound")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(
                {"seeds": [args.first_seed, args.first_seed + args.runs - 1],
                 "seconds": args.seconds, "workloads": table},
                fh, indent=1,
            )
    return 0 if worst <= 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
