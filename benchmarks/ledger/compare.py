#!/usr/bin/env python3
"""Paired comparison of two checkouts on the ledger's end-to-end metrics.

    python3 benchmarks/ledger/compare.py PARENT_DIR CHANGE_DIR
        [--pairs 10] [--first-seed 100] [--workload W ...] [--json OUT]

Runs at least ten parent/change pairs per workload — pair ``i`` uses
seed ``first-seed + i`` on both sides, and which side runs first
alternates — then reports, per workload row and metric, each side's
median and quartiles and one verdict:

* ``gain``        the change wins at least nine tenths of the pairs
  (ties count for neither side) *and* the medians differ by more than
  the distance between the parent's own quartiles;
* ``regression``  the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json``;
* ``unresolved``  the parent's own spread exceeds the bound, so neither
  of the above can be told from noise at this run length;
* ``unchanged``   otherwise.

Both checkouts must carry byte-identical benchmark code (a change that
claims a gain may not edit the benchmark).  Exits non-zero on any
regression, or if the change fails more operations than the parent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys


def benchmark_digest(root: str) -> str:
    """Hash of ``BENCHMARK.json`` and every source file under its paths."""
    with open(os.path.join(root, "BENCHMARK.json"), "rb") as fh:
        raw = fh.read()
    h = hashlib.sha256(raw)
    for rel in json.loads(raw)["paths"]:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, rel)):
            dirnames[:] = sorted(
                d for d in dirnames if d not in ("out", "__pycache__")
            )
            for name in sorted(filenames):
                if name.endswith((".py", ".json", ".md")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def run_once(
    root: str, contract: dict, workload: str, seed: int, seconds=None
) -> dict:
    """One untraced run of ``root``'s benchmark; its last-line JSON."""
    seconds = contract["run_seconds"] if seconds is None else seconds
    cmd = [*contract["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    out = subprocess.run(
        cmd, cwd=root, stdout=subprocess.PIPE, text=True, check=True
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Verdict for one metric on one workload from paired samples."""
    higher = metric["better"] == "higher"
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    losses = sum((c < p) if higher else (c > p) for p, c in zip(parent, change))
    worse_by = ((p_med - c_med) if higher else (c_med - p_med)) / abs(p_med)
    iqr = p_q3 - p_q1
    if worse_by > metric["bound"]:
        verdict = "regression"
    elif wins >= 0.9 * len(parent) and abs(c_med - p_med) > iqr:
        verdict = "gain"
    elif iqr / abs(p_med) > metric["bound"]:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {
        "parent": [p_q1, p_med, p_q3],
        "change": [c_q1, c_med, c_q3],
        "wins": wins,
        "losses": losses,
        "worse_by": worse_by,
        "verdict": verdict,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--json", default=None)
    args = ap.parse_args()
    if args.pairs < 10:
        ap.error("a comparison needs at least 10 pairs")
    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    if benchmark_digest(roots["parent"]) != benchmark_digest(roots["change"]):
        print("compare.py: the two checkouts carry different benchmark code; "
              "copy one benchmark into both before comparing", file=sys.stderr)
        return 2
    with open(os.path.join(roots["parent"], "BENCHMARK.json")) as fh:
        contract = json.load(fh)

    report: dict = {}
    bad = False
    for workload in args.workload or [w["name"] for w in contract["workloads"]]:
        samples = {side: [] for side in roots}
        failed = {side: 0 for side in roots}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                res = run_once(roots[side], contract, workload,
                               args.first_seed + i)
                samples[side].append(res["metrics"])
                failed[side] += res["failed"]
        report[workload] = {"failed": failed, "metrics": {}}
        print(f"== {workload}: {args.pairs} pairs, failed operations "
              f"parent={failed['parent']} change={failed['change']}")
        if failed["change"] > failed["parent"]:
            bad = True
        for metric in contract["end_to_end"]:
            name = metric["name"]
            row = judge(
                metric,
                [m[name]["value"] for m in samples["parent"]],
                [m[name]["value"] for m in samples["change"]],
            )
            report[workload]["metrics"][name] = row
            bad = bad or row["verdict"] == "regression"
            p, c = row["parent"], row["change"]
            print(f"  {name:16s} parent {p[1]:9.4g} [{p[0]:.4g}, {p[2]:.4g}]  "
                  f"change {c[1]:9.4g} [{c[0]:.4g}, {c[2]:.4g}]  "
                  f"worse by {row['worse_by']:+6.1%} (bound {metric['bound']:.0%})"
                  f"  wins {row['wins']}/{args.pairs}  {row['verdict']}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
