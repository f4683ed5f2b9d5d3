#!/usr/bin/env python3
"""The performance ledger: one command, six workloads, every layer.

    python3 benchmarks/ledger/run.py --workload W --seed N \\
        [--seconds S] [--trace 0|1] [--smoke] [--json OUT]

Without ``--workload`` every workload of ``BENCHMARK.json`` runs in
turn.  ``--trace 0`` (default) measures the end-to-end metrics with
tracing off; ``--trace 1`` (or ``--traced``) runs the traced pass and
the isolated microbenchmarks and reports the per-layer metrics.  Every
metric is printed by name and unit; the last line of standard output
is one JSON object.

End-to-end timing metrics are stated at reference host speed (see
``hostspeed.py``); the traced pass reports raw numbers.

Each workload runs in a fresh subprocess that leads its own session.
The watchdog here kills the whole session on a wall timeout — a hung
live deployment is reported as a failed run, never as a hang — and a
``/proc`` scan afterwards confirms no node or gateway process outlived
it.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import procstat  # noqa: E402

#: hard wall limit of one worker process (the contract allows 180 s)
WATCHDOG_S = 150.0
#: set-up is sampled this many times per untraced run (median reported;
#: once under --smoke)
SETUP_SAMPLES = 3


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _spawn(args: list[str], timeout: float) -> dict:
    """Run one worker under the watchdog; returns its JSON result, or
    ``{"error": ...}``.  Leaves no process of its session behind."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args,
           "--t0", repr(time.time())]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    error = None
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        error = f"watchdog: no result within {timeout:.0f} s"
        stdout = ""
    orphans = procstat.session_members(proc.pid)
    if orphans:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        error = error or f"orphaned processes after exit: {orphans}"
    proc.wait()
    deadline = time.monotonic() + 5.0
    while procstat.session_members(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    if error is None and proc.returncode != 0:
        error = f"worker exited with code {proc.returncode}"
    if error is None:
        try:
            return json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            error = "worker printed no result"
    return {"error": error}


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool,
    contract: dict,
) -> dict:
    """One contract-shaped result for one workload."""
    base = ["--workload", name, "--seed", str(seed),
            "--seconds", repr(seconds)]
    if smoke:
        base.append("--smoke")
    declared = contract["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    result = _spawn(base + ["--trace", str(int(trace))], WATCHDOG_S)
    if "error" in result:
        print(f"{name}: FAILED — {result['error']}", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    values = dict(result["metrics"])
    if not trace:
        setups = [result["setup_s"]]
        for _ in range(0 if smoke else SETUP_SAMPLES - 1):
            sample = _spawn(base + ["--phase", "setup"], WATCHDOG_S)
            if "error" in sample:
                print(f"{name}: set-up sample failed — {sample['error']}",
                      file=sys.stderr)
                return {"correct": False, "attempted": result["attempted"],
                        "failed": result["attempted"], "metrics": {}}
            setups.append(sample["setup_s"])
        values["setup_s"] = statistics.median(setups)
    missing = sorted(set(units) - set(values))
    if missing:
        raise SystemExit(f"{name}: worker did not report {missing}")
    return {
        "correct": result["failed"] == 0,
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"],
        "samples": result.get("samples", 0),
        "host_factor": result.get("host_factor"),
        "metrics": {
            key: {"value": values[key], "unit": units[key]} for key in units
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default=None)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced", action="store_true", help="same as --trace 1")
    ap.add_argument("--smoke", action="store_true",
                    help="one tenth the size and time (CI smoke)")
    ap.add_argument("--json", default=None, metavar="OUT",
                    help="also write the full result to this file")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("run.py: no src/repro next to the benchmark — nothing to "
              "measure", file=sys.stderr)
        return 2
    contract = load_contract()
    known = [w["name"] for w in contract["workloads"]]
    if args.workload is not None and args.workload not in known:
        print(f"run.py: unknown workload {args.workload!r}; "
              f"BENCHMARK.json declares {known}", file=sys.stderr)
        return 2
    trace = bool(args.trace or args.traced)
    seconds = args.seconds
    if seconds is None:
        seconds = contract["run_seconds"] / (10 if args.smoke else 1)

    results = {}
    for name in [args.workload] if args.workload else known:
        res = run_workload(name, args.seed, seconds, trace, args.smoke, contract)
        results[name] = res
        frac = res["failed"] / res["attempted"]
        print(f"== {name}  seed={args.seed}  "
              f"{'traced' if trace else 'untraced'}  {seconds:g} s  "
              f"samples={res.get('samples', 0)}  failed_frac={frac:g}")
        for key, m in res["metrics"].items():
            print(f"{key:38s} {m['value']:>16.6g} {m['unit']}")
        if res.get("host_factor"):
            print(f"(host ran at 1/{res['host_factor']:.2f} of reference speed; "
                  f"timing metrics above are corrected for it)")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"seed": args.seed, "seconds": seconds,
                       "trace": int(trace), "workloads": results}, fh, indent=1)
    if args.workload:
        final = {
            key: results[args.workload][key]
            for key in ("correct", "attempted", "failed", "metrics")
        }
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{key}": m
                for name, r in results.items()
                for key, m in r["metrics"].items()
            },
        }
    sys.stdout.flush()
    print(json.dumps(final))
    return 0 if all(r["metrics"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
