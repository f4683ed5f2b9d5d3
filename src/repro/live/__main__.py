"""CLI for the live backend: run a spec as OS processes, or cross-validate.

::

    python -m repro.live run --workload anomaly --profile MM --n 4
    python -m repro.live crossval --n 4 --seed 0 [--campaign fig7a]
    python -m repro.live split [--n-tasks 400] [--n 4] [--seed 0]

``run`` executes one deployment under ``backend="live"`` and prints the
result as JSON; ``crossval`` runs the same spec under both backends and
exits non-zero on any commit-outcome mismatch or invariant violation —
the shape the CI live-smoke job drives under a hard timeout.  ``split``
runs a live burst with thread-CPU timers around each child's codec,
delivery and receive calls and prints the milliseconds per task each
costs, and each node's peak RSS (:mod:`repro.live.cpusplit`).
"""

from __future__ import annotations

import argparse
import json
import sys


def _spec(args, backend: str):
    from repro.api import DeploymentSpec

    faults = None
    if args.campaign:
        from repro.adversary import library

        factory = getattr(library, args.campaign, None)
        if factory is None:
            raise SystemExit(f"unknown campaign {args.campaign!r}")
        faults = factory(at=args.campaign_at)
    return DeploymentSpec(
        workload=args.workload,
        workload_params={"profile": args.profile, "n_tasks": args.n_tasks}
        if args.workload == "anomaly"
        else {"n_tasks": args.n_tasks},
        n=args.n,
        seed=args.seed,
        deadline=args.deadline,
        faults=faults,
        sanitize=True,
        backend=backend,
    )


def _add_spec_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--workload", default="anomaly")
    sub.add_argument("--profile", default="MM", help="anomaly profile")
    sub.add_argument("--n-tasks", type=int, default=12)
    sub.add_argument("--n", type=int, default=4)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--deadline", type=float, default=120.0)
    sub.add_argument(
        "--time-scale",
        type=float,
        default=0.25,
        help="wall seconds per simulated second",
    )
    sub.add_argument(
        "--campaign", default="", help="adversary library factory (e.g. fig7a)"
    )
    sub.add_argument(
        "--campaign-at",
        type=float,
        default=0.5,
        help="simulated injection time for --campaign",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.live")
    subs = parser.add_subparsers(dest="cmd", required=True)
    _add_spec_args(subs.add_parser("run", help="run one live deployment"))
    _add_spec_args(
        subs.add_parser("crossval", help="compare DES and live outcomes")
    )
    split = subs.add_parser(
        "split", help="CPU per task in each child's codec and handlers"
    )
    split.add_argument("--n-tasks", type=int, default=400)
    split.add_argument("--n", type=int, default=4)
    split.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    if args.cmd == "split":
        from repro.live.cpusplit import burst_spec, measure, render

        spec = burst_spec(args.n_tasks, args.n, args.seed)
        print(render(measure(spec, time_scale=1.0)))
        return 0

    if args.cmd == "run":
        from repro.api import run

        result = run(_spec(args, "live"), time_scale=args.time_scale)
        out = result.to_dict()
        out.pop("extra", None)
        print(json.dumps(out, indent=2, default=str))
        return 0

    from repro.check.crossval import summary
    from repro.live.crossval import cross_validate

    spec = _spec(args, "des")
    des, _, mismatches = cross_validate(spec, time_scale=args.time_scale)
    label = f"{spec.workload} n={spec.n} seed={spec.seed}; a=des b=live"
    print(summary(label, des, mismatches))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
