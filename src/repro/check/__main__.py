"""CLI: ``python -m repro.check fuzz --budget N [--seed S] [--json]``.

Subcommands
-----------
``fuzz``
    Run a randomized sanitizer sweep (see :mod:`repro.check.fuzz`).
    Exits 1 if any point fails, printing the minimized reproducer —
    feed it back to ``point`` to replay.
``point``
    Replay one :meth:`repro.api.DeploymentSpec.descriptor` (JSON, as
    printed by ``fuzz``) with the sanitizer attached and print the
    report.  Exits 1 on violations.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import api
from repro.check.fuzz import run_fuzz
from repro.errors import BenchmarkError


def _cmd_fuzz(args: argparse.Namespace) -> int:
    progress = None if args.json else lambda msg: print(msg, flush=True)
    outcome = run_fuzz(
        budget=args.budget,
        seed=args.seed,
        shrink=not args.no_shrink,
        progress=progress,
    )
    if args.json:
        json.dump(outcome.to_dict(), sys.stdout, indent=2)
        print()
    else:
        print(
            f"fuzz: {outcome.executed} points "
            f"({outcome.passed} ok, {outcome.inconclusive} inconclusive, "
            f"{len(outcome.failures)} failing) seed={outcome.seed}"
        )
        for failure in outcome.failures:
            print(f"\n{failure.status}: {sorted(failure.invariants)}")
            print(failure.detail)
            print("minimized reproducer (run with `python -m repro.check point`):")
            print(json.dumps(failure.shrunk.descriptor()))
    return 0 if outcome.ok else 1


def _cmd_point(args: argparse.Namespace) -> int:
    spec = api.DeploymentSpec.from_dict(json.loads(args.descriptor))
    try:
        result = api.run(spec.with_(sanitize=True))
    except BenchmarkError as exc:
        print(f"inconclusive: {exc}")
        return 2
    report = result.extra.get("sanitizer_report")
    if report is None:
        print("no sanitizer report (run did not produce one)")
        return 2
    print(report.summary())
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Substrate sanitizer sweeps over the DES.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fuzz = sub.add_parser("fuzz", help="randomized sanitizer sweep")
    fuzz.add_argument(
        "--budget", type=int, required=True, help="number of points to run"
    )
    fuzz.add_argument("--seed", type=int, default=0, help="sweep seed")
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failing points as drawn, without minimizing",
    )
    fuzz.add_argument(
        "--json", action="store_true", help="machine-readable outcome"
    )
    fuzz.set_defaults(fn=_cmd_fuzz)

    point = sub.add_parser(
        "point", help="replay one point descriptor with the sanitizer"
    )
    point.add_argument(
        "descriptor", help="JSON spec descriptor (as printed by fuzz)"
    )
    point.set_defaults(fn=_cmd_point)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
