"""CLI for the serving layer: ``python -m repro serve <cmd>``.

``bench`` runs the DES-vs-served cross-validation under identical
seeded open-loop client load (plus an overload leg that must trip the
gateway's backpressure); ``run`` starts a gateway on a real port and
serves until the duration elapses.
"""

from __future__ import annotations

import argparse
import json
import sys


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=4, help="cluster size")
    parser.add_argument("--tasks", type=int, default=16)
    parser.add_argument(
        "--rate", type=float, default=40.0, help="offered load (tasks/s, sim)"
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--time-scale",
        type=float,
        default=0.1,
        help="wall seconds per simulated second",
    )
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument("--tenants", type=int, default=2)
    parser.add_argument(
        "--json", action="store_true", help="machine-readable outcome"
    )
    parser.add_argument(
        "--out", default="", help="write the JSON outcome to this path"
    )


def _emit(args: argparse.Namespace, payload: dict, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, default=str)
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        print(text)


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.serve.bench import serve_bench

    report = serve_bench(
        n=args.n,
        tasks=args.tasks,
        rate=args.rate,
        seed=args.seed,
        time_scale=args.time_scale,
        shards=args.shards,
        tenants=args.tenants,
        n_clients=args.clients,
        overload=not args.no_overload,
    )
    payload = {
        "ok": report.ok,
        "crossval_ok": not report.mismatches,
        "mismatches": report.mismatches,
        "des": report.des_result.to_dict(),
        "serve": report.serve_result.to_dict(),
        "client_slo": report.serve_result.client_slo,
        "overload_slo": report.overload_slo,
    }
    _emit(args, payload, report.summary())
    return 0 if report.ok else 1


def _cmd_run(args: argparse.Namespace) -> int:
    import time

    from repro import api

    # any value given is forwarded: an explicit 0 fails the range check
    config = tuple(
        (knob, getattr(args, knob))
        for knob in ("admission_queue", "admission_rate")
        if getattr(args, knob) is not None
    )
    spec = api.DeploymentSpec(
        workload="open_loop",
        workload_params=(
            ("n_tasks", args.tasks),
            ("rate", args.rate),
            ("seed", args.seed),
        ),
        n=args.n,
        seed=args.seed,
        shards=args.shards,
        tenants=args.tenants,
        backend="live",
        sanitize=True,
        config=config,
    )
    gateway = api.serve(
        spec, host=args.host, port=args.port, time_scale=args.time_scale
    )
    host, port = gateway.address
    print(f"gateway serving on {host}:{port} (n={args.n}, "
          f"shards={args.shards}); duration={args.duration}s wall")
    try:
        time.sleep(args.duration)
    finally:
        gateway.stop()
    result = gateway.result()
    payload = result.to_dict()
    _emit(args, payload, result.row())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve a live OsirisBFT deployment over TCP.",
    )
    subs = parser.add_subparsers(dest="cmd", required=True)

    bench = subs.add_parser(
        "bench",
        help="cross-validate DES vs served-live under identical "
        "open-loop client load",
    )
    _add_common(bench)
    bench.add_argument(
        "--clients", type=int, default=2, help="concurrent client connections"
    )
    bench.add_argument(
        "--no-overload",
        action="store_true",
        help="skip the overload/backpressure leg",
    )

    run = subs.add_parser("run", help="start a gateway and serve for a while")
    _add_common(run)
    run.add_argument("--host", default="127.0.0.1")
    run.add_argument("--port", type=int, default=0)
    run.add_argument(
        "--duration", type=float, default=10.0, help="wall seconds to serve"
    )
    run.add_argument("--admission-queue", type=int, default=None)
    run.add_argument("--admission-rate", type=float, default=None)

    args = parser.parse_args(argv)
    if args.cmd == "bench":
        return _cmd_bench(args)
    return _cmd_run(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
