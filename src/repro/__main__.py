"""The command line: ``python -m repro <command> [args...]``.

=========  ====================================================
bench      paper figures and traces
adversary  fault campaigns: run one, or the whole attack matrix
check      sanitizer sweeps and point replays over the DES
live       OS-process runs and DES-vs-live cross-validation
mc         bounded interleaving exploration over the pure cores
serve      TCP gateway over a live deployment + serving bench
=========  ====================================================

One parser serves every command.  Deployment flags are defined once
(:data:`FLAGS`; each command picks the ones it takes, with its own
defaults) and read back by :func:`spec_from_args`; campaigns resolve
through :func:`repro.adversary.library.resolve_campaign`.  ``--json``
prints the machine-readable result on stdout and ``--out PATH`` writes
the command's artefact to PATH.  A :class:`~repro.errors.ReproError`
prints ``error: …`` on stderr and exits 2; exit 1 means the command ran
and its check failed.

Handlers import what they run when they run, so building the parser
(and ``--help``) loads nothing beyond :mod:`repro`.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Optional

#: Deployment flags by dest: argparse keywords less the default, which
#: each command gives (:func:`_flags`).
FLAGS: dict[str, dict] = {
    "workload": {"help": "workload registry name"},
    "profile": {"help": "anomaly workload profile"},
    "n": {"type": int, "help": "cluster size"},
    "k": {"type": int, "help": "verifier sub-cluster count"},
    "tasks": {"type": int, "help": "workload task count"},
    "rate": {"type": float, "help": "task arrival rate (tasks/s, sim)"},
    "seed": {"type": int, "help": "deployment seed"},
    "deadline": {"type": float, "help": "drain deadline (sim s)"},
    "duration": {
        "type": float,
        "help": "fixed-duration streaming instead of drain-to-completion "
        "(sim s)",
    },
    "shards": {"type": int, "help": "IP→OP pipelines over the verifier fleet"},
    "tenants": {"type": int, "help": "tenants tagging the workload's tasks"},
    "time_scale": {
        "type": float,
        "help": "wall seconds per simulated second",
    },
    "campaign": {"help": "adversary campaign: built-in name or JSON file"},
    "at": {
        "type": float,
        "help": "re-time a built-in campaign (first injection, sim s)",
    },
    "config": {
        "action": "append",
        "metavar": "KEY=VALUE",
        "help": "OsirisConfig override (repeatable), e.g. suspect_timeout=2.0",
    },
    "json": {
        "action": "store_true",
        "help": "print the machine-readable result on stdout",
    },
    "out": {"metavar": "PATH", "help": "write the artefact to PATH"},
}

#: Workload parameter that ``--tasks`` sets, where it is not ``n_tasks``.
_TASK_PARAM = {"video": "n_compute"}

#: ``bench`` figures; :mod:`repro.bench.figures` holds their runners.
FIGURES: tuple[str, ...] = (
    "fig2a", "fig5a", "fig5b", "fig5c", "fig5d", "fig6a", "fig6b",
    "fig6c", "fig7b", "slo", "table1",
)
#: ``bench trace`` scenarios; :mod:`repro.bench.figures` holds them.
TRACES: tuple[str, ...] = (
    "anomaly-hl", "anomaly-lh", "anomaly-mm", "planning", "recovery",
    "sharded", "synthetic", "video",
)


def _flags(parser: argparse.ArgumentParser, **defaults) -> None:
    """Add the :data:`FLAGS` named by ``defaults``, with those defaults."""
    for dest, default in defaults.items():
        parser.add_argument(
            "--" + dest.replace("_", "-"), default=default, **FLAGS[dest]
        )


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _config(pairs: list[str]) -> tuple:
    """Repeated ``--config key=value`` overrides (JSON values, bare
    strings accepted)."""
    from repro.errors import ReproError

    out = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep:
            raise ReproError(f"--config expects key=value, got {pair!r}")
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return tuple(sorted(out.items()))


def spec_from_args(args: argparse.Namespace, workload_params=(), **fields):
    """The :class:`~repro.api.DeploymentSpec` a command's flags describe.

    Each :data:`FLAGS` entry the command defines sets its field:
    ``--tasks``, ``--rate`` and (for ``anomaly``) ``--profile`` go into
    the workload parameters, before ``workload_params``; ``--config``
    pairs into the config; ``--campaign`` resolves, re-timed to ``--at``
    where the campaign takes one.  ``fields`` set the rest and win."""
    from repro import api

    flags = vars(args)
    workload = fields.setdefault("workload", flags.get("workload"))
    params = {}
    if "tasks" in flags:
        params[_TASK_PARAM.get(workload, "n_tasks")] = flags["tasks"]
    if "profile" in flags and workload == "anomaly":
        params["profile"] = flags["profile"]
    if "rate" in flags:
        params["rate"] = flags["rate"]
    params.update(workload_params)
    spec = {
        name: flags[name]
        for name in ("n", "k", "seed", "deadline", "duration", "shards",
                     "tenants")
        if name in flags
    }
    if "config" in flags:
        spec["config"] = _config(flags["config"])
    if flags.get("campaign") and "faults" not in fields:
        from repro.adversary.library import resolve_campaign

        spec["faults"] = resolve_campaign(
            flags["campaign"], flags.get("at"), lenient=True
        )
    spec.update(fields)
    return api.DeploymentSpec(workload_params=params, **spec)


def _emit(args: argparse.Namespace, payload: dict, text: str) -> None:
    """The ``--out``/``--json`` convention for a JSON result."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, default=str)
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        print(text)


# --------------------------------------------------------------------- bench
def _bench_figure(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.bench.figures import ANALYTIC, SWEEPS
    from repro.bench.reporting import print_figure, write_sweep_json
    from repro.exp import ResultCache, run_sweep

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
    if args.out:
        write_sweep_json(args.out, outcome)
        print(f"wrote sweep artifact to {args.out}")
    return 0


def _bench_trace(args: argparse.Namespace) -> int:
    from repro import api
    from repro.bench.figures import DEADLINE, TRACE_SCENARIOS
    from repro.errors import ReproError
    from repro.obs.sinks import ChromeTraceSink, JsonlTraceSink

    prefix = args.out or f"trace-{args.scenario}"
    jsonl_path = f"{prefix}.jsonl"
    chrome_path = f"{prefix}.chrome.json"
    try:
        jsonl = JsonlTraceSink(jsonl_path)
    except OSError as exc:
        raise ReproError(
            f"cannot open trace output {jsonl_path!r}: {exc}"
        ) from exc
    chrome = ChromeTraceSink(chrome_path)
    spec = spec_from_args(
        args,
        deadline=DEADLINE,
        sinks=[jsonl, chrome],
        **TRACE_SCENARIOS[args.scenario](args),
    )
    result = api.run(spec)
    jsonl.close()
    chrome.close()
    print(result.row())
    print(f"wrote {jsonl.event_count} events to {jsonl_path}")
    print(
        f"wrote Chrome trace to {chrome_path} "
        "(load in https://ui.perfetto.dev or chrome://tracing)"
    )
    return 0


def _add_bench(sub) -> None:
    for figure in FIGURES:
        fig = sub.add_parser(figure)
        fig.add_argument(
            "--sizes", type=int, nargs="+", default=[4, 8, 16],
            help="cluster sizes to sweep (default: 4 8 16)",
        )
        _flags(fig, tasks=120, seed=1)
        fig.add_argument(
            "--f", type=int, default=1, help="fault level (table1)"
        )
        fig.add_argument(
            "--jobs", type=_positive, default=1,
            help="process-pool width for sweep points (default 1: serial; "
            "results are bit-identical at any width)",
        )
        _flags(fig, out=None)
        fig.add_argument(
            "--cache-dir", default=None,
            help="result cache directory (default: $REPRO_EXP_CACHE_DIR "
            "or ~/.cache/repro-exp)",
        )
        fig.add_argument(
            "--no-cache", action="store_true",
            help="recompute every point, bypassing the result cache",
        )
        fig.set_defaults(fn=_bench_figure, figure=figure)
    trace = sub.add_parser(
        "trace",
        help="one scenario with trace sinks: a JSONL event log and a "
        "Perfetto-loadable Chrome trace at --out PREFIX",
    )
    trace.add_argument(
        "--scenario", choices=TRACES, default="anomaly-mm"
    )
    _flags(trace, n=8, tasks=40, seed=1, out=None)
    trace.set_defaults(fn=_bench_trace)


# ----------------------------------------------------------------- adversary
def _adversary_list(args: argparse.Namespace) -> int:
    from repro.adversary.library import BUILTIN

    width = max(len(name) for name in BUILTIN)
    for name, factory in BUILTIN.items():
        print(f"{name:<{width}}  {factory().note}")
    return 0


def _adversary_show(args: argparse.Namespace) -> int:
    from repro.adversary.library import resolve_campaign

    campaign = resolve_campaign(args.campaign, at=args.at)
    print(json.dumps(campaign.to_dict(), indent=2, sort_keys=True))
    return 0


def _adversary_run(args: argparse.Namespace) -> int:
    from repro import api
    from repro.adversary.library import resolve_campaign

    campaign = resolve_campaign(args.campaign, at=args.at)
    spec = spec_from_args(
        args,
        workload="anomaly",
        faults=campaign,
        sanitize=not args.no_sanitize,
        label=campaign.name,
    )
    result = api.run(spec)
    print(result.row())
    report = result.extra.get("recovery_report")
    if report is not None:
        print(report.summary())
    return 1 if (result.sanitizer_violations or 0) else 0


def _adversary_matrix(args: argparse.Namespace) -> int:
    from repro import api
    from repro.adversary.library import BUILTIN, resolve_campaign

    names = args.campaigns or sorted(BUILTIN)
    header = (
        f"{'campaign':<18} {'records':>8} {'detect':>8} {'reassign':>9} "
        f"{'recover':>8} {'safety':>9}"
    )
    print(header)
    print("-" * len(header))
    ok = True

    def fmt(x):
        return "-" if x is None else f"{x:.2f}s"

    for name in names:
        campaign = resolve_campaign(name, at=args.at, lenient=True)
        spec = spec_from_args(
            args,
            workload="anomaly",
            faults=campaign,
            sanitize=True,
            label=campaign.name,
        )
        report = api.run(spec).extra["recovery_report"]
        if not report.safe:
            ok = False
        print(
            f"{name:<18} {report.records_accepted:>8} "
            f"{fmt(report.detection_latency):>8} "
            f"{fmt(report.reassignment_latency):>9} "
            f"{fmt(report.time_to_recover):>8} "
            f"{'SAFE' if report.safe else 'VIOLATED':>9}"
        )
    if not ok:
        print("\nsafety violations detected", file=sys.stderr)
    return 0 if ok else 1


def _add_adversary(sub) -> None:
    sub.add_parser("list", help="built-in campaign library").set_defaults(
        fn=_adversary_list
    )

    show = sub.add_parser("show", help="print a campaign's canonical JSON")
    show.add_argument("campaign", help="built-in name or JSON file")
    _flags(show, at=None)
    show.set_defaults(fn=_adversary_show)

    deploy = {
        "n": 8, "k": None, "profile": "MM", "tasks": 60, "rate": 2000.0,
        "seed": 0, "deadline": 600.0, "duration": None, "at": None,
        "config": [],
    }
    run = sub.add_parser(
        "run",
        help="run one campaign, print recovery (exit 1 on sanitizer "
        "violations)",
    )
    run.add_argument("campaign", help="built-in name or JSON file")
    _flags(run, **deploy)
    run.add_argument(
        "--no-sanitize",
        action="store_true",
        help="skip the substrate sanitizer (defaults to on)",
    )
    run.set_defaults(fn=_adversary_run)

    # fixed-duration streaming (campaigns that deliberately destroy
    # liveness still finish and still get a safety verdict), with tasks
    # arriving throughout the window so recovery is measurable
    matrix = sub.add_parser(
        "matrix",
        help="attack matrix: campaigns x one deployment (exit 1 if any "
        "violates safety)",
    )
    matrix.add_argument(
        "campaigns",
        nargs="*",
        help="built-in names (default: the whole library)",
    )
    _flags(matrix, **{**deploy, "duration": 40.0, "tasks": 240, "rate": 8.0})
    matrix.set_defaults(fn=_adversary_matrix)


# --------------------------------------------------------------------- check
def _check_fuzz(args: argparse.Namespace) -> int:
    from repro.check.fuzz import run_fuzz

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
            print("minimized reproducer (run with `python -m repro check point`):")
            print(json.dumps(failure.shrunk.descriptor()))
    return 0 if outcome.ok else 1


def _check_point(args: argparse.Namespace) -> int:
    from repro import api
    from repro.errors import BenchmarkError

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


def _add_check(sub) -> None:
    fuzz = sub.add_parser(
        "fuzz",
        help="randomized sanitizer sweep (exit 1 with a minimized "
        "reproducer on a failing point)",
    )
    fuzz.add_argument(
        "--budget", type=int, required=True, help="number of points to run"
    )
    fuzz.add_argument("--seed", type=int, default=0, help="sweep seed")
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failing points as drawn, without minimizing",
    )
    _flags(fuzz, json=False)
    fuzz.set_defaults(fn=_check_fuzz)

    point = sub.add_parser(
        "point", help="replay one point descriptor with the sanitizer"
    )
    point.add_argument(
        "descriptor", help="JSON spec descriptor (as printed by fuzz)"
    )
    point.set_defaults(fn=_check_point)


# ---------------------------------------------------------------------- live
def _live_run(args: argparse.Namespace) -> int:
    from repro.api import run

    spec = spec_from_args(args, sanitize=True, backend="live")
    out = run(spec, time_scale=args.time_scale).to_dict()
    out.pop("extra", None)
    print(json.dumps(out, indent=2, default=str))
    return 0


def _live_crossval(args: argparse.Namespace) -> int:
    from repro.check.crossval import summary
    from repro.live.crossval import cross_validate

    spec = spec_from_args(args, sanitize=True, backend="des")
    des, _, mismatches = cross_validate(spec, time_scale=args.time_scale)
    label = f"{spec.workload} n={spec.n} seed={spec.seed}; a=des b=live"
    print(summary(label, des, mismatches))
    return 1 if mismatches else 0


def _live_split(args: argparse.Namespace) -> int:
    from repro.live.cpusplit import burst_spec, measure, render

    spec = burst_spec(args.tasks, args.n, args.seed)
    print(render(measure(spec, time_scale=1.0)))
    return 0


def _add_live(sub) -> None:
    deploy = {
        "workload": "anomaly", "profile": "MM", "tasks": 12, "n": 4,
        "seed": 0, "deadline": 120.0, "time_scale": 0.25, "campaign": "",
        "at": 0.5,
    }
    run = sub.add_parser("run", help="run one live deployment, print JSON")
    _flags(run, **deploy)
    run.set_defaults(fn=_live_run)
    crossval = sub.add_parser(
        "crossval",
        help="compare DES and live commit outcomes (exit 1 on a mismatch)",
    )
    _flags(crossval, **deploy)
    crossval.set_defaults(fn=_live_crossval)
    split = sub.add_parser(
        "split", help="CPU per task in each child's codec and handlers"
    )
    _flags(split, tasks=400, n=4, seed=0)
    split.set_defaults(fn=_live_split)


# ------------------------------------------------------------------------ mc
def _mc_explore_model(args: argparse.Namespace):
    from repro.errors import ProtocolError
    from repro.mc.explore import explore
    from repro.mc.model import McModel

    fault_role, fault_kind = "", ""
    if args.fault:
        if ":" not in args.fault:
            raise ProtocolError(
                f"--fault wants role:kind (e.g. executor:corrupt-record), "
                f"got {args.fault!r}"
            )
        fault_role, fault_kind = args.fault.split(":", 1)
    model = McModel(
        n=args.n,
        tasks=args.tasks,
        executors=args.executors,
        records=args.records,
        fault_role=fault_role,
        fault_kind=fault_kind,
        timer_budget=args.timer_budget,
        eager_local=not args.no_eager_local,
        stutter=not args.no_stutter,
        delays=args.delays,
    )
    return model, explore(
        model,
        max_transitions=args.max_transitions,
        max_violations=args.max_violations,
    )


def _mc_explore(args: argparse.Namespace) -> int:
    from repro.mc.shrink import McReproducer, shrink_trace

    model, result = _mc_explore_model(args)
    stats = result.stats
    # with --json, stdout carries the JSON document alone
    out = sys.stderr if args.json else sys.stdout
    print(
        f"mc explore: {stats.states} states, {stats.transitions} "
        f"transitions, {stats.terminals} terminals, "
        f"{stats.violations} violation(s)"
        f"{'' if stats.complete else ' [stopped early]'}",
        file=out,
    )
    for i, violation in enumerate(result.violations):
        trace = violation.trace
        if not args.no_shrink:
            trace = shrink_trace(
                model, list(trace), set(violation.invariants)
            )
        rep = McReproducer(
            model=model,
            invariants=list(violation.invariants),
            trace=list(trace),
            details=list(violation.details),
        )
        print(f"\nviolation {i + 1}: {violation.invariants}", file=out)
        for detail in violation.details:
            print(f"  {detail}", file=out)
        if args.out:
            path = args.out if len(result.violations) == 1 else (
                f"{args.out}.{i + 1}"
            )
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(rep.to_json())
            print(f"reproducer written to {path}", file=out)
        else:
            print("reproducer (run with `python -m repro mc replay`):", file=out)
            print(json.dumps(rep.to_dict()), file=out)
    if args.json:
        json.dump(
            {
                "model": model.to_dict(),
                "stats": stats.to_dict(),
                "violations": [
                    {
                        "invariants": v.invariants,
                        "details": v.details,
                        "trace": [list(k) for k in v.trace],
                    }
                    for v in result.violations
                ],
            },
            sys.stdout,
            indent=2,
        )
        print()
    return 0 if result.ok else 1


def _mc_replay(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.mc.shrink import McReproducer, reproduce

    try:
        text = args.reproducer
        if text.startswith("@"):
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        rep = McReproducer.from_dict(json.loads(text))
    except (OSError, ValueError) as exc:
        raise ReproError(f"cannot read the reproducer: {exc}") from exc
    rep.model.validate()
    hit, report = reproduce(rep)
    print(report.summary())
    if hit:
        print(f"reproduced: {sorted(set(report.invariants_hit()) & set(rep.invariants))}")
        return 0
    print(f"NOT reproduced: expected {rep.invariants}")
    return 1


def _mc_stats(args: argparse.Namespace) -> int:
    model, result = _mc_explore_model(args)
    stats = result.stats
    if args.json:
        json.dump(
            {"model": model.to_dict(), "stats": stats.to_dict()},
            sys.stdout,
            indent=2,
        )
        print()
    else:
        for name, value in stats.to_dict().items():
            print(f"{name:>18}: {value}")
    return 0 if result.ok else 1


def _mc_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=3, help="verifiers (3..4)")
    parser.add_argument("--tasks", type=int, default=2, help="tasks (1..3)")
    parser.add_argument(
        "--executors", type=int, default=1, help="executors (1..2)"
    )
    parser.add_argument(
        "--records", type=int, default=2, help="records per task"
    )
    parser.add_argument(
        "--fault",
        default="",
        help="single Byzantine fault as role:kind "
        "(e.g. executor:corrupt-record, verifier:bogus-digest)",
    )
    parser.add_argument(
        "--timer-budget",
        type=int,
        default=1,
        help="fires allowed per (core, timer) pair",
    )
    parser.add_argument(
        "--delays",
        type=int,
        default=1,
        help="CHESS delay budget; -1 removes the bound",
    )
    parser.add_argument(
        "--no-stutter",
        action="store_true",
        help="branch on no-op deliveries too",
    )
    parser.add_argument(
        "--no-eager-local",
        action="store_true",
        help="treat queued local jobs as separate choice points",
    )
    parser.add_argument(
        "--max-transitions",
        type=int,
        default=200_000,
        help="hard stop on executed transitions",
    )
    parser.add_argument(
        "--max-violations",
        type=int,
        default=1,
        help="stop after this many violations",
    )
    _flags(parser, json=False)


def _add_mc(sub) -> None:
    exp = sub.add_parser(
        "explore",
        help="enumerate schedules and audit; shrink each violation to a "
        "reproducer (exit 1 on violations)",
    )
    _mc_model_flags(exp)
    exp.add_argument(
        "--no-shrink",
        action="store_true",
        help="report violating schedules as found, without minimizing",
    )
    _flags(exp, out=None)
    exp.set_defaults(fn=_mc_explore)

    rep = sub.add_parser(
        "replay",
        help="replay a JSON reproducer (exit 1 if its invariant does not "
        "re-fire)",
    )
    rep.add_argument(
        "reproducer",
        help="reproducer JSON, or @path to read it from a file",
    )
    rep.set_defaults(fn=_mc_replay)

    st = sub.add_parser("stats", help="explore and print reduction stats")
    _mc_model_flags(st)
    st.set_defaults(fn=_mc_stats)


# --------------------------------------------------------------------- serve
def _serve_bench(args: argparse.Namespace) -> int:
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


def _serve_run(args: argparse.Namespace) -> int:
    import time

    from repro import api

    # any value given is forwarded: an explicit 0 fails the range check
    config = tuple(
        (knob, getattr(args, knob))
        for knob in ("admission_queue", "admission_rate")
        if getattr(args, knob) is not None
    )
    spec = spec_from_args(
        args,
        workload="open_loop",
        workload_params={"seed": args.seed},
        backend="live",
        sanitize=True,
        config=config,
    )
    gateway = api.serve(
        spec, host=args.host, port=args.port, time_scale=args.time_scale
    )
    host, port = gateway.address
    print(f"gateway serving on {host}:{port} (n={args.n}, "
          f"shards={args.shards}); duration={args.serve_for}s wall")
    try:
        time.sleep(args.serve_for)
    finally:
        gateway.stop()
    result = gateway.result()
    _emit(args, result.to_dict(), result.row())
    return 0


def _add_serve(sub) -> None:
    deploy = {
        "n": 4, "tasks": 16, "rate": 40.0, "seed": 7, "time_scale": 0.1,
        "shards": 1, "tenants": 2, "json": False, "out": None,
    }
    bench = sub.add_parser(
        "bench",
        help="cross-validate DES vs served-live under identical "
        "open-loop client load",
    )
    _flags(bench, **deploy)
    bench.add_argument(
        "--clients", type=int, default=2, help="concurrent client connections"
    )
    bench.add_argument(
        "--no-overload",
        action="store_true",
        help="skip the overload/backpressure leg",
    )
    bench.set_defaults(fn=_serve_bench)

    run = sub.add_parser("run", help="start a gateway and serve for a while")
    _flags(run, **deploy)
    run.add_argument("--host", default="127.0.0.1")
    run.add_argument("--port", type=int, default=0)
    run.add_argument(
        "--duration",
        dest="serve_for",
        metavar="SECONDS",
        type=float,
        default=10.0,
        help="wall seconds to serve",
    )
    run.add_argument("--admission-queue", type=int, default=None)
    run.add_argument("--admission-rate", type=float, default=None)
    run.set_defaults(fn=_serve_run)


#: command -> (help, adds its subcommands to a subparsers action)
_COMMANDS: dict[str, tuple[str, Callable]] = {
    "bench": ("paper figures and traces", _add_bench),
    "adversary": ("fault campaigns and the attack matrix", _add_adversary),
    "check": ("sanitizer sweeps and point replays", _add_check),
    "live": ("OS-process runs and cross-validation", _add_live),
    "mc": ("bounded interleaving exploration", _add_mc),
    "serve": ("TCP gateway over a live deployment", _add_serve),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="OsirisBFT reproduction: figures, campaigns, audits, "
        "live runs, model checking and serving.",
    )
    commands = parser.add_subparsers(
        dest="command", metavar="<command>", required=True
    )
    for name, (help_text, add) in _COMMANDS.items():
        command = commands.add_parser(name, help=help_text)
        add(command.add_subparsers(dest="subcommand", required=True))
    return parser


def main(argv: Optional[list] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    if not argv or argv[0] in ("-h", "--help"):
        parser.print_help()
        return 0 if argv else 2
    if argv[0] not in _COMMANDS:
        print(f"unknown command {argv[0]!r}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    args = parser.parse_args(argv)
    from repro.errors import ReproError

    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
