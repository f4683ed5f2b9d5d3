"""The served system in a process of its own: ``api.serve`` over live n=4.

Started by :mod:`serve_driver` so the load generator's interpreter lock
never competes with the gateway's threads.  Speaks JSON lines:

* prints ``{"ready": true, "host", "port"}`` once clients may connect;
* ``mark`` on stdin → CPU seconds so far (gateway process and each node
  role) and the committed-task count;
* ``stop`` on stdin → graceful ``Gateway.stop()``, then one final report
  (commits, admission counters, peak RSS, and in traced modes the stage
  breakdown, protocol counts and layer profile), then exit.

The process exits on end-of-input too, so it never outlives its driver.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import layerprof  # noqa: E402
import procstat  # noqa: E402
import shapes  # noqa: E402
import stages  # noqa: E402
from common import node_processes, role_cpu, rss_mb  # noqa: E402
from repro import api  # noqa: E402
from repro.obs.events import GatewayAdmission  # noqa: E402
from repro.obs.sinks import CollectorSink  # noqa: E402


def _say(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--audited", action="store_true")
    ap.add_argument("--profile", default="")
    ap.add_argument("--rss-at", type=int, default=0)
    args = ap.parse_args()

    shape = shapes.shape_for(args.workload, args.smoke)
    collector = CollectorSink() if args.audited else None
    profiler = layerprof.LayerProfiler(args.profile) if args.profile else None
    if profiler is not None:
        cpu0 = procstat.cpu_seconds(os.getpid())
        profiler.start()
    spec = shapes.live_spec(
        shape,
        args.seed,
        sinks=(collector,) if collector else (),
        sanitize=args.audited,
    )
    gateway = api.serve(spec, time_scale=1.0)
    nodes = node_processes()
    everyone = [os.getpid(), *nodes.values()]
    host, port = gateway.address
    _say({"ready": True, "host": host, "port": port})

    rss = 0.0
    try:
        while True:
            readable, _, _ = select.select([sys.stdin], [], [], 0.05)
            completed = gateway.metrics.tasks_completed
            if not rss and args.rss_at and completed >= args.rss_at:
                rss = rss_mb(everyone)
            if not readable:
                continue
            command = sys.stdin.readline().strip()
            if command == "mark":
                cpu = role_cpu(nodes)
                cpu["gateway"] = procstat.cpu_seconds(os.getpid())
                _say({"cpu": cpu, "completed": completed})
            else:  # "stop", or end of input: the driver is gone
                break
    finally:
        final = {"rss": rss or rss_mb(everyone)}
        node_cpu = sum(role_cpu(nodes).values())
        report = gateway.stop()
    if profiler is not None:
        profiler.stop()
        final["profile"] = profiler.summary()
        final["cpu_s"] = procstat.cpu_seconds(os.getpid()) - cpu0 + node_cpu
    final.update(
        commits=report.commits,
        violations=report.violations,
        completed=report.tasks_completed,
        admitted=gateway.gate.admitted,
        deferred=gateway.gate.deferred,
        rejected=gateway.gate.rejected,
    )
    if collector is not None:
        events = collector.events
        offered = {
            ev.task_id: ev.time
            for ev in events
            if type(ev) is GatewayAdmission
        }
        final["stages"], final["task_ms"] = stages.typical_stages_ms(
            events, offered, {}, quorum=2
        )
        final["counts"] = stages.protocol_counts(events)
        final["events"] = len(events)
    _say(final)
    return 0


if __name__ == "__main__":
    sys.exit(main())
