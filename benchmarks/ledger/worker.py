"""One workload in one fresh process (started and watched by ``run.py``).

Prints exactly one JSON object as its last stdout line:
``{"setup_s", "attempted", "failed", "samples", "metrics"}``.
``--phase setup`` stops once the first task could be submitted, which
is how ``run.py`` samples the set-up time more than once per run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--phase", choices=("run", "setup"), default="run")
    ap.add_argument("--t0", type=float, required=True,
                    help="time.time() just before this process was started")
    args = ap.parse_args()

    # before the heavy imports, so set-up is calibrated too
    from hostspeed import Calibrator

    cal = Calibrator().start()
    import shapes

    shape = shapes.shape_for(args.workload, args.smoke)
    micro_metrics = None
    if args.trace and args.phase == "run":
        # before any deployment exists: the queue-hop bench forks, and
        # idle node processes would share the host with every bench
        import micro

        micro_metrics = micro.run_all()
    if shape.kind == "des":
        import des_driver as driver

        ctx = driver.setup(shape, args.seed)
        teardown = None
    elif shape.kind == "live":
        import live_driver as driver

        ctx = driver.setup(shape, args.seed)
        teardown = driver.teardown
    else:
        import serve_driver as driver

        ctx = driver.setup(shape, args.seed, args.smoke)
        teardown = driver.teardown
    setup_s = (time.time() - args.t0) / cal.factor()
    if args.trace:
        cal.stop()  # the traced pass reports raw numbers

    try:
        if args.phase == "setup":
            out = {"setup_s": setup_s}
        else:
            if args.trace:
                out = driver.trace(
                    shape, args.seed, args.seconds, ctx, micro_metrics
                )
            else:
                out = driver.measure(shape, args.seed, args.seconds, ctx, cal)
                out["host_factor"] = cal.factor()
            out["setup_s"] = setup_s
    finally:
        if teardown is not None:
            teardown(ctx)
        if not args.trace:
            cal.stop()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
