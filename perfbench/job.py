"""One timed job in a fresh, single-threaded process.

    python3 perfbench/job.py --workload NAME --inputs DIR --work DIR --seed N --trace 0|1

The library is imported before the clock starts, so interpreter and import
start-up are excluded.  The timed section is the workload's ``run``; peak
RSS is read right after it, before the untimed correctness checks.  The
reference loop of ``calib`` runs just before and just after the timed
section, and every time the job reports is scaled to the nominal host speed
by it; ``raw_wall_s`` is the unscaled job time.  With ``--trace 1`` the
library's public names are wrapped in spans for the timed section only.
The work directory is removed on exit.  The last stdout line is one JSON
object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback

import calib
from workloads import WORKLOADS, Lib


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]
    lib = Lib()
    run = w.run
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        run = tracer.wrap("job", run)
    out: dict = {"traced": bool(args.trace)}
    os.makedirs(args.work)
    try:
        if tracer:
            tracer.enabled = True
        ref_before = calib.reference_s(args.work)
        t0 = time.perf_counter()
        state = run(args.inputs, args.work, lib)
        out["raw_wall_s"] = time.perf_counter() - t0
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            tracer.enabled = False
        ref_after = calib.reference_s(args.work)
        out["wall_s"] = calib.scale(out["raw_wall_s"], ref_before, ref_after)
        if tracer:
            out["layers"] = {k: calib.scale(v, ref_before, ref_after) if k.endswith("_s") else v
                             for k, v in tracer.layer_metrics().items()}
        t1 = time.perf_counter()
        out["failures"] = w.check(args.inputs, args.seed, state, lib)
        out["fingerprint"] = w.fingerprint(state)
        out["check_s"] = time.perf_counter() - t1
    except Exception:
        out["failures"] = [traceback.format_exc()]
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
    print(json.dumps(out))
    return 0 if not out["failures"] else 1


if __name__ == "__main__":
    sys.exit(main())
