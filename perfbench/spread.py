"""Run-to-run spread and repeatability of the benchmark.

    python3 perfbench/spread.py --workload torus-h5 --seeds 5
    python3 perfbench/spread.py --workload all --seeds 10 --exact-seed 1

``all`` means the workloads listed in BENCHMARK.json.  For each workload,
runs ``run.py --trace 0`` once per seed (seeds 1..N) and
prints, for every end-to-end metric, the median of the per-run values and
the distance between their first and third quartiles as a share of that
median.  A spread above the metric's bound in BENCHMARK.json fails.  With ``--exact-seed``,
it also makes two traced runs at that seed and fails unless every declared
exact work count is identical between them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import EXACT_COUNTS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench_run(name: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        print(proc.stdout)
        raise SystemExit("%s seed %d: run failed" % (name, seed))
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--exact-seed", type=int)
    args = ap.parse_args(argv)
    names = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
             else [args.workload])

    ok = True
    for name in names:
        values: dict[str, list[float]] = {k: [] for k in bounds}
        for seed in range(1, args.seeds + 1):
            metrics = bench_run(name, seed, args.seconds, 0)["metrics"]
            for k in bounds:
                values[k].append(metrics[k]["value"])
            print("%s seed %d: %s" % (name, seed, "  ".join(
                "%s %.4f" % (k, metrics[k]["value"]) for k in bounds)), flush=True)
        for k, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread <= bounds[k] / 3 else (
                "within bound" if spread <= bounds[k] else "TOO WIDE")
            ok = ok and verdict != "TOO WIDE"
            print("%s %-12s median %.4f  q1 %.4f  q3 %.4f  spread %.3f  bound %.2f  %s"
                  % (name, k, med, q1, q3, spread, bounds[k], verdict), flush=True)
        if args.exact_seed is not None:
            a, b = (bench_run(name, args.exact_seed, args.seconds, 1)["metrics"]
                    for _ in range(2))
            diff = [c for c in EXACT_COUNTS if c in a and a[c]["value"] != b[c]["value"]]
            ok = ok and not diff
            print("%s exact counts at seed %d: %s" % (
                name, args.exact_seed, "identical" if not diff else "DIFFER: %s" % diff))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
