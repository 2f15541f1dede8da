"""Seeded benchmark for smithy: one workload per call, or all of them.

    python3 perfbench/run.py --workload skinny-snf --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout; the library is imported from
``src`` with no install step, and ``all`` means the workloads that
BENCHMARK.json declares.  A run starts jobs one at a time, each in a fresh
single-threaded Python process, until ``--seconds`` of job time have passed.
Between jobs it repeats the set-up, so that its samples spread over the
whole run like the jobs' do; ``setup_s`` is their median.  Each job and each
set-up is bracketed by the reference loop of ``calib``, and the times the
run reports are scaled by it to a nominal host speed, so that the shared
host's drift cancels; the report also prints the raw times.  Every job's
outputs are checked; any failed check makes the exit code nonzero.  The last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics BENCHMARK.json declares
with ``--trace 0``, its per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
from tracing import EXACT_COUNTS, PEAK_COUNTS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run spreads SETUP_MIN set-ups evenly over its job time, and sets up
# again between jobs while set-up, with its reference loops, has taken less
# than SETUP_SHARE of it.
SETUP_MIN = 3
SETUP_SHARE = 0.2
JOB_TIMEOUT_S = 150
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS")


def load_spec() -> dict:
    """BENCHMARK.json: the declared workloads and metrics, name -> unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"workloads": [w["name"] for w in spec["workloads"]],
            "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def set_child_env(tmp: Path) -> None:
    """Environment for every process the run starts: the library from
    ``src``, temporary files under the run's own directory, one thread."""
    path = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + path)
    os.environ["TMPDIR"] = str(tmp)
    for var in SINGLE_THREAD:
        os.environ[var] = "1"


def tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_job(name: str, inputs: Path, work: Path, seed: int, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "job.py"), "--workload", name,
           "--inputs", str(inputs), "--work", str(work), "--seed", str(seed),
           "--trace", "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"traced": trace, "failures": ["job exceeded %d s" % JOB_TIMEOUT_S]}
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"traced": trace, "failures": [
            "job exited %d without a result: %s" % (proc.returncode, proc.stderr[-2000:])]}
    if proc.returncode != 0 and not out.get("failures"):
        out["failures"] = ["job exited %d" % proc.returncode]
    return out


def check_repeatable(jobs: list[dict]) -> None:
    """Every job of one run sees the same inputs, so its outputs and its
    exact work counts must be identical; a job that differs fails."""
    def key(job):
        counts = {c: job["layers"][c] for c in EXACT_COUNTS} if "layers" in job else None
        return job.get("fingerprint"), counts

    ok = [j for j in jobs if not j["failures"]]
    for kind in (False, True):
        same = [j for j in ok if j["traced"] == kind]
        for j in same[1:]:
            if key(j) != key(same[0]):
                j["failures"].append("outputs or exact counts differ from the first job")


def measure(name: str, seed: int, seconds: float,
            trace: bool) -> tuple[list[dict], list[float], list[float]]:
    """The run's jobs, and its set-up times raw and scaled."""
    w = WORKLOADS[name]
    tmp_root = ROOT / ".perfbench_tmp"
    tmp = tmp_root / ("%s-%d-%d" % (name, seed, os.getpid()))
    tmp.mkdir(parents=True)
    set_child_env(tmp)
    setup_times: list[float] = []
    setup_scaled: list[float] = []
    spent = [0.0]  # in set-up and its reference loops

    def set_up(inputs: Path) -> str:
        start = time.perf_counter()
        inputs.mkdir()
        ref_before = calib.reference_s(str(tmp))
        t0 = time.perf_counter()
        w.setup(str(inputs), seed)
        setup_times.append(time.perf_counter() - t0)
        setup_scaled.append(calib.scale(setup_times[-1], ref_before, calib.reference_s(str(tmp))))
        spent[0] += time.perf_counter() - start
        return tree_digest(inputs)

    def set_up_again() -> None:
        again = tmp / "inputs-again"
        if set_up(again) != digest:
            raise RuntimeError("set-up wrote different inputs for one seed")
        shutil.rmtree(again)

    try:
        inputs = tmp / "inputs"
        digest = set_up(inputs)
        jobs: list[dict] = []
        if trace and w.traced_setup:
            # the library step of set-up, traced once in a job of its own
            job = run_job(w.traced_setup, inputs, tmp / "work-setup", seed, True)
            job["setup"] = True
            jobs.append(job)
        job_time, n = 0.0, 0

        def setup_due() -> bool:
            done = min(1.0, job_time / seconds) if seconds > 0 else 1.0
            return not trace and (len(setup_times) <= (SETUP_MIN - 1) * done
                                  or spent[0] < SETUP_SHARE * job_time)

        # a traced run alternates untraced and traced jobs to show the overhead
        while n < (2 if trace else 1) or job_time < seconds:
            t0 = time.perf_counter()
            jobs.append(run_job(name, inputs, tmp / ("work-%d" % n), seed, trace and n % 2 == 1))
            job_time += time.perf_counter() - t0
            n += 1
            while setup_due():
                set_up_again()
        check_repeatable([j for j in jobs if not j.get("setup")])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still uses it
    return jobs, setup_times, setup_scaled


def layer_values(jobs: list[dict]) -> dict:
    """Per-layer values of a traced run: the median of each time over the
    traced jobs, plus the traced set-up step, if the workload has one."""
    traced = [j for j in jobs if j["traced"] and not j.get("setup")]
    layers = {}
    for key, first in traced[0]["layers"].items():
        layers[key] = first if key in EXACT_COUNTS else statistics.median(
            j["layers"][key] for j in traced)
    for j in jobs:
        if j.get("setup"):
            for key, v in j["layers"].items():
                layers[key] = max(layers[key], v) if key in PEAK_COUNTS else layers[key] + v
    return layers


def summarize(spec: dict, jobs: list[dict], setup_scaled: list[float], trace: bool) -> dict:
    plain = [j for j in jobs if not j["traced"] and "wall_s" in j]
    failed = sum(1 for j in jobs if j["failures"])
    metrics: dict = {}
    if failed == 0 and not trace:
        values = {
            "wall_s": statistics.median(j["wall_s"] for j in plain),
            "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in plain),
            "setup_s": statistics.median(setup_scaled),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in spec["end_to_end"].items()}
    elif failed == 0:
        values = layer_values(jobs)
        metrics = {k: {"value": values[k], "unit": u} for k, u in spec["per_layer"].items()}
    return {"correct": failed == 0 and bool(metrics), "attempted": len(jobs),
            "failed": failed, "metrics": metrics}


def report(name: str, seed: int, result: dict, jobs: list[dict], setup_times: list[float],
           setup_scaled: list[float]) -> None:
    """The run's figures for people; the JSON result follows it."""
    print("workload %s  seed %d  jobs %d  failed %d" % (
        name, seed, result["attempted"], result["failed"]))
    medians = {}
    for label, traced in (("untraced", False), ("traced", True)):
        done = [j for j in jobs if j["traced"] == traced and not j.get("setup") and "wall_s" in j]
        for key in ("wall_s", "raw_wall_s") if done else ():
            q1, med, q3 = quartiles([j[key] for j in done])
            medians.setdefault(traced, med)
            print("  %-12s %.4f s   median of %d %s jobs (q1 %.4f, q3 %.4f, max %.4f)"
                  % (key, med, len(done), label, q1, q3, max(j[key] for j in done)))
    for key, times in (("setup_s", setup_scaled), ("raw_setup_s", setup_times)):
        q1, q2, q3 = quartiles(times)
        print("  %-12s %.4f s   median of %d set-ups (q1 %.4f, q3 %.4f, max %.4f)"
              % (key, q2, len(times), q1, q3, max(times)))
    if len(medians) == 2:
        print("  tracing makes the job %.2f times as long" % (medians[True] / medians[False]))
        for j in jobs:
            if j.get("setup") and "wall_s" in j:
                print("  per-layer values include the traced set-up step (%.4f s)" % j["wall_s"])
        if result["failed"] == 0:
            # every layer value, declared or not; 0 is a layer the job never entered
            for key, v in sorted(layer_values(jobs).items()):
                print("  %-34s %.6g" % (key, v))
    else:
        for key, m in result["metrics"].items():
            if key not in ("wall_s", "setup_s"):
                print("  %-34s %.6g %s" % (key, m["value"], m["unit"]))
    print("  error_rate   %d/%d = %.4f" % (
        result["failed"], result["attempted"], result["failed"] / result["attempted"]))
    for j in jobs:
        for msg in j["failures"]:
            print("  FAILED: %s" % msg.strip().replace("\n", "\n    "))


def run_all(names: list[str], seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own benchmark process; a summary table after."""
    summary, status = {}, 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "1" if trace else "0"],
            stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
        try:
            summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            summary[name] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
            status = status or 1
    print()
    print("%-30s %s" % ("metric", " ".join("%15s" % n for n in names)))
    rates = [r["failed"] / r["attempted"] if r["attempted"] else 1.0 for r in summary.values()]
    print("%-30s %s" % ("error_rate", " ".join("%15.4f" % x for x in rates)))
    for k in sorted({k for r in summary.values() for k in r["metrics"]}):
        cells = ["%15.6g" % summary[n]["metrics"][k]["value"] if k in summary[n]["metrics"]
                 else "%15s" % "-" for n in names]
        unit = next(r["metrics"][k]["unit"] for r in summary.values() if k in r["metrics"])
        print("%-30s %s" % ("%s [%s]" % (k, unit), " ".join(cells)))
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "smithy" / "__init__.py").is_file():
        print("no smithy sources under %s; run from a source checkout" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload == "all":
        return run_all(spec["workloads"], args.seed, args.seconds, bool(args.trace))

    jobs, setup_times, setup_scaled = measure(args.workload, args.seed, args.seconds,
                                              bool(args.trace))
    result = summarize(spec, jobs, setup_scaled, bool(args.trace))
    report(args.workload, args.seed, result, jobs, setup_times, setup_scaled)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
