#!/usr/bin/env python3
"""End-to-end benchmark of goat: build the harness, run one workload,
check every campaign against the committed reference, print the metrics.

Run from the repository root:

  python3 perfbench/run.py --workload core_j1 --seed 3 --seconds 20 --trace 0
  python3 perfbench/run.py --all              # every workload, fail_ratio
  python3 perfbench/run.py --smoke            # self-test, tiny budgets
  python3 perfbench/run.py --write-reference  # regenerate at -jobs=1

The last line of standard output of a --workload run is one JSON object
with the keys correct, attempted, failed and metrics; the metric names
and units are the end_to_end (--trace 0) or per_layer (--trace 1) lists
of BENCHMARK.json at the repository root.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "goat_perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ["core_j1", "soak_j4", "sweep_j4"]
# Reported besides the BENCHMARK.json lists where the workload has them.
EXTRA_METRICS = ["coverage_pct", "predictions_confirmed"]
HARNESS_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the Release harness from source."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        os.makedirs(BUILD, exist_ok=True)
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def harness(workload, seed, seconds, trace, extra=()):
    """Run the harness once in a private work directory; return its result."""
    tag = "%s-%s-%d" % (workload, "t" if trace else "u", os.getpid())
    work = os.path.join(BUILD, "work", tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    result = os.path.join(work, "result.json")
    cmd = [BINARY, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%g" % seconds, "--trace=%d" % trace,
           "--result=" + result, "--work-dir=" + work] + list(extra)
    if trace:
        cmd.append("--trace-out=" + os.path.join(BUILD, "trace-%s.json" % workload))
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=HARNESS_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError("harness exited with %d" % proc.returncode)
        with open(result) as f:
            return json.load(f)
    except subprocess.TimeoutExpired:
        raise BenchError("harness timed out after %ds" % HARNESS_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def digest_hash(digest):
    return hashlib.sha1(digest.encode()).hexdigest()[:16]


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


def check_digests(result, reference):
    """Compare every campaign digest with the reference: (attempted, failed)."""
    ref = reference["workloads"].get(result["workload"])
    if ref is None or ref["config"] != result["config"]:
        raise BenchError("no reference for %s with config %r"
                         % (result["workload"], result["config"]))
    index = {label: i for i, label in enumerate(ref["labels"])}
    failed = 0
    for pool, label, digest in result["digests"]:
        want = ref["digests"][pool][index[label]] if label in index else None
        if digest_hash(digest) != want:
            failed += 1
            if failed <= 5:
                log("MISMATCH pool=%d %s: %s" % (pool, label, digest))
    return len(result["digests"]), failed


def traced_checks(result):
    """Faithfulness of the traced rebuild: (attempted, failed)."""
    if not result["trace"]:
        return 0, 0
    for note in result.get("notes", []):
        log("trace: " + note)
    attempted = (result["faithful_iterations"] + result["divergent_iterations"]
                 + result["faithful_campaigns"] + result["divergent_campaigns"])
    failed = result["divergent_iterations"] + result["divergent_campaigns"]
    return attempted, failed


def metric_spec(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"]


def report(result, attempted, failed, trace):
    """Print the human-readable summary; return the final JSON object."""
    stamp = result["stamp"]
    print("workload %s seed=%d jobs=%d trace=%d passes=%d" % (
        result["workload"], result["seed"], result["jobs"], trace,
        result["passes"]))
    print("host nproc=%d cpu=%r compiler=%r build_type=%s" % (
        stamp["nproc"], stamp["cpu"], stamp["compiler"], stamp["build_type"]))
    metrics = result["metrics"]
    out = {}
    for spec in metric_spec(trace):
        name = spec["name"]
        got = metrics.get(name)
        if got is None or got["unit"] != spec["unit"]:
            raise BenchError("metric %s (%s) missing or in another unit: %r"
                             % (name, spec["unit"], got))
        out[name] = {"value": got["value"], "unit": got["unit"]}
    shown = list(out) + [n for n in sorted(metrics) if n not in out and
                         (trace or n in EXTRA_METRICS)]
    for name in shown:
        print("  %-36s %16.6g %s" % (name, metrics[name]["value"],
                                      metrics[name]["unit"]))
    fail_ratio = failed / attempted if attempted else 1.0
    print("  %-36s %16.6g %s" % ("fail_ratio", fail_ratio, "ratio"))
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": out}


def run_workload(workload, seed, seconds, trace, reference):
    result = harness(workload, seed, seconds, trace)
    attempted, failed = check_digests(result, reference)
    t_attempted, t_failed = traced_checks(result)
    return report(result, attempted + t_attempted, failed + t_failed, trace)


def write_reference():
    """Digests of one pass over every workload's pool at -jobs=1."""
    ref = {"format": 1, "jobs": 1, "workloads": {}}
    for w in WORKLOADS:
        log("reference: %s" % w)
        result = harness(w, 0, 0, 0, ["--jobs=1", "--full-pool"])
        labels, digests = [], {}
        for pool, label, digest in result["digests"]:
            if label not in labels:
                labels.append(label)
            digests.setdefault(pool, []).append(digest_hash(digest))
        ref["workloads"][w] = {
            "config": result["config"], "labels": labels,
            "digests": [digests[p] for p in sorted(digests)]}
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


def smoke():
    """Tiny budgets: every metric is emitted and -jobs=1/-jobs=4 agree."""
    problems = []
    for w in WORKLOADS:
        runs = {}
        for jobs in (1, 4):
            runs[jobs] = harness(w, 0, 0, 0,
                                 ["--smoke", "--full-pool", "--jobs=%d" % jobs])
        if runs[1]["digests"] != runs[4]["digests"]:
            problems.append("%s: -jobs=1 and -jobs=4 digests differ" % w)
        traced = harness(w, 0, 0, 1, ["--smoke"])
        _, failed = traced_checks(traced)
        if failed:
            problems.append("%s: traced rebuild diverged" % w)
        for result, trace in ((runs[4], 0), (traced, 1)):
            for spec in metric_spec(trace):
                got = result["metrics"].get(spec["name"])
                if got is None or got["unit"] != spec["unit"]:
                    problems.append("%s: %s missing or not in %s" % (
                        w, spec["name"], spec["unit"]))
        print("smoke %-9s %d campaigns, %d rebuilt iterations" % (
            w, len(runs[4]["digests"]), traced["faithful_iterations"]))
    for p in problems:
        print("FAIL " + p)
    return not problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, each in its own process")
    ap.add_argument("--smoke", action="store_true", help="self-test")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()

    start = time.time()
    try:
        build()
        log("harness built in %.1fs" % (time.time() - start))
        if args.write_reference:
            write_reference()
            return 0
        if args.smoke:
            return 0 if smoke() else 1
        reference = load_reference()
        if args.all:
            ok = True
            for w in WORKLOADS:
                final = run_workload(w, args.seed, args.seconds, args.trace,
                                     reference)
                ok = ok and final["correct"]
            return 0 if ok else 1
        if not args.workload:
            ap.error("one of --workload, --all, --smoke, --write-reference")
        final = run_workload(args.workload, args.seed, args.seconds,
                             args.trace, reference)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 1
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
