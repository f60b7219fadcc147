#!/usr/bin/env python3
"""Sanity-check and compare the benchmark baselines at the repo root.

Validate mode (default):

  * BENCH_obs.json — the instrumentation A/Bs written by bench_obs.
    Must parse, carry the pinned-seed run's parameters, and show the
    stage profiler costing less than the documented 5% budget
    (docs/INTERNALS.md §7) over a profile-off campaign. The row-path
    A/B (-ledger -checkpoint-every=64 off vs on), when the file has
    it, must carry positive ledger_off_us/ledger_on_us and a matching
    ledger_overhead_pct.
  * BENCH_campaign.json — the campaign scaling sweep written by
    bench_campaign. Must parse, cover jobs ∈ {1,2,4,8}, and report
    merged_identical=true everywhere (the determinism cross-check the
    bench performs on its own results). Samples marked timed=false
    (job counts oversubscribing the host) are exempt from timing
    fields — their wall time is scheduler noise by construction.

Compare mode (the CI perf-regression gate):

  check_bench.py --compare OLD.json NEW.json

  Both files must be the same bench (detected from the "bench" field).
  Per-iteration wall times are compared — campaign_scaling compares
  wall_us/(kernels*iterations) for each jobs value timed in BOTH
  files; profile_overhead compares the profile and ledger off/on legs
  (a leg only one file carries is skipped) and, when both files carry
  a "stages" object, each stage's mean ns. A slowdown
  above 25% fails (exit 1); 10–25% prints a warning but passes, since
  the CI runners are shared and noisy. Speedups always pass.

Usage: check_bench.py [repo_root]
       check_bench.py --compare old.json new.json

Registered as the `check_bench` ctest (validate mode); exits non-zero
(with a diagnostic on stderr) on the first violation. Regenerate the
baselines with `build/bench/bench_obs` / `build/bench/bench_campaign`
run from the repo root.
"""

import json
import sys
from pathlib import Path

OVERHEAD_BUDGET_PCT = 5.0
FAIL_REGRESSION_PCT = 25.0
WARN_REGRESSION_PCT = 10.0
LEDGER_KEYS = ("ledger_off_us", "ledger_on_us", "ledger_overhead_pct")


def fail(msg):
    print(f"check_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    if not path.exists():
        fail(f"{path.name} missing — run the bench from the repo root")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as e:
        fail(f"{path.name} is not valid JSON: {e}")


def pos_int(doc, name, key):
    v = doc.get(key)
    if not isinstance(v, int) or isinstance(v, bool) or v <= 0:
        fail(f"{name}: bad {key} {v!r}")
    return v


def overhead(doc, off, on, key):
    """The doc's @key percentage, checked against its off/on times."""
    pct = doc.get(key)
    if not isinstance(pct, (int, float)) or isinstance(pct, bool):
        fail(f"BENCH_obs.json: bad {key} {pct!r}")
    recomputed = 100.0 * (on - off) / off
    if abs(recomputed - pct) > 0.01:
        fail(f"BENCH_obs.json: {key} {pct} does not match off/on times "
             f"({recomputed:.3f})")
    return pct


def check_obs(root):
    doc = load(root / "BENCH_obs.json")
    if doc.get("bench") != "profile_overhead":
        fail(f"BENCH_obs.json: unexpected bench {doc.get('bench')!r}")
    if not doc.get("kernel"):
        fail("BENCH_obs.json: missing kernel")
    pos_int(doc, "BENCH_obs.json", "iterations")
    pos_int(doc, "BENCH_obs.json", "reps")
    off = pos_int(doc, "BENCH_obs.json", "profile_off_us")
    on = pos_int(doc, "BENCH_obs.json", "profile_on_us")
    pct = overhead(doc, off, on, "overhead_pct")
    # Baselines written before bench_obs grew the row-path A/B lack
    # its fields; any of them present means all must be valid.
    ledger = "no row-path A/B in this baseline"
    if any(k in doc for k in LEDGER_KEYS):
        ledger_pct = overhead(
            doc, pos_int(doc, "BENCH_obs.json", "ledger_off_us"),
            pos_int(doc, "BENCH_obs.json", "ledger_on_us"),
            "ledger_overhead_pct")
        ledger = f"-ledger -checkpoint {ledger_pct:+.2f}%"
    if pct >= OVERHEAD_BUDGET_PCT:
        fail(f"BENCH_obs.json: -profile overhead {pct:.2f}% exceeds "
             f"the {OVERHEAD_BUDGET_PCT}% budget")
    stages = doc.get("stages")
    if stages is not None and not isinstance(stages, dict):
        fail(f"BENCH_obs.json: bad stages {type(stages).__name__}")
    print(f"check_bench: OK — BENCH_obs.json: -profile overhead "
          f"{pct:+.2f}% over {doc['iterations']} iterations "
          f"(budget {OVERHEAD_BUDGET_PCT}%); {ledger}")


def check_campaign(root):
    doc = load(root / "BENCH_campaign.json")
    if doc.get("bench") != "campaign_scaling":
        fail(f"BENCH_campaign.json: unexpected bench "
             f"{doc.get('bench')!r}")
    pos_int(doc, "BENCH_campaign.json", "kernels")
    pos_int(doc, "BENCH_campaign.json", "iterations")
    pos_int(doc, "BENCH_campaign.json", "host_cores")
    samples = doc.get("samples")
    if not isinstance(samples, list) or not samples:
        fail("BENCH_campaign.json: missing samples array")
    jobs_seen = []
    timed_count = 0
    for s in samples:
        name = f"BENCH_campaign.json jobs={s.get('jobs')}"
        jobs_seen.append(s.get("jobs"))
        pos_int(s, name, "wall_us")
        if not isinstance(s.get("timed"), bool):
            fail(f"{name}: missing timed flag")
        if s["timed"]:
            timed_count += 1
            ips = s.get("iters_per_sec")
            if not isinstance(ips, (int, float)) or isinstance(ips, bool) \
                    or ips <= 0:
                fail(f"{name}: bad iters_per_sec {ips!r}")
            spd = s.get("speedup")
            if not isinstance(spd, (int, float)) or isinstance(spd, bool) \
                    or spd <= 0:
                fail(f"{name}: bad speedup {spd!r}")
        if s.get("merged_identical") is not True:
            fail(f"{name}: not merged_identical — determinism violation")
    if jobs_seen != [1, 2, 4, 8]:
        fail(f"BENCH_campaign.json: samples cover jobs {jobs_seen}, "
             f"expected [1, 2, 4, 8]")
    if timed_count == 0:
        fail("BENCH_campaign.json: no timed samples (jobs=1 must "
             "always be timed)")
    print(f"check_bench: OK — BENCH_campaign.json: "
          f"{len(samples)} job count(s), {timed_count} timed, "
          f"all merged_identical")


def delta_pct(old, new):
    return 100.0 * (new - old) / old if old else 0.0


def classify(label, old, new, problems):
    """Record one metric comparison; returns the formatted delta."""
    pct = delta_pct(old, new)
    if pct > FAIL_REGRESSION_PCT:
        problems.append(("fail", label, pct))
    elif pct > WARN_REGRESSION_PCT:
        problems.append(("warn", label, pct))
    return pct


def compare_campaign(old, new, problems):
    def per_iter(doc, sample):
        total = doc["kernels"] * doc["iterations"]
        return sample["wall_us"] / total if total else 0.0

    old_by_jobs = {s.get("jobs"): s for s in old.get("samples", [])}
    compared = 0
    for s in new.get("samples", []):
        o = old_by_jobs.get(s.get("jobs"))
        # Legacy baselines lack the timed flag; they were always timed.
        if not o or not s.get("timed", True) or not o.get("timed", True):
            continue
        ou, nu = per_iter(old, o), per_iter(new, s)
        if not ou or not nu:
            continue
        label = f"campaign jobs={s['jobs']} per-iteration wall"
        pct = classify(label, ou, nu, problems)
        print(f"  {label}: {ou:.1f} -> {nu:.1f} us/iter ({pct:+.1f}%)")
        compared += 1
    if not compared:
        fail("--compare: no timed jobs values common to both files")


def compare_obs(old, new, problems):
    def per_iter(doc, key):
        return doc.get(key, 0) / doc["iterations"] \
            if doc.get("iterations") else 0.0

    for key, label in (("profile_off_us", "obs profile-off wall"),
                       ("profile_on_us", "obs profile-on wall"),
                       ("ledger_off_us", "obs ledger-off wall"),
                       ("ledger_on_us", "obs ledger+checkpoint wall")):
        ou, nu = per_iter(old, key), per_iter(new, key)
        if not ou or not nu:
            continue
        pct = classify(label, ou, nu, problems)
        print(f"  {label}: {ou:.1f} -> {nu:.1f} us/iter ({pct:+.1f}%)")
    old_stages = old.get("stages") or {}
    new_stages = new.get("stages") or {}
    for stage in sorted(set(old_stages) & set(new_stages)):
        os_, ns = old_stages[stage], new_stages[stage]
        o_mean = os_["sum_ns"] / os_["count"] if os_.get("count") else 0.0
        n_mean = ns["sum_ns"] / ns["count"] if ns.get("count") else 0.0
        if not o_mean or not n_mean:
            continue
        # Per-stage means are informational context for the wall-time
        # verdict: print the delta but only warn, never fail — a single
        # stage's sampled mean is too noisy to gate on alone.
        pct = delta_pct(o_mean, n_mean)
        if pct > FAIL_REGRESSION_PCT:
            problems.append(("warn", f"obs stage {stage} mean", pct))
        print(f"  obs stage {stage}: mean {o_mean:.0f} -> "
              f"{n_mean:.0f} ns ({pct:+.1f}%)")


def compare(old_path, new_path):
    old = load(old_path)
    new = load(new_path)
    bench = new.get("bench")
    if old.get("bench") != bench:
        fail(f"--compare: bench mismatch: {old.get('bench')!r} vs "
             f"{bench!r}")
    print(f"check_bench: comparing {bench}: "
          f"{old_path.name} (old) vs {new_path.name} (new)")
    problems = []
    if bench == "campaign_scaling":
        compare_campaign(old, new, problems)
    elif bench == "profile_overhead":
        compare_obs(old, new, problems)
    else:
        fail(f"--compare: unknown bench {bench!r}")
    failures = [p for p in problems if p[0] == "fail"]
    for kind, label, pct in problems:
        stream = sys.stderr if kind == "fail" else sys.stdout
        word = "REGRESSION" if kind == "fail" else "warning"
        print(f"check_bench: {word}: {label} slowed {pct:+.1f}% "
              f"(fail >{FAIL_REGRESSION_PCT:.0f}%, warn "
              f">{WARN_REGRESSION_PCT:.0f}%)", file=stream)
    if failures:
        sys.exit(1)
    print("check_bench: OK — no regression beyond "
          f"{FAIL_REGRESSION_PCT:.0f}%")


def main():
    args = sys.argv[1:]
    if args and args[0] == "--compare":
        if len(args) != 3:
            fail("usage: check_bench.py --compare old.json new.json")
        compare(Path(args[1]), Path(args[2]))
        return
    root = Path(args[0]) if args \
        else Path(__file__).resolve().parent.parent
    check_obs(root)
    check_campaign(root)


if __name__ == "__main__":
    main()
