#!/usr/bin/env python3
"""End-to-end validator for the goat campaign telemetry.

Runs a tiny campaign through the goat CLI with -ledger and
-chrome-trace, then validates both artifacts with a real JSON parser:

  * the ledger is JSONL — one valid object per iteration, with the
    stable key set documented in src/obs/ledger.hh and sane types;
  * the Chrome trace is one JSON document in trace_event format, with
    a named track per goroutine, duration events for blocking
    episodes, and s/f flow pairs that share an id;
  * a second campaign at -jobs=4 yields worker-tagged rows (paired
    worker/wseq, monotone per-worker wseq, no duplicate global ids)
    whose canonical content matches the -jobs=1 ledger exactly;
  * with -record, the bug row carries the recipe path, the recipe file
    is byte-identical between -jobs=1 and -jobs=4, and replaying it
    through `goat -replay=` exits 0 (exact reproduction asserted by
    the binary itself);
  * with -profile, every row carries a "profile" object of per-stage
    {total,count,sum_ns} rows whose deterministic subset (total and
    the counter-sampled count — sum_ns is wall-clock noise) is
    byte-identical between -jobs=1 and -jobs=4;
  * with -predict, every row carries a "predicted" count, rows whose
    iteration contributed confirmed predictions carry
    "predicted_confirmed" (never above "predicted"), and both the
    canonical ledger rows and the -predict-out findings document are
    byte-identical between -jobs=1 and -jobs=4;
  * with -cov, rows carry the paired covered/req_total counters
    (covered monotone nondecreasing, never above req_total), and the
    -saturation-out JSONL series is byte-identical between -jobs=1
    and -jobs=4 with its standalone HTML report alongside;
  * an -isolate campaign (forked shards under the supervisor) yields
    the same canonical rows as the in-process -jobs=1 run, and its
    -cov -report stdout the same "-- coverage requirements --" table;
  * a supervised campaign over the hostile_segfault fixture survives
    real child crashes: exit 0, classified "crashed" rows carrying
    crash_cause/respawns, and passing rows interleaved;
  * a long -race -keep-going campaign with a checkpoint round every
    100 rows (1200 rows: several 256-row ledger writes, commits and
    reuses of every iteration record) has the same canonical rows at
    -jobs=1 and -jobs=4, and every commit records the ledger end of
    its cursor's row.

Usage: check_ledger.py /path/to/goat [kernel]

Registered as the `check_ledger` ctest; exits non-zero (with a
diagnostic on stderr) on the first violation.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

LEDGER_KEYS = {
    "iter": int,
    "seed": int,
    "delay_bound": int,
    "outcome": str,
    "verdict": str,
    "bug": bool,
    "steps": int,
    "coverage_pct": float,
    "wall_us": int,
    "metrics": dict,
}


PROFILE_STAGES = {"fiber_switch", "chan_op", "trace_append",
                  "perturb_decision", "merge"}


def fail(msg):
    print(f"check_ledger: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_counter(i, obj, key, minimum=0):
    v = obj[key]
    if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
        fail(f"ledger line {i}: bad {key} {v!r}")
    return v


def check_ledger(path, expect_min_lines):
    lines = path.read_text().splitlines()
    if len(lines) < expect_min_lines:
        fail(f"ledger has {len(lines)} lines, expected >= {expect_min_lines}")
    prev_iter = 0
    seen_iters = set()
    wseq_of_worker = {}
    prev_covered = 0
    for i, line in enumerate(lines, 1):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"ledger line {i} is not valid JSON: {e}")
        for key, typ in LEDGER_KEYS.items():
            if key == "coverage_pct" and key not in obj:
                continue  # omitted when coverage is not measured
            if key not in obj:
                fail(f"ledger line {i} missing key '{key}': {line}")
            val = obj[key]
            if typ is float:
                ok = isinstance(val, (int, float)) and not isinstance(val, bool)
            elif typ is int:
                ok = isinstance(val, int) and not isinstance(val, bool)
            else:
                ok = isinstance(val, typ)
            if not ok:
                fail(f"ledger line {i} key '{key}' has type "
                     f"{type(val).__name__}, expected {typ.__name__}")
        if obj["iter"] != prev_iter + 1:
            fail(f"ledger line {i}: iter {obj['iter']} does not follow "
                 f"{prev_iter}")
        if obj["iter"] in seen_iters:
            fail(f"ledger line {i}: duplicate global iter {obj['iter']}")
        seen_iters.add(obj["iter"])
        prev_iter = obj["iter"]
        # Worker-tagged campaign rows: "worker" and "wseq" come as a
        # pair, the worker id is a 0-based int, and each worker's wseq
        # is its own strictly monotone 1-based sequence.
        if ("worker" in obj) != ("wseq" in obj):
            fail(f"ledger line {i}: worker/wseq must appear together")
        if "worker" in obj:
            w, s = obj["worker"], obj["wseq"]
            if not isinstance(w, int) or isinstance(w, bool) or w < 0:
                fail(f"ledger line {i}: bad worker id {w!r}")
            if not isinstance(s, int) or isinstance(s, bool) or s < 1:
                fail(f"ledger line {i}: bad wseq {s!r}")
            if s <= wseq_of_worker.get(w, 0):
                fail(f"ledger line {i}: worker {w} wseq {s} not "
                     f"greater than {wseq_of_worker[w]}")
            wseq_of_worker[w] = s
        metrics = obj["metrics"]
        for section in ("counters", "gauges", "histograms"):
            if section not in metrics:
                fail(f"ledger line {i} metrics missing '{section}'")
        if obj["bug"] and obj["verdict"] == "pass" \
                and obj["outcome"] == "ok":
            fail(f"ledger line {i}: bug=true but outcome/verdict clean")
        # Supervised-loss rows (forked shard died or tripped the
        # watchdog): synthesized by the parent, so no steps/schedule,
        # always flagged as bugs, and the only rows that may carry
        # crash_cause / respawns.
        loss = obj["outcome"] in ("crashed", "timeout")
        if loss:
            want = "crash" if obj["outcome"] == "crashed" else "timeout"
            if obj["verdict"] != want:
                fail(f"ledger line {i}: {obj['outcome']} row has "
                     f"verdict {obj['verdict']!r}, expected {want!r}")
            if not obj["bug"]:
                fail(f"ledger line {i}: supervised loss with bug=false")
            if obj["steps"] != 0:
                fail(f"ledger line {i}: loss row has steps "
                     f"{obj['steps']}, expected 0")
        if "crash_cause" in obj:
            v = obj["crash_cause"]
            if obj["outcome"] != "crashed":
                fail(f"ledger line {i}: crash_cause on outcome "
                     f"{obj['outcome']!r}")
            if not isinstance(v, str) or not v:
                fail(f"ledger line {i}: bad crash_cause {v!r}")
        if "respawns" in obj:
            if not loss:
                fail(f"ledger line {i}: respawns on a non-loss row")
            check_counter(i, obj, "respawns")
        # Repro fields are optional and only legal on bug rows.
        if "recipe" in obj:
            if not obj["bug"]:
                fail(f"ledger line {i}: recipe on a non-bug row")
            if not isinstance(obj["recipe"], str) or not obj["recipe"]:
                fail(f"ledger line {i}: bad recipe path {obj['recipe']!r}")
        if "min_yields" in obj:
            if not obj["bug"]:
                fail(f"ledger line {i}: min_yields on a non-bug row")
            v = obj["min_yields"]
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                fail(f"ledger line {i}: bad min_yields {v!r}")
        # Saturation counters: covered/req_total come as a pair of
        # cumulative ints derived from the canonical merged coverage
        # fold — covered never exceeds the requirement universe and
        # never shrinks (the universe itself may grow).
        if ("covered" in obj) != ("req_total" in obj):
            fail(f"ledger line {i}: covered/req_total must pair")
        if "covered" in obj:
            if "coverage_pct" not in obj:
                fail(f"ledger line {i}: covered without coverage_pct")
            cov = check_counter(i, obj, "covered")
            tot = check_counter(i, obj, "req_total")
            if cov > tot:
                fail(f"ledger line {i}: covered {cov} > req_total {tot}")
            if cov < prev_covered:
                fail(f"ledger line {i}: covered {cov} shrank from "
                     f"{prev_covered}")
            prev_covered = cov
        # Stage-profiler rows: per-stage {total,count,sum_ns}, stage
        # names from the fixed enum, sampled count never above the
        # entry total.
        if "profile" in obj:
            prof = obj["profile"]
            if not isinstance(prof, dict) or not prof:
                fail(f"ledger line {i}: bad profile object {prof!r}")
            for stage, hist in prof.items():
                if stage not in PROFILE_STAGES:
                    fail(f"ledger line {i}: unknown profile stage "
                         f"'{stage}'")
                if not isinstance(hist, dict):
                    fail(f"ledger line {i}: profile stage '{stage}' "
                         f"is not an object")
                if set(hist) != {"total", "count", "sum_ns"}:
                    fail(f"ledger line {i}: profile stage '{stage}' "
                         f"keys {sorted(hist)}")
                total = check_counter(i, hist, "total")
                count = check_counter(i, hist, "count")
                check_counter(i, hist, "sum_ns")
                if count > total:
                    fail(f"ledger line {i}: profile stage '{stage}' "
                         f"count {count} > total {total}")
        # Predictive-analysis fields: predicted on every row of a
        # -predict campaign; predicted_confirmed only alongside it,
        # bounded by that iteration's raw prediction count.
        if "predicted" in obj:
            check_counter(i, obj, "predicted")
        if "predicted_confirmed" in obj:
            if "predicted" not in obj:
                fail(f"ledger line {i}: predicted_confirmed without "
                     f"predicted")
            v = check_counter(i, obj, "predicted_confirmed", minimum=1)
            if v > obj["predicted"]:
                fail(f"ledger line {i}: predicted_confirmed {v} "
                     f"exceeds predicted {obj['predicted']}")
        # Lint-bridge fields: static_warnings on every row of a
        # lint-guided campaign, confirmed_warnings only on bug rows
        # and never without the bridge active.
        if "static_warnings" in obj:
            v = obj["static_warnings"]
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                fail(f"ledger line {i}: bad static_warnings {v!r}")
        if "confirmed_warnings" in obj:
            if not obj["bug"]:
                fail(f"ledger line {i}: confirmed_warnings on a "
                     f"non-bug row")
            if "static_warnings" not in obj:
                fail(f"ledger line {i}: confirmed_warnings without "
                     f"static_warnings")
            v = obj["confirmed_warnings"]
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                fail(f"ledger line {i}: bad confirmed_warnings {v!r}")
            if v > obj["static_warnings"]:
                fail(f"ledger line {i}: confirmed_warnings {v} exceeds "
                     f"static_warnings {obj['static_warnings']}")
    return lines


def check_chrome_trace(path):
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        fail(f"chrome trace is not valid JSON: {e}")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("chrome trace has no traceEvents array")

    tids = {e["tid"] for e in events if "tid" in e}
    named = {e["tid"]: e["args"]["name"] for e in events
             if e.get("ph") == "M" and e.get("name") == "thread_name"}
    for tid in tids:
        if tid not in named:
            fail(f"track tid={tid} has no thread_name metadata")
    app_tracks = [n for n in named.values() if n.startswith("G")]
    if not app_tracks:
        fail("no goroutine tracks in chrome trace")

    durations = [e for e in events if e.get("ph") == "X"]
    if not durations:
        fail("no duration (blocking-episode) events in chrome trace")
    for e in durations:
        if "dur" not in e or e["dur"] < 0:
            fail(f"duration event without sane dur: {e}")

    starts = {e["id"] for e in events if e.get("ph") == "s"}
    finishes = {e["id"] for e in events if e.get("ph") == "f"}
    if starts != finishes:
        fail(f"unpaired flow ids: starts={starts} finishes={finishes}")

    for e in events:
        if "ts" not in e and e.get("ph") != "M":
            fail(f"event without ts: {e}")
    return events, starts


def canonical_rows(lines):
    """Ledger rows minus the host-dependent fields (timing, metrics)
    and the worker assignment, which legitimately differ between runs
    of the same campaign at different -jobs values."""
    rows = []
    for line in lines:
        obj = json.loads(line)
        # "recipe" holds the caller-chosen -record path, which differs
        # between the two campaigns by construction; "respawns" counts
        # the owning shard's prior deaths, a wall-clock accident of
        # where earlier crashes landed.
        for key in ("wall_us", "metrics", "worker", "wseq", "recipe",
                    "respawns"):
            obj.pop(key, None)
        # Profile sum_ns is sampled wall time (host noise); the entry
        # counters total/count are deterministic and stay canonical.
        for hist in obj.get("profile", {}).values():
            hist.pop("sum_ns", None)
        rows.append(obj)
    return rows


def run_goat(goat, kernel, iterations, ledger, trace=None, jobs=None,
             record=None, lint_guided=False, extra=(), delay=2,
             cov=True):
    cmd = [goat, f"-kernel={kernel}", f"-d={delay}",
           f"-freq={iterations}"]
    if cov:
        cmd.append("-cov")
    cmd.append(f"-ledger={ledger}")
    if trace is not None:
        cmd.append(f"-chrome-trace={trace}")
    if jobs is not None:
        cmd.append(f"-jobs={jobs}")
    if record is not None:
        cmd.append(f"-record={record}")
    if lint_guided:
        cmd.append("-lint-guided")
    cmd.extend(extra)
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=90)
    if proc.returncode != 0:
        fail(f"goat exited {proc.returncode}: {proc.stdout}"
             f"{proc.stderr}")
    if not ledger.exists():
        fail(f"ledger file not written (cmd: {' '.join(cmd)})")
    return proc.stdout


COV_TABLE = "\n-- coverage requirements --\n"


def coverage_table(stdout, what):
    """The coverage requirements table of a single-kernel -cov -report
    run: the last section of its stdout."""
    at = stdout.find(COV_TABLE)
    if at < 0:
        fail(f"{what}: stdout has no coverage requirements table")
    return stdout[at + len(COV_TABLE):]


def check_recipe_roundtrip(goat, kernel, recipe1, recipe4):
    """Recipe capture must be jobs-independent and replayable."""
    if not recipe1.exists() or not recipe4.exists():
        fail("bug found but recipe file(s) not written")
    if recipe1.read_bytes() != recipe4.read_bytes():
        fail("-jobs=4 recipe differs from -jobs=1 recipe")
    if not recipe1.read_text().startswith("# goat-recipe v1"):
        fail("recipe file lacks the v1 magic header")
    proc = subprocess.run(
        [goat, f"-kernel={kernel}", f"-replay={recipe1}"],
        capture_output=True, text=True, timeout=90)
    if proc.returncode != 0:
        fail(f"replay of recorded recipe exited {proc.returncode}: "
             f"{proc.stdout}{proc.stderr}")


def main():
    if len(sys.argv) < 2:
        fail("usage: check_ledger.py /path/to/goat [kernel]")
    goat = sys.argv[1]
    kernel = sys.argv[2] if len(sys.argv) > 2 else "cockroach_1055"
    iterations = 25

    with tempfile.TemporaryDirectory(prefix="goat_ledger_") as tmp:
        ledger = Path(tmp) / "run.jsonl"
        trace = Path(tmp) / "trace.json"
        recipe1 = Path(tmp) / "bug.recipe"
        table = coverage_table(
            run_goat(goat, kernel, iterations, ledger, trace=trace,
                     record=recipe1, extra=["-report"]),
            "in-process run")

        lines = check_ledger(ledger, expect_min_lines=1)

        # The same campaign fanned over 4 workers must produce a
        # ledger with identical canonical content (same rows, same
        # seeds/outcomes/verdicts/coverage) and valid worker tags.
        ledger4 = Path(tmp) / "run_j4.jsonl"
        recipe4 = Path(tmp) / "bug_j4.recipe"
        run_goat(goat, kernel, iterations, ledger4, jobs=4,
                 record=recipe4)
        lines4 = check_ledger(ledger4, expect_min_lines=1)
        if canonical_rows(lines) != canonical_rows(lines4):
            fail("-jobs=4 ledger content differs from -jobs=1")
        bug_found = any(json.loads(l)["bug"] for l in lines)
        if bug_found:
            if not trace.exists():
                fail("bug found but no chrome trace written")
            events, flows = check_chrome_trace(trace)
            bug_rows = [json.loads(l) for l in lines
                        if json.loads(l)["bug"]]
            if not any("recipe" in r for r in bug_rows):
                fail("bug row does not reference the recorded recipe")
            check_recipe_roundtrip(goat, kernel, recipe1, recipe4)
            print(f"check_ledger: OK — {len(lines)} ledger line(s) "
                  f"(identical at -jobs=4), {len(events)} trace "
                  f"event(s), {len(flows)} flow pair(s), recipe "
                  f"round-trip replayed")
        else:
            print(f"check_ledger: OK — {len(lines)} ledger line(s) "
                  f"(identical at -jobs=4), no bug surfaced so no "
                  f"trace expected")

        # Process-isolated campaign: the same iterations executed in
        # forked shard children and folded through the supervisor's
        # pipe protocol must reproduce the in-process canonical rows
        # exactly (seed partitioning makes shard placement
        # irrelevant; worker/wseq/respawns are stripped as
        # placement accidents).
        isol = Path(tmp) / "isolate.jsonl"
        itable = coverage_table(
            run_goat(goat, kernel, iterations, isol, jobs=3,
                     extra=["-isolate", "-report"]),
            "-isolate run")
        ilines = check_ledger(isol, expect_min_lines=1)
        if canonical_rows(lines) != canonical_rows(ilines):
            fail("-isolate ledger content differs from in-process")
        if itable != table:
            fail("-isolate coverage requirements table differs from "
                 "in-process")
        print(f"check_ledger: OK — isolated campaign: {len(ilines)} "
              f"row(s) and the coverage table ({table.count(chr(10))} "
              f"line(s)) identical to the in-process run")

        # Supervised crash triage: the hostile_segfault fixture
        # genuinely segfaults its shard when the perturber delays the
        # publisher. The campaign must survive every death (exit 0),
        # classify each as a "crashed"/"sigsegv" row, and keep
        # executing the surrounding iterations.
        chaos = Path(tmp) / "chaos.jsonl"
        run_goat(goat, "hostile_segfault", 12, chaos, jobs=2,
                 cov=False, extra=["-isolate"])
        crows = [json.loads(l)
                 for l in check_ledger(chaos, expect_min_lines=12)]
        crashed = [r for r in crows if r["outcome"] == "crashed"]
        if not crashed:
            fail("hostile_segfault campaign produced no crash row")
        for r in crashed:
            if r.get("crash_cause") != "sigsegv":
                fail(f"crash row {r['iter']} classified "
                     f"{r.get('crash_cause')!r}, expected 'sigsegv'")
        if not any(r["outcome"] == "ok" for r in crows):
            fail("hostile_segfault campaign has no passing rows "
                 "(crashes must not stop the campaign)")
        print(f"check_ledger: OK — supervised campaign: "
              f"{len(crashed)} classified crash(es) among "
              f"{len(crows)} row(s), campaign survived")

        # Lint-guided campaigns stamp static_warnings on every row
        # (and confirmed_warnings on the bug row); both are computed
        # from campaign-deterministic inputs, so the jobs=1 vs jobs=4
        # byte-identity guarantee extends to them — note that
        # canonical_rows() deliberately KEEPS the lint fields.
        lintl1 = Path(tmp) / "lint_j1.jsonl"
        lintl4 = Path(tmp) / "lint_j4.jsonl"
        run_goat(goat, kernel, iterations, lintl1, lint_guided=True,
                 cov=True)
        run_goat(goat, kernel, iterations, lintl4, jobs=4,
                 lint_guided=True, cov=True)
        lrows1 = check_ledger(lintl1, expect_min_lines=1)
        lrows4 = check_ledger(lintl4, expect_min_lines=1)
        for i, line in enumerate(lrows1, 1):
            obj = json.loads(line)
            if "static_warnings" not in obj:
                fail(f"lint-guided ledger line {i} lacks "
                     f"static_warnings")
            if obj["bug"] and "confirmed_warnings" not in obj:
                fail(f"lint-guided ledger bug row {i} lacks "
                     f"confirmed_warnings")
        if canonical_rows(lrows1) != canonical_rows(lrows4):
            fail("lint-guided -jobs=4 ledger differs from -jobs=1")
        print(f"check_ledger: OK — lint-guided campaign: "
              f"{len(lrows1)} row(s), static/confirmed warning "
              f"stamps identical at -jobs=4")

        # MHP-pruned campaigns seed the perturber from the static MHP
        # pair set — a pure function of the kernel source, identical
        # across workers — so the jobs=1 vs jobs=4 byte-identity
        # guarantee must extend to -mhp-prune unchanged, with -cov on:
        # the priority policy must not read the worker's coverage. The
        # seed-1 leg is a schedule that exposed such a leak.
        for seed, iters in ((None, iterations), (1, 20)):
            extra = ["-mhp-prune"]
            if seed is not None:
                extra.append(f"-seed={seed}")
            mhpl1 = Path(tmp) / f"mhp_j1_{seed}.jsonl"
            mhpl4 = Path(tmp) / f"mhp_j4_{seed}.jsonl"
            run_goat(goat, kernel, iters, mhpl1, extra=extra, cov=True)
            run_goat(goat, kernel, iters, mhpl4, jobs=4, extra=extra,
                     cov=True)
            mrows1 = check_ledger(mhpl1, expect_min_lines=1)
            mrows4 = check_ledger(mhpl4, expect_min_lines=1)
            if canonical_rows(mrows1) != canonical_rows(mrows4):
                fail(f"-mhp-prune -cov (seed {seed}) -jobs=4 ledger "
                     f"differs from -jobs=1")
            print(f"check_ledger: OK — mhp-pruned -cov campaign (seed "
                  f"{seed}): {len(mrows1)} row(s), canonical content "
                  f"identical at -jobs=4")

        # Predictive campaign: every row of a -predict run carries the
        # predicted stamp, confirmed iterations carry
        # predicted_confirmed, and the merged findings document plus
        # the canonical ledger rows are byte-identical between -jobs=1
        # and -jobs=4 (the confirmation replays run on the campaign
        # thread after the deterministic merge — docs/ANALYSIS.md §7).
        # cockroach_7504 at D=0 passes its schedules, which is exactly
        # the predictive tier's input: bugs inferred without ever
        # driving the bad interleaving.
        predl1 = Path(tmp) / "pred_j1.jsonl"
        predl4 = Path(tmp) / "pred_j4.jsonl"
        pred1 = Path(tmp) / "pred_j1.json"
        pred4 = Path(tmp) / "pred_j4.json"
        run_goat(goat, "cockroach_7504", 8, predl1, delay=0, cov=False,
                 extra=["-predict", f"-predict-out={pred1}"])
        run_goat(goat, "cockroach_7504", 8, predl4, jobs=4, delay=0,
                 cov=False, extra=["-predict", f"-predict-out={pred4}"])
        drows1 = check_ledger(predl1, expect_min_lines=1)
        drows4 = check_ledger(predl4, expect_min_lines=1)
        for i, line in enumerate(drows1, 1):
            if "predicted" not in json.loads(line):
                fail(f"-predict ledger line {i} lacks predicted stamp")
        if canonical_rows(drows1) != canonical_rows(drows4):
            fail("-predict -jobs=4 ledger differs from -jobs=1")
        for pred in (pred1, pred4):
            if not pred.exists():
                fail(f"prediction findings {pred} not written")
        doc = json.loads(pred1.read_text())
        for key in ("kernel", "predicted", "confirmed", "predictions"):
            if key not in doc:
                fail(f"prediction findings missing '{key}'")
        if doc["predicted"] < 1:
            fail("predictive campaign produced no prediction")
        if doc["confirmed"] < 1:
            fail("no prediction confirmed by synthesized replay")
        if len(doc["predictions"]) != doc["predicted"]:
            fail(f"prediction count {doc['predicted']} does not match "
                 f"{len(doc['predictions'])} findings")
        for p in doc["predictions"]:
            for key in ("kind", "iter", "obj", "gid_a", "loc_a",
                        "vc_a", "gid_b", "loc_b", "vc_b", "delay_gid",
                        "delay_loc", "detail", "confirmed"):
                if key not in p:
                    fail(f"prediction finding missing '{key}': {p}")
            if p["confirmed"] and "confirm_verdict" not in p:
                fail(f"confirmed finding lacks confirm_verdict: {p}")
        if pred1.read_bytes() != pred4.read_bytes():
            fail("-jobs=4 prediction findings differ from -jobs=1")
        print(f"check_ledger: OK — predictive campaign: "
              f"{doc['predicted']} prediction(s), {doc['confirmed']} "
              f"confirmed, findings byte-identical at -jobs=4")

        # Observability campaign: -profile stamps per-stage histogram
        # rows (deterministic entry counters canonical across -jobs),
        # and -saturation-out emits a JSONL series derived from the
        # canonical merged coverage fold, so both the series and its
        # HTML report must be byte-identical between -jobs=1 and
        # -jobs=4.
        profl1 = Path(tmp) / "prof_j1.jsonl"
        profl4 = Path(tmp) / "prof_j4.jsonl"
        sat1 = Path(tmp) / "sat_j1.jsonl"
        sat4 = Path(tmp) / "sat_j4.jsonl"
        run_goat(goat, kernel, iterations, profl1,
                 extra=["-profile", f"-saturation-out={sat1}"])
        run_goat(goat, kernel, iterations, profl4, jobs=4,
                 extra=["-profile", f"-saturation-out={sat4}"])
        prows1 = check_ledger(profl1, expect_min_lines=1)
        prows4 = check_ledger(profl4, expect_min_lines=1)
        for i, line in enumerate(prows1, 1):
            obj = json.loads(line)
            if "profile" not in obj:
                fail(f"-profile ledger line {i} lacks profile stamp")
            if "covered" not in obj:
                fail(f"-cov ledger line {i} lacks covered/req_total")
        if canonical_rows(prows1) != canonical_rows(prows4):
            fail("-profile -jobs=4 ledger differs from -jobs=1 "
                 "(profile entry counters must be deterministic)")
        for sat in (sat1, sat4):
            if not sat.exists():
                fail(f"saturation series {sat} not written")
            html = Path(str(sat) + ".html")
            if not html.exists() or "<svg" not in html.read_text():
                fail(f"saturation HTML report {html} missing or "
                     f"lacks the inline SVG chart")
            for i, line in enumerate(
                    sat.read_text().splitlines(), 1):
                row = json.loads(line)
                for key in ("iter", "covered", "total", "pct",
                            "blocked", "unblocking", "nop",
                            "blocking"):
                    if key not in row:
                        fail(f"saturation line {i} missing '{key}'")
                if row["iter"] != i:
                    fail(f"saturation line {i} has iter "
                         f"{row['iter']}")
        if sat1.read_bytes() != sat4.read_bytes():
            fail("-jobs=4 saturation series differs from -jobs=1")
        n_sat = len(sat1.read_text().splitlines())
        if n_sat != len(prows1):
            fail(f"saturation series has {n_sat} samples for "
                 f"{len(prows1)} ledger rows")
        print(f"check_ledger: OK — observability campaign: profile "
              f"stamps canonical at -jobs=4, saturation series "
              f"({n_sat} sample(s)) byte-identical, HTML report "
              f"present")

        # Long cross-jobs leg: 1200 rows span several 256-row ledger
        # writes and 12 checkpoint commits, and every iteration record
        # is reused many times per worker. A record that carried a
        # field into its next iteration, or a write that lost or
        # reordered staged rows, shows up as a canonical difference.
        long_rows = []
        for jobs in (1, 4):
            longl = Path(tmp) / f"long_j{jobs}.jsonl"
            longck = Path(tmp) / f"long_j{jobs}.ck"
            run_goat(goat, "etcd_7443", 1200, longl, jobs=jobs,
                     extra=["-race", "-keep-going",
                            f"-checkpoint={longck}",
                            "-checkpoint-every=100"])
            rows = check_ledger(longl, expect_min_lines=1200)
            if len(rows) != 1200:
                fail(f"long -jobs={jobs} ledger has {len(rows)} rows, "
                     f"expected 1200")
            # ends[c]: the ledger's size once it holds rows 1..c.
            ends = [0]
            for line in rows:
                ends.append(ends[-1] + len(line.encode()) + 1)
            end, commits = None, 0
            for line in longck.read_text().splitlines():
                if line.startswith("state "):
                    end = int(line.rsplit(" ", 1)[1])
                elif line.startswith("commit "):
                    cursor = int(line.split()[1])
                    if end != ends[cursor]:
                        fail(f"long -jobs={jobs} commit {cursor} records "
                             f"ledger end {end}, row {cursor} ends at "
                             f"{ends[cursor]}")
                    commits += 1
            if commits != 12:
                fail(f"long -jobs={jobs} checkpoint has {commits} "
                     f"commits, expected 12")
            long_rows.append(canonical_rows(rows))
        if long_rows[0] != long_rows[1]:
            fail("long -race -keep-going -jobs=4 ledger differs from "
                 "-jobs=1")
        print("check_ledger: OK — long campaign: 1200 rows identical "
              "at -jobs=4, 12 commits at their rows' ledger ends")


if __name__ == "__main__":
    main()
