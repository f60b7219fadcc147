#!/usr/bin/env python3
"""Fault-tolerance validator: checkpoint/resume and graceful signals.

Drives the goat CLI through the failure scenarios the campaign
supervisor and checkpoint subsystem exist for, and asserts the core
durability contract: a campaign that is killed partway through and
resumed from its last checkpoint produces a merged ledger whose
canonical view is IDENTICAL to an uninterrupted run. A resume writes
no row again: it copies the committed rows from the killed run's
ledger into its -ledger file, or truncates that ledger to the last
commit when -ledger= names it.

Scenarios:

  * baseline: an uninterrupted -keep-going campaign at -jobs=1 is the
    reference ledger;
  * SIGKILL at a random mid-campaign moment, then -resume: the resumed
    run's ledger is canonical-identical to the reference, at -jobs=1
    and at -jobs=4 (and a -jobs=4 checkpoint resumes at -jobs=1 —
    the fingerprint deliberately excludes the worker count);
  * the same three kill-and-resume legs with -cov, so the resumed
    campaign restores the checkpoint's coverage bitmap: every row's
    coverage_pct/covered/req_total must match the uninterrupted -cov
    run as well as the rest of the canonical row, and so must the
    "-- coverage requirements --" table of -report stdout, also for a
    resume of the finished log (which runs no further iteration);
  * SIGKILL at the default round size (64 iterations, so rounds are
    appended to the checkpoint log back to back), then the same log
    cut at a random byte inside its last round (a torn append): both
    resume canonical-identical, the cut one from its previous commit;
  * SIGKILL a -jobs=4 -checkpoint-every=1 -cov -race soak of
    etcd_7443: committing every iteration makes the fold the
    bottleneck, so the workers run up to a reorder window ahead of the
    last commit when the kill lands; the resumed ledger (coverage
    included) is canonical-identical to an uninterrupted run, and the
    checkpoint holds at most 10% of the ledger's bytes;
  * SIGKILL an -isolate campaign (forked shards), then resume it once
    under -isolate and once in process: both ledgers are
    canonical-identical to the reference, and every commit of the
    killed log and of the isolated resume's log lands on a round
    boundary (a multiple of the round size, or the budget);
  * SIGKILL a -record campaign past its first bug (cockroach_7504 at
    -d=2 finds it at iteration 15) with 16-iteration rounds: the
    killed ledger holds at least the last commit's rows (the bug row,
    stamped with its recipe, among them), and the resume is
    canonical-identical to an uninterrupted run, its bug row the
    killed run's line and its recipe bytes equal;
  * SIGKILL a campaign, then resume it into its own ledger (and
    checkpoint), twice: the resume truncates the ledger to the last
    commit, so it ends with each row once, canonical-identical;
  * a resume whose recorded ledger is missing, cut short of the
    committed end, or rewritten in place (row 1 renumbered, same size),
    or that gives -ledger= to a log that recorded none, exits 1 and
    writes no ledger or checkpoint byte;
  * SIGTERM mid-campaign: graceful flush — the process exits 143
    (128+SIGTERM), the checkpoint and the ledger agree on the merged
    prefix, the prefix is canonical with the reference, and the
    checkpoint resumes cleanly;
  * a checkpoint written under different campaign flags is refused
    with exit 2 (fingerprint mismatch); an unreadable -resume path is
    exit 1.

Usage: check_resume.py /path/to/goat

Registered as the `check_resume` ctest; exits non-zero (with a
diagnostic on stderr) on the first violation.
"""

import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import check_ledger

KERNEL = "cockroach_7504"
DELAY = 1
ITERS = 20000
EVERY = 512
# The run-ahead leg: a soak kernel, committing every iteration.
RUNAHEAD_KERNEL = "etcd_7443"
RUNAHEAD_ITERS = 3000
# The stamped leg: -record, rounds of 16 (the first bug is at 15).
STAMPED_EVERY = 16


def fail(msg):
    print(f"check_resume: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def canonical_rows(path):
    """check_ledger.canonical_rows over the ledger file at path."""
    return check_ledger.canonical_rows(path.read_text().splitlines())


def cmd(goat, ledger, jobs=1, checkpoint=None, resume=None,
        iters=ITERS, cov=False, every=EVERY, isolate=False, report=False):
    c = [goat, f"-kernel={KERNEL}", f"-d={DELAY}", f"-freq={iters}",
         "-keep-going", f"-jobs={jobs}", f"-ledger={ledger}"]
    if isolate:
        c.append("-isolate")
    if cov:
        c.append("-cov")
    if report:
        c.append("-report")
    if checkpoint is not None:
        c.append(f"-checkpoint={checkpoint}")
        if every is not None:
            c.append(f"-checkpoint-every={every}")
    if resume is not None:
        c += [f"-resume={resume}"]
    return c


def run(goat, ledger, **kw):
    proc = subprocess.run(cmd(goat, ledger, **kw),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"goat exited {proc.returncode}: {proc.stdout}"
             f"{proc.stderr}")
    return proc.stdout


class LogTail:
    """Follows a growing checkpoint log: each poll reads only the bytes
    appended since the last one and returns the last complete commit's
    cursor (0 before the first)."""

    def __init__(self, path):
        self.path = path
        self.pos = 0
        self.line = b""
        self.cursor = 0

    def poll(self):
        if not self.path.exists():
            return 0
        with open(self.path, "rb") as f:
            f.seek(self.pos)
            data = f.read()
        self.pos += len(data)
        *done, self.line = (self.line + data).split(b"\n")
        for line in done:
            parts = line.split(b" ")
            if len(parts) == 3 and parts[0] == b"commit":
                self.cursor = int(parts[1])
        return self.cursor


def kill_mid_run(goat, ledger, checkpoint, sig, jobs=1, cov=False,
                 every=EVERY, command=None, iters=ITERS):
    """Start a checkpointed campaign (@command, or the default one),
    deliver @sig at a random point after its second checkpoint round
    commits, and return the exit status."""
    proc = subprocess.Popen(command or cmd(goat, ledger, jobs=jobs,
                                           checkpoint=checkpoint, cov=cov,
                                           every=every),
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    # A random target cursor lands the kill at an arbitrary point of
    # some later round (mid-append included), however fast the
    # campaign runs and however many bytes a round takes, and well
    # before its end.
    round_size = every or 64
    target = random.randint(min(2 * round_size, iters // 2),
                            max(2 * round_size, int(iters * 0.6)))
    tail = LogTail(checkpoint)
    deadline = time.monotonic() + 60
    while proc.poll() is None and tail.poll() < target:
        if time.monotonic() > deadline:
            fail(f"no commit at cursor {target} within 60s")
        time.sleep(0.0005)
    if proc.poll() is None:
        proc.send_signal(sig)
    elif tail.poll() == 0:
        fail(f"campaign exited {proc.returncode} before its first "
             f"checkpoint")
    proc.wait(timeout=60)
    return proc.returncode


def commits(data):
    """(cursor, end offset) of every complete, self-consistent commit
    line of a v2 checkpoint log: "commit <cursor> <offset>" ending in a
    newline, whose offset is the line's own position."""
    out = []
    pos = 0
    while True:
        nl = data.find(b"\n", pos)
        if nl < 0:
            return out
        parts = data[pos:nl].split(b" ")
        if (len(parts) == 3 and parts[0] == b"commit"
                and parts[1].isdigit() and parts[2].isdigit()
                and int(parts[2]) == pos):
            out.append((int(parts[1]), nl + 1))
        pos = nl + 1


def read_cursor(checkpoint):
    """The cursor of the log's last commit (what a resume restores)."""
    found = commits(checkpoint.read_bytes())
    if not found:
        fail(f"checkpoint {checkpoint} has no commit line")
    return found[-1][0]


def check_default_round_kill(goat, tmp, ref):
    """SIGKILL with the default 64-iteration rounds, then a torn append:
    the log cut at a random byte inside its last round."""
    ck = tmp / "kill_default.ck"
    rc = kill_mid_run(goat, tmp / "part_default.jsonl", ck,
                      signal.SIGKILL, every=None)
    if rc != -signal.SIGKILL:
        fail(f"default-round SIGKILL run exited {rc}, expected "
             f"{-signal.SIGKILL}")
    data = ck.read_bytes()
    found = commits(data)
    cursor = found[-1][0]
    if not 0 < cursor < ITERS:
        fail(f"default-round kill landed outside the campaign (cursor "
             f"{cursor}) — timing too coarse")
    if len(found) < 2:
        fail("default-round kill left fewer than two commits; cannot "
             "tear the last round")
    torn = tmp / "torn_default.ck"
    cut = random.randrange(found[-2][1], found[-1][1])
    torn.write_bytes(data[:cut])
    for path, want in ((ck, cursor), (torn, found[-2][0])):
        res = tmp / f"res_{path.stem}.jsonl"
        run(goat, res, resume=path, checkpoint=path, every=None)
        if canonical_rows(res) != ref:
            fail(f"{path.name} (cursor {want}) resumed ledger differs "
                 f"from the uninterrupted run")
    print(f"check_resume: OK — SIGKILL at iteration {cursor} with "
          f"64-iteration rounds, and the log torn at byte {cut} (last "
          f"commit {found[-2][0]}), both resume canonical-identical")


COV_FIELDS = ("coverage_pct", "covered", "req_total")


def coverage_series(rows, what):
    """The per-row (coverage_pct, covered, req_total) triples."""
    series = []
    for i, row in enumerate(rows, 1):
        missing = [k for k in COV_FIELDS if k not in row]
        if missing:
            fail(f"{what}: row {i} lacks {', '.join(missing)}")
        series.append(tuple(row[k] for k in COV_FIELDS))
    return series


def check_cov_resume(goat, tmp):
    """Kill-and-resume legs with -cov: jobs=1, jobs=4, and the jobs=4
    checkpoint resumed at jobs=1."""
    ref_ledger = tmp / "cov_ref.jsonl"
    ref_table = check_ledger.coverage_table(
        run(goat, ref_ledger, cov=True, report=True),
        "uninterrupted -cov run")
    ref = canonical_rows(ref_ledger)
    ref_cov = coverage_series(ref, "uninterrupted -cov run")
    if len(ref) != ITERS:
        fail(f"-cov reference campaign has {len(ref)} rows, expected "
             f"{ITERS}")

    def compare(path, what, stdout):
        rows = canonical_rows(path)
        if coverage_series(rows, what) != ref_cov:
            fail(f"{what}: coverage_pct/covered/req_total differ from "
                 f"the uninterrupted -cov run")
        if rows != ref:
            fail(f"{what}: ledger differs from the uninterrupted -cov "
                 f"run")
        if check_ledger.coverage_table(stdout, what) != ref_table:
            fail(f"{what}: coverage requirements table differs from "
                 f"the uninterrupted -cov run")

    for jobs in (1, 4):
        ck = tmp / f"cov_kill_j{jobs}.ck"
        part = tmp / f"cov_part_j{jobs}.jsonl"
        rc = kill_mid_run(goat, part, ck, signal.SIGKILL, jobs=jobs,
                          cov=True)
        if rc != -signal.SIGKILL:
            fail(f"-cov SIGKILL run exited {rc}, expected "
                 f"{-signal.SIGKILL}")
        cursor = read_cursor(ck)
        if not 0 < cursor < ITERS:
            fail(f"-cov jobs={jobs} kill landed outside the campaign "
                 f"(cursor {cursor}) — timing too coarse")
        if "cov_begin" not in ck.read_text():
            fail(f"-cov jobs={jobs} checkpoint carries no coverage "
                 f"bitmap")
        res = tmp / f"cov_res_j{jobs}.jsonl"
        # The jobs=1 resume extends its log to the whole budget.
        out = run(goat, res, jobs=jobs, resume=ck, cov=True, report=True,
                  checkpoint=ck if jobs == 1 else None)
        compare(res, f"-cov jobs={jobs} killed+resumed (cursor "
                     f"{cursor})", out)
        print(f"check_resume: OK — -cov SIGKILL at iteration {cursor}, "
              f"resume at -jobs={jobs} canonical-identical incl. "
              f"coverage")

    cross = tmp / "cov_cross.jsonl"
    out = run(goat, cross, jobs=1, resume=tmp / "cov_kill_j4.ck", cov=True,
              report=True)
    compare(cross, "-cov -jobs=4 checkpoint resumed at -jobs=1", out)
    print("check_resume: OK — -cov -jobs=4 checkpoint resumes at "
          "-jobs=1 canonical-identical incl. coverage")

    # A resume of the finished log runs no iteration: its rows and its
    # coverage table come from the checkpoint alone.
    done = tmp / "cov_done.jsonl"
    out = run(goat, done, resume=tmp / "cov_kill_j1.ck", cov=True,
              report=True)
    compare(done, "-cov resume of a finished log", out)
    print("check_resume: OK — -cov resume of a finished log prints the "
          "uninterrupted run's coverage table")


def check_isolate_kill(goat, tmp, ref):
    """SIGKILL an -isolate campaign, then resume it under -isolate and
    in process: both canonical-identical, every commit on a round
    boundary."""
    ck = tmp / "isolate_kill.ck"
    rc = kill_mid_run(goat, None, ck, signal.SIGKILL,
                      command=cmd(goat, tmp / "isolate_part.jsonl", jobs=2,
                                  checkpoint=ck, isolate=True))
    if rc != -signal.SIGKILL:
        fail(f"-isolate SIGKILL run exited {rc}, expected "
             f"{-signal.SIGKILL}")
    cursor = read_cursor(ck)
    if not 0 < cursor < ITERS:
        fail(f"-isolate kill landed outside the campaign (cursor "
             f"{cursor}) — timing too coarse")
    resumed_ck = tmp / "isolate_resumed.ck"
    for isolate in (True, False):
        res = tmp / f"isolate_res_{int(isolate)}.jsonl"
        run(goat, res, jobs=2, resume=ck, isolate=isolate,
            checkpoint=resumed_ck if isolate else None)
        if canonical_rows(res) != ref:
            fail(f"-isolate checkpoint (cursor {cursor}) resumed "
                 f"{'under -isolate' if isolate else 'in process'} "
                 f"differs from the uninterrupted run")
    for path in (ck, resumed_ck):
        off = [c for c, _ in commits(path.read_bytes())
               if c % EVERY != 0 and c != ITERS]
        if off:
            fail(f"{path.name}: commits off the {EVERY}-iteration round "
                 f"boundaries at cursors {off}")
    print(f"check_resume: OK — -isolate SIGKILL at iteration {cursor}, "
          f"resumed under -isolate and in process canonical-identical; "
          f"every commit on a round boundary")


def check_runahead_kill(goat, tmp):
    """SIGKILL while the workers run ahead of the last commit, then
    resume in place: canonical-identical to an uninterrupted run."""
    def soak(ledger, checkpoint=None):
        c = [goat, f"-kernel={RUNAHEAD_KERNEL}", "-d=2",
             f"-freq={RUNAHEAD_ITERS}", "-cov", "-race", "-keep-going",
             "-jobs=4", f"-ledger={ledger}"]
        if checkpoint is not None:
            c += [f"-checkpoint={checkpoint}", "-checkpoint-every=1"]
        return c

    ref_ledger = tmp / "runahead_ref.jsonl"
    proc = subprocess.run(soak(ref_ledger), capture_output=True,
                          text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"run-ahead reference exited {proc.returncode}: "
             f"{proc.stdout}{proc.stderr}")
    ref = canonical_rows(ref_ledger)
    if len(ref) != RUNAHEAD_ITERS:
        fail(f"run-ahead reference has {len(ref)} rows, expected "
             f"{RUNAHEAD_ITERS}")
    ref_cov = coverage_series(ref, "uninterrupted run-ahead soak")

    ck = tmp / "runahead.ck"
    rc = kill_mid_run(goat, None, ck, signal.SIGKILL,
                      command=soak(tmp / "runahead_part.jsonl", ck),
                      iters=RUNAHEAD_ITERS, every=1)
    if rc != -signal.SIGKILL:
        fail(f"run-ahead SIGKILL run exited {rc}, expected "
             f"{-signal.SIGKILL}")
    cursor = read_cursor(ck)
    if not 0 < cursor < RUNAHEAD_ITERS:
        fail(f"run-ahead kill landed outside the campaign (cursor "
             f"{cursor}) — timing too coarse")
    res = tmp / "runahead_res.jsonl"
    proc = subprocess.run(soak(res, ck) + [f"-resume={ck}"],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"run-ahead resume exited {proc.returncode}: "
             f"{proc.stdout}{proc.stderr}")
    rows = canonical_rows(res)
    if coverage_series(rows, "run-ahead resume") != ref_cov:
        fail("run-ahead resume: coverage_pct/covered/req_total differ "
             "from the uninterrupted run")
    if rows != ref:
        fail(f"run-ahead resume (cursor {cursor}) ledger differs from "
             f"the uninterrupted run")
    # The ledger holds the rows; the checkpoint, only fold state.
    ck_bytes, ledger_bytes = ck.stat().st_size, res.stat().st_size
    if ck_bytes > 0.1 * ledger_bytes:
        fail(f"run-ahead checkpoint holds {ck_bytes} bytes, more than "
             f"10% of its {ledger_bytes}-byte ledger")
    print(f"check_resume: OK — -jobs=4 -checkpoint-every=1 soak SIGKILL "
          f"at iteration {cursor}, resume in place canonical-identical "
          f"incl. coverage; checkpoint {ck_bytes} bytes, "
          f"{100 * ck_bytes / ledger_bytes:.1f}% of the ledger")


def check_stamped_kill(goat, tmp):
    """SIGKILL a -record campaign once a commit is past its first bug:
    the ledger never lags the last commit, stamped rows included, and
    the resume matches an uninterrupted run, recipe bytes too."""
    def stamped(ledger, recipe, checkpoint=None):
        c = [goat, f"-kernel={KERNEL}", "-d=2", f"-freq={ITERS}",
             "-keep-going", f"-record={recipe}", f"-ledger={ledger}"]
        if checkpoint is not None:
            c += [f"-checkpoint={checkpoint}",
                  f"-checkpoint-every={STAMPED_EVERY}"]
        return c

    def bug_row(rows, what):
        bugs = [i for i, row in enumerate(rows, 1) if row.get("bug")]
        if not bugs:
            fail(f"{what}: no bug row")
        return bugs[0]

    ref_ledger = tmp / "stamped_ref.jsonl"
    ref_recipe = tmp / "stamped_ref.recipe"
    proc = subprocess.run(stamped(ref_ledger, ref_recipe),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"stamped reference exited {proc.returncode}: "
             f"{proc.stdout}{proc.stderr}")
    ref = canonical_rows(ref_ledger)
    bug = bug_row(ref, "stamped reference")
    if bug >= STAMPED_EVERY:
        fail(f"stamped reference finds its bug at {bug}, not inside "
             f"the first {STAMPED_EVERY}-iteration round")

    ck = tmp / "stamped.ck"
    part = tmp / "stamped_part.jsonl"
    part_recipe = tmp / "stamped_part.recipe"
    rc = kill_mid_run(goat, None, ck, signal.SIGKILL,
                      command=stamped(part, part_recipe, ck), iters=ITERS,
                      every=STAMPED_EVERY)
    if rc != -signal.SIGKILL:
        fail(f"stamped SIGKILL run exited {rc}, expected "
             f"{-signal.SIGKILL}")
    cursor = read_cursor(ck)
    if not bug < cursor < ITERS:
        fail(f"stamped kill landed outside the campaign past its bug "
             f"(cursor {cursor}) — timing too coarse")
    written = len(part.read_text().splitlines())
    if written < cursor:
        fail(f"stamped SIGKILL run: ledger holds {written} rows, but "
             f"the checkpoint committed cursor {cursor}")
    killed_bug = json.loads(part.read_text().splitlines()[bug - 1])
    if killed_bug.get("recipe") != str(part_recipe):
        fail(f"stamped SIGKILL run: bug row {bug} lacks its recipe "
             f"stamp: {killed_bug}")
    if part_recipe.read_bytes() != ref_recipe.read_bytes():
        fail("stamped SIGKILL run: recipe differs from the "
             "uninterrupted run's")

    res = tmp / "stamped_res.jsonl"
    res_recipe = tmp / "stamped_res.recipe"
    proc = subprocess.run(stamped(res, res_recipe, ck) + [f"-resume={ck}"],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"stamped resume exited {proc.returncode}: "
             f"{proc.stdout}{proc.stderr}")
    rows = canonical_rows(res)
    if rows != ref:
        fail(f"stamped resume (cursor {cursor}) ledger differs from the "
             f"uninterrupted run")
    # A resume writes no row again: the bug row is the killed run's
    # line, stamp included, copied byte for byte.
    resumed_bug = res.read_text().splitlines()[bug - 1]
    if resumed_bug != part.read_text().splitlines()[bug - 1]:
        fail(f"stamped resume: bug row {bug} is not the killed run's "
             f"row: {resumed_bug}")
    if res_recipe.read_bytes() != ref_recipe.read_bytes():
        fail("stamped resume: recipe differs from the uninterrupted "
             "run's")
    print(f"check_resume: OK — -record SIGKILL at iteration {cursor}: "
          f"{written} ledger rows on disk (bug row {bug} stamped and "
          f"copied as written), resume canonical-identical, recipe "
          f"bytes equal")


def check_own_ledger_resume(goat, tmp, ref):
    """SIGKILL a run, then resume it into its own ledger and checkpoint:
    the resume truncates the ledger to the last commit, so each row is
    in it once, also after a second resume of the finished log."""
    ck = tmp / "own.ck"
    own = tmp / "own.jsonl"
    rc = kill_mid_run(goat, own, ck, signal.SIGKILL, jobs=4)
    if rc != -signal.SIGKILL:
        fail(f"own-ledger SIGKILL run exited {rc}, expected "
             f"{-signal.SIGKILL}")
    cursor = read_cursor(ck)
    written = len(own.read_text().splitlines())
    if not 0 < cursor < ITERS:
        fail(f"own-ledger kill landed outside the campaign (cursor "
             f"{cursor}) — timing too coarse")
    for attempt in ("killed", "finished"):
        run(goat, own, jobs=4, resume=ck, checkpoint=ck)
        if canonical_rows(own) != ref:
            fail(f"resume of the {attempt} log into its own ledger "
                 f"differs from the uninterrupted run (cursor {cursor}, "
                 f"{written} rows on disk at the kill)")
    print(f"check_resume: OK — SIGKILL at iteration {cursor} with "
          f"{written} rows on disk, resumed into its own ledger twice: "
          f"{ITERS} rows, canonical-identical")


def check_ledger_refusals(goat, tmp):
    """A resume whose recorded ledger is missing, cut short of the
    committed end or rewritten in place, or that asks for a ledger the
    log did not record, is refused with exit 1 before it writes a
    ledger or checkpoint byte."""
    iters = 2 * EVERY + 7
    ck = tmp / "refuse.ck"
    orig = tmp / "refuse.jsonl"
    run(goat, orig, checkpoint=ck, iters=iters)
    bare = tmp / "refuse_bare.ck"
    proc = subprocess.run(
        [goat, f"-kernel={KERNEL}", f"-d={DELAY}", f"-freq={iters}",
         "-keep-going", f"-checkpoint={bare}"],
        capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"ledgerless run exited {proc.returncode}: {proc.stderr}")
    rows = orig.read_bytes()
    if not rows.startswith(b'{"iter":1,'):
        fail(f"ledger does not start with row 1: {rows[:40]!r}")
    # Same size, but the range no longer starts with row 1.
    rewritten = b'{"iter":7,' + rows[10:]
    cases = (("missing", ck, None), ("cut short", ck, rows[:-1]),
             ("never recorded", bare, rows), ("rewritten", ck, rewritten))
    for what, log, ledger in cases:
        orig.unlink(missing_ok=True)
        if ledger is not None:
            orig.write_bytes(ledger)
        before = log.read_bytes()
        new_ledger = tmp / "refuse_new.jsonl"
        new_ck = tmp / "refuse_new.ck"
        for target_ck in (log, new_ck):
            proc = subprocess.run(
                cmd(goat, new_ledger, resume=log, checkpoint=target_ck,
                    iters=iters + 100),
                capture_output=True, text=True, timeout=120)
            if proc.returncode != 1:
                fail(f"resume with the recorded ledger {what} exited "
                     f"{proc.returncode}, expected 1: {proc.stderr}")
            if new_ledger.exists() or new_ck.exists():
                fail(f"resume with the recorded ledger {what} wrote a "
                     f"ledger or checkpoint file")
            if log.read_bytes() != before:
                fail(f"resume with the recorded ledger {what} changed "
                     f"the checkpoint log")
        if ledger is not None and orig.read_bytes() != ledger:
            fail(f"resume with the recorded ledger {what} changed it")
    print("check_resume: OK — resumes with the recorded ledger missing, "
          "cut short, rewritten, or never recorded exit 1 and write "
          "nothing")


def main():
    if len(sys.argv) < 2:
        fail("usage: check_resume.py /path/to/goat")
    goat = sys.argv[1]
    random.seed()  # wall-clock entropy is the point: vary the kill

    with tempfile.TemporaryDirectory(prefix="goat_resume_") as tmp:
        tmp = Path(tmp)
        ref_ledger = tmp / "ref.jsonl"
        run(goat, ref_ledger)
        ref = canonical_rows(ref_ledger)
        if len(ref) != ITERS:
            fail(f"reference campaign has {len(ref)} rows, expected "
                 f"{ITERS} (is -keep-going broken?)")

        # SIGKILL + resume at the same worker count, for jobs=1 and 4.
        for jobs in (1, 4):
            ck = tmp / f"kill_j{jobs}.ck"
            part = tmp / f"part_j{jobs}.jsonl"
            rc = kill_mid_run(goat, part, ck, signal.SIGKILL,
                              jobs=jobs)
            if rc != -signal.SIGKILL:
                fail(f"SIGKILL run exited {rc}, expected "
                     f"{-signal.SIGKILL}")
            cursor = read_cursor(ck)
            if not 0 < cursor < ITERS:
                fail(f"jobs={jobs} kill landed outside the campaign "
                     f"(cursor {cursor}) — timing too coarse")
            res = tmp / f"res_j{jobs}.jsonl"
            run(goat, res, jobs=jobs, resume=ck)
            if canonical_rows(res) != ref:
                fail(f"jobs={jobs} killed+resumed ledger differs from "
                     f"the uninterrupted run (cursor was {cursor})")
            print(f"check_resume: OK — SIGKILL at iteration {cursor}, "
                  f"resume at -jobs={jobs} canonical-identical "
                  f"({ITERS} rows)")

        # Cross-worker-count resume: the fingerprint excludes jobs, so
        # the jobs=4 checkpoint must resume at jobs=1 with the same
        # canonical result.
        cross = tmp / "cross.jsonl"
        run(goat, cross, jobs=1, resume=tmp / "kill_j4.ck")
        if canonical_rows(cross) != ref:
            fail("-jobs=4 checkpoint resumed at -jobs=1 differs from "
                 "the uninterrupted run")
        print("check_resume: OK — -jobs=4 checkpoint resumes at "
              "-jobs=1 canonical-identical")

        check_cov_resume(goat, tmp)
        check_default_round_kill(goat, tmp, ref)
        check_isolate_kill(goat, tmp, ref)
        check_runahead_kill(goat, tmp)
        check_stamped_kill(goat, tmp)
        check_own_ledger_resume(goat, tmp, ref)
        check_ledger_refusals(goat, tmp)

        # SIGTERM: graceful flush. Exit 143, ledger and checkpoint
        # agree on the merged prefix, prefix canonical, resumable.
        ckg = tmp / "term.ck"
        partg = tmp / "term.jsonl"
        rc = kill_mid_run(goat, partg, ckg, signal.SIGTERM)
        if rc != 128 + signal.SIGTERM:
            fail(f"SIGTERM run exited {rc}, expected "
                 f"{128 + signal.SIGTERM}")
        cursor = read_cursor(ckg)
        flushed = canonical_rows(partg)
        if len(flushed) != cursor:
            fail(f"SIGTERM flush wrote {len(flushed)} ledger rows but "
                 f"checkpointed cursor {cursor}")
        if flushed != ref[:cursor]:
            fail("SIGTERM-flushed ledger prefix is not canonical with "
                 "the uninterrupted run")
        resg = tmp / "term_res.jsonl"
        run(goat, resg, resume=ckg)
        if canonical_rows(resg) != ref:
            fail("resume after SIGTERM differs from the uninterrupted "
                 "run")
        print(f"check_resume: OK — SIGTERM at iteration {cursor}: "
              f"exit 143, ledger/checkpoint prefix agree, resume "
              f"canonical-identical")

        # Refusal paths: wrong-config checkpoint is a usage error (2),
        # unreadable checkpoint an I/O error (1).
        proc = subprocess.run(
            [goat, f"-kernel={KERNEL}", "-d=2", f"-freq={ITERS}",
             "-keep-going", f"-resume={ckg}",
             f"-ledger={tmp / 'refused.jsonl'}"],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 2:
            fail(f"fingerprint-mismatch resume exited "
                 f"{proc.returncode}, expected 2")
        if "fingerprint" not in proc.stderr + proc.stdout:
            fail("fingerprint-mismatch refusal does not mention the "
                 "fingerprint")
        proc = subprocess.run(
            [goat, f"-kernel={KERNEL}", f"-d={DELAY}", "-freq=10",
             f"-resume={tmp / 'missing.ck'}"],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 1:
            fail(f"unreadable-checkpoint resume exited "
                 f"{proc.returncode}, expected 1")
        print("check_resume: OK — mismatched checkpoint refused "
              "(exit 2), unreadable checkpoint is exit 1")


if __name__ == "__main__":
    main()
