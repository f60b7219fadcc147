#include "campaign/campaign.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string_view>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "analysis/goroutine_tree.hh"
#include "analysis/happens_before.hh"
#include "analysis/hb_scratch.hh"
#include "analysis/report.hh"
#include "base/fileio.hh"
#include "base/fmt.hh"
#include "base/interrupt.hh"
#include "base/logging.hh"
#include "campaign/checkpoint.hh"
#include "campaign/iteration.hh"
#include "campaign/supervisor.hh"
#include "obs/builtin_metrics.hh"
#include "obs/ledger.hh"
#include "obs/profile.hh"

namespace goat::campaign {

using analysis::CoverageDelta;
using analysis::CoverageScratch;
using analysis::CoverageState;
using analysis::CoverageUniverse;
using engine::GoatConfig;
using engine::IterationOutcome;
using engine::SingleRun;
using runtime::RunOutcome;

namespace {

/** The engine's and the campaign's metric ids. */
const obs::CampaignMetricIds &
ids()
{
    return obs::builtinMetrics().campaign;
}

/** Lower @p a to @p v if v is smaller (lock-free broadcast). */
void
atomicMin(std::atomic<int> &a, int v)
{
    int cur = a.load(std::memory_order_relaxed);
    while (v < cur &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

/** Raise @p a to @p v if v is larger (lock-free peak). */
void
atomicMax(std::atomic<int> &a, int v)
{
    int cur = a.load(std::memory_order_relaxed);
    while (v > cur &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

/**
 * The outcome and verdict of a row. Frozen and shard-digest rows carry
 * names, not enums; rows are built from enums or parsed by
 * parseRowLines, which refuses unknown names.
 */
RunOutcome
rowOutcome(const obs::LedgerEntry &row)
{
    RunOutcome o = RunOutcome::Ok;
    rowOutcomeFromName(row.outcome, &o);
    return o;
}

analysis::Verdict
rowVerdict(const obs::LedgerEntry &row)
{
    analysis::Verdict v = analysis::Verdict::Pass;
    analysis::verdictFromName(row.verdict, &v);
    return v;
}

/** The campaign keeps rows: for a ledger, a checkpoint, or -isolate
 *  (a shard's first bug is rehydrated from its row). */
bool
wantRows(const CampaignConfig &cfg)
{
    return !cfg.engine.ledgerPath.empty() || !cfg.checkpointPath.empty() ||
           cfg.isolate;
}

/** Reconstruct the iteration summary from a frozen/digest row. */
IterationOutcome
ioFromRow(const obs::LedgerEntry &e)
{
    IterationOutcome io;
    io.exec.outcome = rowOutcome(e);
    io.exec.steps = e.steps;
    io.dl.verdict = rowVerdict(e);
    io.coveragePct = e.coveragePct;
    io.wallMicros = e.wallMicros;
    return io;
}

} // namespace

Worker::Worker(int i, const std::shared_ptr<const CoverageUniverse> &u)
    : id(i), scratch(u), iterations(registry.counter(ids().iterations)),
      bugs(registry.counter(ids().bugsFound)),
      iterWall(registry.histogram(ids().iterWallUs))
{
}

void
IterRecord::reuse()
{
    IterRecord fresh;
    std::swap(fresh.exec, exec);
    std::swap(fresh.cov, cov);
    std::swap(fresh.metricsJson, metricsJson);
    fresh.cov.clear();
    fresh.metricsJson.clear();
    *this = std::move(fresh);
}

std::unique_ptr<IterRecord>
Shared::record()
{
    std::unique_ptr<IterRecord> rec;
    {
        std::lock_guard<std::mutex> lock(spareMu_);
        if (!spares_.empty()) {
            rec = std::move(spares_.back());
            spares_.pop_back();
        }
    }
    if (!rec) {
        made_.fetch_add(1, std::memory_order_relaxed);
        return std::make_unique<IterRecord>();
    }
    rec->reuse();
    return rec;
}

void
Shared::recycle(std::unique_ptr<IterRecord> rec)
{
    std::lock_guard<std::mutex> lock(spareMu_);
    spares_.push_back(std::move(rec));
}

std::unique_ptr<IterRecord>
runIteration(Shared &sh, Worker &w, int iter)
{
    using std::chrono::steady_clock;

    const GoatConfig &cfg = sh.cfg.engine;

    // Bind this thread's metrics to the worker's private registry for
    // the iteration (covers the scheduler's per-run flush too).
    obs::ScopedRegistry scope(w.registry);
    std::optional<obs::ScopedProfiler> prof_scope;
    if (cfg.profile)
        prof_scope.emplace(w.profiler);

    auto t0 = steady_clock::now();
    SingleRun sr = engine::runCampaignIteration(cfg, sh.program, iter);
    if (sr.exec.interrupted)
        return nullptr;

    std::unique_ptr<IterRecord> rec = sh.record();
    rec->iter = iter;
    rec->worker = w.id;
    rec->wseq = ++w.ran;
    rec->exec = sr.exec;
    rec->dl = sr.dl;
    rec->coreBug = sr.buggy();
    w.iterations.inc();

    if (cfg.predict) {
        rec->predictions = analysis::predictBlockingBugs(sr.ect, w.hb);
        rec->recipe = sr.recipe;
    }

    // The delta is computed on the run's tree, built once for the
    // deadlock check.
    if (cfg.collectCoverage)
        w.scratch.compute(sr.ect, *sr.tree, &rec->cov);

    if (cfg.raceDetect && !w.raced) {
        analysis::RaceReport races = analysis::detectRaces(sr.ect, w.hb);
        if (races.any()) {
            w.raced = true;
            rec->race =
                std::make_unique<analysis::RaceReport>(std::move(races));
        }
    }

    const bool local_bug = rec->coreBug || rec->race;
    if (local_bug && !w.bugged) {
        w.bugged = true;
        rec->bugRun = std::make_unique<SingleRun>(std::move(sr));
        w.bugs.inc();
        // The minimum over all workers' first-bug broadcasts is
        // exactly the canonical first detection (each worker claims
        // increasing indices, so its first bug is its minimum), so the
        // watermark converges to it.
        if (cfg.stopOnBug)
            atomicMin(sh.stopAt, iter);
    }

    rec->wallMicros = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            steady_clock::now() - t0)
            .count());
    w.iterWall.observe(rec->wallMicros);

    if (logEnabled(LogLevel::Debug)) {
        debugLog(strFormat(
            "campaign: worker %d iter %d/%d seed=%llu outcome=%s "
            "verdict=%s wall_us=%llu",
            w.id, iter, cfg.maxIterations,
            static_cast<unsigned long long>(
                engine::campaignIterationSeed(cfg.seedBase, iter)),
            runtime::runOutcomeName(rec->exec.outcome),
            analysis::verdictName(rec->dl.verdict),
            static_cast<unsigned long long>(rec->wallMicros)));
    }

    // Rendered here, once, into the record's own string: the ledger
    // row carries the JSON, not a snapshot.
    if (!cfg.ledgerPath.empty())
        w.registry.deltaJson(&rec->metricsJson);

    // Draining per iteration resets the sampling phase, so the delta
    // (and under a deterministic clock, its histogram) is a pure
    // function of the iteration — the canonical merge can fold deltas
    // in iteration order, worker-count independent.
    if (cfg.profile) {
        rec->profileDelta = w.profiler.drain();
        w.executedProfile.mergeFrom(rec->profileDelta);
    }

    if (sh.cfg.progress)
        sh.cfg.progress->noteIteration(static_cast<size_t>(rec->dl.verdict),
                                       local_bug);
    return rec;
}

namespace {

/** Reorder-window slots per worker (the window is this times -jobs). */
constexpr int kWindowPerJob = 64;

/**
 * The reorder window between the worker threads and the fold (jobs >
 * 1). Iteration i's record lands in slot i mod W, and a worker claims i
 * only while i <= cursor + W, so the slot is free by then and at most
 * W records ever wait for the fold. Nobody sleeps in the steady state:
 * the fold sleeps only until the record it awaits (the end of a batch)
 * lands, and a worker only while its next claim lies past the window.
 */
class Window
{
  public:
    Window(int size, int cursor, int workers)
        : slots_(static_cast<size_t>(size)), next_(cursor + 1),
          cursor_(cursor), live_(workers)
    {
    }

    /** Frees the records run past the canonical stop. */
    ~Window()
    {
        for (std::atomic<IterRecord *> &s : slots_)
            delete s.load(std::memory_order_relaxed);
    }

    Window(const Window &) = delete;
    Window &operator=(const Window &) = delete;

    int size() const { return static_cast<int>(slots_.size()); }

    /** Most records waiting for the fold at once. */
    int peak() const { return peak_.load(std::memory_order_relaxed); }

    // ---- Worker side

    /**
     * Claim the next iteration, sleeping while it lies past the
     * window; 0 once nothing is left to claim (budget, stop broadcast,
     * interrupt, or a closed window).
     */
    int
    claim(const Shared &sh)
    {
        const int budget = sh.cfg.engine.maxIterations;
        int n = next_.load(std::memory_order_relaxed);
        for (;;) {
            if (n > budget || n > sh.stopAt.load(std::memory_order_relaxed) ||
                closed_.load(std::memory_order_relaxed) ||
                interruptRequested())
                return 0;
            if (n > cursor_.load(std::memory_order_acquire) + size()) {
                waitOpen(n - size());
                n = next_.load(std::memory_order_relaxed);
                continue;
            }
            if (next_.compare_exchange_weak(n, n + 1,
                                            std::memory_order_relaxed))
                return n;
        }
    }

    /** Hand a record to the fold; wake it if this is the one it awaits. */
    void
    publish(std::unique_ptr<IterRecord> rec)
    {
        const int iter = rec->iter;
        atomicMax(peak_, pending_.fetch_add(1, std::memory_order_relaxed) + 1);
        slot(iter).store(rec.release());
        if (awaited_.load() == iter) {
            std::lock_guard<std::mutex> lock(mu_);
            foldCv_.notify_one();
        }
    }

    /** A worker exits (after its last publish). */
    void
    leave()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            live_.fetch_sub(1);
        }
        foldCv_.notify_one();
    }

    // ---- Fold side

    /** True once every worker has left: no record can land any more. */
    bool idle() const { return live_.load() == 0; }

    /** Remove and return @p iter's record, or nullptr if it has not landed. */
    std::unique_ptr<IterRecord>
    take(int iter)
    {
        std::atomic<IterRecord *> &s = slot(iter);
        IterRecord *rec = s.load(std::memory_order_acquire);
        if (rec) {
            s.store(nullptr, std::memory_order_relaxed);
            pending_.fetch_sub(1, std::memory_order_relaxed);
        }
        return std::unique_ptr<IterRecord>(rec);
    }

    /** Publish the fold's cursor; wake workers waiting for the window. */
    void
    advance(int cursor)
    {
        cursor_.store(cursor);
        if (blocked_.load() > 0) {
            std::lock_guard<std::mutex> lock(mu_);
            workerCv_.notify_all();
        }
    }

    /**
     * Sleep until the last missing record in [@p from, @p to] lands (a
     * whole batch, in the common case), every worker has left, or an
     * interrupt needs the window closed. Returns at once when nothing
     * in the range is missing.
     */
    void
    await(int from, int to)
    {
        int iter = to;
        while (iter >= from && slot(iter).load() != nullptr)
            --iter;
        if (iter < from)
            return;
        std::unique_lock<std::mutex> lock(mu_);
        awaited_.store(iter);
        foldCv_.wait(lock, [&] {
            return slot(iter).load() != nullptr || live_.load() == 0 ||
                   (interruptRequested() && !closed_.load());
        });
        awaited_.store(0, std::memory_order_relaxed);
    }

    /** Stop all claims and wake every waiting worker. */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            closed_.store(true);
        }
        workerCv_.notify_all();
    }

  private:
    std::atomic<IterRecord *> &
    slot(int iter)
    {
        return slots_[static_cast<size_t>(iter) % slots_.size()];
    }

    void
    waitOpen(int need)
    {
        std::unique_lock<std::mutex> lock(mu_);
        blocked_.fetch_add(1);
        workerCv_.wait(lock, [&] {
            return cursor_.load() >= need || closed_.load();
        });
        blocked_.fetch_sub(1);
    }

    std::vector<std::atomic<IterRecord *>> slots_;
    /** Next iteration to claim (work distribution). */
    std::atomic<int> next_;
    /** Last folded iteration. */
    std::atomic<int> cursor_;
    /** Worker threads that have not left yet. */
    std::atomic<int> live_;
    /** Records published and not yet taken, and their peak. */
    std::atomic<int> pending_{0};
    std::atomic<int> peak_{0};
    /** Iteration the sleeping fold awaits (0 = none). */
    std::atomic<int> awaited_{0};
    /** Workers sleeping until the window opens. */
    std::atomic<int> blocked_{0};
    std::atomic<bool> closed_{false};
    std::mutex mu_;
    std::condition_variable foldCv_;
    std::condition_variable workerCv_;
};

/** A worker thread: claim, run, and publish until nothing is left. */
void
workerLoop(Shared &sh, Window &win, Worker &w)
{
    while (int iter = win.claim(sh)) {
        std::unique_ptr<IterRecord> rec = runIteration(sh, w, iter);
        if (!rec)
            break; // cut short mid-run: drop the partial record
        win.publish(std::move(rec));
    }
    win.leave();
}

/** Iterations a campaign runs on its own thread before it fans out. */
constexpr int kInlineIterations = 16;

/**
 * The canonical fold's bookkeeping (the heavy material — saturation,
 * iterations, bug state — lives in the result being built), and the
 * sink of its rows: the checkpoint log's open round, then the ledger.
 * Every executor hands its records to fold() in iteration order.
 */
struct FoldState
{
    const CampaignConfig &cfg;
    /** The program the fold's replays run (confirmations, the first
     *  bug's materialization and minimization). */
    const std::function<void()> &program;
    CampaignResult &out;
    CoverageState merged;
    /** Last canonically merged iteration. */
    int cursor = 0;
    /**
     * Iterations executed: restored from the checkpoint plus folded
     * since, so a commit never counts work a resume would redo. The
     * overshoot run past the cursor is added to
     * CampaignResult::executedIterations when the campaign ends.
     */
    int executed = 0;
    /** A canonical stop condition was hit. */
    bool stopped = false;
    /** Cursor at which the open checkpoint round ends. */
    int roundEnd = 0;
    /** Stable keys of the predictions folded so far. */
    std::set<std::string> seenPred;
    /**
     * The merge stage's profiler (with profile), bound only around the
     * Merge scope of each fold: the fold's replays record into no
     * profile.
     */
    obs::Profiler mergeProfiler;
    /** The -checkpoint log (closed when not checkpointing). */
    CheckpointLog log;
    /** Cursor of the last checkpoint commit (-1 = none this run). */
    int committed = -1;
    /** The -ledger file (null without one). */
    std::unique_ptr<obs::RunLedger> ledger;
    /** Where the campaign's rows start in it (path "" = no ledger). */
    LedgerSpan span;
    /** Restored rows the ledger already holds (a v3 resume). */
    size_t keptRows = 0;

    FoldState(const CampaignConfig &c, const std::function<void()> &p,
              CampaignResult &o,
              const std::shared_ptr<const CoverageUniverse> &u)
        : cfg(c), program(p), out(o), merged(u)
    {
    }

    /** Render a finished (stamped) row into the ledger's write buffer. */
    void
    emitRow(const obs::LedgerEntry &e)
    {
        if (ledger)
            ledger->stage(e);
    }

    /** Write the staged rows with one write. */
    void
    flushLedger()
    {
        if (ledger)
            ledger->flush();
    }

    /** The span of the rows written so far. */
    LedgerSpan
    ledgerSpan() const
    {
        LedgerSpan s = span;
        if (!s.path.empty())
            s.end = ledger->bytes();
        return s;
    }
};

/** Refuse the campaign (it does not run); always false. */
bool
refuse(CampaignResult &out, std::string why, bool usage = false)
{
    out.refused = {std::move(why), usage};
    return false;
}

/**
 * Restore a parsed checkpoint into the fold: merged bitmap, saturation
 * series, tallies, bug/race watermarks, and the frozen rows' iteration
 * summaries (result.iterations). A bug/race watermark that names no
 * (bug) row of the prefix, or a malformed coverage bitmap, refuses the
 * resume (false, out.refused set).
 */
bool
restoreCheckpoint(const CheckpointData &ck, FoldState &fs)
{
    const CampaignConfig &cfg = fs.cfg;
    engine::GoatResult &result = fs.out.merged;
    auto names_row = [&ck](int iter) {
        return iter == -1 || (iter >= 1 && iter <= ck.cursor);
    };
    if (!names_row(ck.bugIteration) ||
        (ck.bugIteration > 0 &&
         !ck.rows[static_cast<size_t>(ck.bugIteration) - 1].bug))
        return refuse(
            fs.out, strFormat("checkpoint bug_iteration %d is not a bug "
                              "row of its %d-row prefix",
                              ck.bugIteration, ck.cursor));
    if (!names_row(ck.raceIteration))
        return refuse(
            fs.out, strFormat("checkpoint race_iteration %d is not a row "
                              "of its %d-row prefix",
                              ck.raceIteration, ck.cursor));
    if (!ck.covBitmap.empty() && !fs.merged.restoreBitmap(ck.covBitmap))
        return refuse(fs.out, "malformed coverage bitmap in checkpoint");
    fs.cursor = ck.cursor;
    fs.executed = ck.executed;
    fs.stopped = ck.stopped;
    fs.out.respawns = ck.respawns;
    fs.out.crashes = ck.crashes;
    fs.out.timeouts = ck.timeouts;
    for (const obs::SaturationSample &s : ck.satSamples)
        result.saturation.appendSample(s);
    for (const obs::LedgerEntry &row : ck.rows) {
        result.iterations.push_back(ioFromRow(row));
        if (cfg.progress)
            cfg.progress->noteIteration(
                static_cast<size_t>(rowVerdict(row)),
                row.bug);
    }
    if (cfg.engine.collectCoverage && fs.cursor > 0)
        result.finalCoverage = fs.merged.percent();
    if (ck.bugIteration > 0) {
        result.bugFound = true;
        result.bugIteration = ck.bugIteration;
    }
    if (ck.raceIteration > 0)
        result.raceIteration = ck.raceIteration;
    fs.out.resumed = true;
    fs.out.resumeFrom = ck.cursor;
    return true;
}

/** Record a checkpoint I/O failure (warned once per campaign). */
void
checkpointFailed(FoldState &fs)
{
    if (fs.out.checkpointOk)
        warn("cannot write checkpoint file " + fs.cfg.checkpointPath);
    fs.out.checkpointOk = false;
}

/**
 * Append the open round and the fold's current summary to the log. The
 * ledger is written first, so it never lags the last commit.
 */
void
writeCheckpoint(FoldState &fs)
{
    const GoatConfig &ecfg = fs.cfg.engine;
    const engine::GoatResult &result = fs.out.merged;
    fs.flushLedger();
    CheckpointData d;
    d.ledger = fs.ledgerSpan();
    d.executed = fs.executed;
    d.respawns = fs.out.respawns;
    d.crashes = fs.out.crashes;
    d.timeouts = fs.out.timeouts;
    d.bugIteration = result.bugFound ? result.bugIteration : -1;
    d.raceIteration = result.raceIteration;
    d.stopped = fs.stopped;
    if (ecfg.collectCoverage)
        d.covBitmap = fs.merged.bitmapStr();
    if (!fs.log.commit(d))
        checkpointFailed(fs);
    fs.committed = fs.cursor;
}

/**
 * The ledger row fields a record determines on its own. The fold adds
 * the canonical ones (coverage, the race-aware bug flag, lint stamps);
 * a shard child ships exactly this row.
 */
obs::LedgerEntry
recordRow(const GoatConfig &cfg, IterRecord &rec)
{
    obs::LedgerEntry e;
    e.iteration = rec.iter;
    e.seed = engine::campaignIterationSeed(cfg.seedBase, rec.iter);
    e.delayBound = cfg.delayBound;
    e.outcome = rec.loss.empty() ? runtime::runOutcomeName(rec.exec.outcome)
                                 : rec.loss;
    e.verdict = analysis::verdictName(rec.dl.verdict);
    e.bug = rec.coreBug;
    e.steps = rec.exec.steps;
    e.wallMicros = rec.wallMicros;
    e.worker = rec.worker;
    e.workerSeq = rec.wseq;
    e.crashCause = std::move(rec.crashCause);
    e.respawns = rec.respawns;
    if (cfg.profile)
        e.profileJson = rec.profileDelta.jsonRowStr();
    if (cfg.predict)
        e.predicted = static_cast<int>(rec.predictions.predictions.size());
    e.metricsJson = std::move(rec.metricsJson);
    return e;
}

/**
 * Produce the first-bug report material when no live capture exists
 * (the bug row was restored from a checkpoint or crossed a shard
 * pipe). Normal rows are rehydrated by re-running the iteration —
 * a pure function of (config, index). Supervised crash/timeout rows
 * cannot be re-run in-process; they get a seeded-policy recipe (the
 * replay re-derives the schedule and reproduces the crash/hang) and a
 * synthesized report. The row's outcome, verdict and crash cause are
 * read; its seed and delay bound are the config's.
 */
void
materializeFirstBug(const CampaignConfig &cfg,
                    const std::function<void()> &program,
                    const obs::LedgerEntry &row,
                    engine::GoatResult &result)
{
    if (row.outcome == kCrashed || row.outcome == kTimedOut) {
        trace::Recipe r;
        r.kernel = cfg.programName;
        r.seed = engine::campaignIterationSeed(cfg.engine.seedBase,
                                               row.iteration);
        r.delayBound = cfg.engine.delayBound;
        r.noiseProb = cfg.engine.noiseProb;
        r.stepBudget = cfg.engine.stepBudget;
        r.iteration = row.iteration;
        r.outcome = row.outcome;
        r.verdict = row.verdict;
        r.seededPolicy = true;
        result.firstBugRecipe = std::move(r);
        result.firstBug.verdict = rowVerdict(row);
        result.firstBug.panicMsg = row.crashCause;
        result.firstBugExec.outcome = rowOutcome(row);
        result.report = strFormat(
            "supervised %s at iteration %d%s%s (seeded-policy recipe; "
            "replay reproduces the failure)\n",
            row.verdict.c_str(), row.iteration,
            row.crashCause.empty() ? "" : ", cause ",
            row.crashCause.c_str());
        return;
    }
    SingleRun sr =
        engine::runCampaignIteration(cfg.engine, program, row.iteration);
    engine::finalizeRecipe(sr);
    sr.recipe.kernel = cfg.programName;
    result.firstBug = sr.dl;
    result.firstBugExec = sr.exec;
    result.firstBugEct = sr.ect;
    result.firstBugRecipe = sr.recipe;
    result.report =
        analysis::deadlockReportStr(sr.ect, *sr.tree, sr.dl);
}

/**
 * Finish the canonical first bug as it folds: produce its report
 * material when no live capture exists (a shard's row, or a row
 * restored from a checkpoint), write the -record recipe, minimize it,
 * cross-check the lint findings against its trace, and stamp the
 * results on its @p row. Every input is a pure function of the bug's
 * iteration, so the stamps and recipe bytes match any executor and
 * any worker count. Without rows the capture is always live and @p
 * row is a scratch entry.
 */
void
finishFirstBug(FoldState &fs, obs::LedgerEntry &row)
{
    const CampaignConfig &cfg = fs.cfg;
    CampaignResult &out = fs.out;
    engine::GoatResult &result = out.merged;
    if (result.report.empty())
        materializeFirstBug(cfg, fs.program, row, result);
    if (!cfg.recordPath.empty()) {
        out.recordOk =
            trace::writeRecipeFile(result.firstBugRecipe, cfg.recordPath);
        if (out.recordOk)
            out.recipePath = cfg.recordPath;
        else
            warn("cannot write recipe file " + cfg.recordPath);
    }
    const bool seeded = result.firstBugRecipe.seededPolicy;
    if (cfg.minimize && seeded) {
        // Minimization replays candidates in-process; a crash recipe
        // would take the campaign down with it.
        warn("skipping -minimize: the first bug is a supervised "
             "crash/timeout (seeded-policy recipe)");
    } else if (cfg.minimize) {
        out.minimize = engine::minimizeRecipe(fs.program,
                                              result.firstBugRecipe);
        if (!cfg.recordPath.empty() && out.minimize.reproduced) {
            std::string min_path = cfg.recordPath + ".min";
            if (trace::writeRecipeFile(out.minimize.minimized, min_path)) {
                out.minimizedRecipePath = min_path;
            } else {
                out.recordOk = false;
                warn("cannot write recipe file " + min_path);
            }
        }
    }
    // Mark the findings whose site a goroutine of the bug trace reached
    // while parked or panicking. A supervised crash/timeout bug has no
    // trace to check against.
    if (cfg.lintBridge && !seeded)
        out.confirmedWarnings = static_cast<int>(
            staticmodel::confirmFindings(out.lint, result.firstBugEct));

    row.recipePath = out.recipePath;
    if (cfg.minimize && out.minimize.reproduced)
        row.minimizedYields =
            static_cast<int>(out.minimize.minimized.yields.size());
    row.confirmedWarnings = out.confirmedWarnings;
}

/**
 * Cross-check the predictions a record added (those from index
 * @p first on) by replays steered from its @p recipe, and return how
 * many were confirmed.
 */
int
confirmNewPredictions(FoldState &fs, trace::Recipe &&recipe, size_t first)
{
    engine::PredictOutcome &merged = fs.out.predict;
    auto &preds = merged.report.predictions;
    analysis::PredictionReport added;
    added.predictions.assign(
        std::make_move_iterator(preds.begin() +
                                static_cast<ptrdiff_t>(first)),
        std::make_move_iterator(preds.end()));
    recipe.kernel = fs.cfg.programName;
    engine::PredictOutcome po =
        engine::confirmPredictions(fs.program, recipe, std::move(added));
    merged.replays += po.replays;
    int confirmed = 0;
    for (size_t j = 0; j < po.report.predictions.size(); ++j) {
        confirmed += po.report.predictions[j].confirmed;
        preds[first + j] = std::move(po.report.predictions[j]);
        merged.confirmRecipes.push_back(std::move(po.confirmRecipes[j]));
    }
    merged.confirmedCount += confirmed;
    return confirmed;
}

/**
 * The sequential campaign loop over one record, whichever executor made
 * it: fold its coverage, apply bug/threshold stop semantics (the fold
 * stops exactly where -jobs=1 would), replay what the record asks for
 * (its new predictions' confirmations, the first bug's recipe and
 * minimization), emit its finished row, and commit the checkpoint round
 * it closes. A commit holds only folded state: it is a fold point, not
 * a barrier, and the executors run on past it.
 */
void
fold(FoldState &fs, IterRecord &rec)
{
    const CampaignConfig &cfg = fs.cfg;
    const GoatConfig &ecfg = cfg.engine;
    engine::GoatResult &result = fs.out.merged;
    auto &preds = fs.out.predict.report.predictions;
    const bool want_rows = wantRows(cfg);
    const int i = rec.iter;
    fs.cursor = i;
    ++fs.executed;
    if (!rec.loss.empty())
        ++(rec.loss == kTimedOut ? fs.out.timeouts : fs.out.crashes);

    // The merge profiler is bound for the merge stage only: the
    // replays below record into no profile.
    std::optional<obs::ScopedProfiler> bound;
    if (ecfg.profile)
        bound.emplace(fs.mergeProfiler);
    std::optional<obs::ProfileScope> merge_prof(std::in_place,
                                                obs::Stage::Merge);

    IterationOutcome io;
    if (ecfg.collectCoverage) {
        fs.merged.applyDelta(rec.cov);
        io.coveragePct = fs.merged.percent();
        result.finalCoverage = io.coveragePct;
        // The saturation sample reads the canonical cumulative
        // fold, so the series is identical for any worker count.
        result.saturation.sample(i, fs.merged);
        if (cfg.progress)
            cfg.progress->noteCoveragePermille(
                static_cast<uint64_t>(io.coveragePct * 10.0));
    }

    if (ecfg.profile)
        result.profile.mergeFrom(rec.profileDelta);

    // A race restored from the checkpoint owns the canonical
    // first-race slot; fresh captures (necessarily later) never
    // displace it.
    const bool first_race = rec.race && result.raceIteration <= 0;
    if (first_race) {
        result.firstRaces = std::move(*rec.race);
        result.raceIteration = i;
    }

    // Fold this iteration's predictions in iteration order,
    // keeping the first instance of each stable key — the same
    // dedup a sequential pass over the traces would perform.
    const size_t known_preds = preds.size();
    if (ecfg.predict) {
        for (const analysis::Prediction &p : rec.predictions.predictions) {
            if (!fs.seenPred.insert(p.key()).second)
                continue;
            analysis::Prediction q = p;
            q.iteration = i;
            preds.push_back(std::move(q));
        }
    }

    const bool buggy = rec.coreBug || first_race;
    const bool first_bug = buggy && !result.bugFound;
    if (first_bug) {
        result.bugFound = true;
        result.bugIteration = i;
        if (rec.bugRun) {
            SingleRun &sr = *rec.bugRun;
            result.firstBug = sr.dl;
            result.firstBugExec = sr.exec;
            engine::finalizeRecipe(sr);
            sr.recipe.kernel = cfg.programName;
            result.firstBugRecipe = sr.recipe;
            result.report =
                analysis::deadlockReportStr(sr.ect, *sr.tree, sr.dl);
            result.firstBugEct = std::move(sr.ect);
        }
    }

    obs::LedgerEntry e;
    if (want_rows) {
        e = recordRow(ecfg, rec);
        e.bug = buggy;
        e.coveragePct = io.coveragePct;
        if (ecfg.collectCoverage && io.coveragePct >= 0) {
            e.satCovered = static_cast<int64_t>(fs.merged.coveredCount());
            e.satTotal = static_cast<int64_t>(fs.merged.totalRequirements());
        }
        if (cfg.lintBridge)
            e.staticWarnings = static_cast<int>(cfg.lint.size());
        // The checkpoint's row line holds no stamp: only the ledger
        // row does.
        if (!cfg.checkpointPath.empty())
            fs.log.addRow(e, ecfg.collectCoverage
                                 ? &result.saturation.samples().back()
                                 : nullptr);
    }
    merge_prof.reset();
    bound.reset();

    if (preds.size() > known_preds) {
        const int confirmed =
            confirmNewPredictions(fs, std::move(rec.recipe), known_preds);
        if (confirmed > 0)
            e.predictedConfirmed = confirmed;
    }
    if (first_bug)
        finishFirstBug(fs, e);
    if (want_rows) {
        fs.emitRow(e);
        // The row borrowed the record's metrics string: hand it back,
        // so the worker reuses the buffer and the fold frees nothing.
        rec.metricsJson = std::move(e.metricsJson);
    }

    io.exec = rec.exec;
    io.dl = std::move(rec.dl);
    io.wallMicros = rec.wallMicros;
    result.iterations.push_back(std::move(io));

    if ((buggy && ecfg.stopOnBug && rec.loss.empty()) ||
        (ecfg.collectCoverage && fs.merged.percent() >= ecfg.covThreshold))
        fs.stopped = true;

    if (!cfg.checkpointPath.empty() && (i == fs.roundEnd || fs.stopped)) {
        writeCheckpoint(fs);
        fs.roundEnd = std::min(ecfg.maxIterations,
                               i + std::max(1, cfg.checkpointEvery));
    }
}

/**
 * Turn a shard event into the record the fold takes: a loss record for
 * a Crash or Timeout, the decoded digest for a Result (nullptr, with a
 * warning, when it does not decode).
 */
std::unique_ptr<IterRecord>
shardRecord(ShardEvent &ev)
{
    auto rec = std::make_unique<IterRecord>();
    rec->iter = ev.iteration;
    rec->worker = ev.shard;
    rec->wseq = ev.wseq;
    if (ev.kind != ShardEvent::Kind::Result) {
        const bool timeout = ev.kind == ShardEvent::Kind::Timeout;
        rec->loss = timeout ? kTimedOut : kCrashed;
        rec->exec.outcome = timeout ? RunOutcome::StepBudget
                                    : RunOutcome::Crash;
        rec->dl.verdict = timeout ? analysis::Verdict::Timeout
                                  : analysis::Verdict::Crash;
        rec->coreBug = true;
        if (!timeout)
            rec->crashCause = std::move(ev.cause);
        rec->respawns = ev.respawns;
        return rec;
    }
    ShardDigest d;
    if (!digestFromString(ev.body, &d) || d.row.iteration != ev.iteration ||
        !analysis::parseBitmap(d.covBitmap, &rec->cov)) {
        warn(strFormat("shard %d sent a malformed digest for iteration %d",
                       ev.shard, ev.iteration));
        return nullptr;
    }
    rec->exec.outcome = rowOutcome(d.row);
    rec->exec.steps = d.row.steps;
    rec->dl.verdict = rowVerdict(d.row);
    rec->coreBug = d.row.bug;
    rec->wallMicros = d.row.wallMicros;
    rec->metricsJson = std::move(d.row.metricsJson);
    return rec;
}

/**
 * The forked-shard executor (-isolate): the supervisor forks the shards,
 * and each child runs runIteration on a Worker of its own, made after
 * the fork on the parent's universe, and ships the record's row and
 * coverage as a ShardDigest. This thread turns every result and loss
 * back into a record and folds the contiguous prefix in iteration
 * order. Returns the number of iterations the shards resolved.
 */
int
runShards(Shared &sh, FoldState &fs,
          const std::shared_ptr<const CoverageUniverse> &universe)
{
    const GoatConfig &ecfg = sh.cfg.engine;
    obs::ProgressCounters *progress = sh.cfg.progress;

    std::unique_ptr<Worker> child; // made in each forked child
    auto body = [&](int iter, int shard, int wseq) {
        if (!child)
            child = std::make_unique<Worker>(shard, universe);
        std::unique_ptr<IterRecord> rec = runIteration(sh, *child, iter);
        if (!rec)
            return std::string();
        rec->wseq = wseq;
        ShardDigest d;
        d.row = recordRow(ecfg, *rec);
        if (ecfg.collectCoverage)
            d.covBitmap = analysis::deltaBitmap(rec->cov);
        return digestToString(d);
    };

    // Records arrive in shard-completion order; the fold takes the
    // contiguous iteration prefix.
    std::map<int, std::unique_ptr<IterRecord>> pending;
    int resolved = 0;
    auto on_event = [&](ShardEvent &&ev) {
        if (ev.kind == ShardEvent::Kind::Respawn) {
            ++fs.out.respawns;
            if (progress)
                progress->respawns.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        ++resolved;
        std::unique_ptr<IterRecord> rec = shardRecord(ev);
        if (!rec)
            return;
        // The child's progress counters are its own copy.
        if (progress)
            progress->noteIteration(static_cast<size_t>(rec->dl.verdict),
                                    rec->coreBug);
        pending.emplace(rec->iter, std::move(rec));
        for (auto it = pending.begin(); !fs.stopped && it != pending.end() &&
                                        it->first == fs.cursor + 1;
             it = pending.erase(it))
            fold(fs, *it->second);
        fs.flushLedger();
    };
    superviseCampaign(sh.cfg, fs.cursor + 1, body, on_event,
                      [&] { return fs.stopped; });
    return resolved;
}

/**
 * The campaign epilogue: the last ledger write and campaign-level
 * metrics (folding in the registries of the in-process @p workers).
 */
void
finalizeCampaign(FoldState &fs,
                 const std::vector<std::unique_ptr<Worker>> &workers,
                 std::chrono::steady_clock::time_point campaign_t0)
{
    using std::chrono::steady_clock;
    const GoatConfig &ecfg = fs.cfg.engine;
    CampaignResult &out = fs.out;
    engine::GoatResult &result = out.merged;

    // Rows stop at the canonical cutoff, so the row count and per-row
    // seed/verdict content match any worker count.
    if (fs.ledger) {
        fs.flushLedger();
        out.ledgerRows = fs.keptRows + fs.ledger->linesWritten();
    }

    // Fold the private registries of the workers that exist (one
    // unless the campaign fanned out; none under -isolate, whose rows
    // carry the shards' metrics) into one and absorb that into the
    // campaign-level registry, plus campaign bookkeeping.
    const obs::CampaignMetricIds &m = ids();
    obs::Registry &parent = obs::Registry::current();
    for (const auto &w : workers)
        out.workerMetrics.absorb(w->registry);
    parent.absorb(out.workerMetrics);
    parent.counter(m.campaigns).inc();
    parent.counter(m.runs).inc();
    parent.counter(m.executed)
        .inc(static_cast<uint64_t>(out.executedIterations));
    parent.counter(m.discarded)
        .inc(static_cast<uint64_t>(out.discardedIterations));
    parent.gauge(m.workers).setMax(out.jobs);
    parent.counter(m.fanouts).inc(out.window > 0 ? 1 : 0);
    if (ecfg.predict) {
        parent.counter(m.predictions)
            .inc(static_cast<uint64_t>(
                out.predict.report.predictions.size()));
        parent.counter(m.predictionsConfirmed)
            .inc(static_cast<uint64_t>(out.predict.confirmedCount));
    }
    if (fs.cfg.isolate || out.respawns || out.crashes || out.timeouts) {
        parent.counter(m.respawns).inc(static_cast<uint64_t>(out.respawns));
        parent.counter(m.crashes).inc(static_cast<uint64_t>(out.crashes));
        parent.counter(m.timeouts).inc(static_cast<uint64_t>(out.timeouts));
    }

    out.wallMicros = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            steady_clock::now() - campaign_t0)
            .count());

    if (result.bugFound) {
        debugLog(strFormat(
            "campaign: bug found at iteration %d (%s), %d workers, "
            "%d executed / %d discarded",
            result.bugIteration, result.firstBug.shortStr().c_str(),
            out.jobs, out.executedIterations,
            out.discardedIterations));
    }
}

/**
 * Open the -ledger file, if any (ledger lines append across runs), and
 * note where this campaign's rows start in it.
 */
void
openLedger(FoldState &fs)
{
    const std::string &path = fs.cfg.engine.ledgerPath;
    if (path.empty())
        return;
    fs.ledger = std::make_unique<obs::RunLedger>(path);
    fs.out.ledgerOk = fs.ledger->ok();
    if (!fs.ledger->enabled())
        return;
    // The checkpoint names the ledger by its absolute path, on a line
    // of its own; a path it cannot name is not recorded.
    if (char *abs = ::realpath(path.c_str(), nullptr)) {
        if (!std::strchr(abs, '\n'))
            fs.span.path = abs;
        std::free(abs);
    }
    fs.span.start = fs.ledger->bytes();
}

/**
 * True when bytes [@p start, @p end) of the file at @p path are ledger
 * rows 1..@p rows: the range starts with row 1's line and ends with
 * row @p rows's whole line. A ledger rotated or rewritten since the
 * commit fails this even when it kept the size.
 */
bool
ledgerHoldsRows(const std::string &path, uint64_t start, uint64_t end,
                int rows)
{
    if (rows == 0)
        return start == end;
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return false;
    auto readAt = [fd](char *buf, uint64_t n, uint64_t at) {
        return ::pread(fd, buf, n, static_cast<off_t>(at)) ==
               static_cast<ssize_t>(n);
    };
    auto rowAt = [&readAt](uint64_t at, int iter) {
        const std::string want = strFormat("{\"iter\":%d,", iter);
        std::string got(want.size(), '\0');
        return readAt(got.data(), got.size(), at) && got == want;
    };
    // The last line starts after the last newline before end - 1.
    char buf[4096];
    bool ok = end > start && readAt(buf, 1, end - 1) && buf[0] == '\n';
    uint64_t last = start;
    for (uint64_t hi = end - 1; ok && hi > start;) {
        const uint64_t lo = hi - std::min<uint64_t>(sizeof buf, hi - start);
        ok = readAt(buf, hi - lo, lo);
        const size_t nl = std::string_view(buf, hi - lo).rfind('\n');
        if (ok && nl != std::string_view::npos) {
            last = lo + nl + 1;
            break;
        }
        hi = lo;
    }
    ok = ok && rowAt(start, 1) && rowAt(last, rows);
    ::close(fd);
    return ok;
}

/**
 * Refuse a v3 resume whose rows the -ledger file cannot continue: the
 * log recorded no ledger, or the recorded one is missing, shorter than
 * the committed end, or holds other lines than rows 1..cursor there.
 * Nothing is written before this check.
 */
bool
checkRecordedLedger(const CheckpointData &ck, FoldState &fs)
{
    const std::string &path = fs.cfg.engine.ledgerPath;
    const LedgerSpan &rec = ck.ledger;
    if (path.empty())
        return true;
    struct stat st;
    if (rec.path.empty())
        return refuse(fs.out, "the checkpoint recorded no ledger, so "
                              "-ledger=" + path + " cannot continue one");
    if (::stat(rec.path.c_str(), &st) != 0)
        return refuse(fs.out, "the checkpoint's ledger " + rec.path +
                                  " is missing");
    if (static_cast<uint64_t>(st.st_size) < rec.end)
        return refuse(fs.out,
                      strFormat("the checkpoint's ledger %s holds %lld "
                                "bytes, short of its committed end %llu",
                                rec.path.c_str(),
                                static_cast<long long>(st.st_size),
                                static_cast<unsigned long long>(rec.end)));
    if (!ledgerHoldsRows(rec.path, rec.start, rec.end, ck.cursor))
        return refuse(fs.out,
                      strFormat("the checkpoint's ledger %s does not hold "
                                "rows 1..%d in bytes [%llu, %llu)",
                                rec.path.c_str(), ck.cursor,
                                static_cast<unsigned long long>(rec.start),
                                static_cast<unsigned long long>(rec.end)));
    return true;
}

/**
 * Continue the ledger of a v3 checkpoint, which holds rows 1..cursor
 * in [start, end) of the recorded file: truncate that file to the
 * committed end when -ledger= names it, or copy the range into the
 * -ledger file. Either way the file then holds each restored row once.
 */
void
continueLedger(const CheckpointData &ck, FoldState &fs)
{
    const std::string &path = fs.cfg.engine.ledgerPath;
    if (path.empty())
        return;
    const LedgerSpan &rec = ck.ledger;
    const bool same = sameFile(path, rec.path);
    if (same && ::truncate(rec.path.c_str(),
                           static_cast<off_t>(rec.end)) != 0) {
        warn("cannot truncate ledger file " + path);
        fs.out.ledgerOk = false;
        return;
    }
    openLedger(fs);
    if (!fs.ledger->enabled())
        return;
    if (same) {
        fs.span.start = rec.start;
    } else if (!fs.ledger->appendRange(rec.path, rec.start, rec.end)) {
        // The file lacks rows: the log must not name it.
        warn("cannot copy the checkpoint's rows from ledger file " +
             rec.path);
        fs.out.ledgerOk = false;
        fs.span = LedgerSpan{};
        return;
    }
    fs.keptRows = static_cast<size_t>(ck.cursor);
}

/**
 * Set the fold up for a run: restore the -resume checkpoint (after
 * its fingerprint check), open the ledger and the -checkpoint log, and
 * finish a restored first bug (its report and -record recipe). A v3
 * checkpoint's rows are in its ledger already; a v1/v2 log's rows are
 * emitted again, the first bug's stamped like the fold stamps it, and
 * the log continues as v3. False when the resume is refused
 * (out.refused says why).
 */
bool
beginFold(FoldState &fs)
{
    const CampaignConfig &cfg = fs.cfg;
    const bool checkpointing = !cfg.checkpointPath.empty();
    if (cfg.lintBridge)
        fs.out.lint = cfg.lint;
    if (cfg.resumePath.empty()) {
        openLedger(fs);
        if (checkpointing && !fs.log.create(cfg.checkpointPath,
                                            configFingerprint(cfg), fs.span))
            checkpointFailed(fs);
        return true;
    }
    CheckpointData ck;
    std::string err;
    if (!readCheckpointFile(cfg.resumePath, &ck, &err))
        return refuse(fs.out, err);
    if (ck.fingerprint != configFingerprint(cfg))
        return refuse(fs.out,
                      "checkpoint fingerprint mismatch: " + ck.fingerprint +
                          " vs " + configFingerprint(cfg),
                      true);
    if (ck.version >= 3 && !checkRecordedLedger(ck, fs))
        return false;
    if (!restoreCheckpoint(ck, fs))
        return false;
    const int bug = fs.out.merged.bugIteration;
    if (ck.version >= 3) {
        continueLedger(ck, fs);
        if (checkpointing &&
            !fs.log.resume(cfg.checkpointPath, cfg.resumePath, ck))
            checkpointFailed(fs);
        if (bug > 0) {
            obs::LedgerEntry row = ck.rows[static_cast<size_t>(bug) - 1];
            finishFirstBug(fs, row);
        }
        return true;
    }
    openLedger(fs);
    for (const obs::LedgerEntry &restored : ck.rows) {
        obs::LedgerEntry row = restored;
        if (row.iteration == bug)
            finishFirstBug(fs, row);
        fs.emitRow(row);
    }
    fs.flushLedger();
    ck.ledger = fs.ledgerSpan();
    if (checkpointing && !fs.log.migrate(cfg.checkpointPath, ck))
        checkpointFailed(fs);
    return true;
}

} // namespace

std::string
refusal(const CampaignConfig &cfg)
{
    const GoatConfig &e = cfg.engine;
    // Each refused field is named with its CLI flag.
    const char *analysis = e.predict   ? "engine.predict (-predict)"
                           : e.profile ? "engine.profile (-profile)"
                                       : nullptr;
    if (cfg.isolate && (e.raceDetect || analysis))
        return strFormat("isolate (-isolate) is incompatible with %s: a "
                         "shard ships only its row and coverage",
                         e.raceDetect ? "engine.raceDetect (-race)"
                                      : analysis);
    if (analysis && !cfg.checkpointPath.empty())
        return strFormat("checkpointPath (-checkpoint) is incompatible "
                         "with %s: a checkpoint holds neither the "
                         "prediction keys nor a profile",
                         analysis);
    if (analysis && !cfg.resumePath.empty())
        return strFormat("resumePath (-resume) is incompatible with %s: "
                         "a checkpoint holds neither the prediction keys "
                         "nor a profile",
                         analysis);
    if (cfg.isolate)
        return "";
    const char *knob =
        cfg.iterTimeoutSecs > 0 ? "iterTimeoutSecs (-iter-timeout)"
        : cfg.memLimitMB > 0    ? "memLimitMB (-mem-limit)"
        : cfg.maxRespawns != CampaignConfig{}.maxRespawns
            ? "maxRespawns (-max-respawns)"
            : nullptr;
    return knob ? strFormat("%s requires isolate (-isolate): only the "
                            "supervisor reads it",
                            knob)
                : "";
}

/**
 * The one campaign driver: set the fold up, run the iterations on one
 * executor, and finish. In process, the first kInlineIterations
 * iterations (every one at -jobs=1) run on this thread, each folded as
 * soon as it is made, and a campaign still running after them fans out
 * to worker threads. Under -isolate, forked shards run every iteration
 * instead. The fold is the same either way: coverage, stop semantics,
 * ledger rows, and a checkpoint round whenever the cursor reaches a
 * round's end.
 */
CampaignResult
runCampaign(const CampaignConfig &cfg, const std::function<void()> &program)
{
    using std::chrono::steady_clock;
    auto campaign_t0 = steady_clock::now();

    const GoatConfig &ecfg = cfg.engine;
    const int budget = ecfg.maxIterations;
    int jobs = cfg.jobs < 1 ? 1 : cfg.jobs;
    if (jobs > budget)
        jobs = budget < 1 ? 1 : budget;

    CampaignResult out;
    out.jobs = jobs;
    // Before any file is opened: a refused campaign touches none.
    if (std::string why = refusal(cfg); !why.empty()) {
        out.refused = {std::move(why), true};
        return out;
    }
    engine::GoatResult &result = out.merged;
    // The static requirement universe, built once and shared by the
    // merged state and every worker.
    const auto universe =
        std::make_shared<const CoverageUniverse>(ecfg.staticModel);
    FoldState fs(cfg, program, out, universe);
    if (!beginFold(fs))
        return out;
    const int restored_executed = fs.executed;
    // Checkpoint rounds end every checkpointEvery iterations past the
    // restored cursor.
    fs.roundEnd =
        std::min(budget, fs.cursor + std::max(1, cfg.checkpointEvery));

    Shared sh(cfg, program);
    // In-process workers: worker 0 runs the inline prefix; the others
    // are made only if the campaign fans out.
    std::vector<std::unique_ptr<Worker>> workers;
    int shard_resolved = 0;
    auto running = [&] {
        return !fs.stopped && fs.cursor < budget && !interruptRequested();
    };
    const bool ran = running();
    if (cfg.isolate) {
        // Forked shards run every iteration: no prefix, and the
        // campaign starts no thread before a fork.
        if (ran)
            shard_resolved = runShards(sh, fs, universe);
    } else {
        workers.push_back(std::make_unique<Worker>(0, universe));
        // The inline prefix: most stop-on-bug campaigns end here; at
        // -jobs=1 it is the whole campaign.
        const int inline_end =
            jobs == 1 ? budget
                      : std::min(budget, fs.cursor + kInlineIterations);
        while (running() && fs.cursor < inline_end) {
            std::unique_ptr<IterRecord> rec =
                runIteration(sh, *workers[0], fs.cursor + 1);
            if (!rec)
                break; // cut short mid-run: drop the partial record
            fold(fs, *rec);
            sh.recycle(std::move(rec));
        }
    }
    // Fan out what is left to worker threads, while this thread folds
    // their records in iteration order.
    if (running() && !cfg.isolate) {
        for (int i = 1; i < jobs; ++i)
            workers.push_back(std::make_unique<Worker>(i, universe));
        Window win(kWindowPerJob * jobs, fs.cursor, jobs);
        std::vector<std::thread> threads;
        threads.reserve(workers.size());
        for (auto &w : workers)
            threads.emplace_back(
                [&sh, &win, &w]() { workerLoop(sh, win, *w); });
        // Sleep for a quarter window at a time, so the fold wakes once
        // per batch of records, not once per record.
        const int batch = win.size() / 4;
        for (;;) {
            // Read before folding: a worker that has left published
            // every record it made.
            const bool drained = win.idle();
            while (!fs.stopped && fs.cursor < budget) {
                std::unique_ptr<IterRecord> rec = win.take(fs.cursor + 1);
                if (!rec)
                    break;
                fold(fs, *rec);
                sh.recycle(std::move(rec));
                win.advance(fs.cursor);
            }
            if (fs.stopped || fs.cursor >= budget || drained)
                break;
            fs.flushLedger();
            // On an interrupt, nothing more is claimed; the records
            // already running still land and fold.
            if (interruptRequested())
                win.close();
            win.await(fs.cursor + 1,
                      std::max(fs.cursor + 1,
                               std::min({fs.cursor + batch, budget,
                                         sh.stopAt.load(
                                             std::memory_order_relaxed)})));
        }
        win.close();
        for (auto &t : threads)
            t.join();
        out.window = win.size();
        out.windowPeak = win.peak();
    }
    // The last round: cut short by a stop or an interrupt, or
    // interrupted before its first record.
    if (!cfg.checkpointPath.empty() && ran && fs.committed != fs.cursor)
        writeCheckpoint(fs);

    if (interruptRequested()) {
        out.interrupted = true;
        out.interruptSig = interruptSignal();
    }

    // The merge stage is profiled on this thread: one scope per
    // canonically merged iteration, so its entry total is as
    // worker-count independent as the rest of the fold.
    if (ecfg.profile) {
        obs::ProfileSnapshot merge_delta = fs.mergeProfiler.drain();
        result.profile.mergeFrom(merge_delta);
        for (const auto &w : workers)
            out.executedProfile.mergeFrom(w->executedProfile);
        out.executedProfile.mergeFrom(merge_delta);
    }

    out.cutoffIteration = fs.cursor;
    out.recordsMade = sh.made();
    out.executedIterations = restored_executed + shard_resolved;
    for (const auto &w : workers)
        out.executedIterations += w->ran;
    out.discardedIterations =
        out.executedIterations - static_cast<int>(result.iterations.size());
    out.coverage = std::move(fs.merged);

    // A race restored from a checkpoint has no live capture;
    // rehydrate it from the pure (config, iteration) function.
    if (result.raceIteration > 0 && !result.firstRaces.any()) {
        SingleRun sr =
            engine::runCampaignIteration(ecfg, program, result.raceIteration);
        result.firstRaces = analysis::detectRaces(sr.ect);
    }

    finalizeCampaign(fs, workers, campaign_t0);
    return out;
}

} // namespace goat::campaign
