#include "campaign/campaign.hh"

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "analysis/goroutine_tree.hh"
#include "analysis/happens_before.hh"
#include "analysis/report.hh"
#include "base/fmt.hh"
#include "base/interrupt.hh"
#include "base/logging.hh"
#include "campaign/checkpoint.hh"
#include "campaign/supervisor.hh"
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

/** Lower @p a to @p v if v is smaller (lock-free broadcast). */
void
atomicMin(std::atomic<int> &a, int v)
{
    int cur = a.load(std::memory_order_relaxed);
    while (v < cur &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

/** Make room for @p n more elements in @p v, at least doubling it. */
template <class T>
void
reserveMore(std::vector<T> &v, size_t n)
{
    if (v.capacity() - v.size() < n)
        v.reserve(std::max(v.size() + n, 2 * v.capacity()));
}

/** Inverse of analysis::verdictName (Pass on an unknown name). */
analysis::Verdict
verdictFromName(const std::string &name)
{
    for (analysis::Verdict v :
         {analysis::Verdict::Pass, analysis::Verdict::PartialDeadlock,
          analysis::Verdict::GlobalDeadlock, analysis::Verdict::Crash,
          analysis::Verdict::Timeout}) {
        if (name == analysis::verdictName(v))
            return v;
    }
    return analysis::Verdict::Pass;
}

/**
 * Inverse of runtime::runOutcomeName, extended with the supervised
 * outcomes ("crashed" → Crash, "timeout" → StepBudget): frozen and
 * shard-digest rows carry names, not enums.
 */
RunOutcome
outcomeFromName(const std::string &name)
{
    for (RunOutcome o : {RunOutcome::Ok, RunOutcome::GlobalDeadlock,
                         RunOutcome::Crash, RunOutcome::StepBudget}) {
        if (name == runtime::runOutcomeName(o))
            return o;
    }
    if (name == "crashed")
        return RunOutcome::Crash;
    if (name == "timeout")
        return RunOutcome::StepBudget;
    return RunOutcome::Ok;
}

/**
 * A supervised shard loss (process crash or watchdog timeout), as
 * opposed to an in-process detection. Loss rows are bug rows but are
 * exempt from -stop-on-bug: the supervisor's whole point is that the
 * campaign continues past them.
 */
bool
supervisedLoss(const obs::LedgerEntry &e)
{
    return e.outcome == "crashed" || e.outcome == "timeout";
}

/** Reconstruct the iteration summary from a frozen/digest row. */
IterationOutcome
ioFromRow(const obs::LedgerEntry &e)
{
    IterationOutcome io;
    io.exec.outcome = outcomeFromName(e.outcome);
    io.exec.steps = e.steps;
    io.dl.verdict = verdictFromName(e.verdict);
    io.coveragePct = e.coveragePct;
    io.wallMicros = e.wallMicros;
    return io;
}

/**
 * Everything one worker records about one executed iteration. The
 * trace itself is dropped after analysis (except for the worker's
 * first bug, captured separately) — only the merge-relevant digest is
 * kept, so memory stays bounded over long campaigns.
 */
struct IterRecord
{
    int iter = 0;
    uint64_t seed = 0;
    runtime::ExecResult exec;
    analysis::DeadlockReport dl;
    /** dl.buggy() or watchdog; races are folded in canonically. */
    bool coreBug = false;
    uint64_t wallMicros = 0;
    /** This iteration's coverage contribution (with -cov). */
    CoverageDelta cov;
    /** Worker-registry delta over this iteration, rendered once as the
     *  ledger's metrics JSON (ledger only). */
    std::string metricsJson;
    /** Stage-profiler delta over this iteration (with profile). */
    obs::ProfileSnapshot profileDelta;
    /**
     * Predictive-analysis report over this iteration's trace (with
     * predict) — a pure function of the trace, so computed in the
     * worker; the merge folds and confirms canonically.
     */
    analysis::PredictionReport predictions;
    /** The iteration's schedule recipe (with predict): the base the
     * merge synthesizes confirmation replays from. */
    trace::Recipe recipe;
};

/** Full capture of a worker's first buggy run (report material). */
struct BugCapture
{
    int iter = -1;
    SingleRun sr;
};

/** A worker's first data race (with -race). */
struct RaceCapture
{
    int iter = -1;
    analysis::RaceReport races;
};

/**
 * One worker: a private metrics registry (installed thread-locally for
 * the worker's lifetime, so the scheduler and engine bookkeeping of
 * this thread never touch another worker's instruments), a coverage
 * scratch computing per-iteration deltas on the campaign's shared
 * universe, a private cumulative coverage state (guided-policy food
 * and threshold heuristic), and the iteration records to merge.
 *
 * Workers persist across checkpoint rounds: the thread running
 * workerLoop is respawned per round, but the registry (with its
 * ledger-delta baseline), coverage, and records all carry over, so an
 * N-round campaign records exactly what a single-round one would.
 */
struct Worker
{
    explicit Worker(const std::shared_ptr<const CoverageUniverse> &u)
        : scratch(u), localCov(u)
    {
    }

    int id = 0;
    obs::Registry registry;
    /** Private stage profiler (installed thread-locally when on). */
    obs::Profiler profiler;
    CoverageScratch scratch;
    CoverageState localCov;
    std::vector<IterRecord> records;
    BugCapture firstBug;
    RaceCapture firstRace;
    /** Records already indexed by the merge (rounds watermark). */
    size_t indexed = 0;
};

/** State shared by all workers of one campaign. */
struct Shared
{
    const CampaignConfig &cfg;
    const std::function<void()> &program;
    /** Next iteration to claim (work distribution). */
    std::atomic<int> next{1};
    /** Last iteration of the current checkpoint round. */
    std::atomic<int> roundEnd;
    /**
     * Early-stop broadcast: lowest iteration known to satisfy a stop
     * condition. Claims beyond it are pointless — the merge will
     * discard them — so workers exit instead. Never below the
     * canonical stop point (broadcast values are upper bounds on it),
     * so every iteration the merge needs is guaranteed to execute.
     */
    std::atomic<int> stopAt;

    explicit Shared(const CampaignConfig &c,
                    const std::function<void()> &p)
        : cfg(c), program(p), roundEnd(c.engine.maxIterations),
          stopAt(c.engine.maxIterations)
    {
    }
};

void
workerLoop(Shared &sh, Worker &w)
{
    using std::chrono::steady_clock;

    const GoatConfig &cfg = sh.cfg.engine;
    const bool measure_cov = cfg.collectCoverage || cfg.coverageGuided;
    const bool want_ledger = !cfg.ledgerPath.empty() ||
                             !sh.cfg.checkpointPath.empty() ||
                             !sh.cfg.resumePath.empty();

    // Bind this thread's metrics to the worker's private registry for
    // the whole loop (covers the scheduler's per-run flush too).
    obs::ScopedRegistry scope(w.registry);
    std::unique_ptr<obs::ScopedProfiler> prof_scope;
    if (cfg.profile)
        prof_scope = std::make_unique<obs::ScopedProfiler>(w.profiler);
    obs::Counter &iterations_total =
        w.registry.counter("engine.iterations");
    obs::Counter &bugs_total = w.registry.counter("engine.bugs_found");
    obs::Histogram &iter_wall = w.registry.histogram(
        "engine.iter_wall_us",
        {100, 1'000, 10'000, 100'000, 1'000'000, 10'000'000});

    for (;;) {
        if (interruptRequested())
            break; // drain: stop claiming, keep finished records
        int iter = sh.next.fetch_add(1, std::memory_order_relaxed);
        if (iter > cfg.maxIterations)
            break;
        if (iter > sh.roundEnd.load(std::memory_order_relaxed))
            break; // checkpoint-round boundary
        if (iter > sh.stopAt.load(std::memory_order_relaxed))
            break; // early-stop broadcast received

        auto t0 = steady_clock::now();
        SingleRun sr = engine::runCampaignIteration(cfg, sh.program,
                                                    iter, &w.localCov);
        if (sr.exec.interrupted)
            break; // cut short mid-run: drop the partial record

        IterRecord rec;
        rec.iter = iter;
        rec.seed = engine::campaignIterationSeed(cfg.seedBase, iter);
        rec.exec = sr.exec;
        rec.dl = sr.dl;
        rec.coreBug = sr.dl.buggy() ||
                      sr.exec.outcome == RunOutcome::StepBudget;
        iterations_total.inc();

        if (cfg.predict) {
            rec.predictions = analysis::predictBlockingBugs(sr.ect);
            rec.recipe = sr.recipe;
        }

        if (measure_cov) {
            // One delta (on the run's tree, built once for the deadlock
            // check) feeds both the canonical merge and the worker's
            // cumulative state.
            w.scratch.compute(sr.ect, *sr.tree, &rec.cov);
            w.localCov.applyDelta(rec.cov);
            // The worker's cumulative coverage is a subset of the
            // merged coverage at this iteration, so reaching the
            // threshold locally proves the canonical cutoff is <= iter.
            if (cfg.collectCoverage &&
                w.localCov.percent() >= cfg.covThreshold)
                atomicMin(sh.stopAt, iter);
        }

        if (cfg.raceDetect && w.firstRace.iter < 0) {
            analysis::RaceReport races = analysis::detectRaces(sr.ect);
            if (races.any()) {
                w.firstRace.iter = iter;
                w.firstRace.races = std::move(races);
            }
        }

        bool local_bug =
            rec.coreBug ||
            (cfg.raceDetect && w.firstRace.iter == iter);
        if (local_bug && w.firstBug.iter < 0) {
            w.firstBug.iter = iter;
            w.firstBug.sr = sr;
            bugs_total.inc();
            // The minimum over all workers' first-bug broadcasts is
            // exactly the canonical first detection (each worker
            // claims increasing indices, so its first bug is its
            // minimum), so the watermark converges to it.
            if (cfg.stopOnBug)
                atomicMin(sh.stopAt, iter);
        }

        rec.wallMicros = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                steady_clock::now() - t0)
                .count());
        iter_wall.observe(rec.wallMicros);

        if (logEnabled(LogLevel::Debug)) {
            debugLog(strFormat(
                "campaign: worker %d iter %d/%d seed=%llu outcome=%s "
                "verdict=%s wall_us=%llu",
                w.id, iter, cfg.maxIterations,
                static_cast<unsigned long long>(rec.seed),
                runtime::runOutcomeName(rec.exec.outcome),
                analysis::verdictName(rec.dl.verdict),
                static_cast<unsigned long long>(rec.wallMicros)));
        }

        // Rendered here, once: the row (and its checkpoint block)
        // carries the JSON, not a snapshot.
        if (want_ledger)
            rec.metricsJson = w.registry.deltaJson();

        // Draining per iteration resets the sampling phase, so the
        // delta (and under a deterministic clock, its histogram) is a
        // pure function of the iteration — the canonical merge can
        // fold deltas in iteration order, worker-count independent.
        if (cfg.profile)
            rec.profileDelta = w.profiler.drain();

        if (sh.cfg.progress) {
            sh.cfg.progress->noteIteration(
                static_cast<size_t>(rec.dl.verdict), local_bug);
            if (measure_cov)
                sh.cfg.progress->noteCoveragePermille(
                    static_cast<uint64_t>(w.localCov.percent() * 10.0));
        }

        w.records.push_back(std::move(rec));
    }
}

/**
 * The canonical fold's bookkeeping, shared by the threaded and
 * isolated drivers (the heavy material — saturation, iterations, bug
 * state — lives in the GoatResult being built).
 */
struct FoldState
{
    CoverageState merged;
    std::vector<obs::LedgerEntry> rows;
    /** Last canonically merged iteration. */
    int cursor = 0;
    /** Iterations executed across all workers (incl. overshoot). */
    int executed = 0;
    /** A canonical stop condition was hit. */
    bool stopped = false;
    int respawns = 0;
    int crashes = 0;
    int timeouts = 0;
    /** The -checkpoint log (closed when not checkpointing). */
    CheckpointLog log;

    explicit FoldState(const std::shared_ptr<const CoverageUniverse> &u)
        : merged(u)
    {
    }
};

/** Refuse a resume (the campaign does not run); always false. */
bool
refuseResume(CampaignResult &out, std::string why)
{
    out.resumeOk = false;
    out.resumeError = std::move(why);
    return false;
}

/**
 * Restore a parsed checkpoint into the fold: merged bitmap, saturation
 * series, frozen rows (their iteration summaries re-enter
 * result.iterations), tallies, and bug/race watermarks. A bug/race
 * watermark that names no (bug) row of the prefix, or a malformed
 * coverage bitmap, refuses the resume (false, resumeError set).
 */
bool
restoreCheckpoint(CheckpointData &ck, const CampaignConfig &cfg,
                  FoldState &fs, engine::GoatResult &result,
                  CampaignResult &out)
{
    const bool measure_cov =
        cfg.engine.collectCoverage || cfg.engine.coverageGuided;
    auto names_row = [&ck](int iter) {
        return iter == -1 || (iter >= 1 && iter <= ck.cursor);
    };
    if (!names_row(ck.bugIteration) ||
        (ck.bugIteration > 0 &&
         !ck.rows[static_cast<size_t>(ck.bugIteration) - 1].bug))
        return refuseResume(
            out, strFormat("checkpoint bug_iteration %d is not a bug row "
                           "of its %d-row prefix",
                           ck.bugIteration, ck.cursor));
    if (!names_row(ck.raceIteration))
        return refuseResume(
            out, strFormat("checkpoint race_iteration %d is not a row of "
                           "its %d-row prefix",
                           ck.raceIteration, ck.cursor));
    if (!ck.covBitmap.empty() && !fs.merged.restoreBitmap(ck.covBitmap))
        return refuseResume(out,
                            "malformed coverage bitmap in checkpoint");
    fs.cursor = ck.cursor;
    fs.executed = ck.executed;
    fs.stopped = ck.stopped;
    fs.respawns = ck.respawns;
    fs.crashes = ck.crashes;
    fs.timeouts = ck.timeouts;
    for (const obs::SaturationSample &s : ck.satSamples)
        result.saturation.appendSample(s);
    fs.rows = std::move(ck.rows);
    for (const obs::LedgerEntry &row : fs.rows) {
        result.iterations.push_back(ioFromRow(row));
        if (cfg.progress)
            cfg.progress->noteIteration(
                static_cast<size_t>(verdictFromName(row.verdict)),
                row.bug);
    }
    if (measure_cov && fs.cursor > 0)
        result.finalCoverage = fs.merged.percent();
    if (ck.bugIteration > 0) {
        result.bugFound = true;
        result.bugIteration = ck.bugIteration;
    }
    if (ck.raceIteration > 0)
        result.raceIteration = ck.raceIteration;
    out.resumed = true;
    out.resumeFrom = ck.cursor;
    return true;
}

/** Record a checkpoint I/O failure (warned once per campaign). */
void
checkpointFailed(const CampaignConfig &cfg, CampaignResult &out)
{
    if (out.checkpointOk)
        warn("cannot write checkpoint file " + cfg.checkpointPath);
    out.checkpointOk = false;
}

/** Append the fold's new rows and current summary to the log. */
void
writeCheckpoint(const CampaignConfig &cfg, FoldState &fs,
                const engine::GoatResult &result, CampaignResult &out)
{
    const bool measure_cov =
        cfg.engine.collectCoverage || cfg.engine.coverageGuided;
    CheckpointData d;
    d.executed = fs.executed;
    d.respawns = fs.respawns;
    d.crashes = fs.crashes;
    d.timeouts = fs.timeouts;
    d.bugIteration = result.bugFound ? result.bugIteration : -1;
    d.raceIteration = result.raceIteration;
    d.stopped = fs.stopped;
    if (measure_cov)
        d.covBitmap = fs.merged.bitmapStr();
    if (!fs.log.commit(d, fs.rows, result.saturation.samples()))
        checkpointFailed(cfg, out);
}

/**
 * Produce the first-bug report material when no live capture exists
 * (the bug row was restored from a checkpoint or crossed a shard
 * pipe). Normal rows are rehydrated by re-running the iteration —
 * a pure function of (config, index). Supervised crash/timeout rows
 * cannot be re-run in-process; they get a seeded-policy recipe (the
 * replay re-derives the schedule and reproduces the crash/hang) and a
 * synthesized report.
 */
void
materializeFirstBug(const CampaignConfig &cfg,
                    const std::function<void()> &program,
                    const obs::LedgerEntry &row,
                    engine::GoatResult &result)
{
    if (supervisedLoss(row)) {
        trace::Recipe r;
        r.kernel = cfg.programName;
        r.seed = row.seed;
        r.delayBound = row.delayBound;
        r.noiseProb = cfg.engine.noiseProb;
        r.stepBudget = cfg.engine.stepBudget;
        r.iteration = row.iteration;
        r.outcome = row.outcome;
        r.verdict = row.verdict;
        r.seededPolicy = true;
        result.firstBugRecipe = std::move(r);
        result.firstBug.verdict = verdictFromName(row.verdict);
        result.firstBug.panicMsg = row.crashCause;
        result.firstBugExec.outcome = outcomeFromName(row.outcome);
        result.report = strFormat(
            "supervised %s at iteration %d%s%s (seeded-policy recipe; "
            "replay reproduces the failure)\n",
            row.verdict.c_str(), row.iteration,
            row.crashCause.empty() ? "" : ", cause ",
            row.crashCause.c_str());
        return;
    }
    CoverageState scratch(cfg.engine.staticModel);
    SingleRun sr = engine::runCampaignIteration(
        cfg.engine, program, row.iteration, &scratch);
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
 * The merge epilogue shared by both drivers: recipe recording and
 * minimization, prediction confirmation (threaded only), the lint
 * cross-check, ledger emission, and campaign-level metrics.
 */
void
finalizeCampaign(const CampaignConfig &cfg,
                 const std::function<void()> &program,
                 CampaignResult &out,
                 std::vector<obs::LedgerEntry> &ledger_rows,
                 std::vector<IterRecord *> *by_iter,
                 std::vector<std::unique_ptr<Worker>> *workers,
                 std::chrono::steady_clock::time_point campaign_t0)
{
    using std::chrono::steady_clock;
    const GoatConfig &ecfg = cfg.engine;
    engine::GoatResult &result = out.merged;

    // Repro-recipe capture: the canonical first bug's decision stream
    // is a pure function of its iteration index, so the recipe bytes
    // are identical for any -jobs value. Minimization replays on this
    // (scheduler-free) thread, after the workers have joined.
    if (result.bugFound && !cfg.recordPath.empty()) {
        out.recordOk =
            trace::writeRecipeFile(result.firstBugRecipe, cfg.recordPath);
        if (out.recordOk)
            out.recipePath = cfg.recordPath;
        else
            warn("cannot write recipe file " + cfg.recordPath);
    }
    if (result.bugFound && cfg.minimize) {
        if (result.firstBugRecipe.seededPolicy) {
            // Minimization replays candidates in-process; a crash
            // recipe would take the campaign down with it.
            warn("skipping -minimize: the first bug is a supervised "
                 "crash/timeout (seeded-policy recipe)");
        } else {
            out.minimize = engine::minimizeRecipe(program,
                                                  result.firstBugRecipe);
            if (!cfg.recordPath.empty() && out.minimize.reproduced) {
                std::string min_path = cfg.recordPath + ".min";
                if (trace::writeRecipeFile(out.minimize.minimized,
                                           min_path)) {
                    out.minimizedRecipePath = min_path;
                } else {
                    out.recordOk = false;
                    warn("cannot write recipe file " + min_path);
                }
            }
        }
    }
    // Prediction confirmation: replay-steered cross-checks run on this
    // (scheduler-free) thread after the workers joined, grouped by the
    // source iteration whose recipe seeds the synthesized schedules.
    // The fold above appended predictions in ascending iteration
    // order, so each group is a contiguous span.
    if (ecfg.predict && by_iter) {
        auto &preds = out.predict.report.predictions;
        out.predict.confirmRecipes.assign(preds.size(),
                                          trace::Recipe());
        size_t idx = 0;
        while (idx < preds.size()) {
            int src = preds[idx].iteration;
            size_t end = idx;
            while (end < preds.size() && preds[end].iteration == src)
                ++end;
            analysis::PredictionReport sub;
            sub.predictions.assign(preds.begin() +
                                       static_cast<ptrdiff_t>(idx),
                                   preds.begin() +
                                       static_cast<ptrdiff_t>(end));
            trace::Recipe base =
                (*by_iter)[static_cast<size_t>(src)]->recipe;
            base.kernel = cfg.programName;
            engine::PredictOutcome po = engine::confirmPredictions(
                program, base, std::move(sub));
            out.predict.replays += po.replays;
            for (size_t j = 0; j < po.report.predictions.size(); ++j) {
                preds[idx + j] = std::move(po.report.predictions[j]);
                out.predict.confirmRecipes[idx + j] =
                    std::move(po.confirmRecipes[j]);
            }
            idx = end;
        }
        out.predict.confirmedCount =
            out.predict.report.confirmedCount();

        // Stamp rows whose iteration contributed confirmed
        // predictions (the ledger is written below, at the end).
        for (obs::LedgerEntry &e : ledger_rows) {
            int conf = 0;
            for (const analysis::Prediction &p : preds)
                if (p.confirmed && p.iteration == e.iteration)
                    ++conf;
            if (conf > 0)
                e.predictedConfirmed = conf;
        }
    }

    // Dynamic cross-check of the lint bridge: mark findings whose site
    // a goroutine of the canonical first bug trace actually reached
    // while parked or panicking. Input (the canonical trace) and the
    // lint report are both worker-count-independent. A supervised
    // crash/timeout bug has no trace to check against.
    if (cfg.lintBridge) {
        out.lint = cfg.lint;
        if (result.bugFound && !result.firstBugRecipe.seededPolicy) {
            out.confirmedWarnings = static_cast<int>(
                staticmodel::confirmFindings(out.lint,
                                             result.firstBugEct));
            for (obs::LedgerEntry &e : ledger_rows)
                if (e.iteration == result.bugIteration)
                    e.confirmedWarnings = out.confirmedWarnings;
        }
    }

    if (result.bugFound &&
        (!out.recipePath.empty() || cfg.minimize)) {
        // Stamp the repro fields onto the bug's ledger row.
        for (obs::LedgerEntry &e : ledger_rows) {
            if (e.iteration == result.bugIteration) {
                e.recipePath = out.recipePath;
                if (cfg.minimize && out.minimize.reproduced)
                    e.minimizedYields = static_cast<int>(
                        out.minimize.minimized.yields.size());
                break;
            }
        }
    }

    // Campaign ledgers are written at merge time, sorted by global
    // iteration id and truncated at the canonical cutoff, so the row
    // count and per-row seed/verdict content match any worker count.
    if (!ecfg.ledgerPath.empty()) {
        obs::RunLedger ledger(ecfg.ledgerPath);
        out.ledgerOk = ledger.ok();
        for (const obs::LedgerEntry &e : ledger_rows)
            ledger.append(e);
        out.ledgerRows = ledger.linesWritten();
    }

    // Fold the private worker registries into one snapshot and absorb
    // them into the campaign-level registry, plus campaign bookkeeping.
    obs::Registry &parent = obs::Registry::current();
    if (workers) {
        for (const auto &w : *workers) {
            obs::Snapshot s = w->registry.snapshot();
            out.workerMetrics.mergeFrom(s);
            parent.absorb(s);
        }
    }
    parent.counter("engine.campaigns").inc();
    parent.counter("campaign.runs").inc();
    parent.counter("campaign.iterations.executed")
        .inc(static_cast<uint64_t>(out.executedIterations));
    parent.counter("campaign.iterations.discarded")
        .inc(static_cast<uint64_t>(out.discardedIterations));
    parent.gauge("campaign.workers").setMax(out.jobs);
    if (ecfg.predict && by_iter) {
        parent.counter("campaign.predictions")
            .inc(static_cast<uint64_t>(
                out.predict.report.predictions.size()));
        parent.counter("campaign.predictions.confirmed")
            .inc(static_cast<uint64_t>(out.predict.confirmedCount));
    }
    if (cfg.isolate || out.respawns || out.crashes || out.timeouts) {
        parent.counter("campaign.respawns")
            .inc(static_cast<uint64_t>(out.respawns));
        parent.counter("campaign.crashes")
            .inc(static_cast<uint64_t>(out.crashes));
        parent.counter("campaign.timeouts")
            .inc(static_cast<uint64_t>(out.timeouts));
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
 * Set the fold up for a run: restore the -resume checkpoint (after
 * its fingerprint check) and open the -checkpoint log. False when the
 * resume is refused (out.resumeError says why).
 */
bool
beginFold(const CampaignConfig &cfg, FoldState &fs,
          engine::GoatResult &result, CampaignResult &out)
{
    const bool checkpointing = !cfg.checkpointPath.empty();
    if (cfg.resumePath.empty()) {
        if (checkpointing &&
            !fs.log.create(cfg.checkpointPath, configFingerprint(cfg)))
            checkpointFailed(cfg, out);
        return true;
    }
    CheckpointData ck;
    std::string err;
    if (!readCheckpointFile(cfg.resumePath, &ck, &err))
        return refuseResume(out, err);
    if (ck.fingerprint != configFingerprint(cfg))
        return refuseResume(out, "checkpoint fingerprint mismatch: " +
                                     ck.fingerprint + " vs " +
                                     configFingerprint(cfg));
    if (!restoreCheckpoint(ck, cfg, fs, result, out))
        return false;
    if (checkpointing &&
        !fs.log.resume(cfg.checkpointPath, cfg.resumePath, ck, fs.rows,
                       result.saturation.samples()))
        checkpointFailed(cfg, out);
    return true;
}

/**
 * In-process driver: worker threads, optionally in checkpoint rounds.
 * With no checkpoint/resume configured this is exactly one round over
 * the full budget — the classic path, byte-identical to what it
 * always produced.
 */
CampaignResult
runThreadedCampaign(const CampaignConfig &cfg,
                    const std::function<void()> &program)
{
    using std::chrono::steady_clock;
    auto campaign_t0 = steady_clock::now();

    const GoatConfig &ecfg = cfg.engine;
    const bool measure_cov = ecfg.collectCoverage || ecfg.coverageGuided;
    const bool checkpointing = !cfg.checkpointPath.empty();
    const bool want_rows = !ecfg.ledgerPath.empty() || checkpointing ||
                           !cfg.resumePath.empty();
    int jobs = cfg.jobs < 1 ? 1 : cfg.jobs;
    if (jobs > ecfg.maxIterations)
        jobs = ecfg.maxIterations < 1 ? 1 : ecfg.maxIterations;

    CampaignResult out;
    out.jobs = jobs;
    engine::GoatResult &result = out.merged;
    // The static requirement universe, built once and shared by the
    // merged state and every worker.
    const auto universe =
        std::make_shared<const CoverageUniverse>(ecfg.staticModel);
    FoldState fs(universe);
    if (!beginFold(cfg, fs, result, out))
        return out;
    // A race restored from the checkpoint already owns the canonical
    // first-race slot; fresh captures (necessarily later) never
    // displace it.
    const bool race_frozen = result.raceIteration > 0;

    Shared sh(cfg, program);
    std::vector<std::unique_ptr<Worker>> workers;
    workers.reserve(static_cast<size_t>(jobs));
    for (int i = 0; i < jobs; ++i) {
        workers.push_back(std::make_unique<Worker>(universe));
        workers.back()->id = i;
    }

    // Index records by global iteration id. Claims come from one
    // atomic counter, so executed iterations form a contiguous prefix
    // possibly followed by abandoned claims past the watermark.
    std::vector<IterRecord *> by_iter(
        static_cast<size_t>(ecfg.maxIterations) + 1, nullptr);
    std::vector<int> worker_of(by_iter.size(), -1);
    std::vector<int> wseq_of(by_iter.size(), 0);

    std::set<std::string> seen_pred;

    // The merge stage is profiled on the campaign thread: one scope
    // per canonically merged iteration, so its entry total is as
    // worker-count independent as the rest of the fold.
    obs::Profiler merge_profiler;
    std::unique_ptr<obs::ScopedProfiler> merge_prof_scope;
    if (ecfg.profile)
        merge_prof_scope =
            std::make_unique<obs::ScopedProfiler>(merge_profiler);

    while (!fs.stopped && fs.cursor < ecfg.maxIterations &&
           !interruptRequested()) {
        const int round_end =
            checkpointing
                ? std::min(ecfg.maxIterations,
                           fs.cursor + std::max(1, cfg.checkpointEvery))
                : ecfg.maxIterations;
        sh.roundEnd.store(round_end, std::memory_order_relaxed);
        sh.next.store(fs.cursor + 1, std::memory_order_relaxed);

        if (jobs == 1) {
            workerLoop(sh, *workers[0]);
        } else {
            std::vector<std::thread> threads;
            threads.reserve(workers.size());
            for (auto &w : workers)
                threads.emplace_back(
                    [&sh, &w]() { workerLoop(sh, *w); });
            for (auto &t : threads)
                t.join();
        }

        // Index this round's fresh records.
        const int executed_before = fs.executed;
        for (const auto &w : workers) {
            for (size_t r = w->indexed; r < w->records.size(); ++r) {
                IterRecord &rec = w->records[r];
                by_iter[static_cast<size_t>(rec.iter)] = &rec;
                worker_of[static_cast<size_t>(rec.iter)] = w->id;
                wseq_of[static_cast<size_t>(rec.iter)] =
                    static_cast<int>(r) + 1;
                ++fs.executed;
            }
            w->indexed = w->records.size();
        }
        // Room for every row this round can merge, so the fold below
        // does not move the (large) rows it already holds.
        const size_t fresh = static_cast<size_t>(fs.executed - executed_before);
        reserveMore(result.iterations, fresh);
        if (want_rows)
            reserveMore(fs.rows, fresh);

        // Canonical first race: each worker's capture is the minimum
        // over its (increasing) claimed indices, so the global minimum
        // over captures is the first race a sequential campaign would
        // find.
        int race_iter = -1;
        const RaceCapture *race_capture = nullptr;
        if (!race_frozen) {
            for (const auto &w : workers) {
                if (w->firstRace.iter >= 0 &&
                    (race_iter < 0 || w->firstRace.iter < race_iter)) {
                    race_iter = w->firstRace.iter;
                    race_capture = &w->firstRace;
                }
            }
        }

        // Replay the sequential engine's loop over the merged records:
        // fold coverage in iteration order, apply bug/threshold stop
        // semantics, and cut off exactly where -jobs=1 would have
        // stopped.
        for (int i = fs.cursor + 1; i <= round_end; ++i) {
            IterRecord *rec = by_iter[static_cast<size_t>(i)];
            if (!rec)
                break; // past the watermark: nothing more to merge
            fs.cursor = i;
            obs::ProfileScope merge_prof(obs::Stage::Merge);

            IterationOutcome io;
            io.exec = rec->exec;
            io.dl = rec->dl;
            io.wallMicros = rec->wallMicros;

            if (measure_cov) {
                fs.merged.applyDelta(rec->cov);
                rec->cov = CoverageDelta(); // folded; free it
                io.coveragePct = fs.merged.percent();
                result.finalCoverage = io.coveragePct;
                // The saturation sample reads the canonical cumulative
                // fold, so the series is identical for any worker
                // count.
                if (ecfg.collectCoverage)
                    result.saturation.sample(i, fs.merged);
            }

            if (ecfg.profile)
                result.profile.mergeFrom(rec->profileDelta);

            if (i == race_iter) {
                result.firstRaces = race_capture->races;
                result.raceIteration = i;
            }

            // Fold this iteration's predictions in iteration order,
            // keeping the first instance of each stable key — the same
            // dedup a sequential pass over the traces would perform.
            if (ecfg.predict) {
                for (const analysis::Prediction &p :
                     rec->predictions.predictions) {
                    if (!seen_pred.insert(p.key()).second)
                        continue;
                    analysis::Prediction q = p;
                    q.iteration = i;
                    out.predict.report.predictions.push_back(
                        std::move(q));
                }
            }

            bool buggy = rec->coreBug || i == race_iter;
            if (buggy && !result.bugFound) {
                result.bugFound = true;
                result.bugIteration = i;
                // The worker that executed the canonical first
                // detection necessarily captured it as its own first
                // bug.
                for (const auto &w : workers) {
                    if (w->firstBug.iter == i) {
                        SingleRun &sr = w->firstBug.sr;
                        result.firstBug = sr.dl;
                        result.firstBugExec = sr.exec;
                        result.firstBugEct = sr.ect;
                        engine::finalizeRecipe(sr);
                        sr.recipe.kernel = cfg.programName;
                        result.firstBugRecipe = sr.recipe;
                        result.report = analysis::deadlockReportStr(
                            sr.ect, *sr.tree, sr.dl);
                        break;
                    }
                }
            }

            if (want_rows) {
                obs::LedgerEntry &e = fs.rows.emplace_back();
                e.iteration = i;
                e.seed = rec->seed;
                e.delayBound = ecfg.delayBound;
                e.outcome = runtime::runOutcomeName(rec->exec.outcome);
                e.verdict = analysis::verdictName(rec->dl.verdict);
                e.bug = buggy;
                e.steps = rec->exec.steps;
                e.coveragePct = io.coveragePct;
                if (ecfg.collectCoverage && io.coveragePct >= 0) {
                    e.satCovered =
                        static_cast<int64_t>(fs.merged.coveredCount());
                    e.satTotal = static_cast<int64_t>(
                        fs.merged.totalRequirements());
                }
                e.wallMicros = rec->wallMicros;
                e.worker = worker_of[static_cast<size_t>(i)];
                e.workerSeq = wseq_of[static_cast<size_t>(i)];
                if (cfg.lintBridge)
                    e.staticWarnings = static_cast<int>(cfg.lint.size());
                if (ecfg.profile)
                    e.profileJson = rec->profileDelta.jsonRowStr();
                if (ecfg.predict)
                    e.predicted = static_cast<int>(
                        rec->predictions.predictions.size());
                e.metricsJson = std::move(rec->metricsJson);
            }

            result.iterations.push_back(std::move(io));

            if (buggy && ecfg.stopOnBug) {
                fs.stopped = true;
                break;
            }
            if (ecfg.collectCoverage &&
                fs.merged.percent() >= ecfg.covThreshold) {
                fs.stopped = true;
                break;
            }
        }

        if (checkpointing)
            writeCheckpoint(cfg, fs, result, out);

        // A gap in the merged prefix means the round was cut short by
        // an interrupt — nothing further can fold.
        if (fs.cursor < round_end && !fs.stopped)
            break;
    }

    if (interruptRequested()) {
        out.interrupted = true;
        out.interruptSig = interruptSignal();
    }

    // Close out the merge-stage profiling before the recipe/minimize
    // replays below: those execute the program on this thread and must
    // not record into the campaign fold.
    if (ecfg.profile) {
        obs::ProfileSnapshot merge_delta = merge_profiler.drain();
        merge_prof_scope.reset();
        result.profile.mergeFrom(merge_delta);
        for (const auto &w : workers)
            for (const IterRecord &r : w->records)
                out.executedProfile.mergeFrom(r.profileDelta);
        out.executedProfile.mergeFrom(merge_delta);
    }

    out.cutoffIteration = fs.cursor;
    out.executedIterations = fs.executed;
    out.discardedIterations =
        fs.executed - static_cast<int>(result.iterations.size());
    out.respawns = fs.respawns;
    out.crashes = fs.crashes;
    out.timeouts = fs.timeouts;
    out.coverage = std::move(fs.merged);

    // Bug/race material restored from a checkpoint has no live
    // capture; rehydrate it from the pure (config, iteration) function
    // before the finalize stages consume it.
    if (result.bugFound && result.report.empty() &&
        result.bugIteration >= 1 &&
        result.bugIteration <= static_cast<int>(fs.rows.size()))
        materializeFirstBug(
            cfg, program,
            fs.rows[static_cast<size_t>(result.bugIteration) - 1],
            result);
    if (result.raceIteration > 0 && !result.firstRaces.any()) {
        CoverageState scratch(ecfg.staticModel);
        SingleRun sr = engine::runCampaignIteration(
            ecfg, program, result.raceIteration, &scratch);
        result.firstRaces = analysis::detectRaces(sr.ect);
    }

    finalizeCampaign(cfg, program, out, fs.rows, &by_iter, &workers,
                     campaign_t0);
    return out;
}

/**
 * Isolated driver (-isolate): shards in forked children under the
 * supervisor; the parent folds shard digests in canonical iteration
 * order, so crashes and timeouts become classified ledger rows instead
 * of a dead campaign.
 */
CampaignResult
runIsolatedCampaign(const CampaignConfig &cfg,
                    const std::function<void()> &program)
{
    using std::chrono::steady_clock;
    auto campaign_t0 = steady_clock::now();

    const GoatConfig &ecfg = cfg.engine;
    const bool measure_cov = ecfg.collectCoverage || ecfg.coverageGuided;
    const bool checkpointing = !cfg.checkpointPath.empty();
    int jobs = cfg.jobs < 1 ? 1 : cfg.jobs;
    if (jobs > ecfg.maxIterations)
        jobs = ecfg.maxIterations < 1 ? 1 : ecfg.maxIterations;

    CampaignResult out;
    out.jobs = jobs;
    engine::GoatResult &result = out.merged;
    FoldState fs(std::make_shared<const CoverageUniverse>(ecfg.staticModel));
    if (!beginFold(cfg, fs, result, out))
        return out;

    // Digests arrive in shard-completion order; buffer and fold the
    // contiguous iteration prefix so every canonical consumer
    // (coverage, saturation, stop semantics) sees sequential order.
    std::map<int, ShardDigest> pending;
    int last_ckpt = fs.cursor;

    auto foldDigest = [&](ShardDigest &&d) {
        obs::LedgerEntry row = std::move(d.row);
        const int i = row.iteration;
        fs.cursor = i;
        if (cfg.lintBridge)
            row.staticWarnings = static_cast<int>(cfg.lint.size());

        IterationOutcome io = ioFromRow(row);
        if (measure_cov) {
            if (!d.covBitmap.empty() &&
                !fs.merged.restoreBitmap(d.covBitmap))
                warn(strFormat("iteration %d: malformed coverage bitmap "
                               "in shard digest",
                               i));
            // Loss rows carry no bitmap; they inherit the cumulative
            // state so the covered/req_total series stays monotone.
            io.coveragePct = fs.merged.percent();
            row.coveragePct = io.coveragePct;
            result.finalCoverage = io.coveragePct;
            if (ecfg.collectCoverage) {
                row.satCovered =
                    static_cast<int64_t>(fs.merged.coveredCount());
                row.satTotal = static_cast<int64_t>(
                    fs.merged.totalRequirements());
                result.saturation.sample(i, fs.merged);
            }
        }

        const bool buggy = row.bug;
        if (buggy && !result.bugFound) {
            result.bugFound = true;
            result.bugIteration = i;
        }
        if (cfg.progress) {
            cfg.progress->noteIteration(
                static_cast<size_t>(verdictFromName(row.verdict)),
                buggy);
            if (measure_cov)
                cfg.progress->noteCoveragePermille(static_cast<uint64_t>(
                    fs.merged.percent() * 10.0));
        }

        const bool loss = supervisedLoss(row);
        result.iterations.push_back(std::move(io));
        fs.rows.push_back(std::move(row));

        if (buggy && ecfg.stopOnBug && !loss)
            fs.stopped = true;
        else if (ecfg.collectCoverage &&
                 fs.merged.percent() >= ecfg.covThreshold)
            fs.stopped = true;
    };

    auto onEvent = [&](ShardEvent &&ev) {
        pending.emplace(ev.iteration, std::move(ev.digest));
        while (!fs.stopped) {
            auto it = pending.find(fs.cursor + 1);
            if (it == pending.end())
                break;
            ShardDigest d = std::move(it->second);
            pending.erase(it);
            foldDigest(std::move(d));
        }
        if (checkpointing &&
            (fs.cursor - last_ckpt >= std::max(1, cfg.checkpointEvery) ||
             fs.stopped)) {
            writeCheckpoint(cfg, fs, result, out);
            last_ckpt = fs.cursor;
        }
    };

    SuperviseOutcome so;
    if (!fs.stopped && fs.cursor < ecfg.maxIterations)
        so = superviseCampaign(cfg, program, fs.cursor + 1, onEvent,
                               [&] { return fs.stopped; });
    fs.executed += so.executed;
    fs.respawns += so.respawns;
    fs.crashes += so.crashes;
    fs.timeouts += so.timeouts;

    if (so.interrupted || interruptRequested()) {
        out.interrupted = true;
        out.interruptSig = interruptSignal();
    }
    if (checkpointing && fs.cursor != last_ckpt)
        writeCheckpoint(cfg, fs, result, out);

    out.cutoffIteration = fs.cursor;
    out.executedIterations = fs.executed;
    out.discardedIterations =
        fs.executed - static_cast<int>(result.iterations.size());
    out.respawns = fs.respawns;
    out.crashes = fs.crashes;
    out.timeouts = fs.timeouts;
    out.coverage = std::move(fs.merged);

    if (result.bugFound && result.bugIteration >= 1 &&
        result.bugIteration <= static_cast<int>(fs.rows.size()))
        materializeFirstBug(
            cfg, program,
            fs.rows[static_cast<size_t>(result.bugIteration) - 1],
            result);

    finalizeCampaign(cfg, program, out, fs.rows, nullptr, nullptr,
                     campaign_t0);
    return out;
}

} // namespace

CampaignResult
runCampaign(const CampaignConfig &cfg,
            const std::function<void()> &program)
{
    if (cfg.isolate)
        return runIsolatedCampaign(cfg, program);
    return runThreadedCampaign(cfg, program);
}

} // namespace goat::campaign
