/**
 * @file
 * Multi-worker campaign orchestration: fan a testing campaign's
 * iteration budget out across N worker threads and merge the results
 * into exactly what a sequential campaign would have produced.
 *
 * The paper's workflow is embarrassingly parallel — every perturbation
 * iteration is an independent execution of the target under a fresh
 * seed — so the runner scales detection probability per unit wall time
 * by running iterations concurrently while keeping the runtime itself
 * single-threaded: each worker owns a private Scheduler/engine stack
 * and a private obs::Registry (installed thread-locally via
 * ScopedRegistry). One driver folds every iteration's record in
 * iteration order, streaming ledger rows and checkpoint rounds as it
 * goes (docs/INTERNALS.md §8); three executors make the records:
 *
 *  - the inline prefix: up to 16 iterations run on the calling thread,
 *    each folded at once; most stop-on-bug campaigns end there, and at
 *    -jobs=1 the prefix is the whole budget;
 *  - threads: a campaign still running after it fans out — only then
 *    are its other workers made — and the workers claim iterations
 *    from an atomic counter and hand their records to the campaign
 *    thread through a bounded reorder window, an atomic stop watermark
 *    carrying the early-stop broadcast; the fold hands each folded
 *    record back for the next iteration to reuse (iteration.hh);
 *  - forked shards (-isolate, replacing the other two): each child
 *    runs the same iteration code and ships its record's row and
 *    coverage over a pipe (supervisor.hh), and the campaign thread
 *    turns results, crashes and timeouts into records for the fold.
 *
 * Determinism contract: a campaign's merged result is a pure function
 * of the configuration (notably -seed) and *independent of the worker
 * count*. Three mechanisms make that hold:
 *
 *  1. Seed partitioning. Iteration i always runs with
 *     campaignIterationSeed(seedBase, i), regardless of which worker
 *     claims it, so every execution is identical across placements.
 *  2. Per-iteration coverage contributions. Each iteration's trace is
 *     reduced to a CoverageDelta against the campaign's static
 *     universe (what a fresh state would gain from that trace alone);
 *     the merge folds deltas in iteration order, so the merged bitmap
 *     is the same union for any assignment of iterations to workers.
 *  3. Canonical cutoff. Workers may overshoot a stop condition (an
 *     iteration already in flight cannot be recalled); the merge
 *     replays stop semantics sequentially — first bug under
 *     -stop-on-bug, coverage threshold with -cov — and discards every
 *     iteration past the canonical stop point, so verdicts,
 *     first-detection indices, ledger row counts, and merged coverage
 *     match a -jobs=1 run byte for byte.
 */

#ifndef GOAT_CAMPAIGN_CAMPAIGN_HH
#define GOAT_CAMPAIGN_CAMPAIGN_HH

#include <functional>

#include "analysis/coverage.hh"
#include "goat/engine.hh"
#include "obs/metrics.hh"
#include "obs/progress.hh"
#include "staticmodel/lint.hh"

namespace goat::campaign {

/**
 * Campaign configuration: the shared per-iteration engine config plus
 * the worker count. Every field has a default member initializer, so a
 * caller names only what it sets: `runCampaign({.engine = cfg}, p)`.
 */
struct CampaignConfig
{
    /** Per-iteration configuration (seed base, delay bound, budget…). */
    engine::GoatConfig engine{};
    /** Worker threads; values < 1 are treated as 1. */
    int jobs = 1;
    /** Program/kernel label stamped into recorded recipes. */
    std::string programName{};
    /**
     * Write the first bug's repro recipe here ("" disables). Capture
     * happens at merge time on the canonical first detection, so the
     * recipe bytes are identical for any worker count.
     */
    std::string recordPath{};
    /**
     * Minimize the captured recipe's yield set (engine::minimizeRecipe)
     * when the first bug folds; the minimized recipe is written to
     * recordPath + ".min" when recording.
     */
    bool minimize = false;
    /**
     * Lint→campaign bridge (the -lint-guided mode): the static lint
     * report whose sites seed engine.prioritySites. When enabled the
     * merge stamps "static_warnings" on every ledger row and runs the
     * dynamic cross-check (staticmodel::confirmFindings) on the
     * canonical first bug trace, stamping "confirmed_warnings" on the
     * bug row. Both inputs are worker-count-independent, so the
     * ledger byte-identity guarantee holds.
     */
    bool lintBridge = false;
    /** The findings driving the bridge (with lintBridge). */
    staticmodel::LintReport lint{};
    /**
     * Live-progress counters the workers publish to (relaxed atomics,
     * bumped once per iteration). Optional; a ProgressReporter
     * (obs/progress.hh) owned by the caller samples them. Pure
     * observability — does not affect the campaign's results.
     */
    obs::ProgressCounters *progress = nullptr;

    // ---- Fault tolerance (src/campaign/supervisor.hh, checkpoint.hh)

    /**
     * Process isolation (-isolate): run the iteration shards in forked
     * child processes under a supervisor that classifies abnormal
     * exits (SIGSEGV, SIGABRT, OOM…) into crash-verdict ledger rows
     * and respawns the shard, so one crashing iteration cannot take
     * the campaign down. A shard ships only its row and coverage, so
     * the campaign refuses isolate with engine.raceDetect,
     * engine.predict or engine.profile (refusal()).
     */
    bool isolate = false;
    /**
     * Per-iteration wall-clock watchdog in seconds (-iter-timeout;
     * 0 = off). A shard stuck on one iteration past the deadline is
     * killed and the iteration recorded as a timeout verdict with a
     * seeded-policy repro recipe. This and the next two fields are
     * the supervisor's: without isolate, a value other than the
     * default is refused.
     */
    int iterTimeoutSecs = 0;
    /**
     * Address-space ceiling per shard in MiB (-mem-limit; 0 = off).
     * A shard breaching it exits with the OOM marker and the
     * iteration is recorded as an "oom" crash.
     */
    int memLimitMB = 0;
    /**
     * Respawn budget per shard (-max-respawns). When a shard exhausts
     * it, its remaining iterations are synthesized as crash rows and
     * the campaign completes degraded rather than spinning forever.
     */
    int maxRespawns = 16;
    /**
     * Periodic campaign checkpoint path (-checkpoint; "" = off).
     * Appends each round of checkpointEvery merged iterations to an
     * append-only log (campaign/checkpoint.hh), so a killed campaign
     * resumes losing at most one round of work. The log holds neither
     * the prediction dedup keys nor a profile, so the campaign refuses
     * a checkpoint with engine.predict or engine.profile.
     */
    std::string checkpointPath{};
    /** Iterations per checkpoint round (with checkpointPath). */
    int checkpointEvery = 64;
    /**
     * Resume from a checkpoint written by a compatible configuration
     * (-resume; "" = off). The merged result of a killed-and-resumed
     * campaign is canonically identical to an uninterrupted run. As
     * with checkpointPath, engine.predict and engine.profile are
     * refused.
     */
    std::string resumePath{};
};

/**
 * Why a campaign did not run. A refused campaign touches no file and
 * runs no iteration.
 */
struct Refusal
{
    /** What was refused ("" = the campaign ran). */
    std::string reason;
    /**
     * The configuration is at fault: a combination refusal() names,
     * or a resume whose checkpoint fingerprint does not match (the
     * CLI exits 2). False for a checkpoint that cannot be read or
     * restored (the CLI exits 1).
     */
    bool usage = false;
};

/**
 * Result of a multi-worker campaign.
 *
 * `merged` holds the canonical, worker-count-independent view (the
 * same GoatResult a -jobs=1 campaign produces); the remaining fields
 * report how the campaign actually executed.
 */
struct CampaignResult
{
    /** Canonical merged result (identical for any -jobs=N). */
    engine::GoatResult merged;
    /** Merged Req1–Req5 coverage (meaningful with collectCoverage). */
    analysis::CoverageState coverage;
    /** Workers (cfg.jobs clamped to the budget); only worker 0 runs
     *  in a campaign that never fans out (window == 0). */
    int jobs = 1;
    /** Last iteration contributing to `merged` (the canonical stop). */
    int cutoffIteration = 0;
    /** Iterations executed across all workers (incl. overshoot). */
    int executedIterations = 0;
    /** Executed iterations past the cutoff, discarded by the merge. */
    int discardedIterations = 0;
    /** Reorder-window slots between workers and fold (0 = never
     *  fanned out: every iteration ran inline and was folded as soon
     *  as it was made, as always at -jobs=1). */
    int window = 0;
    /** Most records that ever waited in the window at once (0 = never
     *  fanned out). */
    int windowPeak = 0;
    /** Iteration records the in-process executors made. Folded records
     *  are reused, so this is at most `window` (1 without a fan-out;
     *  0 under -isolate, whose shards make their own). */
    int recordsMade = 0;
    /** Campaign wall time, microseconds. */
    uint64_t wallMicros = 0;
    /** The per-worker metric registries, folded into one. */
    obs::Registry workerMetrics;
    /** Ledger lines written (0 when no ledger was requested). */
    size_t ledgerRows = 0;
    /** False when a requested ledger file could not be written. */
    bool ledgerOk = true;
    /** False when a requested recipe file could not be written. */
    bool recordOk = true;
    /** Recipe file written for the first bug ("" = none). */
    std::string recipePath;
    /** Yield-set minimization outcome (with CampaignConfig::minimize). */
    engine::MinimizeResult minimize;
    /** Path of the minimized recipe ("" = none written). */
    std::string minimizedRecipePath;
    /**
     * The bridge's lint report with per-finding confirmed flags set
     * against the canonical first bug (with lintBridge).
     */
    staticmodel::LintReport lint;
    /** Confirmed finding count (-1 = no lint bridge or no bug). */
    int confirmedWarnings = -1;
    /**
     * Stage-profiler fold over every executed iteration, including
     * the overshoot the canonical merge discards (with
     * engine.profile). `merged.profile` holds the canonical fold;
     * this one answers "what did the whole campaign actually cost".
     */
    obs::ProfileSnapshot executedProfile;
    /**
     * Merged predictive-analysis outcome (with engine.predict):
     * per-iteration prediction reports deduplicated by stable key in
     * iteration order, each surviving prediction stamped with its
     * source iteration and cross-checked by synthesized-recipe replay
     * on the campaign thread (engine::confirmPredictions). Every
     * input is a pure function of the iteration index, so the merged
     * report — including confirmations — is byte-identical for any
     * -jobs value.
     */
    engine::PredictOutcome predict;

    // ---- Fault tolerance

    /** Shard respawns performed by the supervisor (with isolate),
     *  counted as they happen. */
    int respawns = 0;
    /** Supervised crash rows folded (with isolate): a loss past the
     *  canonical stop is not counted. */
    int crashes = 0;
    /** Watchdog timeout rows folded (with isolate). */
    int timeouts = 0;
    /**
     * The campaign was cut short by SIGINT/SIGTERM: workers flushed
     * their buffers, the contiguous finished prefix was merged, and
     * the ledger/checkpoint were still written. interruptSig names the
     * signal (the CLI exits 128+sig).
     */
    bool interrupted = false;
    int interruptSig = 0;
    /** False when a requested checkpoint file could not be written. */
    bool checkpointOk = true;
    /** The campaign restored state from a checkpoint. */
    bool resumed = false;
    /** Iterations restored from the checkpoint (0 = none). */
    int resumeFrom = 0;
    /** Set when the campaign was refused: by refusal(), or because
     *  the -resume checkpoint could not be read, restored or matched
     *  to the configuration. */
    Refusal refused;
};

/**
 * The one judge of which configurations a campaign can honour: ""
 * when it can run, else the first unsupported combination, named by
 * its fields (and their CLI flags):
 *
 *  - isolate with engine.raceDetect, engine.predict or engine.profile
 *    (a shard digest carries only the row and coverage);
 *  - checkpointPath or resumePath with engine.predict or
 *    engine.profile (a checkpoint carries neither the prediction
 *    dedup keys nor a profile);
 *  - iterTimeoutSecs, memLimitMB or maxRespawns set without isolate
 *    (only the supervisor reads them).
 *
 * runCampaign calls it first and refuses such a campaign as a usage
 * error (CampaignResult::refused).
 */
std::string refusal(const CampaignConfig &cfg);

/**
 * Run a campaign on @p program: distribute iterations 1..maxIterations
 * over cfg.jobs workers, early-stop all workers once any stop
 * condition is met, then merge per-worker ledgers, coverage, and
 * metrics into the canonical result. A configuration refusal() names,
 * or a -resume that cannot be honoured, is refused before any file is
 * opened or iteration run (CampaignResult::refused).
 *
 * Must be called from a thread with no live Scheduler (it joins its
 * workers before returning). Campaigns may run concurrently from
 * several threads, each with its own current registry. The caller's
 * Registry::current() receives the folded worker metrics plus
 * campaign-level bookkeeping, among them the counters campaign.runs
 * and campaign.fanouts (campaigns that ran past the inline prefix).
 */
CampaignResult runCampaign(const CampaignConfig &cfg,
                           const std::function<void()> &program);

} // namespace goat::campaign

#endif // GOAT_CAMPAIGN_CAMPAIGN_HH
