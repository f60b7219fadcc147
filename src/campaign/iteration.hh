/**
 * @file
 * One in-process campaign iteration (src/campaign internals): the
 * worker that runs it, the record it is digested into, and the state
 * the workers of one campaign share, including the spare records the
 * fold hands back for reuse. campaign.cc is the only user outside the
 * tests.
 */

#ifndef GOAT_CAMPAIGN_ITERATION_HH
#define GOAT_CAMPAIGN_ITERATION_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/coverage.hh"
#include "analysis/happens_before.hh"
#include "analysis/hb_predict.hh"
#include "analysis/hb_scratch.hh"
#include "campaign/campaign.hh"
#include "obs/metrics.hh"
#include "obs/profile.hh"

namespace goat::campaign {

/**
 * Everything one worker records about one executed iteration. Records
 * reach the fold through the reorder window (or, under -isolate, from
 * a shard's digest). The trace itself is dropped after analysis
 * (except for the worker's first bug) — only the merge-relevant digest
 * is kept. A folded in-process record goes back to the campaign's
 * spare list, and the worker that takes it next resets it with
 * reuse(), so the fold frees nothing a worker allocated.
 */
struct IterRecord
{
    int iter = 0;
    /** Worker that ran it, and the 1-based sequence number there. */
    int worker = 0;
    int wseq = 0;
    runtime::ExecResult exec;
    analysis::DeadlockReport dl;
    /** dl.buggy() or watchdog; races are folded in canonically. */
    bool coreBug = false;
    /**
     * A supervised shard loss (-isolate): kCrashed (the shard died on
     * this iteration; crashCause names how) or kTimedOut (its watchdog
     * fired); "" for an iteration that ran to completion. A loss is a
     * bug exempt from -stop-on-bug: the supervisor's whole point is
     * that the campaign continues past it.
     */
    std::string loss;
    std::string crashCause;
    /** The shard's respawns before the loss (-1 = not a loss). */
    int respawns = -1;
    uint64_t wallMicros = 0;
    /** This iteration's coverage contribution (with -cov). */
    analysis::CoverageDelta cov;
    /** Worker-registry delta over this iteration, rendered once as the
     *  ledger's metrics JSON (with a ledger). The ledger row borrows
     *  it and hands it back. */
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
    /**
     * The worker's first data race (with -race), on that iteration
     * only. Each worker claims increasing indices, so its first race
     * is its lowest one, and the first folded record carrying a race
     * is the first race a sequential campaign would find.
     */
    std::unique_ptr<analysis::RaceReport> race;
    /**
     * Full capture of the worker's first buggy run, on that iteration
     * only: the report material of the canonical first bug, which is
     * necessarily some worker's first.
     */
    std::unique_ptr<engine::SingleRun> bugRun;

    /**
     * Ready a folded record for another iteration: every field goes
     * back to its default by assignment from a fresh record (so a
     * field added later is reset too), except the buffers runIteration
     * refills, which keep their capacity: the coverage delta and the
     * metrics string (emptied), and exec, which runIteration assigns
     * whole before anything reads it.
     */
    void reuse();
};

/**
 * One worker: a private metrics registry and stage profiler (installed
 * thread-locally around each of its iterations, so the scheduler and
 * engine bookkeeping of one worker never touch another's instruments),
 * a coverage scratch computing per-iteration deltas on the campaign's
 * shared universe, and a happens-before scratch for -predict and -race.
 */
struct Worker
{
    Worker(int i, const std::shared_ptr<const analysis::CoverageUniverse> &u);

    int id;
    obs::Registry registry;
    /** Private stage profiler (installed thread-locally when on). */
    obs::Profiler profiler;
    analysis::CoverageScratch scratch;
    /** Walker and phase-one tables of -predict and -race. */
    analysis::HbScratch hb;
    obs::Counter &iterations;
    obs::Counter &bugs;
    obs::Histogram &iterWall;
    /** Iterations run to completion (the ledger's wseq). */
    int ran = 0;
    /** A first race / first bug was captured. */
    bool raced = false;
    bool bugged = false;
    /** Stage-profiler fold over every iteration run (with profile). */
    obs::ProfileSnapshot executedProfile;
};

/** State shared by all workers of one campaign. */
struct Shared
{
    const CampaignConfig &cfg;
    const std::function<void()> &program;
    /**
     * Early-stop broadcast: lowest iteration known to satisfy a stop
     * condition. Claims beyond it are pointless — the merge will
     * discard them — so workers exit instead. Never below the
     * canonical stop point (broadcast values are upper bounds on it),
     * so every iteration the merge needs is guaranteed to execute.
     */
    std::atomic<int> stopAt;

    Shared(const CampaignConfig &c, const std::function<void()> &p)
        : cfg(c), program(p), stopAt(c.engine.maxIterations)
    {
    }

    /**
     * A record for the next iteration: a spare reset by reuse() on the
     * calling (worker) thread, or a new one when none is spare.
     */
    std::unique_ptr<IterRecord> record();

    /** Hand a folded in-process record back for reuse. */
    void recycle(std::unique_ptr<IterRecord> rec);

    /**
     * Records made so far. A record outside the spare list belongs to
     * an iteration claimed and not yet folded past, and at most a
     * reorder window of those exist at once; a record is made only
     * when none is spare, so this never exceeds the window (one
     * record for a campaign that never fans out).
     */
    int made() const { return made_.load(std::memory_order_relaxed); }

  private:
    std::mutex spareMu_;
    std::vector<std::unique_ptr<IterRecord>> spares_;
    std::atomic<int> made_{0};
};

/**
 * Run iteration @p iter on @p w and digest it into a record; nullptr
 * when an interrupt cut the run short.
 */
std::unique_ptr<IterRecord> runIteration(Shared &sh, Worker &w, int iter);

} // namespace goat::campaign

#endif // GOAT_CAMPAIGN_ITERATION_HH
