/**
 * @file
 * The GoAT engine: one testing iteration of a program under test
 * (paper fig. 1). runCampaignIteration runs the program on a fresh
 * scheduler with (a) tracing enabled, (b) the bounded random-yield
 * perturbation installed (delay bound D), and (c) a fresh seed, and
 * applies DeadlockCheck (Procedure 1) to the resulting ECT. The
 * campaign loop around it — coverage, races, stop rules, ledger —
 * is campaign::runCampaign (campaign/campaign.hh): iterations stop
 * when a bug is detected, the coverage threshold is reached, or the
 * iteration budget (-freq) is exhausted. Replay, minimization and
 * prediction confirmation re-run recorded schedules.
 */

#ifndef GOAT_GOAT_ENGINE_HH
#define GOAT_GOAT_ENGINE_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/coverage.hh"
#include "analysis/deadlock.hh"
#include "analysis/happens_before.hh"
#include "analysis/hb_predict.hh"
#include "obs/profile.hh"
#include "obs/saturation.hh"
#include "runtime/scheduler.hh"
#include "staticmodel/cutable.hh"
#include "trace/ect.hh"
#include "trace/recipe.hh"

namespace goat::engine {

/**
 * Engine configuration (mirrors the goat CLI flags).
 */
struct GoatConfig
{
    /** Yield bound D (0 = native execution, no injected yields). */
    int delayBound = 0;
    /** Base seed; iteration i runs with a seed derived from it. */
    uint64_t seedBase = 1;
    /** Maximum testing iterations (the -freq flag). */
    int maxIterations = 1000;
    /** Measure coverage requirements per iteration (-cov). */
    bool collectCoverage = false;
    /** Stop when coverage reaches this percentage (with -cov). */
    double covThreshold = 100.0;
    /** Stop at the first detected bug. */
    bool stopOnBug = true;
    /** Probability of native scheduler noise per CU. */
    double noiseProb = 0.02;
    /** Logical-step budget per execution (the 30 s watchdog). */
    uint64_t stepBudget = 2'000'000;
    /** Run happens-before race detection on every trace (-race). */
    bool raceDetect = false;
    /**
     * Run the predictive happens-before analysis on every trace
     * (-predict): infer blocking bugs the schedule did not take and
     * cross-check them by synthesized-recipe replay. See
     * analysis/hb_predict.hh and confirmPredictions().
     */
    bool predict = false;
    /**
     * Append one JSON line per iteration to this file (the campaign
     * run ledger; "" disables). See obs/ledger.hh for the schema.
     */
    std::string ledgerPath;
    /**
     * Enable the hot-path stage profiler (-profile): per-worker
     * obs::Profiler instances record log-bucketed latency histograms
     * for the named runtime stages, drained per iteration and folded
     * canonically at merge time (obs/profile.hh). Off by default —
     * the instrumentation sites then cost one thread-local load.
     */
    bool profile = false;
    /** Static CU model (coverage denominators; may be empty). */
    staticmodel::CuTable staticModel;
    /**
     * Statically chosen CU sites (lint findings with -lint-guided, MHP
     * sites with -mhp-prune) the perturbation policy prioritizes,
     * matched by (basename, line). Non-empty installs the priority-site
     * policy (perturb/guided.hh) in place of the uniform one; the set
     * is fixed, so iterations stay pure functions of the seed.
     */
    std::vector<SourceLoc> prioritySites;
};

/**
 * Per-iteration record.
 */
struct IterationOutcome
{
    runtime::ExecResult exec;
    analysis::DeadlockReport dl;
    /** Cumulative coverage after this iteration (-1 without -cov). */
    double coveragePct = -1.0;
    /** Host wall-clock cost of the iteration, microseconds. */
    uint64_t wallMicros = 0;
};

/**
 * Aggregate result of a testing campaign on one program.
 */
struct GoatResult
{
    bool bugFound = false;
    /** 1-based iteration of the first detection (-1 = none). */
    int bugIteration = -1;
    analysis::DeadlockReport firstBug;
    runtime::ExecResult firstBugExec;
    trace::Ect firstBugEct;
    /** Rendered deadlock report for the first bug ("" = none). */
    std::string report;
    /**
     * Repro recipe of the first bug (trace/recipe.hh), ready to
     * serialize; meaningful only when bugFound.
     */
    trace::Recipe firstBugRecipe;
    /** First data-race report (with -race; empty when none found). */
    analysis::RaceReport firstRaces;
    /** 1-based iteration of the first race (-1 = none). */
    int raceIteration = -1;
    std::vector<IterationOutcome> iterations;
    /** Final coverage percentage (-1 without -cov). */
    double finalCoverage = -1.0;
    /**
     * Folded stage-profiler histograms over the whole campaign (with
     * GoatConfig::profile; empty otherwise). Campaigns fold the
     * per-iteration deltas of the canonical iteration prefix, so the
     * per-stage totals are identical for any -jobs value.
     */
    obs::ProfileSnapshot profile;
    /**
     * Per-iteration coverage-saturation series (with collectCoverage;
     * empty otherwise), derived from the canonical cumulative
     * coverage fold — byte-identical for any -jobs value.
     */
    obs::SaturationSeries saturation;
};

/**
 * Convenience: run one traced execution with delay bound @p d and
 * return (ExecResult, Ect, DeadlockReport).
 */
struct SingleRun
{
    runtime::ExecResult exec;
    trace::Ect ect;
    analysis::DeadlockReport dl;
    /**
     * Schedule-decision record of the run (campaign iterations record
     * it unconditionally — the stream is at most D yields plus a call
     * counter). The ECT fingerprint fields are left zero on the hot
     * path; stamp them with finalizeRecipe() before serializing.
     */
    trace::Recipe recipe;
    /**
     * Goroutine tree of this run's trace, built once for the deadlock
     * check and shared with every downstream consumer (the campaign
     * coverage folds, reports) so the hot path reconstructs it exactly
     * once per iteration.
     */
    std::shared_ptr<analysis::GoroutineTree> tree;

    /**
     * The run is a bug: Procedure 1 found a blocking bug or crash, or
     * the step-budget watchdog fired (a HANG).
     */
    bool
    buggy() const
    {
        return dl.buggy() || exec.outcome == runtime::RunOutcome::StepBudget;
    }
};

SingleRun runOnce(const std::function<void()> &program, uint64_t seed,
                  int delay_bound = 0, double noise_prob = 0.02,
                  uint64_t step_budget = 2'000'000);

/** As runOnce(), but with an explicit perturbation hook. */
SingleRun runOnceHooked(const std::function<void()> &program,
                        uint64_t seed, runtime::PerturbHook hook,
                        double noise_prob = 0.02,
                        uint64_t step_budget = 2'000'000,
                        int delay_bound_meta = -1);

/**
 * Seed of campaign iteration @p iter (1-based) under @p base: the
 * splitmix schedule every engine and campaign worker shares, which is
 * what makes a campaign's results a pure function of (-seed, iteration
 * index) and therefore independent of how iterations are distributed
 * over workers.
 */
uint64_t campaignIterationSeed(uint64_t base, int iter);

/**
 * Execute and analyze campaign iteration @p iter: derive the
 * iteration seed, install the uniform (or, with cfg.prioritySites,
 * the priority-site) perturbation policy, run the program on a fresh
 * scheduler, and apply Procedure 1 to the trace. A pure function of
 * (cfg, iter). The trailing pointer is ignored.
 */
SingleRun runCampaignIteration(const GoatConfig &cfg,
                               const std::function<void()> &program,
                               int iter,
                               analysis::CoverageState * = nullptr);

/**
 * Stamp the deferred ECT fingerprint fields (ect_hash, ect_events)
 * onto @p sr's recipe, which are skipped on the campaign hot path
 * (hashing serializes the whole trace). Idempotent.
 */
void finalizeRecipe(SingleRun &sr);

/**
 * Result of replaying a recipe (replayRecipe).
 */
struct ReplayResult
{
    /** ECT fingerprint, event count, outcome, and verdict all match. */
    bool matched = false;
    /** The replayed run, with its own finalized recipe. */
    SingleRun sr;
    /** Human-readable first divergence ("" when matched). */
    std::string mismatch;
};

/**
 * Re-execute @p recipe exactly: same seed, noise probability, and step
 * budget, with the recorded yield set replayed by hook-call index
 * (perturb::ReplayPerturber). Asserts the reproduction by comparing
 * the replayed ECT fingerprint, event count, runtime outcome, and
 * offline verdict against the recipe's recorded values.
 */
ReplayResult replayRecipe(const std::function<void()> &program,
                          const trace::Recipe &recipe);

/**
 * Result of yield-set minimization (minimizeRecipe).
 */
struct MinimizeResult
{
    /**
     * Locally minimal recipe: greedily dropping any single remaining
     * yield no longer reproduces the recorded verdict. Re-finalized
     * from its own replay (sites, hook calls, ECT fingerprint), so it
     * replays exactly like any recorded recipe.
     */
    trace::Recipe minimized;
    /** Yield count of the input recipe. */
    int originalYields = 0;
    /** Candidate executions performed by the search. */
    int replays = 0;
    /** The minimized recipe still triggers the recorded verdict. */
    bool reproduced = false;
};

/**
 * ddmin-style greedy minimization of a buggy recipe's yield set: try
 * the empty set first, then repeatedly drop single yields, keeping
 * any candidate whose deterministic replay still produces the
 * recorded verdict, until locally minimal. The surviving 1–3 sites
 * are the schedule's culprit CUs — the debugging headline.
 *
 * Recipes whose verdict is "pass" are returned unchanged with
 * reproduced = false.
 */
MinimizeResult minimizeRecipe(const std::function<void()> &program,
                              const trace::Recipe &recipe);

/**
 * Result of the prediction-confirmation pass (confirmPredictions).
 */
struct PredictOutcome
{
    /** The input report with confirmed/confirmVerdict stamped. */
    analysis::PredictionReport report;
    /** Predictions a synthesized replay reproduced dynamically. */
    int confirmedCount = 0;
    /** Candidate executions performed by the search. */
    int replays = 0;
    /**
     * One confirming recipe per prediction, parallel to
     * report.predictions; unconfirmed slots hold an empty recipe
     * (no yields, seed 0).
     */
    std::vector<trace::Recipe> confirmRecipes;
};

/**
 * Cross-check each prediction by steering the scheduler toward the
 * predicted interleaving: re-execute @p base's schedule once to index
 * which goroutine reaches which CU at every hook call, then, per
 * prediction, synthesize candidate recipes that add a yield where the
 * prediction's delayGid reaches delayLoc (suspending it so the other
 * witness runs first) and replay them deterministically. The first
 * candidate whose replay is buggy upgrades the prediction to its
 * dynamic verdict. Bounded work: at most a handful of replays per
 * prediction; everything is a pure function of (@p base, @p report),
 * so campaign results stay independent of the job count.
 */
PredictOutcome confirmPredictions(const std::function<void()> &program,
                                  const trace::Recipe &base,
                                  analysis::PredictionReport report);

} // namespace goat::engine

#endif // GOAT_GOAT_ENGINE_HH
