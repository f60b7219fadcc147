#include "goat/engine.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>

#include "analysis/report.hh"
#include "base/fmt.hh"
#include "base/logging.hh"
#include "obs/ledger.hh"
#include "obs/metrics.hh"
#include "perturb/guided.hh"
#include "perturb/perturb.hh"
#include "perturb/replay.hh"
#include "trace/ect_ring.hh"

namespace goat::engine {

using analysis::DeadlockReport;
using analysis::GoroutineTree;
using analysis::Verdict;
using runtime::RunOutcome;

namespace {

/** Mix a base seed with an iteration index into a run seed. */
uint64_t
mixSeed(uint64_t base, int iter)
{
    uint64_t x = base + 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(iter);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

SingleRun
runOnceHooked(const std::function<void()> &program, uint64_t seed,
              runtime::PerturbHook hook, double noise_prob,
              uint64_t step_budget, int delay_bound_meta)
{
    runtime::SchedConfig cfg;
    cfg.seed = seed;
    cfg.noiseProb = noise_prob;
    cfg.stepBudget = step_budget;
    cfg.perturb = std::move(hook);

    runtime::Scheduler sched(cfg);
    SingleRun out;

    // Hot path: record through the worker's binary ring buffer and
    // batch-convert to the rich Ect once, after the run. The ring is
    // per thread; if a program under test recursively enters the
    // engine (the ring is then still bound), fall back to the classic
    // sink recorder for the nested run.
    thread_local trace::EctRing ring;
    if (!ring.active()) {
        if (ring.capacity() != trace::defaultEctRingCapacity())
            ring.setCapacity(trace::defaultEctRingCapacity());
        ring.bind(&out.ect);
        sched.setRing(&ring);
        out.exec = sched.run(program);
        ring.finish();
    } else {
        trace::EctRecorder rec;
        sched.addSink(&rec);
        out.exec = sched.run(program);
        out.ect = std::move(rec.ect());
    }

    out.ect.setMeta("seed", std::to_string(seed));
    out.ect.setMeta("outcome", runtime::runOutcomeName(out.exec.outcome));
    if (delay_bound_meta >= 0)
        out.ect.setMeta("delay_bound", std::to_string(delay_bound_meta));
    // The paper's detection verdict: the offline Procedure 1 on the
    // ECT (a watchdog timeout surfaces separately via exec.outcome).
    // The tree is kept on the result so downstream consumers (campaign
    // coverage folds, reports) reuse it instead of rebuilding.
    out.tree = std::make_shared<GoroutineTree>(out.ect);
    out.dl = analysis::deadlockCheck(*out.tree);
    return out;
}

SingleRun
runOnce(const std::function<void()> &program, uint64_t seed,
        int delay_bound, double noise_prob, uint64_t step_budget)
{
    perturb::YieldPerturber perturber(delay_bound, seed);
    runtime::PerturbHook hook;
    if (delay_bound > 0)
        hook = perturber.hook();
    return runOnceHooked(program, seed, std::move(hook), noise_prob,
                         step_budget, delay_bound);
}

bool
replayMatches(const std::function<void()> &program,
              const trace::Ect &recorded, std::string *first_mismatch)
{
    uint64_t seed = std::strtoull(recorded.meta("seed").c_str(),
                                  nullptr, 10);
    int d = std::atoi(recorded.meta("delay_bound").c_str());
    SingleRun sr = runOnce(program, seed, d);
    const auto &a = recorded.events();
    const auto &b = sr.ect.events();
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
        bool same = a[i].type == b[i].type && a[i].gid == b[i].gid &&
                    a[i].loc == b[i].loc &&
                    a[i].args[0] == b[i].args[0] &&
                    a[i].args[1] == b[i].args[1];
        if (!same) {
            if (first_mismatch) {
                *first_mismatch =
                    "event " + std::to_string(i) + ": recorded " +
                    a[i].str1line() + " vs replayed " + b[i].str1line();
            }
            return false;
        }
    }
    if (a.size() != b.size()) {
        if (first_mismatch)
            *first_mismatch = "trace lengths differ: " +
                              std::to_string(a.size()) + " vs " +
                              std::to_string(b.size());
        return false;
    }
    return true;
}

uint64_t
campaignIterationSeed(uint64_t base, int iter)
{
    return mixSeed(base, iter);
}

SingleRun
runCampaignIteration(const GoatConfig &cfg,
                     const std::function<void()> &program, int iter,
                     analysis::CoverageState *guided_cov)
{
    uint64_t seed = mixSeed(cfg.seedBase, iter);

    // Every campaign iteration records its schedule-decision stream —
    // at most D yields plus a call counter — so any run can be handed
    // out as a repro recipe without re-finding it. The recorder wraps
    // the policy hook; a null inner hook (D = 0) still counts calls
    // but never perturbs, leaving the schedule untouched.
    perturb::ScheduleRecorder recorder;
    perturb::YieldPerturber uniform(cfg.delayBound, seed);
    // Only a coverage-guided campaign may consult cumulative coverage:
    // a priority-only policy (-lint-guided, -mhp-prune) must stay a pure
    // function of the seed, or its decisions at non-priority sites would
    // depend on which iterations this worker happened to run before.
    perturb::GuidedPerturber guided(cfg.coverageGuided ? guided_cov
                                                       : nullptr,
                                    cfg.delayBound, seed);
    if (!cfg.prioritySites.empty())
        guided.setPrioritySites(cfg.prioritySites);
    runtime::PerturbHook inner;
    if (cfg.coverageGuided || !cfg.prioritySites.empty())
        inner = guided.hook();
    else if (cfg.delayBound > 0)
        inner = uniform.hook();

    SingleRun sr =
        runOnceHooked(program, seed, recorder.wrap(std::move(inner)),
                      cfg.noiseProb, cfg.stepBudget, cfg.delayBound);

    trace::Recipe &r = sr.recipe;
    r.seed = seed;
    r.delayBound = cfg.delayBound;
    r.noiseProb = cfg.noiseProb;
    r.stepBudget = cfg.stepBudget;
    r.iteration = iter;
    r.hookCalls = recorder.calls();
    r.yields = recorder.yields();
    r.outcome = runtime::runOutcomeName(sr.exec.outcome);
    r.verdict = analysis::verdictName(sr.dl.verdict);
    return sr;
}

void
finalizeRecipe(SingleRun &sr)
{
    sr.recipe.ectEvents = sr.ect.size();
    sr.recipe.ectHash = trace::ectFingerprint(sr.ect);
}

ReplayResult
replayRecipe(const std::function<void()> &program,
             const trace::Recipe &recipe)
{
    ReplayResult out;

    if (recipe.seededPolicy) {
        // Seeded-policy recipe (supervised crash/timeout rows): the
        // shard died before its yield stream could be captured, so the
        // schedule is re-derived from the seeded uniform policy exactly
        // as the campaign iteration ran it. Replaying a crash recipe
        // reproduces the crash (the process dies); a livelock recipe
        // hangs until the step budget trips. No recorded trace
        // fingerprint or verdict can be asserted in-process — the
        // recorded values name the supervisor's classification.
        perturb::ScheduleRecorder recorder;
        perturb::YieldPerturber uniform(recipe.delayBound, recipe.seed);
        runtime::PerturbHook inner;
        if (recipe.delayBound > 0)
            inner = uniform.hook();
        out.sr = runOnceHooked(program, recipe.seed,
                               recorder.wrap(std::move(inner)),
                               recipe.noiseProb, recipe.stepBudget,
                               recipe.delayBound);
        trace::Recipe &r = out.sr.recipe;
        r.kernel = recipe.kernel;
        r.seed = recipe.seed;
        r.delayBound = recipe.delayBound;
        r.noiseProb = recipe.noiseProb;
        r.stepBudget = recipe.stepBudget;
        r.iteration = recipe.iteration;
        r.hookCalls = recorder.calls();
        r.yields = recorder.yields();
        r.outcome = runtime::runOutcomeName(out.sr.exec.outcome);
        r.verdict = analysis::verdictName(out.sr.dl.verdict);
        finalizeRecipe(out.sr);
        out.buggy = out.sr.dl.buggy() ||
                    out.sr.exec.outcome == RunOutcome::StepBudget;
        out.matched = true;
        return out;
    }

    perturb::ReplayPerturber rp(
        perturb::ReplayPerturber::callsOf(recipe));
    out.sr = runOnceHooked(program, recipe.seed, rp.hook(),
                           recipe.noiseProb, recipe.stepBudget,
                           recipe.delayBound);

    trace::Recipe &r = out.sr.recipe;
    r.kernel = recipe.kernel;
    r.seed = recipe.seed;
    r.delayBound = recipe.delayBound;
    r.noiseProb = recipe.noiseProb;
    r.stepBudget = recipe.stepBudget;
    r.iteration = recipe.iteration;
    r.hookCalls = rp.calls();
    r.yields = rp.injected();
    r.outcome = runtime::runOutcomeName(out.sr.exec.outcome);
    r.verdict = analysis::verdictName(out.sr.dl.verdict);
    finalizeRecipe(out.sr);

    out.buggy = out.sr.dl.buggy() ||
                out.sr.exec.outcome == RunOutcome::StepBudget;

    if (r.verdict != recipe.verdict) {
        out.mismatch = "verdict " + r.verdict + " vs recorded " +
                       recipe.verdict;
    } else if (r.outcome != recipe.outcome) {
        out.mismatch = "outcome " + r.outcome + " vs recorded " +
                       recipe.outcome;
    } else if (recipe.ectEvents != 0 &&
               r.ectEvents != recipe.ectEvents) {
        out.mismatch = strFormat(
            "trace has %llu events, recorded %llu",
            static_cast<unsigned long long>(r.ectEvents),
            static_cast<unsigned long long>(recipe.ectEvents));
    } else if (recipe.ectHash != 0 && r.ectHash != recipe.ectHash) {
        out.mismatch = strFormat(
            "ECT fingerprint %016llx vs recorded %016llx",
            static_cast<unsigned long long>(r.ectHash),
            static_cast<unsigned long long>(recipe.ectHash));
    } else {
        out.matched = true;
    }
    return out;
}

MinimizeResult
minimizeRecipe(const std::function<void()> &program,
               const trace::Recipe &recipe)
{
    MinimizeResult out;
    out.originalYields = static_cast<int>(recipe.yields.size());
    out.minimized = recipe;
    if (recipe.verdict.empty() ||
        recipe.verdict == analysis::verdictName(Verdict::Pass))
        return out; // nothing buggy to preserve

    struct Cand
    {
        bool ok = false;
        SingleRun sr;
        std::vector<trace::RecipeYield> injected;
        uint64_t calls = 0;
    };
    // A candidate reproduces when its deterministic replay is still
    // buggy with the *recorded* verdict — dropping to a different bug
    // class does not count as the same repro.
    auto tryCalls = [&](const std::vector<uint64_t> &calls) {
        perturb::ReplayPerturber rp(calls);
        Cand c;
        c.sr = runOnceHooked(program, recipe.seed, rp.hook(),
                             recipe.noiseProb, recipe.stepBudget,
                             recipe.delayBound);
        ++out.replays;
        bool buggy = c.sr.dl.buggy() ||
                     c.sr.exec.outcome == RunOutcome::StepBudget;
        c.ok = buggy &&
               analysis::verdictName(c.sr.dl.verdict) == recipe.verdict;
        c.injected = rp.injected();
        c.calls = rp.calls();
        return c;
    };

    std::vector<uint64_t> cur =
        perturb::ReplayPerturber::callsOf(recipe);
    Cand best = tryCalls({});
    if (best.ok) {
        // The seed's native noise alone reproduces the bug.
        cur.clear();
    } else {
        best = tryCalls(cur);
        if (!best.ok)
            return out; // recipe itself does not reproduce — bail
        // Greedy single-yield elimination until locally minimal.
        bool improved = true;
        while (improved && !cur.empty()) {
            improved = false;
            for (size_t i = 0; i < cur.size(); ++i) {
                std::vector<uint64_t> cand = cur;
                cand.erase(cand.begin() +
                           static_cast<ptrdiff_t>(i));
                Cand c = tryCalls(cand);
                if (c.ok) {
                    cur = std::move(cand);
                    best = std::move(c);
                    improved = true;
                    break;
                }
            }
        }
    }

    out.reproduced = true;
    // Re-finalize from the minimal run: the surviving call indices are
    // original-stream positions, but the sites they hit (and the trace
    // they produce) belong to the minimal schedule.
    trace::Recipe &m = out.minimized;
    m.yields = best.injected;
    m.hookCalls = best.calls;
    m.outcome = runtime::runOutcomeName(best.sr.exec.outcome);
    m.verdict = analysis::verdictName(best.sr.dl.verdict);
    m.ectEvents = best.sr.ect.size();
    m.ectHash = trace::ectFingerprint(best.sr.ect);
    return out;
}

PredictOutcome
confirmPredictions(const std::function<void()> &program,
                   const trace::Recipe &base,
                   analysis::PredictionReport report)
{
    PredictOutcome out;

    // Index run: replay the base schedule exactly while recording
    // which goroutine reaches which CU at every hook call. Observing
    // never touches the scheduler's PRNG stream, so the replay is
    // byte-identical to the analyzed execution.
    struct CallSite
    {
        uint32_t gid;
        SourceLoc loc;
    };
    std::vector<CallSite> calls;
    {
        perturb::ReplayPerturber rp(
            perturb::ReplayPerturber::callsOf(base));
        auto inner = rp.hook();
        runtime::PerturbHook indexer =
            [&](staticmodel::CuKind k, const SourceLoc &l) {
                uint32_t g = 0;
                if (auto *s = runtime::Scheduler::cur())
                    g = s->currentGid();
                calls.push_back({g, l});
                return inner(k, l);
            };
        runOnceHooked(program, base.seed, std::move(indexer),
                      base.noiseProb, base.stepBudget, base.delayBound);
        ++out.replays;
    }

    std::vector<uint64_t> base_calls =
        perturb::ReplayPerturber::callsOf(base);

    auto tryCandidate = [&](std::vector<uint64_t> cand,
                            trace::Recipe *recipe_out) {
        std::sort(cand.begin(), cand.end());
        cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
        perturb::ReplayPerturber rp(cand);
        SingleRun sr =
            runOnceHooked(program, base.seed, rp.hook(),
                          base.noiseProb, base.stepBudget,
                          base.delayBound);
        ++out.replays;
        bool buggy = sr.dl.buggy() ||
                     sr.exec.outcome == RunOutcome::StepBudget;
        if (!buggy)
            return false;
        trace::Recipe &r = sr.recipe;
        r.kernel = base.kernel;
        r.seed = base.seed;
        r.delayBound = base.delayBound;
        r.noiseProb = base.noiseProb;
        r.stepBudget = base.stepBudget;
        r.iteration = base.iteration;
        r.hookCalls = rp.calls();
        r.yields = rp.injected();
        r.outcome = runtime::runOutcomeName(sr.exec.outcome);
        r.verdict = analysis::verdictName(sr.dl.verdict);
        finalizeRecipe(sr);
        *recipe_out = sr.recipe;
        return true;
    };

    out.confirmRecipes.resize(report.predictions.size());
    for (size_t pi = 0; pi < report.predictions.size(); ++pi) {
        analysis::Prediction &p = report.predictions[pi];

        // Hook calls where the delay target reaches the delay site,
        // in execution order.
        std::vector<uint64_t> hits;
        for (size_t i = 0; i < calls.size(); ++i) {
            if (calls[i].gid == p.delayGid && calls[i].loc == p.delayLoc)
                hits.push_back(static_cast<uint64_t>(i) + 1);
        }

        trace::Recipe confirm;
        bool ok = false;
        // One suspension usually suffices (the yield reorders the two
        // witnesses); a double suspension covers schedules where a
        // single round-robin slice is not enough.
        for (size_t i = 0; !ok && i < hits.size() && i < 4; ++i) {
            std::vector<uint64_t> cand = base_calls;
            cand.push_back(hits[i]);
            ok = tryCandidate(std::move(cand), &confirm);
        }
        for (size_t i = 0; !ok && i < hits.size() && i < 2; ++i) {
            std::vector<uint64_t> cand = base_calls;
            cand.push_back(hits[i]);
            cand.push_back(hits[i] + 1);
            ok = tryCandidate(std::move(cand), &confirm);
        }
        if (ok) {
            p.confirmed = true;
            p.confirmVerdict = confirm.verdict;
            out.confirmRecipes[pi] = std::move(confirm);
            ++out.confirmedCount;
        }
    }
    out.report = std::move(report);
    return out;
}

GoatEngine::GoatEngine(GoatConfig cfg)
    : cfg_(std::move(cfg)), cov_(cfg_.staticModel)
{
}

uint64_t
GoatEngine::iterationSeed(int iter) const
{
    return mixSeed(cfg_.seedBase, iter);
}

GoatResult
GoatEngine::run(const std::function<void()> &program)
{
    using std::chrono::steady_clock;

    GoatResult result;
    bool guided = cfg_.coverageGuided;

    // Stage profiler: installed for the whole run, drained per
    // iteration so ledger rows carry per-iteration deltas and the
    // folded result matches a campaign's canonical merge.
    obs::Profiler profiler;
    std::unique_ptr<obs::ScopedProfiler> prof_scope;
    if (cfg_.profile)
        prof_scope = std::make_unique<obs::ScopedProfiler>(profiler);

    auto &reg = obs::Registry::current();
    obs::Counter &iterations_total = reg.counter("engine.iterations");
    obs::Counter &campaigns_total = reg.counter("engine.campaigns");
    obs::Counter &bugs_total = reg.counter("engine.bugs_found");
    obs::Histogram &iter_wall = reg.histogram(
        "engine.iter_wall_us",
        {100, 1'000, 10'000, 100'000, 1'000'000, 10'000'000});
    campaigns_total.inc();

    obs::RunLedger ledger(cfg_.ledgerPath);
    if (ledger.enabled())
        reg.markDeltaBaseline();

    for (int iter = 1; iter <= cfg_.maxIterations; ++iter) {
        uint64_t seed = iterationSeed(iter);
        auto t0 = steady_clock::now();
        SingleRun sr = runCampaignIteration(cfg_, program, iter, &cov_);

        IterationOutcome io;
        io.exec = sr.exec;
        io.dl = sr.dl;
        iterations_total.inc();

        if (cfg_.collectCoverage || guided) {
            cov_.addEct(sr.ect, *sr.tree);
            io.coveragePct = cov_.percent();
            result.finalCoverage = io.coveragePct;
            if (cfg_.collectCoverage)
                result.saturation.sample(iter, cov_);
        }

        if (cfg_.raceDetect && result.raceIteration < 0) {
            analysis::RaceReport races = analysis::detectRaces(sr.ect);
            if (races.any()) {
                result.firstRaces = std::move(races);
                result.raceIteration = iter;
            }
        }

        bool buggy = sr.dl.buggy() ||
                     sr.exec.outcome == RunOutcome::StepBudget ||
                     (cfg_.raceDetect && result.raceIteration == iter);
        if (buggy && !result.bugFound) {
            result.bugFound = true;
            result.bugIteration = iter;
            result.firstBug = sr.dl;
            result.firstBugExec = sr.exec;
            result.firstBugEct = sr.ect;
            finalizeRecipe(sr);
            result.firstBugRecipe = sr.recipe;
            result.report =
                analysis::deadlockReportStr(sr.ect, *sr.tree, sr.dl);
            bugs_total.inc();
        }

        io.wallMicros = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                steady_clock::now() - t0)
                .count());
        iter_wall.observe(io.wallMicros);

        if (logEnabled(LogLevel::Debug)) {
            std::string line = strFormat(
                "goat: iter %d/%d seed=%llu outcome=%s verdict=%s "
                "steps=%llu wall_us=%llu",
                iter, cfg_.maxIterations,
                static_cast<unsigned long long>(seed),
                runtime::runOutcomeName(sr.exec.outcome),
                analysis::verdictName(sr.dl.verdict),
                static_cast<unsigned long long>(sr.exec.steps),
                static_cast<unsigned long long>(io.wallMicros));
            if (io.coveragePct >= 0)
                line += strFormat(" coverage=%.1f%%", io.coveragePct);
            debugLog(line);
        }

        obs::ProfileSnapshot prof_delta;
        if (cfg_.profile) {
            prof_delta = profiler.drain();
            result.profile.mergeFrom(prof_delta);
        }

        if (ledger.enabled()) {
            obs::LedgerEntry e;
            e.iteration = iter;
            e.seed = seed;
            e.delayBound = cfg_.delayBound;
            e.outcome = runtime::runOutcomeName(sr.exec.outcome);
            e.verdict = analysis::verdictName(sr.dl.verdict);
            e.bug = buggy;
            e.steps = sr.exec.steps;
            e.coveragePct = io.coveragePct;
            if (cfg_.collectCoverage) {
                e.satCovered =
                    static_cast<int64_t>(cov_.coveredCount());
                e.satTotal =
                    static_cast<int64_t>(cov_.totalRequirements());
            }
            e.wallMicros = io.wallMicros;
            if (cfg_.profile)
                e.profileJson = prof_delta.jsonRowStr();
            e.metricsJson = reg.deltaJson();
            ledger.append(e);
        }

        result.iterations.push_back(std::move(io));

        if (result.bugFound && cfg_.stopOnBug)
            break;
        if (cfg_.collectCoverage && cov_.percent() >= cfg_.covThreshold)
            break;
    }

    if (result.bugFound) {
        debugLog(strFormat("goat: bug found at iteration %d (%s)",
                           result.bugIteration,
                           result.firstBug.shortStr().c_str()));
    }
    return result;
}

} // namespace goat::engine
