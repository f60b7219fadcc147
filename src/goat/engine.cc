#include "goat/engine.hh"

#include <algorithm>
#include <memory>
#include <optional>

#include "base/fmt.hh"
#include "perturb/guided.hh"
#include "perturb/perturb.hh"
#include "perturb/replay.hh"
#include "trace/ect_ring.hh"

namespace goat::engine {

using analysis::GoroutineTree;
using analysis::Verdict;

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

/**
 * Stamp @p sr's recipe: the run parameters of @p params (kernel, seed,
 * delay bound, noise, step budget, iteration), the schedule decisions
 * the run took, and its outcome and verdict.
 */
void
stampRecipe(SingleRun &sr, const trace::Recipe &params, uint64_t hook_calls,
            std::vector<trace::RecipeYield> yields)
{
    trace::Recipe &r = sr.recipe;
    r.kernel = params.kernel;
    r.seed = params.seed;
    r.delayBound = params.delayBound;
    r.noiseProb = params.noiseProb;
    r.stepBudget = params.stepBudget;
    r.iteration = params.iteration;
    r.hookCalls = hook_calls;
    r.yields = std::move(yields);
    r.outcome = runtime::runOutcomeName(sr.exec.outcome);
    r.verdict = analysis::verdictName(sr.dl.verdict);
}

/**
 * Run @p program under @p params' seed, noise and step budget with the
 * policy hook @p inner wrapped in a ScheduleRecorder, so the run's
 * decision stream lands in its stamped recipe. A null @p inner (D = 0)
 * still counts calls but never perturbs.
 */
SingleRun
runRecorded(const std::function<void()> &program,
            const trace::Recipe &params, runtime::PerturbHook inner)
{
    perturb::ScheduleRecorder recorder;
    SingleRun sr = runOnceHooked(program, params.seed,
                                 recorder.wrap(std::move(inner)),
                                 params.noiseProb, params.stepBudget,
                                 params.delayBound);
    stampRecipe(sr, params, recorder.calls(), recorder.yields());
    return sr;
}

/**
 * Run @p program under @p params' seed, noise and step budget, yielding
 * exactly at the hook calls @p calls, with the recipe stamped.
 */
SingleRun
runReplayed(const std::function<void()> &program,
            const trace::Recipe &params, std::vector<uint64_t> calls)
{
    perturb::ReplayPerturber rp(std::move(calls));
    SingleRun sr = runOnceHooked(program, params.seed, rp.hook(),
                                 params.noiseProb, params.stepBudget,
                                 params.delayBound);
    stampRecipe(sr, params, rp.calls(), rp.injected());
    return sr;
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

    // Record through the worker's ring buffer, which appends its rows
    // to out.ect in bulk whenever it fills and once more at finish().
    // The ring is per thread; if a program under test recursively
    // enters the engine (the ring is then still bound), the nested run
    // records through a ring of its own.
    thread_local trace::EctRing thread_ring;
    std::optional<trace::EctRing> nested_ring;
    trace::EctRing *ring = &thread_ring;
    if (thread_ring.active())
        ring = &nested_ring.emplace();
    ring->bind(&out.ect);
    sched.setRing(ring);
    out.exec = sched.run(program);
    ring->finish();

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

uint64_t
campaignIterationSeed(uint64_t base, int iter)
{
    return mixSeed(base, iter);
}

SingleRun
runCampaignIteration(const GoatConfig &cfg,
                     const std::function<void()> &program, int iter,
                     analysis::CoverageState *)
{
    trace::Recipe params;
    params.seed = mixSeed(cfg.seedBase, iter);
    params.delayBound = cfg.delayBound;
    params.noiseProb = cfg.noiseProb;
    params.stepBudget = cfg.stepBudget;
    params.iteration = iter;

    // Every campaign iteration records its schedule-decision stream —
    // at most D yields plus a call counter — so any run can be handed
    // out as a repro recipe without re-finding it.
    perturb::YieldPerturber uniform(cfg.delayBound, params.seed);
    perturb::GuidedPerturber guided(&cfg.prioritySites, cfg.delayBound,
                                    params.seed);
    runtime::PerturbHook inner;
    if (!cfg.prioritySites.empty())
        inner = guided.hook();
    else if (cfg.delayBound > 0)
        inner = uniform.hook();
    return runRecorded(program, params, std::move(inner));
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
        perturb::YieldPerturber uniform(recipe.delayBound, recipe.seed);
        runtime::PerturbHook inner;
        if (recipe.delayBound > 0)
            inner = uniform.hook();
        out.sr = runRecorded(program, recipe, std::move(inner));
        finalizeRecipe(out.sr);
        out.matched = true;
        return out;
    }

    out.sr = runReplayed(program, recipe,
                         perturb::ReplayPerturber::callsOf(recipe));
    finalizeRecipe(out.sr);
    const trace::Recipe &r = out.sr.recipe;

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
    };
    // A candidate reproduces when its deterministic replay is still
    // buggy with the *recorded* verdict — dropping to a different bug
    // class does not count as the same repro.
    auto tryCalls = [&](const std::vector<uint64_t> &calls) {
        Cand c;
        c.sr = runReplayed(program, recipe, calls);
        ++out.replays;
        c.ok = c.sr.buggy() && c.sr.recipe.verdict == recipe.verdict;
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
    finalizeRecipe(best.sr);
    trace::Recipe &m = out.minimized;
    m.yields = std::move(best.sr.recipe.yields);
    m.hookCalls = best.sr.recipe.hookCalls;
    m.outcome = std::move(best.sr.recipe.outcome);
    m.verdict = std::move(best.sr.recipe.verdict);
    m.ectEvents = best.sr.recipe.ectEvents;
    m.ectHash = best.sr.recipe.ectHash;
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
        SingleRun sr = runReplayed(program, base, std::move(cand));
        ++out.replays;
        if (!sr.buggy())
            return false;
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

} // namespace goat::engine
