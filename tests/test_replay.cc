/**
 * @file
 * Repro-recipe subsystem tests: recipe serialization round-trips,
 * ScheduleRecorder / ReplayPerturber decision-stream mechanics, exact
 * replay determinism across every registered GoKer kernel (byte-
 * identical ECT plus same verdict), yield-set minimization, and
 * jobs-independence of campaign recipe capture.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/deadlock.hh"
#include "campaign/campaign.hh"
#include "goat/engine.hh"
#include "goker/registry.hh"
#include "perturb/replay.hh"
#include "trace/recipe.hh"
#include "trace/serialize.hh"

using namespace goat;
using engine::GoatConfig;
using engine::runCampaignIteration;
using engine::SingleRun;
using perturb::ReplayPerturber;
using perturb::ScheduleRecorder;
using trace::Recipe;
using trace::RecipeYield;

namespace {

const goker::KernelInfo &
kernel(const std::string &name)
{
    const goker::KernelInfo *k =
        goker::KernelRegistry::instance().find(name);
    EXPECT_NE(k, nullptr) << "unknown kernel " << name;
    return *k;
}

/** Small-budget config used by the kernel-sweep tests. */
GoatConfig
sweepConfig()
{
    GoatConfig cfg;
    cfg.delayBound = 3;
    cfg.seedBase = 11;
    cfg.stepBudget = 300'000;
    return cfg;
}

/**
 * Run campaign iterations of @p program until one is buggy (or the
 * budget runs out) and return that run with a finalized recipe.
 */
SingleRun
recordOne(const GoatConfig &cfg, const std::function<void()> &program,
          int budget)
{
    SingleRun sr;
    for (int iter = 1; iter <= budget; ++iter) {
        sr = runCampaignIteration(cfg, program, iter);
        if (sr.dl.buggy())
            break;
    }
    engine::finalizeRecipe(sr);
    return sr;
}

} // namespace

TEST(Recipe, RoundTripPreservesEveryField)
{
    Recipe r;
    r.kernel = "moby_28462";
    r.seed = 0xdeadbeefcafef00dull;
    r.delayBound = 3;
    r.noiseProb = 0.12345678901234567;
    r.stepBudget = 123456;
    r.iteration = 42;
    r.hookCalls = 99;
    r.outcome = "ok";
    r.verdict = "partial_deadlock";
    r.ectHash = 0x0123456789abcdefull;
    r.ectEvents = 777;
    r.yields = {{5, "send", "a.cc", 10}, {17, "lock", "b.cc", 20}};

    Recipe back;
    ASSERT_TRUE(trace::recipeFromString(trace::recipeToString(r), back));
    EXPECT_EQ(back.kernel, r.kernel);
    EXPECT_EQ(back.seed, r.seed);
    EXPECT_EQ(back.delayBound, r.delayBound);
    EXPECT_EQ(back.noiseProb, r.noiseProb); // %.17g: exact double
    EXPECT_EQ(back.stepBudget, r.stepBudget);
    EXPECT_EQ(back.iteration, r.iteration);
    EXPECT_EQ(back.hookCalls, r.hookCalls);
    EXPECT_EQ(back.outcome, r.outcome);
    EXPECT_EQ(back.verdict, r.verdict);
    EXPECT_EQ(back.ectHash, r.ectHash);
    EXPECT_EQ(back.ectEvents, r.ectEvents);
    ASSERT_EQ(back.yields.size(), r.yields.size());
    EXPECT_TRUE(back.yields == r.yields);

    // Serialization is canonical: round-tripping is a fixed point.
    EXPECT_EQ(trace::recipeToString(back), trace::recipeToString(r));
}

TEST(Recipe, RejectsBadMagicAndTruncatedYield)
{
    Recipe r;
    EXPECT_FALSE(trace::recipeFromString("# not-a-recipe\n", r));
    EXPECT_FALSE(trace::recipeFromString("", r));
    EXPECT_FALSE(
        trace::recipeFromString("# goat-recipe v1\nyield 5 send\n", r));
    // Every number is one whole token: a malformed hash must not read
    // as 0, which would skip the replay's fingerprint check.
    for (const char *bad :
         {"ect_hash zz", "ect_events 19junk", "seed 12abc", "ect_hash",
          "delay_bound 2.5", "noise_prob 0.1x", "yield 5x send a.cc 3",
          "yield 5 send a.cc 3x"})
        EXPECT_FALSE(trace::recipeFromString(
            std::string("# goat-recipe v1\n") + bad + "\n", r))
            << bad;
}

TEST(Recipe, SkipsUnknownKeysForForwardCompat)
{
    Recipe r;
    ASSERT_TRUE(trace::recipeFromString(
        "# goat-recipe v1\nseed 7\nfuture_key some value\n", r));
    EXPECT_EQ(r.seed, 7u);
}

TEST(ScheduleRecorder, NumbersCallsAndRecordsYieldSites)
{
    ScheduleRecorder rec;
    int n = 0;
    auto inner = [&n](staticmodel::CuKind, const SourceLoc &) {
        return ++n % 3 == 0; // yield on calls 3, 6, 9, ...
    };
    auto hook = rec.wrap(inner);
    SourceLoc loc{"dir/file.cc", 42};
    for (int i = 0; i < 7; ++i)
        hook(staticmodel::CuKind::Lock, loc);
    EXPECT_EQ(rec.calls(), 7u);
    ASSERT_EQ(rec.yields().size(), 2u);
    EXPECT_EQ(rec.yields()[0].call, 3u);
    EXPECT_EQ(rec.yields()[1].call, 6u);
    EXPECT_EQ(rec.yields()[0].kind, "lock");
    EXPECT_EQ(rec.yields()[0].file, "file.cc");
    EXPECT_EQ(rec.yields()[0].line, 42u);
}

TEST(ScheduleRecorder, NullInnerHookCountsButNeverYields)
{
    ScheduleRecorder rec;
    auto hook = rec.wrap(nullptr);
    SourceLoc loc{"f.cc", 1};
    for (int i = 0; i < 5; ++i)
        EXPECT_FALSE(hook(staticmodel::CuKind::Send, loc));
    EXPECT_EQ(rec.calls(), 5u);
    EXPECT_TRUE(rec.yields().empty());
}

TEST(ReplayPerturber, FiresExactlyAtRecordedIndices)
{
    ReplayPerturber rp({2, 5});
    SourceLoc loc{"f.cc", 9};
    std::vector<bool> fired;
    for (int i = 0; i < 6; ++i)
        fired.push_back(rp.shouldYield(staticmodel::CuKind::Recv, loc));
    EXPECT_EQ(fired, (std::vector<bool>{false, true, false, false, true,
                                        false}));
    EXPECT_EQ(rp.calls(), 6u);
    ASSERT_EQ(rp.injected().size(), 2u);
    EXPECT_EQ(rp.injected()[0].call, 2u);
    EXPECT_EQ(rp.injected()[1].call, 5u);
}

TEST(ReplayPerturber, CallsOfExtractsRecipeIndices)
{
    Recipe r;
    r.yields = {{7, "lock", "a.cc", 1}, {3, "send", "b.cc", 2}};
    // Constructor sorts, so out-of-order recipes still replay.
    ReplayPerturber rp(ReplayPerturber::callsOf(r));
    SourceLoc loc{"f.cc", 1};
    std::vector<uint64_t> hits;
    for (uint64_t i = 1; i <= 8; ++i)
        if (rp.shouldYield(staticmodel::CuKind::Lock, loc))
            hits.push_back(i);
    EXPECT_EQ(hits, (std::vector<uint64_t>{3, 7}));
}

/**
 * The core guarantee: replaying a recorded run reproduces the exact
 * interleaving — byte-identical serialized ECT and the same verdict —
 * on every registered GoKer kernel. Runs that found a bug and runs
 * that did not must both replay exactly.
 */
TEST(Replay, DeterministicOnEveryKernel)
{
    GoatConfig cfg = sweepConfig();
    for (const goker::KernelInfo *k :
         goker::KernelRegistry::instance().all()) {
        SingleRun rec = recordOne(cfg, k->fn, 25);
        rec.recipe.kernel = k->name;
        engine::ReplayResult rr = engine::replayRecipe(k->fn, rec.recipe);
        EXPECT_TRUE(rr.matched) << k->name << ": " << rr.mismatch;
        EXPECT_EQ(rr.sr.buggy(), rec.buggy()) << k->name;
        EXPECT_EQ(analysis::verdictName(rr.sr.dl.verdict),
                  analysis::verdictName(rec.dl.verdict))
            << k->name;
        EXPECT_EQ(trace::ectToString(rr.sr.ect),
                  trace::ectToString(rec.ect))
            << k->name << ": serialized traces differ";
    }
}

TEST(Replay, MismatchReportedOnTamperedRecipe)
{
    const goker::KernelInfo &k = kernel("cockroach_1055");
    SingleRun rec = recordOne(sweepConfig(), k.fn, 25);
    ASSERT_TRUE(rec.dl.buggy());
    Recipe tampered = rec.recipe;
    tampered.seed ^= 1; // different schedule
    engine::ReplayResult rr = engine::replayRecipe(k.fn, tampered);
    // The fingerprint (or verdict) must catch the divergence.
    EXPECT_FALSE(rr.matched);
    EXPECT_FALSE(rr.mismatch.empty());
}

TEST(Minimize, YieldSetShrinksAndStillReproduces)
{
    const goker::KernelInfo &k = kernel("cockroach_1055");
    SingleRun rec = recordOne(sweepConfig(), k.fn, 25);
    ASSERT_TRUE(rec.dl.buggy());

    engine::MinimizeResult m = engine::minimizeRecipe(k.fn, rec.recipe);
    ASSERT_TRUE(m.reproduced);
    EXPECT_LE(m.minimized.yields.size(), rec.recipe.yields.size());
    EXPECT_EQ(m.originalYields,
              static_cast<int>(rec.recipe.yields.size()));
    EXPECT_GE(m.replays, 1);
    EXPECT_EQ(m.minimized.verdict, rec.recipe.verdict);

    // The minimized recipe is itself a valid recipe: replay asserts it.
    engine::ReplayResult rr =
        engine::replayRecipe(k.fn, m.minimized);
    EXPECT_TRUE(rr.matched) << rr.mismatch;
    EXPECT_TRUE(rr.sr.buggy());
}

TEST(Minimize, PassRecipeRefused)
{
    const goker::KernelInfo &k = kernel("cockroach_1055");
    Recipe r;
    r.seed = 1;
    r.verdict = "pass";
    engine::MinimizeResult m = engine::minimizeRecipe(k.fn, r);
    EXPECT_FALSE(m.reproduced);
    EXPECT_EQ(m.replays, 0);
}

/**
 * Campaign recipe capture is a pure function of the iteration index:
 * the serialized recipe of the first bug must be byte-identical
 * whether the campaign ran with one worker or four.
 */
TEST(CampaignRecipe, ByteIdenticalAcrossJobCounts)
{
    const goker::KernelInfo &k = kernel("cockroach_1055");
    auto run = [&](int jobs) {
        campaign::CampaignConfig cfg;
        cfg.engine.delayBound = 2;
        cfg.engine.seedBase = 7;
        cfg.engine.maxIterations = 40;
        cfg.jobs = jobs;
        cfg.programName = k.name;
        return campaign::runCampaign(cfg, k.fn);
    };
    campaign::CampaignResult a = run(1);
    campaign::CampaignResult b = run(4);
    ASSERT_TRUE(a.merged.bugFound);
    ASSERT_TRUE(b.merged.bugFound);
    EXPECT_EQ(trace::recipeToString(a.merged.firstBugRecipe),
              trace::recipeToString(b.merged.firstBugRecipe));
    EXPECT_EQ(a.merged.firstBugRecipe.kernel, k.name);
    EXPECT_NE(a.merged.firstBugRecipe.ectHash, 0u);
}
