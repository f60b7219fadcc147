/**
 * @file
 * Integration tests for the GoAT engine and the tool harness: bug
 * detection on buggy/clean programs, stop-on-bug and coverage-threshold
 * termination, seed determinism, Table IV cell formatting, and the
 * qualitative tool-capability matrix from the paper (GoAT ⊇ goleak ⊇
 * builtin; LockDL sees only lock bugs).
 */

#include <gtest/gtest.h>

#include "campaign/campaign.hh"
#include "chan/chan.hh"
#include "goat/engine.hh"
#include "goat/tool.hh"
#include "goker/registry.hh"
#include "sync/sync.hh"
#include "test_util.hh"

using namespace goat;
using namespace goat::engine;
using analysis::Verdict;

namespace {

/** Deterministically leaking program. */
void
leakyProgram()
{
    Chan<int> c;
    go([c]() mutable { c.send(1); });
    yield();
}

/** Deterministically clean program. */
void
cleanProgram()
{
    Chan<int> c(1);
    go([c]() mutable { c.send(1); });
    yield();
    c.recv();
    yield();
}

/** Globally deadlocking program. */
void
gdlProgram()
{
    Chan<int> c;
    c.recv();
}

/** Crashing program. */
void
crashProgram()
{
    Chan<int> c;
    c.close();
    c.send(1);
}

} // namespace

TEST(Engine, DetectsLeakOnFirstIteration)
{
    GoatConfig cfg;
    cfg.maxIterations = 10;
    GoatResult result =
        campaign::runCampaign({.engine = cfg}, leakyProgram).merged;
    EXPECT_TRUE(result.bugFound);
    EXPECT_EQ(result.bugIteration, 1);
    EXPECT_EQ(result.firstBug.verdict, Verdict::PartialDeadlock);
    EXPECT_FALSE(result.report.empty());
}

TEST(Engine, CleanProgramRunsAllIterations)
{
    GoatConfig cfg;
    cfg.maxIterations = 5;
    cfg.noiseProb = 0.0;
    GoatResult result =
        campaign::runCampaign({.engine = cfg}, cleanProgram).merged;
    EXPECT_FALSE(result.bugFound);
    EXPECT_EQ(result.iterations.size(), 5u);
}

TEST(Engine, StopOnBugHaltsEarly)
{
    GoatConfig cfg;
    cfg.maxIterations = 100;
    GoatResult result =
        campaign::runCampaign({.engine = cfg}, leakyProgram).merged;
    EXPECT_TRUE(result.bugFound);
    EXPECT_EQ(result.iterations.size(), 1u);
}

TEST(Engine, KeepsIteratingWithoutStopOnBug)
{
    GoatConfig cfg;
    cfg.maxIterations = 4;
    cfg.stopOnBug = false;
    GoatResult result =
        campaign::runCampaign({.engine = cfg}, leakyProgram).merged;
    EXPECT_TRUE(result.bugFound);
    EXPECT_EQ(result.iterations.size(), 4u);
}

TEST(Engine, GlobalDeadlockDetected)
{
    GoatConfig cfg;
    GoatResult result =
        campaign::runCampaign({.engine = cfg}, gdlProgram).merged;
    EXPECT_TRUE(result.bugFound);
    EXPECT_EQ(result.firstBug.verdict, Verdict::GlobalDeadlock);
}

TEST(Engine, CrashDetected)
{
    GoatConfig cfg;
    GoatResult result =
        campaign::runCampaign({.engine = cfg}, crashProgram).merged;
    EXPECT_TRUE(result.bugFound);
    EXPECT_EQ(result.firstBug.verdict, Verdict::Crash);
    EXPECT_EQ(result.firstBugExec.panicMsg, "send on closed channel");
}

TEST(Engine, CoverageCollectedPerIteration)
{
    GoatConfig cfg;
    cfg.maxIterations = 3;
    cfg.collectCoverage = true;
    cfg.stopOnBug = false;
    cfg.noiseProb = 0.0;
    GoatResult result =
        campaign::runCampaign({.engine = cfg}, cleanProgram).merged;
    ASSERT_EQ(result.iterations.size(), 3u);
    for (const auto &it : result.iterations)
        EXPECT_GE(it.coveragePct, 0.0);
    EXPECT_GT(result.finalCoverage, 0.0);
}

TEST(Engine, CoverageThresholdStopsCampaign)
{
    GoatConfig cfg;
    cfg.maxIterations = 50;
    cfg.collectCoverage = true;
    cfg.covThreshold = 1.0; // trivially reached
    cfg.stopOnBug = false;
    cfg.noiseProb = 0.0;
    GoatResult result =
        campaign::runCampaign({.engine = cfg}, cleanProgram).merged;
    EXPECT_LT(result.iterations.size(), 50u);
}

TEST(Engine, SeedsDifferPerIteration)
{
    GoatConfig cfg;
    EXPECT_NE(campaignIterationSeed(cfg.seedBase, 1),
              campaignIterationSeed(cfg.seedBase, 2));
    EXPECT_NE(campaignIterationSeed(cfg.seedBase, 2),
              campaignIterationSeed(cfg.seedBase, 3));
}

TEST(Engine, DeterministicAcrossRepeatedCampaigns)
{
    GoatConfig cfg;
    cfg.maxIterations = 20;
    auto r1 = campaign::runCampaign({.engine = cfg}, leakyProgram).merged;
    auto r2 = campaign::runCampaign({.engine = cfg}, leakyProgram).merged;
    EXPECT_EQ(r1.bugIteration, r2.bugIteration);
}

TEST(Engine, RunOnceProducesTraceAndVerdict)
{
    SingleRun sr = runOnce(leakyProgram, 42);
    EXPECT_FALSE(sr.ect.empty());
    EXPECT_EQ(sr.dl.verdict, Verdict::PartialDeadlock);
    EXPECT_EQ(sr.ect.meta("seed"), "42");
}

TEST(Tool, NamesAndDelayBounds)
{
    EXPECT_STREQ(toolName(ToolKind::GoatD0), "goat-d0");
    EXPECT_STREQ(toolName(ToolKind::Goleak), "goleak");
    EXPECT_EQ(toolDelayBound(ToolKind::GoatD3), 3);
    EXPECT_EQ(toolDelayBound(ToolKind::Builtin), -1);
}

TEST(Tool, GoatDetectsLeakBaselineComparison)
{
    // The capability matrix on a deterministic leak with main exiting:
    // GoAT and goleak detect it; builtin and LockDL do not.
    auto goat_r = runTool(ToolKind::GoatD0, leakyProgram, 5, 7);
    EXPECT_TRUE(goat_r.verdict.detected);
    EXPECT_EQ(goat_r.verdict.label, "PDL-1");
    EXPECT_EQ(goat_r.firstDetectIteration, 1);

    auto goleak_r = runTool(ToolKind::Goleak, leakyProgram, 5, 7);
    EXPECT_TRUE(goleak_r.verdict.detected);

    auto builtin_r = runTool(ToolKind::Builtin, leakyProgram, 5, 7);
    EXPECT_FALSE(builtin_r.verdict.detected);

    auto lockdl_r = runTool(ToolKind::LockDL, leakyProgram, 5, 7);
    EXPECT_FALSE(lockdl_r.verdict.detected);
}

TEST(Tool, AllToolsSeeGlobalDeadlock)
{
    for (auto tool : {ToolKind::GoatD0, ToolKind::Builtin,
                      ToolKind::Goleak, ToolKind::LockDL}) {
        auto r = runTool(tool, gdlProgram, 3, 11);
        EXPECT_TRUE(r.verdict.detected) << toolName(tool);
    }
}

TEST(Tool, LockDlDetectsDoubleLockLeak)
{
    auto prog = [] {
        auto m = std::make_shared<gosync::Mutex>();
        go([m] {
            m->lock();
            m->lock(); // AA deadlock: leaks, main exits
            m->unlock();
            m->unlock();
        });
        sleepMs(5);
    };
    auto lockdl_r = runTool(ToolKind::LockDL, prog, 5, 13);
    EXPECT_TRUE(lockdl_r.verdict.detected);
    EXPECT_EQ(lockdl_r.verdict.label, "DL");
    // The built-in detector is blind to it.
    auto builtin_r = runTool(ToolKind::Builtin, prog, 5, 13);
    EXPECT_FALSE(builtin_r.verdict.detected);
}

TEST(Tool, CrashReportedAsCrash)
{
    auto r = runTool(ToolKind::GoatD1, crashProgram, 3, 17);
    EXPECT_TRUE(r.verdict.detected);
    EXPECT_EQ(r.verdict.label, "CRASH");
}

TEST(Tool, CellStrFormats)
{
    ToolCampaign c;
    c.verdict.detected = true;
    c.verdict.label = "PDL-2";
    c.firstDetectIteration = 3;
    c.iterationsRun = 3;
    EXPECT_EQ(c.cellStr(), "PDL-2 (3)");

    ToolCampaign x;
    x.iterationsRun = 1000;
    EXPECT_EQ(x.cellStr(), "X (1000)");
}

TEST(Tool, UndetectedCampaignRunsAllIterations)
{
    auto r = runTool(ToolKind::Builtin, cleanProgram, 7, 19, 0.0);
    EXPECT_FALSE(r.verdict.detected);
    EXPECT_EQ(r.iterationsRun, 7);
    EXPECT_EQ(r.firstDetectIteration, -1);
}

TEST(Engine, ReplayDetectsWrongProgram)
{
    // A recipe recorded on one kernel does not replay on another: the
    // replayed trace's fingerprint (or verdict) differs.
    const auto *a = goat::goker::KernelRegistry::instance().find(
        "moby_28462");
    const auto *b = goat::goker::KernelRegistry::instance().find(
        "moby_4951");
    ASSERT_TRUE(a && b);
    GoatConfig cfg;
    cfg.delayBound = 1;
    cfg.seedBase = 77;
    SingleRun sr = runCampaignIteration(cfg, a->fn, 1);
    finalizeRecipe(sr);
    ASSERT_TRUE(replayRecipe(a->fn, sr.recipe).matched);
    ReplayResult rr = replayRecipe(b->fn, sr.recipe);
    EXPECT_FALSE(rr.matched);
    EXPECT_FALSE(rr.mismatch.empty());
}

TEST(Engine, NestedRunOnceMatchesFlatRun)
{
    // A program under test that itself runs the engine: the nested run
    // starts while the outer run's capture is still live on this
    // thread, and must record exactly what the same run records alone.
    const auto *kernel =
        goat::goker::KernelRegistry::instance().find("moby_28462");
    ASSERT_NE(kernel, nullptr);
    SingleRun flat = runOnce(kernel->fn, 4242, 2);

    SingleRun nested;
    SingleRun outer = runOnce(
        [&] {
            Chan<int> done;
            go([&, done]() mutable {
                nested = runOnce(kernel->fn, 4242, 2);
                done.send(1);
            });
            done.recv();
        },
        7);

    EXPECT_EQ(outer.exec.outcome, runtime::RunOutcome::Ok);
    EXPECT_FALSE(outer.dl.buggy());
    ASSERT_EQ(nested.ect.size(), flat.ect.size());
    EXPECT_EQ(trace::ectFingerprint(nested.ect),
              trace::ectFingerprint(flat.ect));
    EXPECT_EQ(nested.ect.meta("seed"), flat.ect.meta("seed"));
    EXPECT_EQ(nested.dl.verdict, flat.dl.verdict);
    EXPECT_EQ(nested.exec.steps, flat.exec.steps);
}
