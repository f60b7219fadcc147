/**
 * @file
 * Tests for the coverage-guided perturbation policy (the paper's §VI
 * extension): hot/cold CU classification, yield-budget bounding,
 * engine integration, and the end-to-end property that guidance never
 * loses detection ability relative to the random policy.
 */

#include <gtest/gtest.h>

#include "analysis/coverage.hh"
#include "campaign/campaign.hh"
#include "chan/chan.hh"
#include "goat/engine.hh"
#include "goker/registry.hh"
#include "perturb/guided.hh"
#include "test_util.hh"

using namespace goat;
using namespace goat::analysis;
using namespace goat::perturb;
using goat::test::runProgram;

TEST(Guided, HotSitesYieldMoreThanColdSites)
{
    // Build a coverage state where one CU is fully covered and another
    // has everything uncovered.
    staticmodel::CuTable table;
    staticmodel::Cu hot(SourceLoc("h.cc", 1), staticmodel::CuKind::Go);
    staticmodel::Cu cold(SourceLoc("c.cc", 2), staticmodel::CuKind::Go);
    table.add(hot);
    table.add(cold);
    CoverageState cov(table);
    // Cover the cold CU's only requirement via a synthetic trace.
    trace::Ect ect;
    ect.append(trace::Event(1, 1, trace::EventType::GoCreate,
                            SourceLoc("c.cc", 2), 2, 0));
    cov.addEct(ect);
    ASSERT_EQ(cov.uncoveredAtLoc(SourceLoc("c.cc", 2)), 0u);
    ASSERT_GT(cov.uncoveredAtLoc(SourceLoc("h.cc", 1)), 0u);

    int hot_yields = 0, cold_yields = 0;
    for (uint64_t seed = 0; seed < 200; ++seed) {
        GuidedPerturber hot_p(&cov, 1, seed);
        if (hot_p.shouldYield(staticmodel::CuKind::Go, hot.loc))
            ++hot_yields;
        GuidedPerturber cold_p(&cov, 1, seed);
        if (cold_p.shouldYield(staticmodel::CuKind::Go, cold.loc))
            ++cold_yields;
    }
    EXPECT_GT(hot_yields, 80);  // ~0.6 * 200
    EXPECT_LT(cold_yields, 40); // ~0.05 * 200
}

TEST(Guided, RespectsYieldBound)
{
    CoverageState cov; // everything unknown → nothing uncovered...
    staticmodel::CuTable table;
    staticmodel::Cu cu(SourceLoc("x.cc", 9), staticmodel::CuKind::Send);
    table.add(cu);
    CoverageState cov2(table);
    GuidedPerturber p(&cov2, 2, 7, /*hot=*/1.0, /*cold=*/1.0);
    SourceLoc loc("x.cc", 9);
    int yields = 0;
    for (int i = 0; i < 10; ++i)
        if (p.shouldYield(staticmodel::CuKind::Send, loc))
            ++yields;
    EXPECT_EQ(yields, 2);
    EXPECT_EQ(p.used(), 2);
}

TEST(Guided, UncoveredAtLocTracksCoverage)
{
    staticmodel::CuTable table;
    staticmodel::Cu cu(SourceLoc("y.cc", 3), staticmodel::CuKind::Lock);
    table.add(cu);
    CoverageState cov(table);
    EXPECT_EQ(cov.uncoveredAtLoc(SourceLoc("y.cc", 3)), 2u);
    EXPECT_EQ(cov.uncoveredAtLoc(SourceLoc("y.cc", 4)), 0u);
}

TEST(Guided, EngineIntegrationDetectsBug)
{
    engine::GoatConfig cfg;
    cfg.coverageGuided = true;
    cfg.delayBound = 3;
    cfg.maxIterations = 300;
    const auto *kernel =
        goker::KernelRegistry::instance().find("moby_28462");
    ASSERT_NE(kernel, nullptr);
    auto result = campaign::runCampaign({.engine = cfg}, kernel->fn).merged;
    EXPECT_TRUE(result.bugFound);
    // Guided mode implies coverage collection.
    EXPECT_GE(result.finalCoverage, 0.0);
}

TEST(Guided, DeterministicPerSeed)
{
    auto run = [](uint64_t seed) {
        engine::GoatConfig cfg;
        cfg.coverageGuided = true;
        cfg.delayBound = 2;
        cfg.maxIterations = 50;
        cfg.seedBase = seed;
        const auto *k =
            goker::KernelRegistry::instance().find("moby_4951");
        return campaign::runCampaign({.engine = cfg}, k->fn)
            .merged.bugIteration;
    };
    EXPECT_EQ(run(11), run(11));
}

TEST(Guided, NeverWorseAtDetectingTheAblationSubset)
{
    // Guidance must preserve detection on kernels random-D3 finds.
    for (const char *name : {"moby_28462", "kubernetes_6632",
                             "etcd_6857"}) {
        const auto *k = goker::KernelRegistry::instance().find(name);
        ASSERT_NE(k, nullptr);
        engine::GoatConfig cfg;
        cfg.coverageGuided = true;
        cfg.delayBound = 3;
        cfg.maxIterations = 500;
        EXPECT_TRUE(
            campaign::runCampaign({.engine = cfg}, k->fn).merged.bugFound)
            << name;
    }
}

// ---------------------------------------------------------------------
// Static MHP pruning (-mhp-prune): seeding the perturber with the
// statically-interleavable sites.
// ---------------------------------------------------------------------

namespace {

enum class SeedMode
{
    Unguided,
    MhpPruned,
    LintGuided,
};

/** First-detection iteration of a campaign (0 = no bug). */
int
detectionIteration(const goat::goker::KernelInfo &kernel, uint64_t seed,
                   SeedMode mode)
{
    campaign::CampaignConfig ccfg;
    ccfg.engine.delayBound = 2;
    ccfg.engine.maxIterations = 100;
    ccfg.engine.seedBase = seed;
    ccfg.engine.staticModel = goker::kernelCuTable(kernel);
    if (mode == SeedMode::MhpPruned) {
        ccfg.engine.prioritySites = goker::kernelMhpSites(kernel);
    } else if (mode == SeedMode::LintGuided) {
        ccfg.lint = goker::kernelLintReport(kernel);
        ccfg.lintBridge = true;
        ccfg.engine.prioritySites = ccfg.lint.sites();
    }
    auto cres = campaign::runCampaign(ccfg, kernel.fn);
    return cres.merged.bugFound ? cres.merged.bugIteration : 0;
}

} // namespace

TEST(MhpPrune, SeedSitesAreStaticAndNonEmptyOnBuggyKernels)
{
    for (const char *name : {"cockroach_1462", "etcd_6873",
                             "kubernetes_6632"}) {
        const auto *k = goker::KernelRegistry::instance().find(name);
        ASSERT_NE(k, nullptr);
        auto sites = goker::kernelMhpSites(*k);
        EXPECT_FALSE(sites.empty()) << name;
    }
}

TEST(MhpPrune, BeatsUnguidedOnInterleavingKernels)
{
    // The acceptance experiment: on kernels whose bug needs a real
    // interleaving, restricting priority yields to the statically
    // MHP sites must reduce total iterations to first detection.
    for (const char *name : {"cockroach_1462", "etcd_6873",
                             "kubernetes_6632"}) {
        const auto *k = goker::KernelRegistry::instance().find(name);
        ASSERT_NE(k, nullptr);
        int pruned_total = 0, unguided_total = 0;
        for (uint64_t seed = 1; seed <= 5; ++seed) {
            int p = detectionIteration(*k, seed, SeedMode::MhpPruned);
            int u = detectionIteration(*k, seed, SeedMode::Unguided);
            ASSERT_GT(p, 0) << name << ": pruned missed at seed "
                            << seed;
            ASSERT_GT(u, 0) << name << ": unguided missed at seed "
                            << seed;
            pruned_total += p;
            unguided_total += u;
        }
        EXPECT_LT(pruned_total, unguided_total) << name;
    }
}

TEST(MhpPrune, NoWorseThanLintGuided)
{
    // MHP pruning seeds a superset of the lint sites (every site that
    // can interleave, not only flagged ones); on kernels where both
    // guide well it must not lose to the lint bridge.
    for (const char *name : {"etcd_6873", "kubernetes_6632"}) {
        const auto *k = goker::KernelRegistry::instance().find(name);
        ASSERT_NE(k, nullptr);
        int pruned_total = 0, lint_total = 0;
        for (uint64_t seed = 1; seed <= 5; ++seed) {
            int p = detectionIteration(*k, seed, SeedMode::MhpPruned);
            int l = detectionIteration(*k, seed, SeedMode::LintGuided);
            ASSERT_GT(p, 0) << name;
            ASSERT_GT(l, 0) << name;
            pruned_total += p;
            lint_total += l;
        }
        EXPECT_LE(pruned_total, lint_total) << name;
    }
}
