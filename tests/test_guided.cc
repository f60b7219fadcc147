/**
 * @file
 * Tests for the priority-site perturbation policy (-lint-guided,
 * -mhp-prune): yield-budget bounding, (basename, line) site matching,
 * and the detection speedup of statically seeded sites.
 */

#include <deque>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/campaign.hh"
#include "goat/engine.hh"
#include "goker/registry.hh"
#include "perturb/guided.hh"

using namespace goat;
using namespace goat::perturb;

TEST(Guided, RespectsYieldBound)
{
    const std::vector<SourceLoc> sites = {SourceLoc("x.cc", 9)};
    GuidedPerturber p(&sites, 2, 7);
    SourceLoc loc("x.cc", 9);
    int yields = 0;
    for (int i = 0; i < 10; ++i)
        if (p.shouldYield(staticmodel::CuKind::Send, loc))
            ++yields;
    EXPECT_EQ(yields, 2);
    EXPECT_EQ(p.used(), 2);
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

// A priority site names a statement by (basename, line): the directory
// part of its file never matters, and the line does.
TEST(Guided, PrioritySitesMatchByBasenameAndLine)
{
    const auto *k = goker::KernelRegistry::instance().find("cockroach_7504");
    ASSERT_NE(k, nullptr);
    const std::vector<SourceLoc> own = goker::kernelMhpSites(*k);
    ASSERT_FALSE(own.empty());
    std::deque<std::string> files; // the SourceLocs point into these
    std::vector<SourceLoc> moved, shifted;
    for (const SourceLoc &s : own) {
        files.push_back("elsewhere/" + s.basename());
        moved.emplace_back(files.back().c_str(), s.line);
        shifted.emplace_back(s.file, s.line + 1);
    }
    auto recipes = [&](const std::vector<SourceLoc> &sites) {
        engine::GoatConfig cfg;
        cfg.delayBound = 2;
        cfg.staticModel = goker::kernelCuTable(*k);
        cfg.prioritySites = sites;
        std::vector<std::string> out;
        for (int i = 1; i <= 50; ++i) {
            engine::SingleRun sr =
                engine::runCampaignIteration(cfg, k->fn, i, nullptr);
            engine::finalizeRecipe(sr);
            out.push_back(trace::recipeToString(sr.recipe));
        }
        return out;
    };
    const std::vector<std::string> ref = recipes(own);
    EXPECT_EQ(recipes(moved), ref);
    EXPECT_NE(recipes(shifted), ref);
}
