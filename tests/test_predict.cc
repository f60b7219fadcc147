/**
 * @file
 * Tests for the predictive happens-before tier (analysis/hb_predict.hh
 * + engine::confirmPredictions): blocking-bug predictions from single
 * passing traces of GoKer kernels, the predicted→confirmed round trip
 * through synthesized recipe replay, no false positives on clean
 * programs, and jobs=1 vs jobs=4 byte-identity of the merged
 * prediction output.
 */

#include <gtest/gtest.h>

#include "analysis/hb_predict.hh"
#include "campaign/campaign.hh"
#include "chan/chan.hh"
#include "goat/engine.hh"
#include "goker/registry.hh"
#include "sync/sync.hh"
#include "test_util.hh"

using namespace goat;
using namespace goat::analysis;
using namespace goat::engine;

namespace {

/**
 * Find a *passing* native-schedule trace of a kernel: prediction must
 * work from a trace in which the bug did not manifest.
 */
bool
passingTrace(const std::string &kernel, SingleRun *out, int max_seeds = 600)
{
    const auto *k = goker::KernelRegistry::instance().find(kernel);
    if (!k)
        return false;
    for (int seed = 1; seed <= max_seeds; ++seed) {
        SingleRun sr = runOnce(k->fn, seed, 0);
        if (!sr.dl.buggy() &&
            sr.exec.outcome == runtime::RunOutcome::Ok) {
            *out = std::move(sr);
            return true;
        }
    }
    return false;
}

bool
hasKind(const PredictionReport &r, PredictionKind k)
{
    for (const auto &p : r.predictions)
        if (p.kind == k)
            return true;
    return false;
}

} // namespace

TEST(Predict, LockOrderInversionFromPassingTrace)
{
    SingleRun sr;
    ASSERT_TRUE(passingTrace("cockroach_7504", &sr));
    PredictionReport r = predictBlockingBugs(sr.ect);
    ASSERT_TRUE(r.any()) << "no prediction from passing trace";
    EXPECT_TRUE(hasKind(r, PredictionKind::LockOrderInversion))
        << r.str();
}

TEST(Predict, AbbaStoreLocksFromPassingTrace)
{
    SingleRun sr;
    ASSERT_TRUE(passingTrace("cockroach_10214", &sr));
    PredictionReport r = predictBlockingBugs(sr.ect);
    EXPECT_TRUE(hasKind(r, PredictionKind::LockOrderInversion))
        << r.str();
}

TEST(Predict, LostSignalFromPassingTrace)
{
    SingleRun sr;
    ASSERT_TRUE(passingTrace("cockroach_2448", &sr));
    PredictionReport r = predictBlockingBugs(sr.ect);
    EXPECT_TRUE(hasKind(r, PredictionKind::LostSignal)) << r.str();
}

TEST(Predict, LockGatedWaitFromPassingTrace)
{
    SingleRun sr;
    ASSERT_TRUE(passingTrace("cockroach_1055", &sr));
    PredictionReport r = predictBlockingBugs(sr.ect);
    EXPECT_TRUE(hasKind(r, PredictionKind::LockGatedWait)) << r.str();
}

TEST(Predict, ConfirmRoundTripOnLockOrderInversion)
{
    // Predict from a passing iteration, confirm by synthesized-recipe
    // replay, then re-replay the confirming recipe standalone: it must
    // match its own fingerprint and still be buggy.
    const auto *k =
        goker::KernelRegistry::instance().find("cockroach_7504");
    ASSERT_NE(k, nullptr);
    GoatConfig cfg;
    cfg.delayBound = 0;
    SingleRun base;
    bool found = false;
    for (int iter = 1; iter <= 50 && !found; ++iter) {
        base = runCampaignIteration(cfg, k->fn, iter);
        found = !base.dl.buggy() &&
                base.exec.outcome == runtime::RunOutcome::Ok;
    }
    ASSERT_TRUE(found) << "no passing iteration";

    PredictionReport r = predictBlockingBugs(base.ect);
    ASSERT_TRUE(hasKind(r, PredictionKind::LockOrderInversion));
    PredictOutcome po = confirmPredictions(k->fn, base.recipe, r);
    ASSERT_EQ(po.report.predictions.size(), r.predictions.size());
    ASSERT_GE(po.confirmedCount, 1) << po.report.str();
    EXPECT_EQ(po.confirmedCount, po.report.confirmedCount());

    int replayed = 0;
    for (size_t i = 0; i < po.report.predictions.size(); ++i) {
        const auto &p = po.report.predictions[i];
        if (!p.confirmed)
            continue;
        EXPECT_FALSE(p.confirmVerdict.empty());
        EXPECT_FALSE(p.confirmVerdict == "pass");
        ReplayResult rr = replayRecipe(k->fn, po.confirmRecipes[i]);
        EXPECT_TRUE(rr.matched) << rr.mismatch;
        EXPECT_TRUE(rr.sr.buggy());
        ++replayed;
    }
    EXPECT_GE(replayed, 1);
}

TEST(Predict, ConfirmsAcrossKernels)
{
    // At least one auto-confirmation on each of the headline kernels.
    for (const char *name :
         {"cockroach_7504", "cockroach_10214", "cockroach_2448"}) {
        SingleRun base;
        ASSERT_TRUE(passingTrace(name, &base)) << name;
        PredictionReport r = predictBlockingBugs(base.ect);
        ASSERT_TRUE(r.any()) << name;
        const auto *k = goker::KernelRegistry::instance().find(name);
        // Standalone traces carry no recipe; build a yield-free base.
        trace::Recipe rec;
        rec.kernel = name;
        rec.seed = std::strtoull(base.ect.meta("seed").c_str(),
                                 nullptr, 10);
        rec.delayBound = 0;
        PredictOutcome po = confirmPredictions(k->fn, rec, r);
        EXPECT_GE(po.confirmedCount, 1)
            << name << "\n" << po.report.str();
    }
}

TEST(Predict, CampaignOutputByteIdenticalAcrossJobs)
{
    // The merged prediction report — including confirmations and the
    // rendered JSON document — must be byte-identical for jobs=1 and
    // jobs=4, like every other campaign artifact.
    const auto *k =
        goker::KernelRegistry::instance().find("cockroach_7504");
    ASSERT_NE(k, nullptr);
    auto run = [&](int jobs) {
        campaign::CampaignConfig ccfg;
        ccfg.engine.delayBound = 0;
        ccfg.engine.maxIterations = 8;
        ccfg.engine.stopOnBug = false;
        ccfg.engine.predict = true;
        ccfg.jobs = jobs;
        ccfg.programName = k->name;
        return campaign::runCampaign(ccfg, k->fn);
    };
    campaign::CampaignResult a = run(1);
    campaign::CampaignResult b = run(4);
    EXPECT_GE(a.predict.report.predictions.size(), 1u);
    EXPECT_GE(a.predict.confirmedCount, 1);
    EXPECT_EQ(a.predict.report.jsonDocStr(k->name),
              b.predict.report.jsonDocStr(k->name));
    EXPECT_EQ(a.predict.confirmedCount, b.predict.confirmedCount);
    ASSERT_EQ(a.predict.confirmRecipes.size(),
              b.predict.confirmRecipes.size());
    for (size_t i = 0; i < a.predict.confirmRecipes.size(); ++i)
        EXPECT_EQ(
            trace::recipeToString(a.predict.confirmRecipes[i]),
            trace::recipeToString(b.predict.confirmRecipes[i]));
}

TEST(Predict, NoFalsePositiveOnCleanProgram)
{
    // Consistent lock order, Done outside the gate lock, close ordered
    // after the send via a rendezvous: nothing to predict.
    auto rr = goat::test::runProgram([] {
        auto mu_a = std::make_shared<gosync::Mutex>();
        auto mu_b = std::make_shared<gosync::Mutex>();
        auto wg = std::make_shared<gosync::WaitGroup>();
        auto ch = std::make_shared<Chan<int>>(0);
        wg->add(1);
        go([=] {
            mu_a->lock();
            mu_b->lock();
            mu_b->unlock();
            mu_a->unlock();
            ch->send(1);
            wg->done();
        });
        mu_a->lock();
        mu_b->lock();
        mu_b->unlock();
        mu_a->unlock();
        ch->recv();
        wg->wait();
        ch->close();
    });
    PredictionReport r = predictBlockingBugs(rr.ect);
    EXPECT_FALSE(r.any()) << r.str();
}
