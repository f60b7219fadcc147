/**
 * @file
 * Merge-determinism tests for the parallel campaign runner: the merged
 * coverage bitmap, bug verdict, ledger row count, and per-iteration
 * outcome stream must be identical for -jobs=1 and any higher worker
 * count given the same seed base, and the early-stop broadcast must
 * never change the canonical detection iteration.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "goker/registry.hh"
#include "obs/profile.hh"
#include "trace/ect_ring.hh"

using namespace goat;
using goat::campaign::CampaignConfig;
using goat::campaign::CampaignResult;
using goat::campaign::runCampaign;

namespace {

const goker::KernelInfo &
kernel(const std::string &name)
{
    const goker::KernelInfo *k =
        goker::KernelRegistry::instance().find(name);
    EXPECT_NE(k, nullptr) << "unknown kernel " << name;
    return *k;
}

CampaignConfig
baseConfig(const goker::KernelInfo &k, int jobs)
{
    CampaignConfig cfg;
    cfg.engine.delayBound = 2;
    cfg.engine.seedBase = 7;
    cfg.engine.maxIterations = 40;
    cfg.engine.collectCoverage = true;
    cfg.engine.covThreshold = 200.0; // never stop on coverage
    cfg.engine.staticModel = goker::kernelCuTable(k);
    cfg.jobs = jobs;
    return cfg;
}

size_t
lineCount(const std::string &path)
{
    std::ifstream in(path);
    size_t n = 0;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            ++n;
    return n;
}

/** The merge-visible digest two campaigns must agree on byte-for-byte. */
void
expectIdentical(const CampaignResult &a, const CampaignResult &b)
{
    EXPECT_EQ(a.merged.bugFound, b.merged.bugFound);
    EXPECT_EQ(a.merged.bugIteration, b.merged.bugIteration);
    EXPECT_EQ(a.merged.firstBug.shortStr(), b.merged.firstBug.shortStr());
    EXPECT_EQ(a.merged.report, b.merged.report);
    EXPECT_EQ(a.merged.raceIteration, b.merged.raceIteration);
    EXPECT_EQ(a.merged.iterations.size(), b.merged.iterations.size());
    EXPECT_EQ(a.merged.finalCoverage, b.merged.finalCoverage);
    EXPECT_EQ(a.coverage.bitmapStr(), b.coverage.bitmapStr());
    EXPECT_EQ(a.cutoffIteration, b.cutoffIteration);
    for (size_t i = 0; i < a.merged.iterations.size() &&
                       i < b.merged.iterations.size();
         ++i) {
        const auto &ia = a.merged.iterations[i];
        const auto &ib = b.merged.iterations[i];
        EXPECT_EQ(ia.exec.outcome, ib.exec.outcome) << "iteration " << i;
        EXPECT_EQ(ia.exec.steps, ib.exec.steps) << "iteration " << i;
        EXPECT_EQ(ia.dl.verdict, ib.dl.verdict) << "iteration " << i;
        EXPECT_EQ(ia.coveragePct, ib.coveragePct) << "iteration " << i;
    }
}

} // namespace

// The acceptance contract: same seed -> identical merged coverage
// bitmap and verdicts for jobs=1 vs jobs=4 vs jobs=8, on two kernels.
TEST(Campaign, MergeDeterminismAcrossJobCounts)
{
    for (const char *name : {"cockroach_1055", "moby_28462"}) {
        const goker::KernelInfo &k = kernel(name);
        CampaignResult r1 = runCampaign(baseConfig(k, 1), k.fn);
        CampaignResult r4 = runCampaign(baseConfig(k, 4), k.fn);
        CampaignResult r8 = runCampaign(baseConfig(k, 8), k.fn);
        SCOPED_TRACE(name);
        EXPECT_TRUE(r1.merged.bugFound);
        expectIdentical(r1, r4);
        expectIdentical(r1, r8);
        EXPECT_EQ(r1.jobs, 1);
        EXPECT_EQ(r4.jobs, 4);
        EXPECT_EQ(r8.jobs, 8);
    }
}

// Priority sites (-mhp-prune / -lint-guided) with -cov: the priority
// policy must not consult the worker's cumulative coverage, so the
// merged result stays identical across worker counts. A policy that
// read the worker's coverage made cockroach_1055 find its first bug at
// iteration 2 with one worker and at iteration 3 with four.
TEST(Campaign, PrioritySitesWithCoverageMatchAcrossJobCounts)
{
    for (const char *name : {"cockroach_1055", "cockroach_7504"}) {
        const goker::KernelInfo &k = kernel(name);
        auto config = [&](int jobs) {
            CampaignConfig cfg = baseConfig(k, jobs);
            cfg.engine.seedBase = 1;
            cfg.engine.maxIterations = 20;
            cfg.engine.prioritySites = goker::kernelMhpSites(k);
            return cfg;
        };
        SCOPED_TRACE(name);
        CampaignConfig c1 = config(1);
        ASSERT_FALSE(c1.engine.prioritySites.empty());
        CampaignResult r1 = runCampaign(c1, k.fn);
        CampaignResult r4 = runCampaign(config(4), k.fn);
        expectIdentical(r1, r4);
    }
}

// Same contract with the ECT ring squeezed to its 16-row floor: every
// execution wraps and flushes mid-run many times, and the merged
// digest must still be byte-identical to jobs=1 (the ring is a format
// change, not a semantic one).
TEST(Campaign, MergeDeterminismWithTinyEctRing)
{
    size_t prev = trace::defaultEctRingCapacity();
    trace::setDefaultEctRingCapacity(16);
    const goker::KernelInfo &k = kernel("cockroach_1055");
    CampaignResult r1 = runCampaign(baseConfig(k, 1), k.fn);
    CampaignResult r4 = runCampaign(baseConfig(k, 4), k.fn);
    trace::setDefaultEctRingCapacity(prev);
    EXPECT_TRUE(r1.merged.bugFound);
    expectIdentical(r1, r4);
}

// Ledger row count (and file line count) is the same for any worker
// count: campaign ledgers are buffered and written at merge time,
// truncated at the canonical cutoff.
TEST(Campaign, LedgerRowCountMatchesAcrossJobCounts)
{
    const goker::KernelInfo &k = kernel("cockroach_1055");
    std::string p1 = testing::TempDir() + "campaign_j1.jsonl";
    std::string p4 = testing::TempDir() + "campaign_j4.jsonl";
    std::remove(p1.c_str());
    std::remove(p4.c_str());

    CampaignConfig c1 = baseConfig(k, 1);
    c1.engine.ledgerPath = p1;
    CampaignConfig c4 = baseConfig(k, 4);
    c4.engine.ledgerPath = p4;

    CampaignResult r1 = runCampaign(c1, k.fn);
    CampaignResult r4 = runCampaign(c4, k.fn);

    EXPECT_GT(r1.ledgerRows, 0u);
    EXPECT_EQ(r1.ledgerRows, r4.ledgerRows);
    EXPECT_EQ(lineCount(p1), r1.ledgerRows);
    EXPECT_EQ(lineCount(p4), r4.ledgerRows);
    EXPECT_EQ(r1.ledgerRows, r1.merged.iterations.size());

    // Worker-tagged rows: every campaign row carries "worker" and
    // "wseq", and the single-worker ledger is all worker 0.
    std::ifstream in(p1);
    std::string line;
    while (std::getline(in, line)) {
        EXPECT_NE(line.find("\"worker\":0"), std::string::npos) << line;
        EXPECT_NE(line.find("\"wseq\":"), std::string::npos) << line;
    }
    std::remove(p1.c_str());
    std::remove(p4.c_str());
}

// Early-stop semantics: the merged result stops exactly at the
// canonical first detection; workers past the broadcast watermark may
// execute extra iterations, but those are discarded, never merged.
TEST(Campaign, EarlyStopBroadcastPreservesCanonicalCutoff)
{
    const goker::KernelInfo &k = kernel("cockroach_1055");
    for (int jobs : {1, 4}) {
        CampaignConfig cfg = baseConfig(k, jobs);
        CampaignResult r = runCampaign(cfg, k.fn);
        SCOPED_TRACE(jobs);
        ASSERT_TRUE(r.merged.bugFound);
        EXPECT_EQ(static_cast<int>(r.merged.iterations.size()),
                  r.merged.bugIteration);
        EXPECT_EQ(r.cutoffIteration, r.merged.bugIteration);
        EXPECT_GE(r.executedIterations,
                  static_cast<int>(r.merged.iterations.size()));
        EXPECT_EQ(r.discardedIterations,
                  r.executedIterations -
                      static_cast<int>(r.merged.iterations.size()));
        EXPECT_LE(r.executedIterations, cfg.engine.maxIterations);
    }
}

// With stop-on-bug off the campaign runs the whole budget and every
// iteration is merged, regardless of worker count.
TEST(Campaign, FixedBudgetExecutesEveryIteration)
{
    const goker::KernelInfo &k = kernel("moby_28462");
    for (int jobs : {1, 4}) {
        CampaignConfig cfg = baseConfig(k, jobs);
        cfg.engine.maxIterations = 12;
        cfg.engine.stopOnBug = false;
        CampaignResult r = runCampaign(cfg, k.fn);
        SCOPED_TRACE(jobs);
        EXPECT_EQ(r.executedIterations, 12);
        EXPECT_EQ(r.discardedIterations, 0);
        EXPECT_EQ(r.merged.iterations.size(), 12u);
        EXPECT_EQ(r.cutoffIteration, 12);
    }
}

// The folded worker metrics account for every executed iteration, and
// the worker count is clamped to the iteration budget.
TEST(Campaign, WorkerMetricsFoldAndJobClamp)
{
    const goker::KernelInfo &k = kernel("cockroach_1055");
    CampaignConfig cfg = baseConfig(k, 64);
    cfg.engine.maxIterations = 6;
    cfg.engine.stopOnBug = false;
    CampaignResult r = runCampaign(cfg, k.fn);
    EXPECT_EQ(r.jobs, 6); // clamped to maxIterations
    auto it = r.workerMetrics.counters.find("engine.iterations");
    ASSERT_NE(it, r.workerMetrics.counters.end());
    EXPECT_EQ(it->second,
              static_cast<uint64_t>(r.executedIterations));
}

namespace {

/**
 * Deterministic profile clock: each thread sees a monotone counter
 * advancing 7ns per read. Durations are same-thread differences, so a
 * scope's duration is 7ns * (nested clock reads + 1) — a pure function
 * of the iteration's code path and sampling phase, independent of
 * which worker runs it or what ran on the thread before.
 */
uint64_t
fakeClock()
{
    thread_local uint64_t t = 0;
    return t += 7;
}

/** RAII install/restore of the fake profile clock. */
struct FakeClockGuard
{
    obs::ProfileClock prev;
    FakeClockGuard() : prev(obs::setProfileClock(&fakeClock)) {}
    ~FakeClockGuard() { obs::setProfileClock(prev); }
};

} // namespace

// The profiler's canonical fold is byte-identical across worker counts
// under a deterministic clock: full snapshots (buckets included) and
// the executed-side fold both match, because per-iteration deltas are
// pure functions of the iteration and the merge folds them in
// canonical order.
TEST(Campaign, ProfileMergeIsByteIdenticalAcrossJobCounts)
{
    FakeClockGuard clock;
    const goker::KernelInfo &k = kernel("cockroach_1055");
    CampaignConfig c1 = baseConfig(k, 1);
    c1.engine.profile = true;
    c1.engine.stopOnBug = false; // fixed budget: executed == merged
    CampaignConfig c4 = baseConfig(k, 4);
    c4.engine.profile = true;
    c4.engine.stopOnBug = false;

    CampaignResult r1 = runCampaign(c1, k.fn);
    CampaignResult r4 = runCampaign(c4, k.fn);

    ASSERT_FALSE(r1.merged.profile.empty());
    EXPECT_GT(r1.merged.profile.stage(obs::Stage::FiberSwitch).total, 0u);
    EXPECT_GT(r1.merged.profile.stage(obs::Stage::TraceAppend).total, 0u);
    EXPECT_EQ(r1.merged.profile.jsonStr(), r4.merged.profile.jsonStr());
    EXPECT_EQ(r1.executedProfile.jsonStr(), r4.executedProfile.jsonStr());
}

// Under the real clock, sum_ns is host noise but the entry counters
// stay deterministic: per-stage total and sampled count match across
// worker counts (the ledger-canonical subset check_ledger.py keeps).
TEST(Campaign, ProfileEntryCountsDeterministicUnderRealClock)
{
    const goker::KernelInfo &k = kernel("moby_28462");
    CampaignConfig c1 = baseConfig(k, 1);
    c1.engine.profile = true;
    c1.engine.stopOnBug = false;
    c1.engine.maxIterations = 15;
    CampaignConfig c4 = c1;
    c4.jobs = 4;

    CampaignResult r1 = runCampaign(c1, k.fn);
    CampaignResult r4 = runCampaign(c4, k.fn);

    for (size_t i = 0; i < obs::kNumStages; ++i) {
        SCOPED_TRACE(obs::stageName(static_cast<obs::Stage>(i)));
        EXPECT_EQ(r1.merged.profile.stages[i].total,
                  r4.merged.profile.stages[i].total);
        EXPECT_EQ(r1.merged.profile.stages[i].count,
                  r4.merged.profile.stages[i].count);
    }
}

// With -profile off no instrumentation site records anything: the
// merged snapshot is empty and ledger rows carry no profile key.
TEST(Campaign, ProfileOffRecordsNothing)
{
    const goker::KernelInfo &k = kernel("cockroach_1055");
    CampaignConfig cfg = baseConfig(k, 2);
    cfg.engine.maxIterations = 4;
    cfg.engine.stopOnBug = false;
    CampaignResult r = runCampaign(cfg, k.fn);
    EXPECT_TRUE(r.merged.profile.empty());
    EXPECT_TRUE(r.executedProfile.empty());
}

// The coverage-saturation series derives from the canonical merged
// fold, so its JSONL encoding is byte-identical for any worker count,
// monotone in covered, and one sample per merged iteration.
TEST(Campaign, SaturationSeriesIsByteIdenticalAcrossJobCounts)
{
    const goker::KernelInfo &k = kernel("moby_28462");
    CampaignConfig c1 = baseConfig(k, 1);
    c1.engine.stopOnBug = false;
    c1.engine.maxIterations = 20;
    CampaignConfig c4 = c1;
    c4.jobs = 4;

    CampaignResult r1 = runCampaign(c1, k.fn);
    CampaignResult r4 = runCampaign(c4, k.fn);

    ASSERT_EQ(r1.merged.saturation.samples().size(), 20u);
    EXPECT_EQ(r1.merged.saturation.jsonlStr(),
              r4.merged.saturation.jsonlStr());

    uint64_t prev = 0;
    for (const auto &s : r1.merged.saturation.samples()) {
        EXPECT_GE(s.covered, prev);
        EXPECT_LE(s.covered, s.total);
        EXPECT_EQ(s.blocked + s.unblocking + s.nop + s.blocking,
                  s.covered);
        prev = s.covered;
    }
    EXPECT_DOUBLE_EQ(r1.merged.saturation.samples().back().pct(),
                     r1.merged.finalCoverage);
}

// A coverage threshold stops the merged campaign at the same canonical
// iteration for any worker count.
TEST(Campaign, CoverageThresholdStopIsDeterministic)
{
    const goker::KernelInfo &k = kernel("moby_28462");
    std::vector<int> cutoffs;
    for (int jobs : {1, 4}) {
        CampaignConfig cfg = baseConfig(k, jobs);
        cfg.engine.maxIterations = 30;
        cfg.engine.stopOnBug = false;
        cfg.engine.covThreshold = 50.0;
        CampaignResult r = runCampaign(cfg, k.fn);
        cutoffs.push_back(r.cutoffIteration);
        SCOPED_TRACE(jobs);
        EXPECT_GE(r.merged.finalCoverage, 50.0);
    }
    EXPECT_EQ(cutoffs[0], cutoffs[1]);
}
