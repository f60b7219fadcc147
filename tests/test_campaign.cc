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
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/fmt.hh"
#include "campaign/campaign.hh"
#include "campaign/checkpoint.hh"
#include "campaign/iteration.hh"
#include "goker/registry.hh"
#include "obs/profile.hh"

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

/** Iterations a campaign runs inline before it fans out
 *  (kInlineIterations in campaign.cc). */
constexpr int kInlinePrefix = 16;

/** A kernel whose first bug (seed 7, D=2) lands at iteration 29, past
 *  the inline prefix, so its stop-on-bug campaigns fan out. */
const char *const kLateBugKernel = "serving_2137";

/** A -jobs>1 leg reached the reorder window and the worker threads. */
void
expectFannedOut(const CampaignResult &r)
{
    EXPECT_GT(r.window, 0) << "jobs=" << r.jobs
                           << " ended inside the inline prefix";
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
// bitmap and verdicts for jobs=1 vs jobs=4 vs jobs=8. cockroach_1055
// and moby_28462 find their bugs inside the inline prefix, so they run
// their whole budget; the late-bug kernel stops on its bug past it.
// Every jobs>1 leg fans out.
TEST(Campaign, MergeDeterminismAcrossJobCounts)
{
    for (const char *name :
         {"cockroach_1055", "moby_28462", kLateBugKernel}) {
        const goker::KernelInfo &k = kernel(name);
        auto config = [&](int jobs) {
            CampaignConfig cfg = baseConfig(k, jobs);
            cfg.engine.stopOnBug = std::string(name) == kLateBugKernel;
            return cfg;
        };
        CampaignResult r1 = runCampaign(config(1), k.fn);
        CampaignResult r4 = runCampaign(config(4), k.fn);
        CampaignResult r8 = runCampaign(config(8), k.fn);
        SCOPED_TRACE(name);
        EXPECT_TRUE(r1.merged.bugFound);
        expectIdentical(r1, r4);
        expectIdentical(r1, r8);
        EXPECT_EQ(r1.jobs, 1);
        EXPECT_EQ(r4.jobs, 4);
        EXPECT_EQ(r8.jobs, 8);
        expectFannedOut(r4);
        expectFannedOut(r8);
    }
}

// Priority sites (-mhp-prune / -lint-guided) with -cov: the priority
// policy must not consult the worker's cumulative coverage, so the
// merged result stays identical across worker counts. A policy that
// read the worker's coverage made cockroach_1055 find its first bug at
// iteration 2 with one worker and at iteration 3 with four. The first
// 16 iterations run on one worker whatever the count, so the campaigns
// run a budget of 40 without stopping: iterations 17..40 run on four
// workers whose coverage differs from the single worker's.
TEST(Campaign, PrioritySitesWithCoverageMatchAcrossJobCounts)
{
    for (const char *name : {"cockroach_1055", "cockroach_7504"}) {
        const goker::KernelInfo &k = kernel(name);
        auto config = [&](int jobs) {
            CampaignConfig cfg = baseConfig(k, jobs);
            cfg.engine.seedBase = 1;
            cfg.engine.stopOnBug = false;
            cfg.engine.prioritySites = goker::kernelMhpSites(k);
            return cfg;
        };
        SCOPED_TRACE(name);
        CampaignConfig c1 = config(1);
        ASSERT_FALSE(c1.engine.prioritySites.empty());
        CampaignResult r1 = runCampaign(c1, k.fn);
        CampaignResult r4 = runCampaign(config(4), k.fn);
        expectIdentical(r1, r4);
        expectFannedOut(r4);
    }
}


// Ledger row count (and file line count) is the same for any worker
// count: the fold streams campaign ledger rows in iteration order and
// stops at the canonical cutoff, here past the inline prefix.
TEST(Campaign, LedgerRowCountMatchesAcrossJobCounts)
{
    const goker::KernelInfo &k = kernel(kLateBugKernel);
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
    expectFannedOut(r4);
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
// cockroach_1055 finds its bug at iteration 2, inside the inline
// prefix, so at -jobs=4 nothing fans out and nothing is discarded; the
// late-bug kernel finds its bug after the prefix, so the stop is
// broadcast to the worker threads.
TEST(Campaign, EarlyStopBroadcastPreservesCanonicalCutoff)
{
    for (const char *name : {"cockroach_1055", kLateBugKernel}) {
        const goker::KernelInfo &k = kernel(name);
        const bool past_prefix = std::string(name) == kLateBugKernel;
        for (int jobs : {1, 4}) {
            CampaignConfig cfg = baseConfig(k, jobs);
            CampaignResult r = runCampaign(cfg, k.fn);
            SCOPED_TRACE(::testing::Message() << name << " jobs=" << jobs);
            ASSERT_TRUE(r.merged.bugFound);
            EXPECT_EQ(r.merged.bugIteration > kInlinePrefix, past_prefix);
            EXPECT_EQ(static_cast<int>(r.merged.iterations.size()),
                      r.merged.bugIteration);
            EXPECT_EQ(r.cutoffIteration, r.merged.bugIteration);
            EXPECT_GE(r.executedIterations,
                      static_cast<int>(r.merged.iterations.size()));
            EXPECT_EQ(r.discardedIterations,
                      r.executedIterations -
                          static_cast<int>(r.merged.iterations.size()));
            EXPECT_LE(r.executedIterations, cfg.engine.maxIterations);
            if (jobs == 1 || !past_prefix) {
                EXPECT_EQ(r.window, 0);
                EXPECT_EQ(r.discardedIterations, 0);
            } else {
                expectFannedOut(r);
            }
        }
    }
}

// With stop-on-bug off the campaign runs the whole budget and every
// iteration is merged, regardless of worker count. The budgets around
// the inline prefix: at -jobs=4 a budget of 15 or 16 never fans out,
// one of 17 fans out for its last iteration, and each matches -jobs=1.
TEST(Campaign, FixedBudgetExecutesEveryIteration)
{
    const goker::KernelInfo &k = kernel("moby_28462");
    for (int budget :
         {12, kInlinePrefix - 1, kInlinePrefix, kInlinePrefix + 1}) {
        CampaignResult r1;
        for (int jobs : {1, 4}) {
            CampaignConfig cfg = baseConfig(k, jobs);
            cfg.engine.maxIterations = budget;
            cfg.engine.stopOnBug = false;
            CampaignResult r = runCampaign(cfg, k.fn);
            SCOPED_TRACE(::testing::Message()
                         << "budget=" << budget << " jobs=" << jobs);
            EXPECT_EQ(r.executedIterations, budget);
            EXPECT_EQ(r.discardedIterations, 0);
            EXPECT_EQ(r.merged.iterations.size(),
                      static_cast<size_t>(budget));
            EXPECT_EQ(r.cutoffIteration, budget);
            EXPECT_EQ(r.window > 0, jobs > 1 && budget > kInlinePrefix);
            if (jobs == 1)
                r1 = std::move(r);
            else
                expectIdentical(r1, r);
        }
    }
}

// The folded worker metrics account for every executed iteration, and
// the worker count is clamped to the iteration budget.
TEST(Campaign, WorkerMetricsFoldAndJobClamp)
{
    const goker::KernelInfo &k = kernel("cockroach_1055");
    CampaignConfig cfg = baseConfig(k, 64);
    cfg.engine.maxIterations = 20;
    cfg.engine.stopOnBug = false;
    CampaignResult r = runCampaign(cfg, k.fn);
    EXPECT_EQ(r.jobs, 20); // clamped to maxIterations
    expectFannedOut(r);
    const obs::Snapshot folded = r.workerMetrics.snapshot();
    auto it = folded.counters.find("engine.iterations");
    ASSERT_NE(it, folded.counters.end());
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
    expectFannedOut(r4);
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
    c1.engine.maxIterations = 30;
    CampaignConfig c4 = c1;
    c4.jobs = 4;

    CampaignResult r1 = runCampaign(c1, k.fn);
    CampaignResult r4 = runCampaign(c4, k.fn);
    expectFannedOut(r4);

    for (size_t i = 0; i < obs::kNumStages; ++i) {
        SCOPED_TRACE(obs::stageName(static_cast<obs::Stage>(i)));
        EXPECT_EQ(r1.merged.profile.stages[i].total,
                  r4.merged.profile.stages[i].total);
        EXPECT_EQ(r1.merged.profile.stages[i].count,
                  r4.merged.profile.stages[i].count);
    }

    // The fold's replays (confirmations, the first bug's minimization)
    // run on the campaign thread but record into no profile: the
    // per-stage totals match the campaign without them.
    CampaignConfig replaying = c1;
    replaying.engine.predict = true;
    replaying.recordPath = testing::TempDir() + "profile_replays.recipe";
    replaying.minimize = true;
    for (int jobs : {1, 4}) {
        replaying.jobs = jobs;
        CampaignResult r = runCampaign(replaying, k.fn);
        SCOPED_TRACE(::testing::Message() << "replaying jobs=" << jobs);
        ASSERT_TRUE(r.minimize.reproduced);
        ASSERT_GT(r.predict.replays, 0);
        for (size_t i = 0; i < obs::kNumStages; ++i) {
            SCOPED_TRACE(obs::stageName(static_cast<obs::Stage>(i)));
            EXPECT_EQ(r.merged.profile.stages[i].total,
                      r1.merged.profile.stages[i].total);
        }
    }
    std::remove(replaying.recordPath.c_str());
    std::remove((replaying.recordPath + ".min").c_str());
}

// With -profile off no instrumentation site records anything: the
// merged snapshot is empty and ledger rows carry no profile key.
TEST(Campaign, ProfileOffRecordsNothing)
{
    const goker::KernelInfo &k = kernel("cockroach_1055");
    CampaignConfig cfg = baseConfig(k, 2);
    cfg.engine.maxIterations = 30;
    cfg.engine.stopOnBug = false;
    CampaignResult r = runCampaign(cfg, k.fn);
    expectFannedOut(r);
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
    expectFannedOut(r4);

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
// iteration for any worker count. cockroach_10214 crosses 90% past the
// inline prefix, so the stop reaches the worker threads.
TEST(Campaign, CoverageThresholdStopIsDeterministic)
{
    const goker::KernelInfo &k = kernel("cockroach_10214");
    std::vector<int> cutoffs;
    for (int jobs : {1, 4}) {
        CampaignConfig cfg = baseConfig(k, jobs);
        cfg.engine.stopOnBug = false;
        cfg.engine.covThreshold = 90.0;
        CampaignResult r = runCampaign(cfg, k.fn);
        cutoffs.push_back(r.cutoffIteration);
        SCOPED_TRACE(jobs);
        EXPECT_GE(r.merged.finalCoverage, 90.0);
        EXPECT_LT(r.cutoffIteration, cfg.engine.maxIterations);
        if (jobs > 1)
            expectFannedOut(r);
    }
    EXPECT_EQ(cutoffs[0], cutoffs[1]);
}

namespace {

/** Every line of @p path. */
std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

/** The bytes of @p path ("" when missing). */
std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/**
 * The placement-free part of a rendered metrics object: its counters,
 * minus the per-worker first-bug tally and stack-pool reuse. Gauges
 * and histograms (engine.iter_wall_us among them) are cumulative per
 * worker registry.
 */
std::string
canonicalMetrics(const std::string &json)
{
    const std::string open = "{\"counters\":{";
    if (json.compare(0, open.size(), open) != 0)
        return "?" + json;
    std::string body =
        json.substr(open.size(), json.find('}') - open.size());
    std::string out;
    std::stringstream pairs(body);
    std::string kv;
    while (std::getline(pairs, kv, ',')) {
        if (kv.rfind("\"engine.bugs_found\"", 0) == 0 ||
            kv.rfind("\"sched.stackpool.", 0) == 0)
            continue;
        out += kv + ",";
    }
    return out;
}

/** A ledger line without wall_us, worker, wseq, and placement metrics. */
std::string
canonicalRow(const std::string &line)
{
    static const std::regex host(",\"(wall_us|worker|wseq)\":[0-9]+");
    const size_t m = line.find(",\"metrics\":");
    if (m == std::string::npos)
        return "?" + line;
    return std::regex_replace(line.substr(0, m), host, "") + " " +
           canonicalMetrics(line.substr(m + 11));
}

std::vector<std::string>
canonicalLedger(const std::string &path)
{
    std::vector<std::string> rows;
    for (const std::string &line : readLines(path))
        rows.push_back(canonicalRow(line));
    return rows;
}

/**
 * A checkpoint log line by line, without the fields host timing moves:
 * a row line's wall_us (its sixth field), a state line's ledger end
 * (the ledger rows carry metrics), and commit byte offsets (they count
 * both).
 */
std::vector<std::string>
canonicalLog(const std::string &path)
{
    static const std::regex wall("^(row( [^ ]+){5}) [0-9]+");
    std::vector<std::string> out;
    for (const std::string &line : readLines(path)) {
        if (line.rfind("row ", 0) == 0)
            out.push_back(std::regex_replace(line, wall, "$1"));
        else if (line.rfind("state ", 0) == 0 ||
                 line.rfind("commit ", 0) == 0)
            out.push_back(line.substr(0, line.rfind(' ')));
        else
            out.push_back(line);
    }
    return out;
}

/** What a campaign leaves behind, in the canonical view. */
struct CanonicalRun
{
    std::vector<std::string> ledger;
    std::vector<std::string> log;
    std::string bitmap;
    int bugIteration = 0;
    int raceIteration = 0;
    int cutoff = 0;
    int confirmed = 0;
    std::string recipe;
    std::string minRecipe;
    /** Reorder-window slots (0 = never fanned out); not compared. */
    int window = 0;
};

/**
 * Stem of the running test's scratch files. ctest runs each case in its
 * own process, so cases that overlap must not share a file.
 */
std::string
testStem()
{
    const testing::TestInfo *t =
        testing::UnitTest::GetInstance()->current_test_info();
    return testing::TempDir() + t->test_suite_name() + "." + t->name();
}

CanonicalRun
runCanonical(CampaignConfig cfg, const goker::KernelInfo &k)
{
    const std::string stem = testStem();
    cfg.engine.ledgerPath = stem + ".jsonl";
    // A resume continues the ledger its checkpoint recorded.
    if (cfg.resumePath.empty())
        std::remove(cfg.engine.ledgerPath.c_str());
    if (cfg.checkpointEvery > 0)
        cfg.checkpointPath = stem + ".ck";
    if (cfg.minimize)
        cfg.recordPath = stem + ".recipe";
    CampaignResult r = runCampaign(cfg, k.fn);
    CanonicalRun c;
    c.ledger = canonicalLedger(cfg.engine.ledgerPath);
    if (!cfg.checkpointPath.empty())
        c.log = canonicalLog(cfg.checkpointPath);
    c.bitmap = r.coverage.bitmapStr();
    c.bugIteration = r.merged.bugIteration;
    c.raceIteration = r.merged.raceIteration;
    c.cutoff = r.cutoffIteration;
    c.confirmed = r.predict.confirmedCount;
    c.window = r.window;
    if (!cfg.recordPath.empty()) {
        c.recipe = readFile(cfg.recordPath);
        c.minRecipe = readFile(cfg.recordPath + ".min");
    }
    EXPECT_EQ(r.ledgerRows, r.merged.iterations.size());
    EXPECT_LE(r.windowPeak, r.window);
    return c;
}

void
expectSameCanonical(const CanonicalRun &a, const CanonicalRun &b)
{
    EXPECT_EQ(a.ledger, b.ledger);
    EXPECT_EQ(a.log, b.log);
    EXPECT_EQ(a.bitmap, b.bitmap);
    EXPECT_EQ(a.bugIteration, b.bugIteration);
    EXPECT_EQ(a.raceIteration, b.raceIteration);
    EXPECT_EQ(a.cutoff, b.cutoff);
    EXPECT_EQ(a.confirmed, b.confirmed);
    EXPECT_EQ(a.recipe, b.recipe);
    EXPECT_EQ(a.minRecipe, b.minRecipe);
}

} // namespace

// The pipelined fold is placement-free: for every worker count,
// checkpoint round size, and stop rule, the canonical ledger rows, the
// checkpoint commit bodies, the coverage bitmap, the bug/race
// watermarks, and the fold's stamps (predicted_confirmed, recipe,
// min_yields) match -jobs=1.
TEST(Campaign, PipelinedFoldMatchesJobs1)
{
    const goker::KernelInfo &k = kernel("kubernetes_11298");
    for (bool stop : {false, true}) {
        for (int every : {1, 7, 0}) {
            CampaignConfig cfg = baseConfig(k, 1);
            cfg.engine.maxIterations = 120;
            cfg.engine.raceDetect = true;
            cfg.engine.stopOnBug = stop;
            cfg.checkpointEvery = every;
            const CanonicalRun ref = runCanonical(cfg, k);
            ASSERT_FALSE(ref.ledger.empty());
            if (stop) {
                // The stop path is exercised, and past the inline
                // prefix, so the stop reaches the worker threads.
                EXPECT_LT(ref.cutoff, 120);
                EXPECT_GT(ref.cutoff, kInlinePrefix);
            }
            if (every > 0) {
                EXPECT_FALSE(ref.log.empty());
            }
            for (int jobs : {2, 4, 8}) {
                SCOPED_TRACE(::testing::Message()
                             << "stop=" << stop << " every=" << every
                             << " jobs=" << jobs);
                cfg.jobs = jobs;
                const CanonicalRun run = runCanonical(cfg, k);
                expectSameCanonical(ref, run);
                EXPECT_GT(run.window, 0) << "ended inside the inline prefix";
            }
        }
    }

    // The fold's stamps: confirmed predictions, the recorded recipe,
    // and the minimized yield count land on their rows as they fold.
    // The bug lands inside the inline prefix, so the campaign keeps
    // going to fan out.
    const goker::KernelInfo &p = kernel("cockroach_7504");
    CampaignConfig cfg = baseConfig(p, 1);
    cfg.engine.maxIterations = 60;
    cfg.engine.stopOnBug = false;
    cfg.engine.raceDetect = true;
    cfg.engine.predict = true;
    cfg.minimize = true;
    cfg.checkpointEvery = 0;
    const CanonicalRun ref = runCanonical(cfg, p);
    ASSERT_GT(ref.confirmed, 0);
    ASSERT_FALSE(ref.minRecipe.empty());
    size_t stamped = 0;
    for (const std::string &row : ref.ledger)
        stamped += row.find("\"predicted_confirmed\"") != std::string::npos;
    EXPECT_GT(stamped, 0u);
    bool bug_row_stamped = false;
    for (const std::string &row : ref.ledger)
        bug_row_stamped |= row.find("\"recipe\"") != std::string::npos &&
                           row.find("\"min_yields\"") != std::string::npos;
    EXPECT_TRUE(bug_row_stamped);
    for (int jobs : {2, 4, 8}) {
        SCOPED_TRACE(::testing::Message() << "predict jobs=" << jobs);
        cfg.jobs = jobs;
        const CanonicalRun run = runCanonical(cfg, p);
        expectSameCanonical(ref, run);
        EXPECT_GT(run.window, 0) << "ended inside the inline prefix";
    }
}

// The first bug's stamps (recipe, min_yields, confirmed_warnings) and
// the recipe and .min bytes do not depend on where the bug row comes
// from: a live capture (in process at -jobs 1 and 4), a shard's row
// (-isolate), or the committed prefix of a checkpoint (-resume).
TEST(Campaign, FirstBugStampsMatchAcrossExecutors)
{
    const goker::KernelInfo &k = kernel("cockroach_7504");
    CampaignConfig cfg = baseConfig(k, 1);
    cfg.programName = k.name;
    cfg.engine.seedBase = 54; // -lint-guided, D=2: first bug at 15
    cfg.engine.stopOnBug = false;
    cfg.minimize = true;
    cfg.lint = goker::kernelLintReport(k);
    cfg.lintBridge = true;
    cfg.engine.prioritySites = cfg.lint.sites();
    cfg.checkpointEvery = kInlinePrefix;
    const CanonicalRun ref = runCanonical(cfg, k);
    ASSERT_EQ(ref.bugIteration, 15);
    ASSERT_EQ(ref.ledger.size(), 40u);
    const std::string &bug_row = ref.ledger[14];
    EXPECT_NE(bug_row.find("\"recipe\""), std::string::npos) << bug_row;
    EXPECT_NE(bug_row.find("\"min_yields\""), std::string::npos) << bug_row;
    EXPECT_NE(bug_row.find("\"confirmed_warnings\":1"), std::string::npos)
        << bug_row;
    ASSERT_FALSE(ref.recipe.empty());
    ASSERT_FALSE(ref.minRecipe.empty());

    // The reference run's log, cut after its first commit (cursor 16):
    // the committed prefix holds the bug row, and the reference ledger
    // its rows.
    const std::string ledger = readFile(testStem() + ".jsonl");
    const std::string log = readFile(testStem() + ".ck");
    const size_t commit = log.find("\ncommit 16 ");
    ASSERT_NE(commit, std::string::npos);
    const std::string cut = testStem() + ".cut.ck";
    {
        std::ofstream out(cut, std::ios::binary | std::ios::trunc);
        out << log.substr(0, log.find('\n', commit + 1) + 1);
    }

    for (int leg = 0; leg < 3; ++leg) {
        CampaignConfig c = cfg;
        if (leg == 0) {
            c.jobs = 4;
        } else if (leg == 1) {
            c.isolate = true;
            c.jobs = 2;
        } else {
            // The resume continues the reference ledger, truncated back
            // to the commit.
            c.resumePath = cut;
            std::ofstream out(testStem() + ".jsonl",
                              std::ios::binary | std::ios::trunc);
            out << ledger;
        }
        SCOPED_TRACE(leg == 0 ? "jobs=4" : leg == 1 ? "isolate" : "resume");
        const CanonicalRun run = runCanonical(c, k);
        expectSameCanonical(ref, run);
        if (leg == 0) {
            EXPECT_GT(run.window, 0) << "ended inside the inline prefix";
        }
    }
    std::remove(cut.c_str());
}

// Rows the fold stamps (predicted_confirmed here) stream like any
// other: each is final when it folds, so a -predict campaign's ledger
// has its first full write buffer (RunLedger::kStagedRows, 256 rows) on
// disk while the campaign is still running. The program reads the
// ledger on its 500th call (iterations and confirmation replays).
TEST(Campaign, StampableRowsStream)
{
    const goker::KernelInfo &k = kernel("cockroach_7504");
    CampaignConfig cfg = baseConfig(k, 1);
    cfg.engine.maxIterations = 600;
    cfg.engine.stopOnBug = false;
    cfg.engine.predict = true;
    cfg.engine.ledgerPath = testing::TempDir() + "stream.jsonl";
    std::remove(cfg.engine.ledgerPath.c_str());
    int calls = 0;
    size_t lines_mid_run = 0;
    auto program = [&] {
        if (++calls == 500)
            lines_mid_run = lineCount(cfg.engine.ledgerPath);
        k.fn();
    };
    CampaignResult r = runCampaign(cfg, program);
    ASSERT_GE(calls, 500);
    ASSERT_GT(r.predict.confirmedCount, 0);
    EXPECT_GE(lines_mid_run, 256u);
    EXPECT_EQ(lineCount(cfg.engine.ledgerPath), 600u);
    std::remove(cfg.engine.ledgerPath.c_str());
}

// A folded record goes back to the campaign's spare list, and the next
// iteration any worker runs reuses it. Reuse carries nothing from one
// iteration into the next: a -predict campaign long enough that every
// record is reused many times writes the same canonical rows
// (predicted and predicted_confirmed included) and merges the same
// predictions and confirmations at -jobs=1 and -jobs=4, and a record
// handed back with every per-iteration field set comes out of
// runIteration with none of them.
TEST(Campaign, RecycledRecordsStartClean)
{
    const goker::KernelInfo &k = kernel("cockroach_7504");
    CampaignConfig cfg = baseConfig(k, 1);
    cfg.engine.maxIterations = 600;
    cfg.engine.stopOnBug = false;
    cfg.engine.predict = true;
    cfg.engine.ledgerPath = testStem() + ".jsonl";
    std::vector<std::string> rows[2];
    std::string merged[2];
    for (int leg = 0; leg < 2; ++leg) {
        cfg.jobs = leg == 0 ? 1 : 4;
        SCOPED_TRACE(::testing::Message() << "jobs=" << cfg.jobs);
        std::remove(cfg.engine.ledgerPath.c_str());
        CampaignResult r = runCampaign(cfg, k.fn);
        rows[leg] = canonicalLedger(cfg.engine.ledgerPath);
        ASSERT_EQ(rows[leg].size(), 600u);
        ASSERT_GT(r.predict.confirmedCount, 0);
        for (const analysis::Prediction &p : r.predict.report.predictions)
            merged[leg] += strFormat("%s @%d confirmed=%d %s\n",
                                     p.key().c_str(), p.iteration,
                                     p.confirmed, p.confirmVerdict.c_str());
        for (const trace::Recipe &rc : r.predict.confirmRecipes)
            merged[leg] += trace::recipeToString(rc);
        merged[leg] += strFormat("confirmed %d replays %d\n",
                                 r.predict.confirmedCount,
                                 r.predict.replays);
        if (leg == 0) {
            EXPECT_EQ(r.recordsMade, 1);
        } else {
            expectFannedOut(r);
            EXPECT_GT(r.recordsMade, 0);
            EXPECT_LE(r.recordsMade, r.window);
        }
    }
    EXPECT_EQ(rows[0], rows[1]);
    EXPECT_EQ(merged[0], merged[1]);
    size_t stamped = 0;
    for (const std::string &row : rows[0])
        stamped += row.find("\"predicted_confirmed\"") != std::string::npos;
    EXPECT_GT(stamped, 0u);
    std::remove(cfg.engine.ledgerPath.c_str());

    // Directly: iteration 5 on a fresh record, and on a spare handed
    // back with every per-iteration field set. Neither worker captures
    // a first bug or race, so a clean record carries neither.
    CampaignConfig plain = baseConfig(k, 1);
    plain.engine.stopOnBug = false;
    const std::function<void()> program = k.fn;
    const auto universe = std::make_shared<const analysis::CoverageUniverse>(
        plain.engine.staticModel);
    campaign::Shared fresh_sh(plain, program);
    campaign::Worker fresh_w(0, universe);
    fresh_w.raced = fresh_w.bugged = true;
    const std::unique_ptr<campaign::IterRecord> want =
        campaign::runIteration(fresh_sh, fresh_w, 5);
    ASSERT_TRUE(want);

    auto dirty = std::make_unique<campaign::IterRecord>();
    dirty->race = std::make_unique<analysis::RaceReport>();
    dirty->bugRun = std::make_unique<engine::SingleRun>();
    dirty->predictions.predictions.resize(2);
    dirty->loss = campaign::kCrashed;
    dirty->crashCause = "sigsegv";
    dirty->respawns = 3;
    dirty->coreBug = !want->coreBug;
    dirty->metricsJson = "{\"stale\":1}";
    dirty->cov.covered = {1, 2, 3};
    dirty->cov.required = {4};
    dirty->exec.panicMsg = "stale";
    dirty->exec.leaked.resize(5);
    dirty->dl.leaked = {9, 9};
    dirty->recipe.seed = 99;
    const campaign::IterRecord *spare = dirty.get();
    campaign::Shared sh(plain, program);
    campaign::Worker w(0, universe);
    w.raced = w.bugged = true;
    sh.recycle(std::move(dirty));
    const std::unique_ptr<campaign::IterRecord> got =
        campaign::runIteration(sh, w, 5);
    ASSERT_EQ(got.get(), spare) << "the spare record was not reused";
    EXPECT_EQ(sh.made(), 0);
    EXPECT_FALSE(got->race);
    EXPECT_FALSE(got->bugRun);
    EXPECT_TRUE(got->predictions.predictions.empty());
    EXPECT_EQ(got->loss, "");
    EXPECT_EQ(got->crashCause, "");
    EXPECT_EQ(got->respawns, -1);
    EXPECT_EQ(got->metricsJson, "");
    EXPECT_EQ(got->recipe.seed, want->recipe.seed);
    EXPECT_EQ(got->iter, 5);
    EXPECT_EQ(got->wseq, 1);
    EXPECT_EQ(got->coreBug, want->coreBug);
    EXPECT_EQ(got->exec.outcome, want->exec.outcome);
    EXPECT_EQ(got->exec.steps, want->exec.steps);
    EXPECT_EQ(got->exec.panicMsg, want->exec.panicMsg);
    EXPECT_EQ(got->exec.leaked.size(), want->exec.leaked.size());
    EXPECT_EQ(got->dl.verdict, want->dl.verdict);
    EXPECT_EQ(got->dl.leaked, want->dl.leaked);
    EXPECT_EQ(got->cov.covered, want->cov.covered);
    EXPECT_EQ(got->cov.required, want->cov.required);
}

// The reorder window bounds the records waiting for the fold: over a
// long campaign with a ledger and checkpoint rounds, the peak never
// exceeds the window, and every iteration still folds.
TEST(Campaign, PendingRecordsNeverExceedWindow)
{
    const goker::KernelInfo &k = kernel("cockroach_1055");
    CampaignConfig cfg = baseConfig(k, 4);
    cfg.engine.maxIterations = 20000;
    cfg.engine.stopOnBug = false;
    const std::string stem = testing::TempDir() + "window";
    cfg.engine.ledgerPath = stem + ".jsonl";
    cfg.checkpointPath = stem + ".ck";
    cfg.checkpointEvery = 500;
    std::remove(cfg.engine.ledgerPath.c_str());
    CampaignResult r = runCampaign(cfg, k.fn);
    EXPECT_GT(r.window, 0);
    EXPECT_GT(r.windowPeak, 0);
    EXPECT_LE(r.windowPeak, r.window);
    EXPECT_EQ(r.cutoffIteration, 20000);
    EXPECT_EQ(r.executedIterations, 20000);
    EXPECT_EQ(r.ledgerRows, 20000u);
    std::remove(cfg.engine.ledgerPath.c_str());
    std::remove(cfg.checkpointPath.c_str());
}

// campaign.fanouts counts the campaigns that ran past the inline
// prefix: at -jobs=4 a budget of 16 stays inline and one of 17 fans
// out; at -jobs=1 nothing fans out.
TEST(Campaign, FanoutsCountCampaignsPastThePrefix)
{
    obs::Registry reg;
    obs::ScopedRegistry scope(reg);
    const goker::KernelInfo &k = kernel("moby_28462");
    for (int jobs : {1, 4}) {
        for (int budget : {kInlinePrefix, kInlinePrefix + 1}) {
            CampaignConfig cfg = baseConfig(k, jobs);
            cfg.engine.maxIterations = budget;
            cfg.engine.stopOnBug = false;
            runCampaign(cfg, k.fn);
        }
    }
    EXPECT_EQ(reg.counter("campaign.runs").value(), 4u);
    EXPECT_EQ(reg.counter("campaign.fanouts").value(), 1u);
}

// Two -jobs=4 campaigns started at once from two threads both fan out
// and both match their -jobs=1 runs.
TEST(Campaign, ConcurrentCampaignsMatchJobs1)
{
    const goker::KernelInfo &a = kernel("kubernetes_11298");
    const goker::KernelInfo &b = kernel("etcd_7443");
    CampaignConfig ca = baseConfig(a, 4);
    CampaignConfig cb = baseConfig(b, 4);
    ca.engine.raceDetect = cb.engine.raceDetect = true;
    ca.engine.stopOnBug = cb.engine.stopOnBug = false;
    ca.engine.maxIterations = cb.engine.maxIterations = 400;
    CampaignResult ra, rb;
    auto run = [](const CampaignConfig &cfg, const goker::KernelInfo &k,
                  CampaignResult *out) {
        obs::Registry reg; // the global registry is not thread-safe
        obs::ScopedRegistry scope(reg);
        *out = runCampaign(cfg, k.fn);
    };
    std::thread ta(run, std::cref(ca), std::cref(a), &ra);
    std::thread tb(run, std::cref(cb), std::cref(b), &rb);
    ta.join();
    tb.join();
    expectFannedOut(ra);
    expectFannedOut(rb);
    ca.jobs = cb.jobs = 1;
    CampaignResult ref_a = runCampaign(ca, a.fn);
    CampaignResult ref_b = runCampaign(cb, b.fn);
    {
        SCOPED_TRACE("kubernetes_11298");
        expectIdentical(ref_a, ra);
    }
    {
        SCOPED_TRACE("etcd_7443");
        expectIdentical(ref_b, rb);
    }
}
