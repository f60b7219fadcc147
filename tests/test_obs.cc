/**
 * @file
 * Tests for the campaign telemetry subsystem (src/obs): metrics
 * registry semantics, histogram bucketing, snapshot/delta/JSON
 * rendering, the JSONL run ledger (standalone and engine-driven), and
 * the Chrome trace-event export of ECTs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <vector>

#include "base/fmt.hh"
#include "campaign/campaign.hh"
#include "chan/chan.hh"
#include "goat/engine.hh"
#include "obs/chrome_trace.hh"
#include "obs/ledger.hh"
#include "obs/metrics.hh"
#include "obs/profile.hh"
#include "obs/progress.hh"
#include "obs/saturation.hh"
#include "runtime/api.hh"
#include "ring_programs.hh"
#include "test_util.hh"

using namespace goat;
using namespace goat::obs;

namespace {

/**
 * Minimal JSON well-formedness check: balanced braces/brackets outside
 * string literals, no trailing garbage. Not a full parser — structure
 * is asserted separately via substring probes; full validation happens
 * in tools/check_ledger.py with a real parser.
 */
bool
jsonBalanced(const std::string &s)
{
    std::vector<char> stack;
    bool in_str = false, esc = false;
    for (char c : s) {
        if (in_str) {
            if (esc)
                esc = false;
            else if (c == '\\')
                esc = true;
            else if (c == '"')
                in_str = false;
            continue;
        }
        switch (c) {
          case '"':
            in_str = true;
            break;
          case '{':
          case '[':
            stack.push_back(c);
            break;
          case '}':
            if (stack.empty() || stack.back() != '{')
                return false;
            stack.pop_back();
            break;
          case ']':
            if (stack.empty() || stack.back() != '[')
                return false;
            stack.pop_back();
            break;
          default:
            break;
        }
    }
    return !in_str && stack.empty();
}

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

/** Deterministically leaking program (blocked sender). */
void
leakyProgram()
{
    Chan<int> c;
    go([c]() mutable { c.send(1); });
    yield();
}

} // namespace

TEST(Metrics, CounterBasics)
{
    Registry reg;
    Counter &c = reg.counter("x");
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, RegistryFindOrCreateReturnsSameInstrument)
{
    Registry reg;
    Counter &a = reg.counter("same");
    Counter &b = reg.counter("same");
    EXPECT_EQ(&a, &b);
    a.inc();
    EXPECT_EQ(b.value(), 1u);

    Gauge &g1 = reg.gauge("g");
    Gauge &g2 = reg.gauge("g");
    EXPECT_EQ(&g1, &g2);

    Histogram &h1 = reg.histogram("h", {10, 20});
    // Later bounds are ignored; the first registration wins.
    Histogram &h2 = reg.histogram("h", {1, 2, 3});
    EXPECT_EQ(&h1, &h2);
    EXPECT_EQ(h2.bounds().size(), 2u);
}

TEST(Metrics, GaugeSetAddSetMax)
{
    Gauge g;
    g.set(10);
    EXPECT_EQ(g.value(), 10);
    g.add(-3);
    EXPECT_EQ(g.value(), 7);
    g.setMax(5);
    EXPECT_EQ(g.value(), 7); // not lowered
    g.setMax(12);
    EXPECT_EQ(g.value(), 12);
    g.reset();
    EXPECT_EQ(g.value(), 0);
}

TEST(Metrics, HistogramBucketingAndOverflow)
{
    Histogram h({10, 100, 1000});
    h.observe(5);    // bucket 0 (<= 10)
    h.observe(10);   // bucket 0 (boundary is inclusive)
    h.observe(11);   // bucket 1
    h.observe(1000); // bucket 2
    h.observe(5000); // overflow
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u); // overflow bucket
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 5u + 10 + 11 + 1000 + 5000);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.bucketCount(3), 0u);
}

TEST(Metrics, SnapshotAndResetAll)
{
    Registry reg;
    reg.counter("a").inc(3);
    reg.gauge("g").set(-7);
    reg.histogram("h", {10}).observe(4);

    Snapshot s = reg.snapshot();
    EXPECT_EQ(s.counters.at("a"), 3u);
    EXPECT_EQ(s.gauges.at("g"), -7);
    EXPECT_EQ(s.histograms.at("h").count, 1u);
    EXPECT_EQ(s.histograms.at("h").buckets.size(), 2u);

    reg.resetAll();
    Snapshot z = reg.snapshot();
    EXPECT_EQ(z.counters.at("a"), 0u);
    EXPECT_EQ(z.gauges.at("g"), 0);
    EXPECT_EQ(z.histograms.at("h").count, 0u);
    // Registration survives the reset.
    std::vector<std::string> names = reg.names();
    EXPECT_EQ(names.size(), 3u);
}

TEST(Metrics, DeltaDropsZeroCounters)
{
    Registry reg;
    Counter &a = reg.counter("moved");
    reg.counter("idle");
    Snapshot before = reg.snapshot();
    a.inc(5);
    Snapshot delta = reg.snapshot().deltaFrom(before);
    EXPECT_EQ(delta.counters.size(), 1u);
    EXPECT_EQ(delta.counters.at("moved"), 5u);
    EXPECT_EQ(delta.counters.count("idle"), 0u);
}

TEST(Metrics, DeltaJsonMatchesSnapshotDeltaOracle)
{
    // Randomized property: deltaJson() is byte-identical to rendering
    // snapshot().deltaFrom(prev), where prev is the snapshot at the
    // previous render (or at resetAll; all zero for a fresh registry).
    // Names include ones that need JSON escaping, and instruments keep
    // being registered between renders.
    const std::vector<std::string> names = {
        "engine.iterations", "sched.dispatches", "q\"uote", "back\\slash",
        "tab\tname", std::string("ctl\x01x"), "z"};
    std::mt19937_64 rng(20211014);
    for (int trial = 0; trial < 25; ++trial) {
        Registry reg;
        Snapshot prev;
        int renders = 0;
        for (int step = 0; step < 300; ++step) {
            const std::string name =
                names[rng() % names.size()] + std::to_string(rng() % 4);
            switch (rng() % 10) {
              case 0:
              case 1:
              case 2:
                reg.counter(name).inc(rng() % 3); // 0: registered, idle
                break;
              case 3:
                reg.gauge(name).set(static_cast<int64_t>(rng() % 200) -
                                    100);
                break;
              case 4:
                reg.histogram(name, {10, 100, 1000}).observe(rng() % 2000);
                break;
              case 5:
                if (rng() % 8 == 0) {
                    reg.resetAll();
                    prev = reg.snapshot();
                }
                break;
              default: {
                Snapshot now = reg.snapshot();
                const std::string want = now.deltaFrom(prev).jsonStr();
                ASSERT_EQ(reg.deltaJson(), want)
                    << "trial " << trial << " step " << step;
                prev = std::move(now);
                ++renders;
              }
            }
        }
        EXPECT_GT(renders, 0);
    }
}

TEST(Metrics, SnapshotJsonWellFormed)
{
    Registry reg;
    reg.counter("c").inc();
    reg.gauge("g").set(2);
    reg.histogram("h", {1, 10}).observe(3);
    std::string json = reg.snapshot().jsonStr();
    EXPECT_TRUE(jsonBalanced(json)) << json;
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    EXPECT_NE(json.find("\"c\":1"), std::string::npos);
    EXPECT_NE(json.find("\"bounds\":[1,10]"), std::string::npos);
}

TEST(Metrics, JsonEscape)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
    EXPECT_EQ(jsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(Ledger, EntryJsonShape)
{
    LedgerEntry e;
    e.iteration = 7;
    e.seed = 42;
    e.delayBound = 3;
    e.outcome = "ok";
    e.verdict = "pass";
    e.bug = true;
    e.steps = 99;
    e.coveragePct = 62.5;
    e.wallMicros = 1234;
    std::string json = ledgerEntryJson(e);
    EXPECT_TRUE(jsonBalanced(json)) << json;
    EXPECT_NE(json.find("\"iter\":7"), std::string::npos);
    EXPECT_NE(json.find("\"seed\":42"), std::string::npos);
    EXPECT_NE(json.find("\"delay_bound\":3"), std::string::npos);
    EXPECT_NE(json.find("\"outcome\":\"ok\""), std::string::npos);
    EXPECT_NE(json.find("\"verdict\":\"pass\""), std::string::npos);
    EXPECT_NE(json.find("\"bug\":true"), std::string::npos);
    EXPECT_NE(json.find("\"steps\":99"), std::string::npos);
    EXPECT_NE(json.find("\"coverage_pct\":62.5"), std::string::npos);
    EXPECT_NE(json.find("\"wall_us\":1234"), std::string::npos);
    EXPECT_NE(json.find("\"metrics\":"), std::string::npos);
    EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(Ledger, UnmeasuredCoverageOmitted)
{
    LedgerEntry e;
    std::string json = ledgerEntryJson(e);
    EXPECT_EQ(json.find("coverage_pct"), std::string::npos) << json;
}

TEST(Ledger, DisabledWithEmptyPath)
{
    RunLedger ledger("");
    EXPECT_TRUE(ledger.ok());
    EXPECT_FALSE(ledger.enabled());
    ledger.append(LedgerEntry{});
    EXPECT_EQ(ledger.linesWritten(), 0u);
}

TEST(Ledger, WritesOneLinePerAppend)
{
    std::string path = testing::TempDir() + "/goat_obs_ledger.jsonl";
    std::remove(path.c_str());
    {
        RunLedger ledger(path);
        ASSERT_TRUE(ledger.enabled());
        for (int i = 1; i <= 3; ++i) {
            LedgerEntry e;
            e.iteration = i;
            e.outcome = "ok";
            e.verdict = "pass";
            ledger.append(e);
        }
        EXPECT_EQ(ledger.linesWritten(), 3u);
    }
    std::vector<std::string> lines = readLines(path);
    ASSERT_EQ(lines.size(), 3u);
    for (const std::string &l : lines)
        EXPECT_TRUE(jsonBalanced(l)) << l;
    EXPECT_NE(lines[2].find("\"iter\":3"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Ledger, EngineWritesOneLinePerIteration)
{
    std::string path = testing::TempDir() + "/goat_obs_engine.jsonl";
    std::remove(path.c_str());
    engine::GoatConfig cfg;
    cfg.maxIterations = 4;
    cfg.stopOnBug = false;
    cfg.collectCoverage = true;
    cfg.ledgerPath = path;
    engine::GoatResult result =
        campaign::runCampaign({.engine = cfg}, leakyProgram).merged;
    EXPECT_TRUE(result.bugFound);

    std::vector<std::string> lines = readLines(path);
    ASSERT_EQ(lines.size(), result.iterations.size());
    for (const std::string &l : lines) {
        EXPECT_TRUE(jsonBalanced(l)) << l;
        EXPECT_NE(l.find("\"metrics\":"), std::string::npos);
        EXPECT_NE(l.find("\"coverage_pct\":"), std::string::npos);
    }
    // The leaky program deterministically leaks: every line reports it.
    EXPECT_NE(lines[0].find("\"bug\":true"), std::string::npos);
    std::remove(path.c_str());
}

TEST(ChromeTrace, ExportsTracksBlocksAndFlows)
{
    engine::SingleRun sr = engine::runOnce(leakyProgram, /*seed=*/1);
    ASSERT_TRUE(sr.dl.buggy());
    std::string json = chromeTraceJson(sr.ect);
    EXPECT_TRUE(jsonBalanced(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    // One named track per goroutine (main + leaked child).
    EXPECT_NE(json.find("\"G1 (main)\""), std::string::npos);
    EXPECT_NE(json.find("\"G2\""), std::string::npos);
    EXPECT_NE(json.find("\"thread_sort_index\""), std::string::npos);
    // The blocked send shows as a duration event that leaks.
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"leaked\":true"), std::string::npos);
    // Instant events for the non-blocking ops.
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
}

TEST(ChromeTrace, FlowArrowsLinkUnblockPairs)
{
    // A program with a real unblock: the child send wakes the parent
    // recv, so the export must contain an s/f flow pair.
    auto program = [] {
        Chan<int> c;
        go([c]() mutable { c.send(1); });
        c.recv();
    };
    engine::SingleRun sr = engine::runOnce(program, /*seed=*/1);
    std::string json = chromeTraceJson(sr.ect);
    EXPECT_TRUE(jsonBalanced(json)) << json;
    EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"wake\""), std::string::npos);
}

TEST(ChromeTrace, WriteFile)
{
    engine::SingleRun sr = engine::runOnce(leakyProgram, /*seed=*/1);
    std::string path = testing::TempDir() + "/goat_obs_trace.json";
    std::remove(path.c_str());
    EXPECT_TRUE(writeChromeTraceFile(sr.ect, path));
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), chromeTraceJson(sr.ect));
    std::remove(path.c_str());
    EXPECT_FALSE(
        writeChromeTraceFile(sr.ect, "/nonexistent-dir/x.json"));
}

TEST(ChromeTrace, CarriesPanicPayload)
{
    // The panic message lives in the Ect's string table; the export
    // must resolve it into the event's "str" field.
    trace::Ect ect = test::runProgram(test::panicPayloadProgram, 7).ect;
    std::string json = chromeTraceJson(ect);
    EXPECT_TRUE(jsonBalanced(json)) << json;
    EXPECT_NE(json.find("\"str\":\"send on closed channel\""),
              std::string::npos);
}

TEST(SchedulerMetrics, GlobalCountersAdvanceAcrossARun)
{
    Registry &reg = Registry::global();
    Snapshot before = reg.snapshot();
    engine::runOnce(leakyProgram, /*seed=*/7);
    Snapshot delta = reg.snapshot().deltaFrom(before);
    EXPECT_GE(delta.counters["sched.runs"], 1u);
    EXPECT_GE(delta.counters["sched.dispatches"], 2u);
    EXPECT_GE(delta.counters["sched.spawns"], 2u);
    EXPECT_GE(delta.counters["event.go_create"], 2u);
    EXPECT_GE(delta.counters["chan.makes"], 1u);
    EXPECT_GE(delta.counters["sched.park.chan_send"], 1u);
}

// ---------------------------------------------------------------------
// Stage profiler (obs/profile.hh).
// ---------------------------------------------------------------------

TEST(Profile, HistogramBucketsByBitWidth)
{
    StageHist h;
    h.observe(0);  // bucket 0
    h.observe(1);  // bucket 1: bit_width(1) == 1
    h.observe(2);  // bucket 2
    h.observe(3);  // bucket 2
    h.observe(4);  // bucket 3
    h.observe(1023); // bucket 10
    h.observe(1024); // bucket 11
    EXPECT_EQ(h.count, 7u);
    EXPECT_EQ(h.sum, 0u + 1 + 2 + 3 + 4 + 1023 + 1024);
    EXPECT_EQ(h.buckets[0], 1u);
    EXPECT_EQ(h.buckets[1], 1u);
    EXPECT_EQ(h.buckets[2], 2u);
    EXPECT_EQ(h.buckets[3], 1u);
    EXPECT_EQ(h.buckets[10], 1u);
    EXPECT_EQ(h.buckets[11], 1u);
    EXPECT_EQ(h.meanNs(), h.sum / 7);
}

TEST(Profile, SnapshotMergeIsCommutative)
{
    ProfileSnapshot a, b;
    a.stages[0].total = 3;
    a.stages[0].observe(5);
    b.stages[0].total = 2;
    b.stages[0].observe(9);
    b.stages[2].total = 1;

    ProfileSnapshot ab = a, ba = b;
    ab.mergeFrom(b);
    ba.mergeFrom(a);
    EXPECT_EQ(ab.jsonStr(), ba.jsonStr());
    EXPECT_EQ(ab.stages[0].total, 5u);
    EXPECT_EQ(ab.stages[0].count, 2u);
    EXPECT_EQ(ab.stages[0].sum, 14u);
}

TEST(Profile, JsonSkipsEmptyStagesAndBalances)
{
    ProfileSnapshot s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.jsonStr(), "{}");
    s.stages[static_cast<size_t>(Stage::ChanOp)].total = 4;
    s.stages[static_cast<size_t>(Stage::ChanOp)].observe(100);
    std::string j = s.jsonStr();
    EXPECT_NE(j.find("\"chan_op\""), std::string::npos);
    EXPECT_EQ(j.find("\"fiber_switch\""), std::string::npos);
    EXPECT_NE(j.find("\"buckets\""), std::string::npos);
    EXPECT_EQ(s.jsonRowStr().find("\"buckets\""), std::string::npos);
    EXPECT_TRUE(jsonBalanced(j));
    EXPECT_TRUE(jsonBalanced(s.jsonRowStr()));
}

TEST(Profile, SamplingIsCounterBasedAndDrainResetsPhase)
{
    Profiler p;
    // Entry 0 of every kSampleEvery-block is the timed one.
    for (uint64_t i = 0; i < 2 * Profiler::kSampleEvery; ++i)
        EXPECT_EQ(p.enter(Stage::ChanOp), i % Profiler::kSampleEvery == 0)
            << i;
    EXPECT_EQ(p.peek().stage(Stage::ChanOp).total,
              2 * Profiler::kSampleEvery);

    ProfileSnapshot d = p.drain();
    EXPECT_EQ(d.stage(Stage::ChanOp).total, 2 * Profiler::kSampleEvery);
    EXPECT_TRUE(p.peek().empty());
    // The sampling phase restarts after drain: the next entry is timed.
    EXPECT_TRUE(p.enter(Stage::ChanOp));
}

TEST(Profile, ScopeRecordsOnlyWithInstalledProfiler)
{
    // No installed profiler: scopes are inert.
    { ProfileScope s(Stage::TraceAppend); }

    ProfileClock prev = setProfileClock(+[]() -> uint64_t {
        thread_local uint64_t t = 100;
        return t += 13;
    });
    Profiler p;
    const uint64_t n = Profiler::kSampleEvery + 1;
    {
        ScopedProfiler install(p);
        for (uint64_t i = 0; i < n; ++i)
            ProfileScope s(Stage::TraceAppend);
    }
    setProfileClock(prev);

    const StageHist &h = p.peek().stage(Stage::TraceAppend);
    EXPECT_EQ(h.total, n);
    EXPECT_EQ(h.count, 2u); // entries 0 and kSampleEvery sampled
    EXPECT_EQ(h.sum, 26u);  // two sampled scopes, 13ns fake tick each
    EXPECT_TRUE(Profiler::current() == nullptr);
}

TEST(Profile, StageNamesAreStable)
{
    EXPECT_STREQ(stageName(Stage::FiberSwitch), "fiber_switch");
    EXPECT_STREQ(stageName(Stage::ChanOp), "chan_op");
    EXPECT_STREQ(stageName(Stage::TraceAppend), "trace_append");
    EXPECT_STREQ(stageName(Stage::PerturbDecision), "perturb_decision");
    EXPECT_STREQ(stageName(Stage::Merge), "merge");
}

// ---------------------------------------------------------------------
// Saturation series (obs/saturation.hh).
// ---------------------------------------------------------------------

TEST(Saturation, JsonlAndHtmlRenderFromCoverageFolds)
{
    engine::GoatConfig cfg;
    cfg.delayBound = 1;
    cfg.maxIterations = 3;
    cfg.stopOnBug = false;
    cfg.collectCoverage = true;
    engine::GoatResult res =
        campaign::runCampaign({.engine = cfg}, leakyProgram).merged;

    ASSERT_EQ(res.saturation.samples().size(), 3u);
    std::string jl = res.saturation.jsonlStr();
    EXPECT_EQ(std::count(jl.begin(), jl.end(), '\n'), 3);
    EXPECT_NE(jl.find("\"iter\":1,"), std::string::npos);
    EXPECT_NE(jl.find("\"covered\":"), std::string::npos);
    EXPECT_NE(jl.find("\"blocked\":"), std::string::npos);

    std::string html = res.saturation.htmlStr("leaky");
    EXPECT_NE(html.find("<svg"), std::string::npos);
    EXPECT_NE(html.find("leaky"), std::string::npos);
}

TEST(Saturation, WriteFilesContractAndFailure)
{
    SaturationSeries s;
    analysis::CoverageState cov;
    s.sample(1, cov);

    std::string path = testing::TempDir() + "/goat_obs_sat.jsonl";
    std::remove(path.c_str());
    std::remove((path + ".html").c_str());
    EXPECT_TRUE(s.writeFiles(path, "t"));
    std::ifstream jl(path), html(path + ".html");
    EXPECT_TRUE(jl.good());
    EXPECT_TRUE(html.good());
    std::remove(path.c_str());
    std::remove((path + ".html").c_str());

    EXPECT_FALSE(s.writeFiles("/nonexistent-goat-dir/sat.jsonl", "t"));
}

// ---------------------------------------------------------------------
// Progress reporting (obs/progress.hh).
// ---------------------------------------------------------------------

TEST(Progress, AtomicWriteFileReplacesAndFails)
{
    std::string path = testing::TempDir() + "/goat_obs_status.json";
    EXPECT_TRUE(atomicWriteFile(path, "one"));
    EXPECT_TRUE(atomicWriteFile(path, "two"));
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), "two");
    std::remove(path.c_str());
    EXPECT_FALSE(atomicWriteFile("/nonexistent-goat-dir/x.json", "z"));
}

TEST(Progress, CountersAggregateAndCoverageIsMax)
{
    ProgressCounters c;
    c.noteIteration(0, false);
    c.noteIteration(1, true);
    c.noteIteration(1, true);
    c.noteIteration(99, false); // out-of-range verdict only bumps executed
    EXPECT_EQ(c.executed.load(), 4u);
    EXPECT_EQ(c.bugs.load(), 2u);
    EXPECT_EQ(c.verdict[0].load(), 1u);
    EXPECT_EQ(c.verdict[1].load(), 2u);
    c.noteCoveragePermille(421);
    c.noteCoveragePermille(137); // lower: ignored
    EXPECT_EQ(c.coveragePermille.load(), 421u);
}

TEST(Progress, StatusJsonShapeAndFinalWrite)
{
    std::string path = testing::TempDir() + "/goat_obs_progress.json";
    std::remove(path.c_str());
    ProgressCounters counters;
    counters.noteIteration(1, true);
    counters.noteCoveragePermille(500);
    {
        ProgressConfig cfg;
        cfg.totalIterations = 10;
        cfg.label = "unit_kernel";
        cfg.statusPath = path;
        cfg.haveCoverage = true;
        ProgressReporter rep(cfg, counters);
        std::string j = rep.statusJson(/*done=*/false);
        EXPECT_TRUE(jsonBalanced(j));
        EXPECT_NE(j.find("\"kernel\":\"unit_kernel\""), std::string::npos);
        EXPECT_NE(j.find("\"running\":true"), std::string::npos);
        EXPECT_NE(j.find("\"coverage_pct\":50.0"), std::string::npos);
        EXPECT_NE(j.find("\"partial_deadlock\":1"), std::string::npos);
        rep.stop();
        EXPECT_TRUE(rep.statusOk());
    }
    // stop() leaves a final done snapshot on disk.
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_NE(buf.str().find("\"running\":false"), std::string::npos);
    EXPECT_NE(buf.str().find("\"executed\":1"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Progress, StatusFailureIsSticky)
{
    ProgressCounters counters;
    ProgressConfig cfg;
    cfg.statusPath = "/nonexistent-goat-dir/status.json";
    ProgressReporter rep(cfg, counters);
    rep.stop();
    EXPECT_FALSE(rep.statusOk());
}
