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
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <vector>

#include "base/fileio.hh"
#include "base/fmt.hh"
#include "campaign/campaign.hh"
#include "chan/chan.hh"
#include "goat/engine.hh"
#include "goker/registry.hh"
#include "obs/builtin_metrics.hh"
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
        // One string across renders, as a campaign worker keeps it.
        std::string json;
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
                reg.deltaJson(&json);
                ASSERT_EQ(json, want)
                    << "trial " << trial << " step " << step;
                prev = std::move(now);
                ++renders;
              }
            }
        }
        EXPECT_GT(renders, 0);
    }
}

namespace {

/**
 * The string-keyed registry the dense one replaced, kept as its
 * oracle: per-kind std::maps in name order, a counter baseline, and
 * per-registry first-registration-wins histogram bounds.
 */
struct MapRegistry
{
    std::map<std::string, uint64_t> counters;
    std::map<std::string, int64_t> gauges;
    std::map<std::string, Histogram> histograms;
    /** The snapshot at the last render or reset (deltaJson's base). */
    Snapshot prev;

    Histogram &
    histogram(const std::string &name, const std::vector<uint64_t> &bounds)
    {
        return histograms.try_emplace(name, bounds).first->second;
    }

    Snapshot
    snapshot() const
    {
        Snapshot s;
        s.counters = counters;
        s.gauges = gauges;
        for (const auto &[name, h] : histograms) {
            HistogramSnapshot &hs = s.histograms[name];
            hs.bounds = h.bounds();
            for (size_t i = 0; i <= h.bounds().size(); ++i)
                hs.buckets.push_back(h.bucketCount(i));
            hs.count = h.count();
            hs.sum = h.sum();
        }
        return s;
    }

    std::string
    deltaJson()
    {
        Snapshot now = snapshot();
        std::string out = now.deltaFrom(prev).jsonStr();
        prev = std::move(now);
        return out;
    }

    void
    resetAll()
    {
        for (auto &[name, v] : counters)
            v = 0;
        for (auto &[name, v] : gauges)
            v = 0;
        for (auto &[name, h] : histograms)
            h.reset();
        prev = snapshot();
    }

    std::vector<std::string>
    names() const
    {
        std::vector<std::string> out;
        for (const auto &[name, v] : counters)
            out.push_back(name);
        for (const auto &[name, v] : gauges)
            out.push_back(name);
        for (const auto &[name, h] : histograms)
            out.push_back(name);
        return out;
    }

    void
    absorb(const Snapshot &s)
    {
        for (const auto &[name, v] : s.counters)
            counters[name] += v;
        for (const auto &[name, v] : s.gauges)
            gauges[name] = std::max(gauges[name], v);
        for (const auto &[name, h] : s.histograms)
            histogram(name, h.bounds).absorb(h);
    }
};

} // namespace

TEST(Metrics, DenseRegistryMatchesStringKeyedOracle)
{
    // Randomized property: two registries register names in their own
    // random orders (by name and by interned id), with new names
    // interned mid-run, and go through incs, sets, setMax, observes and
    // resets. At every check, snapshot(), deltaJson() and names() equal
    // the string-keyed oracle's, and absorb(Registry) equals
    // absorb(snapshot()).
    const std::vector<std::string> fixed = {
        "engine.iterations", "sched.runs",   "q\"uote", "back\\slash",
        "tab\tname",         "ctl\x01x",     "a",       "z.last"};
    const std::vector<uint64_t> boundSets[] = {{10, 100, 1000}, {5, 5, 50}};
    std::mt19937_64 rng(20261018);
    for (int trial = 0; trial < 20; ++trial) {
        Registry reg[2];
        MapRegistry oracle[2];
        std::string json; // reused across renders of either registry
        int checks = 0;
        for (int step = 0; step < 400; ++step) {
            const int r = static_cast<int>(rng() % 2);
            Registry &dense = reg[r];
            MapRegistry &model = oracle[r];
            // Names first seen in this trial join the table mid-run.
            std::string name =
                rng() % 5 == 0
                    ? "dyn." + std::to_string(trial) + "." +
                          std::to_string(rng() % 6)
                    : fixed[rng() % fixed.size()];
            const bool by_id = rng() % 2;
            switch (rng() % 12) {
              case 0:
              case 1:
              case 2: {
                const uint64_t n = rng() % 3; // 0: registered, idle
                (by_id ? dense.counter(internCounter(name))
                       : dense.counter(name))
                    .inc(n);
                model.counters[name] += n;
                break;
              }
              case 3: {
                const int64_t v = static_cast<int64_t>(rng() % 200) - 100;
                Gauge &g = dense.gauge(name);
                int64_t &m = model.gauges[name];
                if (rng() % 2) {
                    g.set(v);
                    m = v;
                } else {
                    g.setMax(v);
                    m = std::max(m, v);
                }
                break;
              }
              case 4: {
                const std::vector<uint64_t> &b = boundSets[rng() % 2];
                const uint64_t v = rng() % 2000;
                dense.histogram(name, b).observe(v);
                model.histogram(name, b).observe(v);
                break;
              }
              case 5:
                if (rng() % 8 == 0) {
                    dense.resetAll();
                    model.resetAll();
                }
                break;
              case 6:
              case 7:
                dense.deltaJson(&json);
                ASSERT_EQ(json, model.deltaJson())
                    << "trial " << trial << " step " << step;
                ++checks;
                break;
              case 8:
              case 9:
                ASSERT_EQ(dense.snapshot().jsonStr(),
                          model.snapshot().jsonStr())
                    << "trial " << trial << " step " << step;
                ASSERT_EQ(dense.names(), model.names());
                ++checks;
                break;
              default: {
                // Fold the other registry in, both ways, into copies.
                const Registry &other = reg[1 - r];
                Registry slotwise(dense), bySnapshot(dense);
                slotwise.absorb(other);
                bySnapshot.absorb(other.snapshot());
                MapRegistry folded = model;
                folded.absorb(oracle[1 - r].snapshot());
                const std::string want = folded.snapshot().jsonStr();
                ASSERT_EQ(slotwise.snapshot().jsonStr(), want)
                    << "trial " << trial << " step " << step;
                ASSERT_EQ(bySnapshot.snapshot().jsonStr(), want);
                ASSERT_EQ(slotwise.names(), folded.names());
                ++checks;
              }
            }
        }
        EXPECT_GT(checks, 0);
    }
}

namespace {

/** Expand brace shorthand: `a.{b,c}` is `a.b` and `a.c` (groups may
 *  repeat and nest). */
std::vector<std::string>
expandBraces(const std::string &s)
{
    const size_t open = s.find('{');
    if (open == std::string::npos)
        return {s};
    std::vector<std::string> alts(1);
    size_t close = open + 1;
    for (int depth = 1; close < s.size(); ++close) {
        const char c = s[close];
        if (c == '{')
            ++depth;
        else if (c == '}' && --depth == 0)
            break;
        if (c == ',' && depth == 1)
            alts.emplace_back();
        else
            alts.back() += c;
    }
    std::vector<std::string> out;
    for (const std::string &alt : alts)
        for (std::string &e :
             expandBraces(s.substr(0, open) + alt + s.substr(close + 1)))
            out.push_back(std::move(e));
    return out;
}

} // namespace

// The INTERNALS §7.1 metric table names exactly the built-in
// instruments: every `prefix.*` row's backticked names (brace
// shorthand expanded) under that prefix.
TEST(Metrics, BuiltinNamesDocumented)
{
    std::ifstream in(GOAT_SOURCE_DIR "/docs/INTERNALS.md");
    ASSERT_TRUE(in.good());
    std::set<std::string> documented;
    std::string line;
    bool in_section = false;
    int rows = 0;
    while (std::getline(in, line)) {
        if (line.rfind("### ", 0) == 0)
            in_section = line.rfind("### 7.1 ", 0) == 0;
        if (!in_section || line.rfind("| `", 0) != 0)
            continue;
        // | `prefix.*` | `name`, `group.{a,b}`; gauge `name` ... |
        const size_t prefix_end = line.find(".*`", 3);
        ASSERT_NE(prefix_end, std::string::npos) << line;
        const std::string prefix = line.substr(3, prefix_end - 2);
        const std::string cell = line.substr(line.find('|', prefix_end));
        for (size_t b = cell.find('`'); b != std::string::npos;) {
            const size_t e = cell.find('`', b + 1);
            ASSERT_NE(e, std::string::npos) << line;
            for (const std::string &n :
                 expandBraces(cell.substr(b + 1, e - b - 1)))
                documented.insert(prefix + n);
            b = cell.find('`', e + 1);
        }
        ++rows;
    }
    EXPECT_EQ(rows, 7);
    const std::vector<std::string> &names = builtinMetrics().names;
    const std::set<std::string> builtin(names.begin(), names.end());
    for (const std::string &n : builtin)
        EXPECT_TRUE(documented.count(n)) << n << " is not documented";
    for (const std::string &n : documented)
        EXPECT_TRUE(builtin.count(n)) << n << " is not a built-in metric";
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

TEST(Ledger, CoveragePctRendersLikePrintf)
{
    // The row renders coverage_pct with std::to_chars(fixed, 3), which
    // rounds the exact binary value like printf's %.3f: 0, 100, every
    // k/n percentage for n <= 300 (CoverageState::percent's
    // expression), and the x.xxx5 ties, whose binary values lie on
    // either side of the midpoint.
    std::vector<double> values = {0.0, 100.0};
    for (int n = 1; n <= 300; ++n)
        for (int k = 0; k <= n; ++k)
            values.push_back(100.0 * static_cast<double>(k) /
                             static_cast<double>(n));
    for (int m = 0; m < 100000; ++m)
        values.push_back(m / 1000.0 + 0.0005);
    LedgerEntry e;
    size_t mismatches = 0;
    for (double v : values) {
        e.coveragePct = v;
        const std::string json = ledgerEntryJson(e);
        const std::string want = strFormat("\"coverage_pct\":%.3f,", v);
        if (json.find(want) == std::string::npos && ++mismatches <= 5)
            ADD_FAILURE() << json << " lacks " << want;
    }
    EXPECT_EQ(mismatches, 0u);
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

// A campaign's fold renders each row straight into the ledger's write
// buffer. The lines on disk are byte-identical to ledgerEntryJson per
// row, in order; linesWritten() and bytes() always describe the file;
// the buffer is written every kStagedRows rows and on flush(). In a
// campaign, every checkpoint commit records the ledger end of its
// cursor's row, so resume offsets hold; and the records it folds are
// reused, so the records made stay within the reorder window however
// many iterations run.
TEST(Ledger, StagedRowsMatchEntryJson)
{
    const std::string path = testing::TempDir() + "/goat_obs_staged.jsonl";
    std::remove(path.c_str());
    auto fileBytes = [&path] {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream os;
        os << in.rdbuf();
        return os.str();
    };
    std::string want;
    {
        RunLedger ledger(path);
        ASSERT_TRUE(ledger.enabled());
        std::mt19937_64 rng(32);
        for (int i = 1; i <= 700; ++i) {
            LedgerEntry e;
            e.iteration = i;
            e.seed = rng();
            e.delayBound = i % 4;
            e.outcome = i % 3 ? "ok" : "global_deadlock";
            e.verdict = i % 3 ? "pass" : "partial_deadlock";
            e.bug = i % 3 == 0;
            e.steps = rng() % 5000;
            e.coveragePct = i % 5 ? static_cast<double>(rng() % 10000) / 100
                                  : -1.0;
            e.wallMicros = rng() % 900;
            e.worker = i % 4;
            e.workerSeq = i / 4 + 1;
            if (i % 7 == 0)
                e.predicted = i % 3;
            if (i % 11 == 0)
                e.crashCause = "sig\"segv";
            e.metricsJson = strFormat(
                "{\"counters\":{\"c\":%d},\"gauges\":{},"
                "\"histograms\":{}}",
                i);
            ledger.stage(e);
            want += ledgerEntryJson(e) + "\n";
            // The fold flushes before a commit and before it sleeps.
            if (i % 300 == 0)
                ledger.flush();
            const std::string disk = fileBytes();
            ASSERT_EQ(ledger.bytes(), disk.size()) << "row " << i;
            ASSERT_EQ(ledger.linesWritten(),
                      static_cast<size_t>(
                          std::count(disk.begin(), disk.end(), '\n')))
                << "row " << i;
            ASSERT_EQ(disk, want.substr(0, disk.size())) << "row " << i;
            if (i == static_cast<int>(RunLedger::kStagedRows) - 1) {
                EXPECT_EQ(ledger.linesWritten(), 0u);
            }
            if (i == static_cast<int>(RunLedger::kStagedRows)) {
                EXPECT_EQ(ledger.linesWritten(), RunLedger::kStagedRows);
            }
        }
        EXPECT_LT(ledger.linesWritten(), 700u);
    }
    // The destructor writes what is still staged.
    EXPECT_EQ(fileBytes(), want);
    std::remove(path.c_str());

    // A 2,000-iteration -jobs=4 campaign with a commit every 100 rows.
    const goker::KernelInfo *k =
        goker::KernelRegistry::instance().find("etcd_7443");
    ASSERT_NE(k, nullptr);
    campaign::CampaignConfig cfg;
    cfg.engine.delayBound = 2;
    cfg.engine.seedBase = 7;
    cfg.engine.maxIterations = 2000;
    cfg.engine.stopOnBug = false;
    cfg.engine.collectCoverage = true;
    cfg.engine.covThreshold = 200.0; // never stop on coverage
    cfg.engine.staticModel = goker::kernelCuTable(*k);
    cfg.engine.raceDetect = true;
    cfg.engine.ledgerPath = path;
    cfg.checkpointPath = testing::TempDir() + "/goat_obs_staged.ck";
    cfg.checkpointEvery = 100;
    cfg.jobs = 4;
    campaign::CampaignResult r;
    {
        Registry reg;
        ScopedRegistry scope(reg);
        r = campaign::runCampaign(cfg, k->fn);
    }
    ASSERT_EQ(r.ledgerRows, 2000u);
    ASSERT_GT(r.window, 0);
    // Reuse: records made are bounded by the window, not the budget.
    EXPECT_GT(r.recordsMade, 0);
    EXPECT_LE(r.recordsMade, r.window);
    // ends[c]: the ledger's size once it holds rows 1..c.
    std::vector<uint64_t> ends{0};
    for (const std::string &line : readLines(path))
        ends.push_back(ends.back() + line.size() + 1);
    ASSERT_EQ(ends.size(), 2001u);
    // A state line's last field is the ledger end its commit records.
    uint64_t end = 0;
    int commits = 0;
    for (const std::string &line : readLines(cfg.checkpointPath)) {
        if (line.rfind("state ", 0) == 0) {
            end = std::stoull(line.substr(line.rfind(' ') + 1));
        } else if (line.rfind("commit ", 0) == 0) {
            const int cursor = std::stoi(line.substr(7));
            ASSERT_GE(cursor, 1);
            ASSERT_LE(cursor, 2000);
            EXPECT_EQ(end, ends[static_cast<size_t>(cursor)])
                << "commit " << cursor;
            ++commits;
        }
    }
    EXPECT_EQ(commits, 20);
    std::remove(path.c_str());
    std::remove(cfg.checkpointPath.c_str());
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
// Campaign metrics golden: the instrument names, counter values and
// first ledger-row counter deltas of two -cov -race -predict campaigns
// folded into a private campaign-level registry. Regenerate with
// GOAT_UPDATE_GOLDEN=1 only after an intended change of what a
// campaign records.
// ---------------------------------------------------------------------

namespace {

/** The stack-pool counters depend on which stacks the thread already
 *  pooled, not on the campaign: left out of the golden. */
bool
threadHistoryDependent(const std::string &name)
{
    return name.rfind("sched.stackpool.", 0) == 0;
}

/** A ledger row's metrics "counters" object, without the
 *  thread-history-dependent entries. */
std::string
rowCounters(const std::string &row)
{
    const std::string open = "\"metrics\":{\"counters\":{";
    size_t b = row.find(open);
    if (b == std::string::npos)
        return "<no counters>";
    b += open.size();
    const size_t e = row.find('}', b);
    std::string out = "{";
    std::istringstream items(row.substr(b, e - b));
    std::string item;
    while (std::getline(items, item, ',')) {
        if (threadHistoryDependent(item.substr(1)))
            continue;
        if (out.size() > 1)
            out += ',';
        out += item;
    }
    return out + "}";
}

/**
 * Run the two golden campaigns at @p jobs under a fresh campaign-level
 * registry; returns that registry's names and counters, and the ledger
 * rows both campaigns wrote.
 */
void
goldenCampaigns(int jobs, std::vector<std::string> *names,
                std::map<std::string, uint64_t> *counters,
                std::vector<std::string> *rows)
{
    const std::string ledger = testing::TempDir() + "/goat_obs_golden_" +
                               std::to_string(jobs) + ".jsonl";
    std::remove(ledger.c_str());
    Registry reg;
    {
        ScopedRegistry scope(reg);
        // cockroach_1055 stops at its first bug; moby_28462 keeps going
        // past the inline prefix, so at -jobs=4 it fans out.
        for (const char *name : {"cockroach_1055", "moby_28462"}) {
            const goker::KernelInfo *k =
                goker::KernelRegistry::instance().find(name);
            ASSERT_NE(k, nullptr) << name;
            campaign::CampaignConfig cfg;
            cfg.engine.delayBound = 2;
            cfg.engine.seedBase = 7;
            cfg.engine.maxIterations = 20;
            cfg.engine.collectCoverage = true;
            cfg.engine.covThreshold = 200.0; // never stop on coverage
            cfg.engine.raceDetect = true;
            cfg.engine.predict = true;
            cfg.engine.stopOnBug = std::string(name) == "cockroach_1055";
            cfg.engine.staticModel = goker::kernelCuTable(*k);
            cfg.engine.ledgerPath = ledger;
            cfg.jobs = jobs;
            campaign::runCampaign(cfg, k->fn);
        }
    }
    *names = reg.names();
    *counters = reg.snapshot().counters;
    *rows = readLines(ledger);
    std::remove(ledger.c_str());
}

} // namespace

TEST(MetricsGolden, CampaignNamesCountersAndRowsMatchGolden)
{
    std::vector<std::string> names, rows;
    std::map<std::string, uint64_t> counters;
    goldenCampaigns(1, &names, &counters, &rows);
    ASSERT_GE(rows.size(), 5u);

    std::string dump = "# names\n";
    for (const std::string &n : names)
        dump += n + "\n";
    dump += "# counters\n";
    for (const auto &[n, v] : counters)
        if (!threadHistoryDependent(n))
            dump += n + " " + std::to_string(v) + "\n";
    dump += "# ledger row counters\n";
    for (size_t i = 0; i < 5; ++i)
        dump += rowCounters(rows[i]) + "\n";

    const std::string path =
        GOAT_SOURCE_DIR "/tests/golden/metrics_campaign.txt";
    const char *update = std::getenv("GOAT_UPDATE_GOLDEN");
    if (update && *update) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << path;
        out << dump;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << path;
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(dump, golden.str());

    // Worker threads register the same instruments the inline worker
    // does.
    std::vector<std::string> names4, rows4;
    std::map<std::string, uint64_t> counters4;
    goldenCampaigns(4, &names4, &counters4, &rows4);
    EXPECT_EQ(names4, names);
    EXPECT_EQ(counters4.at("campaign.fanouts"), 1u);
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
    EXPECT_TRUE(goat::atomicWriteFile(path, "one"));
    EXPECT_TRUE(goat::atomicWriteFile(path, "two"));
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), "two");
    std::remove(path.c_str());
    EXPECT_FALSE(goat::atomicWriteFile("/nonexistent-goat-dir/x.json", "z"));
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
