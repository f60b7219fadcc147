/**
 * @file
 * Benchmark-suite tests: registry integrity (68 GoBench kernels plus
 * the 3 hostile fault-injection kernels, GoBench's per-project
 * distribution), per-kernel CU models, and — as a
 * parameterized property suite — that GoAT (the best of D0–D4)
 * detects every kernel's bug within an iteration budget while every
 * kernel also terminates cleanly when its buggy interleaving is not
 * taken (no kernel hangs the harness) — plus a golden of every
 * tool's Table IV cell on every kernel. The per-kernel static
 * accessors, which share one scan of each source file per process,
 * are checked against a fresh scan of the file.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "goat/engine.hh"
#include "goat/tool.hh"
#include "goker/registry.hh"
#include "staticmodel/flowgraph.hh"
#include "staticmodel/mhp.hh"
#include "staticmodel/scanner.hh"

using namespace goat;
using namespace goat::goker;
using namespace goat::engine;

TEST(GokerRegistry, Has68Kernels)
{
    // 68 GoBench kernels + the 3 hostile_* fault injectors
    // (src/goker/goker_hostile.cc), which live in the registry so the
    // CLI can address them but are segregated from regular sweeps.
    EXPECT_EQ(KernelRegistry::instance().size(), 71u);
    EXPECT_EQ(KernelRegistry::instance().all().size(), 68u);
    EXPECT_EQ(KernelRegistry::instance().allHostile().size(), 3u);
}

TEST(GokerRegistry, GoBenchProjectDistribution)
{
    std::map<std::string, int> expected = {
        {"cockroach", 17}, {"etcd", 7},  {"grpc", 9},
        {"hugo", 2},       {"istio", 5}, {"kubernetes", 12},
        {"moby", 12},      {"serving", 2}, {"syncthing", 2},
    };
    for (const auto &[project, count] : expected) {
        EXPECT_EQ(KernelRegistry::instance().byProject(project).size(),
                  static_cast<size_t>(count))
            << project;
    }
}

TEST(GokerRegistry, NamesAreUniqueAndPrefixed)
{
    std::set<std::string> names;
    for (const auto *k : KernelRegistry::instance().all()) {
        EXPECT_TRUE(names.insert(k->name).second) << k->name;
        EXPECT_EQ(k->name.rfind(k->project + "_", 0), 0u) << k->name;
        EXPECT_FALSE(k->description.empty()) << k->name;
        EXPECT_TRUE(k->fn != nullptr) << k->name;
    }
}

TEST(GokerRegistry, FindByName)
{
    const KernelInfo *k = KernelRegistry::instance().find("moby_28462");
    ASSERT_NE(k, nullptr);
    EXPECT_EQ(k->project, "moby");
    EXPECT_EQ(k->bugClass, BugClass::MixedDeadlock);
    EXPECT_EQ(KernelRegistry::instance().find("nope_1"), nullptr);
}

TEST(GokerRegistry, EveryKernelHasACuModel)
{
    // The scanner must find concurrency usages inside every kernel's
    // source span (each kernel uses at least a go statement or a
    // channel/lock op).
    for (const auto *k : KernelRegistry::instance().all()) {
        staticmodel::CuTable t = kernelCuTable(*k);
        EXPECT_GE(t.size(), 2u) << k->name;
    }
}

TEST(GokerRegistry, BugClassesCoverTheTaxonomy)
{
    std::map<BugClass, int> counts;
    for (const auto *k : KernelRegistry::instance().all())
        counts[k->bugClass]++;
    EXPECT_GT(counts[BugClass::ResourceDeadlock], 5);
    EXPECT_GT(counts[BugClass::CommunicationDeadlock], 5);
    EXPECT_GT(counts[BugClass::MixedDeadlock], 5);
}

// ---------------------------------------------------------------------
// Shared per-file scans: every static accessor must give what a fresh
// scan of the kernel's file gives, over the span found by walking
// every registered kernel.
// ---------------------------------------------------------------------

namespace {

std::vector<const KernelInfo *>
everyKernel()
{
    std::vector<const KernelInfo *> out = KernelRegistry::instance().all();
    for (const KernelInfo *k : KernelRegistry::instance().allHostile())
        out.push_back(k);
    return out;
}

/** kernelSpan as a walk over every registered kernel. */
std::pair<uint32_t, uint32_t>
walkedSpan(const KernelInfo &kernel)
{
    int end = 1 << 30;
    for (const KernelInfo *k : everyKernel())
        if (k->sourceFile == kernel.sourceFile && k->line > kernel.line)
            end = std::min(end, k->line);
    return {static_cast<uint32_t>(kernel.line),
            static_cast<uint32_t>(end)};
}

/** The four accessors' results, rendered. */
struct Statics
{
    std::string cus, lint, pairs, sites;

    bool operator==(const Statics &) const = default;
};

std::string
sitesStr(const std::vector<SourceLoc> &sites)
{
    std::string out;
    for (const SourceLoc &s : sites)
        out += s.str() + "\n";
    return out;
}

Statics
accessorStatics(const KernelInfo &k)
{
    return {kernelCuTable(k).str(), kernelLintReport(k).textStr(),
            kernelMhpPairsStr(k), sitesStr(kernelMhpSites(k))};
}

/** Statics from a fresh scan of the file, sliced to walkedSpan. */
Statics
freshStatics(const KernelInfo &k)
{
    auto [begin, end] = walkedSpan(k);
    staticmodel::CuTable full = staticmodel::scanFile(k.sourceFile), cus;
    for (const auto &cu : full.all())
        if (cu.loc.line >= begin && cu.loc.line < end)
            cus.add(cu);
    staticmodel::SrcScan scan = staticmodel::scanRegionsFile(k.sourceFile);
    staticmodel::FlowGraph fg = staticmodel::buildFlowGraph(scan, begin, end);
    staticmodel::MhpAnalysis mhp(fg);
    return {cus.str(), staticmodel::lintScan(scan, begin, end).textStr(),
            staticmodel::mhpPairsStr(mhp),
            sitesStr(staticmodel::mhpSites(mhp))};
}

} // namespace

TEST(KernelStatics, SpanLookupMatchesTheRegistryWalk)
{
    std::set<std::string> files;
    size_t lastInFile = 0;
    for (const KernelInfo *k : everyKernel()) {
        files.insert(k->sourceFile);
        auto span = kernelSpan(*k);
        EXPECT_EQ(span, walkedSpan(*k)) << k->name;
        if (span.second == (1u << 30))
            ++lastInFile;
    }
    // One kernel per file runs to EOF, goker_hostile.cc's included.
    EXPECT_EQ(lastInFile, files.size());
    const KernelInfo *hostile =
        KernelRegistry::instance().find("hostile_oom");
    ASSERT_NE(hostile, nullptr);
    EXPECT_NE(files.count(hostile->sourceFile), 0u);
}

TEST(KernelStatics, SharedScansMatchAFreshScan)
{
    for (const KernelInfo *k : everyKernel()) {
        Statics first = accessorStatics(*k);
        EXPECT_TRUE(first == freshStatics(*k)) << k->name;
        EXPECT_TRUE(accessorStatics(*k) == first) << k->name;
    }
}

TEST(KernelStatics, ConcurrentCallersAgreeWithAFreshScan)
{
    // Four threads fill and read the shared scans at once, each
    // walking the kernels from its own starting point.
    const std::vector<const KernelInfo *> kernels = everyKernel();
    const size_t n = kernels.size();
    std::vector<std::vector<Statics>> got(4, std::vector<Statics>(n));
    std::vector<std::thread> threads;
    for (size_t t = 0; t < got.size(); ++t)
        threads.emplace_back([&, t] {
            for (size_t i = 0; i < n; ++i) {
                size_t j = (i + t * n / 4) % n;
                got[t][j] = accessorStatics(*kernels[j]);
            }
        });
    for (std::thread &th : threads)
        th.join();
    for (size_t j = 0; j < n; ++j) {
        Statics want = freshStatics(*kernels[j]);
        EXPECT_TRUE(accessorStatics(*kernels[j]) == want)
            << kernels[j]->name;
        for (size_t t = 0; t < got.size(); ++t)
            EXPECT_TRUE(got[t][j] == want) << kernels[j]->name << " t" << t;
    }
}

TEST(KernelStatics, MissingSourceFileGivesEmptyResults)
{
    // As for a binary run away from its source tree: the empty scans
    // are memoized and give an empty model, not a crash.
    KernelInfo ghost;
    ghost.name = "ghost_1";
    ghost.project = "ghost";
    ghost.sourceFile = "no/such/dir/goker_ghost.cc";
    ghost.line = 10;
    EXPECT_EQ(kernelSpan(ghost),
              std::make_pair(10u, static_cast<uint32_t>(1u << 30)));
    for (int call = 0; call < 2; ++call) {
        EXPECT_TRUE(kernelCuTable(ghost).empty());
        EXPECT_TRUE(kernelLintReport(ghost).empty());
        EXPECT_TRUE(kernelMhpPairsStr(ghost).empty());
        EXPECT_TRUE(kernelMhpSites(ghost).empty());
        EXPECT_TRUE(accessorStatics(ghost) == freshStatics(ghost));
    }
}

// ---------------------------------------------------------------------
// Parameterized per-kernel properties.
// ---------------------------------------------------------------------

class GokerKernelTest : public ::testing::TestWithParam<std::string>
{
  protected:
    const KernelInfo &
    kernel() const
    {
        const KernelInfo *k =
            KernelRegistry::instance().find(GetParam());
        EXPECT_NE(k, nullptr);
        return *k;
    }
};

/**
 * GoAT detects every kernel's bug: for each kernel there is a delay
 * bound D ∈ {0..4} whose campaign finds the bug within the budget
 * (the paper's headline 68/68 result, scaled down for test time).
 */
TEST_P(GokerKernelTest, GoatDetectsTheBug)
{
    const KernelInfo &k = kernel();
    bool detected = false;
    std::string labels;
    for (auto tool : {ToolKind::GoatD0, ToolKind::GoatD2,
                      ToolKind::GoatD4}) {
        auto r = runTool(tool, k.fn, 700, 0xC0FFEE, 0.02, 400'000);
        labels += std::string(toolName(tool)) + "=" + r.cellStr() + " ";
        if (r.verdict.detected) {
            detected = true;
            break;
        }
    }
    EXPECT_TRUE(detected) << k.name << ": " << labels;
}

/**
 * Every execution terminates within the step budget: kernels never
 * wedge the harness (deadlocks surface as outcomes, not hangs).
 */
TEST_P(GokerKernelTest, ExecutionsTerminate)
{
    const KernelInfo &k = kernel();
    for (uint64_t seed = 1; seed <= 5; ++seed) {
        SingleRun sr = runOnce(k.fn, seed, 0, 0.02, 400'000);
        EXPECT_LT(sr.exec.steps, 400'000u) << k.name << " seed " << seed;
    }
}

namespace {

std::vector<std::string>
allKernelNames()
{
    std::vector<std::string> names;
    for (const auto *k : KernelRegistry::instance().all())
        names.push_back(k->name);
    return names;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    AllKernels, GokerKernelTest, ::testing::ValuesIn(allKernelNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

// ---------------------------------------------------------------------
// Table IV golden: every non-hostile kernel × all eight tools, at the
// full 1000-execution cap. Pins runTool's cells (verdict label and
// first-detection iteration) byte for byte. Regenerate with
// GOAT_UPDATE_GOLDEN=1 only after an intended change of detection
// semantics.
// ---------------------------------------------------------------------

namespace {

std::string
table4Dump()
{
    const ToolKind tools[] = {ToolKind::GoatD0, ToolKind::GoatD1,
                              ToolKind::GoatD2, ToolKind::GoatD3,
                              ToolKind::GoatD4, ToolKind::Builtin,
                              ToolKind::LockDL, ToolKind::Goleak};
    std::string out = "kernel";
    for (ToolKind t : tools)
        out += std::string("\t") + toolName(t);
    out += "\n";
    for (const KernelInfo *k : KernelRegistry::instance().all()) {
        out += k->name;
        for (ToolKind t : tools)
            out += "\t" +
                   runTool(t, k->fn, 1000, 0xC0FFEE, 0.02, 400'000)
                       .cellStr();
        out += "\n";
    }
    return out;
}

} // namespace

TEST(Table4Golden, ToolCellsMatchGolden)
{
    const std::string path =
        GOAT_SOURCE_DIR "/tests/golden/table4_goker.txt";
    std::string dump = table4Dump();
    const char *update = std::getenv("GOAT_UPDATE_GOLDEN");
    if (update && *update) {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr) << path;
        std::fwrite(dump.data(), 1, dump.size(), f);
        std::fclose(f);
    }
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr) << path;
    std::string golden;
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        golden.append(buf, n);
    std::fclose(f);
    EXPECT_EQ(dump, golden);
}
