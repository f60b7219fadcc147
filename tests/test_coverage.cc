/**
 * @file
 * Unit tests for the coverage-requirement engine: per-kind requirement
 * templates, covered/uncovered classification for every Req1–Req5
 * behaviour, select-case discovery, NB-select handling, per-node
 * instantiation with cross-run merging, and the coverage-percentage
 * dynamics (growth and drop-on-discovery).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <latch>
#include <set>
#include <string>
#include <thread>

#include "analysis/coverage.hh"
#include "analysis/goroutine_tree.hh"
#include "base/fmt.hh"
#include "campaign/campaign.hh"
#include "chan/chan.hh"
#include "chan/select.hh"
#include "goker/registry.hh"
#include "staticmodel/scanner.hh"
#include "sync/sync.hh"
#include "test_util.hh"
#include "trace/serialize.hh"

using namespace goat;
using namespace goat::analysis;
using namespace goat::staticmodel;
using goat::test::runProgram;

namespace {

/** Shorthand: run a program and fold the trace into a fresh state. */
CoverageState
coverOne(std::function<void()> fn, uint64_t seed = 1)
{
    CoverageState cov;
    auto rr = runProgram(std::move(fn), seed);
    cov.addEct(rr.ect);
    return cov;
}

} // namespace

TEST(CoverageKeys, KeySyntax)
{
    Cu cu(SourceLoc("k.cc", 12), CuKind::Send);
    EXPECT_EQ(CoverageState::key(cu, ReqType::Blocked), "k.cc:12 send blocked");
    Cu sel(SourceLoc("k.cc", 30), CuKind::Select);
    EXPECT_EQ(CoverageState::key(sel, ReqType::Nop, 2),
              "k.cc:30 select/case2 nop");
}

TEST(Coverage, StaticModelSeedsRequirements)
{
    CuTable t;
    t.add(Cu(SourceLoc("p.cc", 1), CuKind::Send));
    t.add(Cu(SourceLoc("p.cc", 2), CuKind::Lock));
    t.add(Cu(SourceLoc("p.cc", 3), CuKind::Go));
    CoverageState cov(t);
    // send: 3 reqs, lock: 2 reqs, go: 1 req.
    EXPECT_EQ(cov.totalRequirements(), 6u);
    EXPECT_EQ(cov.coveredCount(), 0u);
    EXPECT_EQ(cov.percent(), 0.0);
}

TEST(Coverage, EmptyUniverseIsFullyCovered)
{
    CoverageState cov;
    EXPECT_EQ(cov.percent(), 100.0);
}

TEST(Coverage, SendRecvBehaviours)
{
    auto cov = coverOne([] {
        Chan<int> c(1);
        c.send(1); // buffered: NOP
        go([c]() mutable {
            c.send(2); // buffer full: blocked
        });
        yield();
        c.recv(); // frees the slot: unblocking
    });
    bool nop = false, blocked = false, unblocking = false;
    for (const auto &k : cov.uncovered())
        (void)k;
    // Scan covered keys via isCovered on the table CUs.
    const CuTable cus = cov.cuTable();
    for (const auto &cu : cus.all()) {
        if (cu.kind == CuKind::Send) {
            nop |= cov.isCovered(CoverageState::key(cu, ReqType::Nop));
            blocked |=
                cov.isCovered(CoverageState::key(cu, ReqType::Blocked));
        }
        if (cu.kind == CuKind::Recv) {
            unblocking |=
                cov.isCovered(CoverageState::key(cu, ReqType::Unblocking));
        }
    }
    EXPECT_TRUE(nop);
    EXPECT_TRUE(blocked);
    EXPECT_TRUE(unblocking);
}

TEST(Coverage, BlockedCoveredEvenWhenGoroutineLeaks)
{
    // The paper's Table III: the leak run covers "send-blocked" even
    // though the sender never completes.
    auto cov = coverOne([] {
        Chan<int> c;
        go([c]() mutable { c.send(1); }); // leaks parked
        yield();
    });
    bool send_blocked = false;
    const CuTable cus = cov.cuTable();
    for (const auto &cu : cus.all())
        if (cu.kind == CuKind::Send)
            send_blocked |=
                cov.isCovered(CoverageState::key(cu, ReqType::Blocked));
    EXPECT_TRUE(send_blocked);
}

TEST(Coverage, LockBlockedAndBlocking)
{
    auto cov = coverOne([] {
        gosync::Mutex m;
        m.lock();
        go([&] {
            m.lock(); // blocked; marks main's acquisition as blocking
            m.unlock();
        });
        yield();
        m.unlock();
        yield();
    });
    bool blocked = false, blocking = false;
    const CuTable cus = cov.cuTable();
    for (const auto &cu : cus.all()) {
        if (cu.kind != CuKind::Lock)
            continue;
        blocked |= cov.isCovered(CoverageState::key(cu, ReqType::Blocked));
        blocking |=
            cov.isCovered(CoverageState::key(cu, ReqType::Blocking));
    }
    EXPECT_TRUE(blocked);
    EXPECT_TRUE(blocking);
}

TEST(Coverage, UnlockUnblockingAndNop)
{
    auto cov = coverOne([] {
        gosync::Mutex m;
        m.lock();
        m.unlock(); // NOP: nobody waiting
        m.lock();
        go([&] {
            m.lock();
            m.unlock();
        });
        yield();
        m.unlock(); // unblocking: wakes the child
        yield();
        yield();
    });
    int unlock_covered = 0;
    const CuTable cus = cov.cuTable();
    for (const auto &cu : cus.all()) {
        if (cu.kind != CuKind::Unlock)
            continue;
        if (cov.isCovered(CoverageState::key(cu, ReqType::Nop)))
            ++unlock_covered;
        if (cov.isCovered(CoverageState::key(cu, ReqType::Unblocking)))
            ++unlock_covered;
    }
    EXPECT_GE(unlock_covered, 2);
}

TEST(Coverage, CloseSignalBroadcastDone)
{
    auto cov = coverOne([] {
        Chan<int> c;
        go([c]() mutable { c.recvOk(); });
        yield();
        c.close(); // unblocking close

        gosync::WaitGroup wg;
        wg.add(1);
        go([&] { wg.wait(); });
        yield();
        wg.done(); // unblocking done
        yield();

        gosync::Mutex m;
        gosync::Cond cv(m);
        cv.signal(); // NOP signal
        go([&] {
            m.lock();
            cv.wait();
            m.unlock();
        });
        yield();
        m.lock();
        cv.broadcast(); // unblocking broadcast
        m.unlock();
        yield();
    });
    bool close_unb = false, done_unb = false, sig_nop = false,
         bcast_unb = false;
    const CuTable cus = cov.cuTable();
    for (const auto &cu : cus.all()) {
        auto key_u = CoverageState::key(cu, ReqType::Unblocking);
        auto key_n = CoverageState::key(cu, ReqType::Nop);
        if (cu.kind == CuKind::Close)
            close_unb |= cov.isCovered(key_u);
        if (cu.kind == CuKind::Done)
            done_unb |= cov.isCovered(key_u);
        if (cu.kind == CuKind::Signal)
            sig_nop |= cov.isCovered(key_n);
        if (cu.kind == CuKind::Broadcast)
            bcast_unb |= cov.isCovered(key_u);
    }
    EXPECT_TRUE(close_unb);
    EXPECT_TRUE(done_unb);
    EXPECT_TRUE(sig_nop);
    EXPECT_TRUE(bcast_unb);
}

TEST(Coverage, GoCuCoveredOnSpawn)
{
    auto cov = coverOne([] {
        go([] {});
        yield();
    });
    bool go_nop = false;
    const CuTable cus = cov.cuTable();
    for (const auto &cu : cus.all())
        if (cu.kind == CuKind::Go)
            go_nop |= cov.isCovered(CoverageState::key(cu, ReqType::Nop));
    EXPECT_TRUE(go_nop);
}

TEST(Coverage, SelectCaseDiscoveryCreatesTriples)
{
    auto cov = coverOne([] {
        Chan<int> a, b;
        go([a]() mutable { a.send(1); });
        yield();
        Select().onRecv<int>(a, {}).onRecv<int>(b, {}).run();
        yield();
    });
    // The select CU must have case0/case1 requirement triples, and the
    // chosen ready case (case0, which woke the parked sender) must be
    // covered as unblocking.
    const Cu *sel = nullptr;
    const CuTable cus = cov.cuTable();
    for (const auto &cu : cus.all())
        if (cu.kind == CuKind::Select)
            sel = &cu;
    ASSERT_NE(sel, nullptr);
    EXPECT_TRUE(
        cov.isRequired(CoverageState::key(*sel, ReqType::Blocked, 0)));
    EXPECT_TRUE(
        cov.isRequired(CoverageState::key(*sel, ReqType::Blocked, 1)));
    EXPECT_TRUE(
        cov.isCovered(CoverageState::key(*sel, ReqType::Unblocking, 0)));
}

TEST(Coverage, BlockedSelectCoversAllCases)
{
    auto cov = coverOne([] {
        Chan<int> a, b;
        go([a]() mutable {
            yield();
            a.send(1);
        });
        Select().onRecv<int>(a, {}).onRecv<int>(b, {}).run();
        yield();
    });
    const Cu *sel = nullptr;
    const CuTable cus = cov.cuTable();
    for (const auto &cu : cus.all())
        if (cu.kind == CuKind::Select)
            sel = &cu;
    ASSERT_NE(sel, nullptr);
    EXPECT_TRUE(
        cov.isCovered(CoverageState::key(*sel, ReqType::Blocked, 0)));
    EXPECT_TRUE(
        cov.isCovered(CoverageState::key(*sel, ReqType::Blocked, 1)));
}

TEST(Coverage, NonBlockingSelectUsesReq4)
{
    auto cov = coverOne([] {
        Chan<int> a;
        Select().onRecv<int>(a, {}).onDefault().run(); // default: NOP
    });
    const Cu *sel = nullptr;
    const CuTable cus = cov.cuTable();
    for (const auto &cu : cus.all())
        if (cu.kind == CuKind::Select)
            sel = &cu;
    ASSERT_NE(sel, nullptr);
    EXPECT_TRUE(cov.isCovered(CoverageState::key(*sel, ReqType::Nop)));
    EXPECT_TRUE(
        cov.isRequired(CoverageState::key(*sel, ReqType::Unblocking)));
    // Default-carrying selects get no per-case triples (Req2 applies
    // only to selects without default).
    EXPECT_FALSE(
        cov.isRequired(CoverageState::key(*sel, ReqType::Blocked, 0)));
}

TEST(Coverage, PercentGrowsAcrossRuns)
{
    CoverageState cov;
    auto prog = [](uint64_t variant) {
        return [variant] {
            Chan<int> c(1);
            if (variant == 0) {
                c.send(1); // NOP only
            } else {
                go([c]() mutable { c.send(2); });
                yield();
                c.recv();
                yield();
            }
        };
    };
    auto r1 = runProgram(prog(0), 1);
    cov.addEct(r1.ect);
    double p1 = cov.percent();
    auto r2 = runProgram(prog(1), 2);
    cov.addEct(r2.ect);
    // Run 2 adds behaviours; the covered count must grow.
    EXPECT_GT(cov.coveredCount(), 0u);
    EXPECT_GT(cov.totalRequirements(), 3u);
    (void)p1;
}

TEST(Coverage, DiscoveringNewGoroutineCanDropPercent)
{
    // Run 1 covers its whole (tiny) requirement universe: only go CUs.
    // Run 2 discovers a new goroutine node whose send instantiates six
    // new requirements with only two covered — coverage drops (the
    // paper's fig. 6b D1 drop).
    CoverageState cov;
    auto r1 = runProgram([] {
        go([] {});
        yield();
    });
    cov.addEct(r1.ect);
    double p1 = cov.percent();
    EXPECT_EQ(p1, 100.0);

    auto r2 = runProgram([] {
        go([] {});
        yield();
        Chan<int> d;
        go([d]() mutable { d.send(9); }); // parks: 1 of 3 behaviours
        yield();
    });
    cov.addEct(r2.ect);
    double p2 = cov.percent();
    EXPECT_LT(p2, p1);
}

TEST(Coverage, NodeLevelInstancesUseEquivalenceKeys)
{
    // Two workers from the same go statement map to one node: the
    // node-level requirement set must not double.
    CoverageState cov;
    auto rr = runProgram([] {
        Chan<int> c(4);
        for (int i = 0; i < 2; ++i) {
            go([c]() mutable { c.send(1); });
        }
        for (int i = 0; i < 3; ++i)
            yield();
    });
    cov.addEct(rr.ect);
    size_t total_two_workers = cov.totalRequirements();

    CoverageState cov2;
    auto rr2 = runProgram([] {
        Chan<int> c(4);
        for (int i = 0; i < 1; ++i) {
            go([c]() mutable { c.send(1); });
        }
        for (int i = 0; i < 2; ++i)
            yield();
    });
    cov2.addEct(rr2.ect);
    // Same requirement universe whether the loop spawns 1 or 2 workers
    // (equivalent goroutines share one global-tree node).
    EXPECT_EQ(total_two_workers, cov2.totalRequirements());
}

namespace {

/** The distinct node scopes ("main>...") that prefix a bitmap's keys. */
std::set<std::string>
nodeScopes(const std::string &bitmap)
{
    std::set<std::string> out;
    size_t pos = 0;
    while (pos < bitmap.size()) {
        size_t eol = bitmap.find('\n', pos);
        std::string line = bitmap.substr(pos, eol - pos);
        size_t bar = line.find('|');
        if (bar != std::string::npos)
            out.insert(line.substr(2, bar - 2));
        pos = eol + 1;
    }
    return out;
}

} // namespace

TEST(Coverage, NodeScopesRenderCreationChain)
{
    // A node's scope is its chain of creation CUs from main: the two
    // loop workers share one, the second go statement gets another,
    // and the workers' grandchildren extend the loop workers' chain.
    static unsigned l1, l2, l3;
    auto rr = runProgram([] {
        Chan<int> c(8);
        auto grandchild = [c]() mutable { c.send(1); };
        auto worker = [grandchild] {
            go(grandchild); l3 = __LINE__;
            yield();
        };
        for (int i = 0; i < 2; ++i) {
            go(worker); l1 = __LINE__;
        }
        go([c]() mutable { c.send(2); }); l2 = __LINE__;
        for (int i = 0; i < 6; ++i)
            yield();
    });
    CoverageState cov;
    cov.addEct(rr.ect);
    const std::string f = "test_coverage.cc:";
    const std::string s1 = "main>" + f + std::to_string(l1);
    const std::string s2 = "main>" + f + std::to_string(l2);
    const std::string s3 = s1 + ">" + f + std::to_string(l3);
    EXPECT_EQ(nodeScopes(cov.bitmapStr()),
              (std::set<std::string>{"main", s1, s2, s3}));
}

TEST(Coverage, SystemGoroutinesHaveNoNodeScope)
{
    // Main (created by the scheduler, gid 0) creates an application
    // goroutine and a system goroutine; the system goroutine creates a
    // non-system child, which is not application-level either.
    const char *text = "1 0 go_create f.go 1 1 0 0 0\n"
                       "2 1 go_create f.go 2 2 0 0 0\n"
                       "3 1 go_create f.go 3 3 1 0 0\n"
                       "4 3 go_create f.go 4 4 0 0 0\n"
                       "5 2 ch_send f.go 5 7 0 0 0\n"
                       "6 3 ch_send f.go 6 7 0 0 0\n"
                       "7 4 ch_send f.go 7 7 0 0 0\n"
                       "8 1 ch_send f.go 8 7 0 0 0\n";
    trace::Ect ect;
    ASSERT_TRUE(trace::ectFromString(text, ect));
    GoroutineTree tree(ect);
    const auto &app = tree.appNodes();
    ASSERT_EQ(app.size(), 2u);
    EXPECT_EQ(app[0]->gid, 1u);
    EXPECT_EQ(app[1]->gid, 2u);

    CoverageState cov;
    cov.addEct(ect, tree);
    const std::string bitmap = cov.bitmapStr();
    EXPECT_EQ(nodeScopes(bitmap),
              (std::set<std::string>{"main", "main>f.go:2"}));
    // The system goroutine's creation, and everything it and its child
    // did, leave no requirement at either granularity.
    for (const char *loc : {"f.go:3", "f.go:4", "f.go:6", "f.go:7"})
        EXPECT_EQ(bitmap.find(loc), std::string::npos) << loc;
    EXPECT_NE(bitmap.find("main>f.go:2|f.go:5 send nop"), std::string::npos);
}

// The coverage walk indexes node scopes by tree slot, not by gid: a
// goroutine numbered 4000000000 costs what goroutine 2 costs, and
// covers the same requirements.
TEST(Coverage, HugeGidTraceMatchesRenamed)
{
    auto bitmap = [](const char *child) {
        const std::string text =
            std::string("1 0 go_create f.go 1 1 0 0 0\n"
                        "2 1 go_create f.go 2 ") + child + " 0 0 0\n" +
            "3 " + child + " ch_send f.go 3 7 0 0 0\n"
            "4 1 ch_recv f.go 4 7 0 0 1\n";
        trace::Ect ect;
        EXPECT_TRUE(trace::ectFromString(text, ect)) << text;
        CoverageState cov;
        cov.addEct(ect);
        return cov.bitmapStr();
    };
    const std::string renamed = bitmap("2");
    EXPECT_NE(renamed.find("main>f.go:2|f.go:3 send nop"), std::string::npos)
        << renamed;
    EXPECT_EQ(bitmap("4000000000"), renamed);
}

TEST(Coverage, TableStrListsRequirements)
{
    auto cov = coverOne([] {
        Chan<int> c(1);
        c.send(1);
        c.recv();
    });
    std::string table = cov.tableStr();
    EXPECT_NE(table.find("send"), std::string::npos);
    EXPECT_NE(table.find("nop"), std::string::npos);
    EXPECT_NE(table.find("yes"), std::string::npos);
    EXPECT_NE(table.find("no"), std::string::npos);
}

TEST(Coverage, RangeTreatedAsReceive)
{
    auto cov = coverOne([] {
        Chan<int> c(4);
        go([c]() mutable {
            c.send(1);
            c.close();
        });
        c.range([](int) {});
        yield();
    });
    // The range loop's receives produce ChRecv events; the CU resolves
    // (dynamically) to a recv-shaped requirement set that gets covered.
    bool any_recv_covered = false;
    const CuTable cus = cov.cuTable();
    for (const auto &cu : cus.all()) {
        if (cu.kind == CuKind::Recv || cu.kind == CuKind::Range) {
            any_recv_covered |=
                cov.isCovered(CoverageState::key(cu, ReqType::Blocked)) ||
                cov.isCovered(CoverageState::key(cu, ReqType::Unblocking)) ||
                cov.isCovered(CoverageState::key(cu, ReqType::Nop));
        }
    }
    EXPECT_TRUE(any_recv_covered);
}

// ---------------------------------------------------------------------
// Coverage equivalence against a committed golden. For every non-hostile
// GoKer kernel the golden holds, after a 50-iteration -cov campaign at
// D=2, the bitmapStr hash, percent, the four per-type covered counts and
// the tableStr; plus the bitmap hash of a cumulative addEct fold over the
// same 50 iterations (the sequential engine's path). Regenerate with
// GOAT_UPDATE_GOLDEN=1 only after an intended change of coverage
// semantics.
// ---------------------------------------------------------------------

namespace {

uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

campaign::CampaignConfig
goldenConfig(const goker::KernelInfo &k)
{
    campaign::CampaignConfig cfg;
    cfg.engine.delayBound = 2;
    cfg.engine.maxIterations = 50;
    cfg.engine.collectCoverage = true;
    cfg.engine.covThreshold = 200.0; // never stop on coverage
    cfg.engine.stopOnBug = false;
    cfg.engine.staticModel = goker::kernelCuTable(k);
    cfg.jobs = 1;
    return cfg;
}

std::string
goldenCoverageDump()
{
    std::string out;
    for (const goker::KernelInfo *k :
         goker::KernelRegistry::instance().all()) {
        campaign::CampaignConfig cfg = goldenConfig(*k);
        campaign::CampaignResult r = campaign::runCampaign(cfg, k->fn);
        const CoverageState &cov = r.coverage;

        CoverageState cumulative(cfg.engine.staticModel);
        for (int i = 1; i <= cfg.engine.maxIterations; ++i) {
            engine::SingleRun sr = engine::runCampaignIteration(
                cfg.engine, k->fn, i);
            cumulative.addEct(sr.ect, *sr.tree);
        }

        out += strFormat(
            "== %s\nbitmap %016llx cumulative %016llx pct %.17g "
            "covered %zu total %zu blocked %zu unblocking %zu nop %zu "
            "blocking %zu\n",
            k->name.c_str(),
            static_cast<unsigned long long>(fnv1a(cov.bitmapStr())),
            static_cast<unsigned long long>(
                fnv1a(cumulative.bitmapStr())),
            cov.percent(), cov.coveredCount(), cov.totalRequirements(),
            cov.coveredCountOfType(ReqType::Blocked),
            cov.coveredCountOfType(ReqType::Unblocking),
            cov.coveredCountOfType(ReqType::Nop),
            cov.coveredCountOfType(ReqType::Blocking));
        out += cov.tableStr();
    }
    return out;
}

} // namespace

TEST(CoverageGolden, GokerCampaignsMatchGolden)
{
    const std::string path =
        GOAT_SOURCE_DIR "/tests/golden/coverage_goker_d2.txt";
    std::string dump = goldenCoverageDump();
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

// ---------------------------------------------------------------------
// Fold properties on every non-hostile kernel: per-iteration deltas
// folded in iteration order, folded as two halves joined by mergeFrom,
// and one cumulative addEct state agree byte for byte; bitmaps
// round-trip through restoreBitmap.
// ---------------------------------------------------------------------

namespace {

void
expectSameState(const CoverageState &a, const CoverageState &b)
{
    EXPECT_EQ(a.bitmapStr(), b.bitmapStr());
    EXPECT_EQ(a.tableStr(), b.tableStr());
    EXPECT_EQ(a.totalRequirements(), b.totalRequirements());
    EXPECT_EQ(a.coveredCount(), b.coveredCount());
    for (ReqType t : {ReqType::Blocked, ReqType::Unblocking, ReqType::Nop,
                      ReqType::Blocking})
        EXPECT_EQ(a.coveredCountOfType(t), b.coveredCountOfType(t));
}

} // namespace

TEST(CoverageFold, DeltaGroupingsAgreeOnEveryKernel)
{
    constexpr int kIters = 24;
    for (const goker::KernelInfo *k :
         goker::KernelRegistry::instance().all()) {
        SCOPED_TRACE(k->name);
        campaign::CampaignConfig cfg = goldenConfig(*k);
        auto universe =
            std::make_shared<const CoverageUniverse>(cfg.engine.staticModel);
        CoverageScratch scratch(universe);
        CoverageState in_order(universe), first(universe),
            second(universe), reversed(universe);
        CoverageState cumulative(cfg.engine.staticModel);
        std::vector<CoverageDelta> deltas(kIters);
        for (int i = 1; i <= kIters; ++i) {
            engine::SingleRun sr = engine::runCampaignIteration(
                cfg.engine, k->fn, i);
            CoverageDelta &d = deltas[static_cast<size_t>(i) - 1];
            scratch.compute(sr.ect, *sr.tree, &d);
            in_order.applyDelta(d);
            (i <= kIters / 2 ? first : second).applyDelta(d);
            cumulative.addEct(sr.ect, *sr.tree);
        }
        for (auto it = deltas.rbegin(); it != deltas.rend(); ++it)
            reversed.applyDelta(*it);
        CoverageState halves = first;
        halves.mergeFrom(second);

        expectSameState(in_order, halves);
        expectSameState(in_order, cumulative);
        expectSameState(in_order, reversed);

        // Round trip: into a state on the same universe and into a
        // default-constructed one.
        const std::string bitmap = in_order.bitmapStr();
        CoverageState restored(universe), bare;
        ASSERT_TRUE(restored.restoreBitmap(bitmap));
        ASSERT_TRUE(bare.restoreBitmap(bitmap));
        EXPECT_EQ(restored.bitmapStr(), bitmap);
        EXPECT_EQ(bare.bitmapStr(), bitmap);
        EXPECT_EQ(restored.tableStr(), in_order.tableStr());
        EXPECT_EQ(bare.tableStr(), in_order.tableStr());
        EXPECT_EQ(bare.percent(), in_order.percent());
        for (ReqType t : {ReqType::Blocked, ReqType::Unblocking,
                          ReqType::Nop, ReqType::Blocking})
            EXPECT_EQ(bare.coveredCountOfType(t),
                      in_order.coveredCountOfType(t));
    }
}

TEST(CoverageFold, RestoreBitmapRejectsMalformedKeys)
{
    CoverageState cov;
    EXPECT_FALSE(cov.restoreBitmap("2 k.cc:1 send nop\n"));
    EXPECT_FALSE(cov.restoreBitmap("1 k.cc:1 send\n"));
    EXPECT_FALSE(cov.restoreBitmap("1 k.cc:1 teleport nop\n"));
    EXPECT_FALSE(cov.restoreBitmap("1 k.cc:1 send sometimes\n"));
    EXPECT_FALSE(cov.restoreBitmap("1 k.cc:1 select/casex nop\n"));
    EXPECT_FALSE(cov.restoreBitmap("1 |k.cc:1 send nop\n"));
    // Scopes are "main" followed by ">"-separated locations, and a
    // location is "<name>:<line>".
    EXPECT_FALSE(cov.restoreBitmap("1 zzz|k.cc:1 send nop\n"));
    EXPECT_FALSE(cov.restoreBitmap("1 main>|k.cc:1 send nop\n"));
    EXPECT_FALSE(cov.restoreBitmap("1 main>k.cc|k.cc:1 send nop\n"));
    EXPECT_FALSE(cov.restoreBitmap("1 mainly>k.cc:2|k.cc:1 send nop\n"));
    EXPECT_FALSE(cov.restoreBitmap("1 main>k.cc:2>>k.cc:3|k.cc:1 send nop\n"));
    EXPECT_FALSE(cov.restoreBitmap("1 k.cc send nop\n"));
    EXPECT_FALSE(cov.restoreBitmap("1 :7 send nop\n"));
    EXPECT_FALSE(cov.restoreBitmap("1 k.cc:x7 send nop\n"));
    EXPECT_FALSE(cov.restoreBitmap("1 k.cc:07 send nop\n"));
    EXPECT_FALSE(cov.restoreBitmap("1 k.cc:4294967296 send nop\n"));
    EXPECT_FALSE(cov.restoreBitmap("1 d/k.cc:1 send nop\n"));
    EXPECT_EQ(cov.totalRequirements(), 0u);

    CoverageState ok;
    const std::string bitmap = "0 k.cc:3 select/case1 blocked\n"
                               "1 k.cc:3 select/case1 nop\n"
                               "1 main>k.cc:2|k.cc:4 send unblocking\n";
    ASSERT_TRUE(ok.restoreBitmap(bitmap));
    EXPECT_EQ(ok.bitmapStr(), bitmap);
    EXPECT_EQ(ok.totalRequirements(), 3u);
    EXPECT_EQ(ok.coveredCount(), 2u);
    EXPECT_EQ(ok.coveredCountOfType(ReqType::Nop), 1u);
    EXPECT_EQ(ok.coveredCountOfType(ReqType::Unblocking), 1u);
    EXPECT_TRUE(ok.isCovered("main>k.cc:2|k.cc:4 send unblocking"));
    EXPECT_TRUE(ok.isRequired("k.cc:3 select/case1 blocked"));
    EXPECT_FALSE(ok.isCovered("k.cc:3 select/case1 blocked"));
    EXPECT_FALSE(ok.isRequired("k.cc:9 send nop"));
}

namespace {

/** Send, then spawn the next level: one new scope per level. */
void
nestScopes(Chan<int> c, int depth)
{
    c.send(depth);
    if (depth > 0)
        go([c, depth] { nestScopes(c, depth - 1); });
}

} // namespace

TEST(CoverageFold, ConcurrentScratchesShareScopes)
{
    // The scopes of this program are new to the process, so the threads
    // intern them concurrently through the shared catalog: `mid` runs
    // under two parents, and nestScopes builds a chain ten creations
    // deep from one go statement.
    auto program = [] {
        Chan<int> c(64);
        auto leaf = [c]() mutable { c.send(1); };
        auto mid = [c, leaf]() mutable {
            go(leaf);
            c.send(2);
            yield();
        };
        for (int i = 0; i < 3; ++i)
            go(mid);
        go([c, mid]() mutable {
            go(mid);
            yield();
            c.send(3);
        });
        nestScopes(c, 10);
        for (int i = 0; i < 24; ++i)
            yield();
    };
    constexpr int kThreads = 4;
    constexpr uint64_t kSeeds = 8;
    auto universe = std::make_shared<const CoverageUniverse>(CuTable{});
    std::vector<std::string> bitmaps(kThreads);
    std::latch start(kThreads); // first sightings overlap across threads
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            CoverageScratch scratch(universe);
            CoverageState state(universe);
            CoverageDelta d;
            for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
                auto rr = runProgram(program, seed, 0.5);
                GoroutineTree tree(rr.ect);
                scratch.compute(rr.ect, tree, &d);
                state.applyDelta(d);
            }
            bitmaps[static_cast<size_t>(t)] = state.bitmapStr();
        });
    }
    for (std::thread &th : threads)
        th.join();

    CoverageState single;
    for (uint64_t seed = 1; seed <= kSeeds; ++seed)
        single.addEct(runProgram(program, seed, 0.5).ect);
    const std::string want = single.bitmapStr();
    size_t deepest = 0;
    for (const std::string &scope : nodeScopes(want))
        deepest = std::max<size_t>(
            deepest, std::count(scope.begin(), scope.end(), '>'));
    EXPECT_EQ(deepest, 10u);
    for (const std::string &b : bitmaps)
        EXPECT_EQ(b, want);
}
