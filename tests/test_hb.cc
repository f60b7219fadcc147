/**
 * @file
 * Tests for the happens-before walker shared by the race detector and
 * the predictive tier: a committed golden of race reports and
 * prediction documents, one hand-built trace per edge-table row of
 * docs/ANALYSIS.md §3 under both edge policies, and malformed parsed
 * traces that must not crash either analysis.
 *
 * The golden pins the source lines of the SharedVar accesses in the
 * programs below. Add new tests after the golden test, never above it.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "analysis/happens_before.hh"
#include "analysis/hb_predict.hh"
#include "base/fmt.hh"
#include "chan/chan.hh"
#include "goat/engine.hh"
#include "goker/registry.hh"
#include "runtime/api.hh"
#include "sync/sharedvar.hh"
#include "sync/sync.hh"
#include "trace/serialize.hh"

using namespace goat;
using namespace goat::analysis;

namespace {

/** SharedVar program shapes of tests/test_race.cc and examples/race_hunt. */
struct RaceProgram
{
    const char *name;
    void (*fn)();
};

const RaceProgram racePrograms[] = {
    {"write_write",
     [] {
         auto v = std::make_shared<gosync::SharedVar<int>>(0);
         go([v] { v->store(1); });
         go([v] { v->store(2); });
         for (int i = 0; i < 4; ++i)
             yield();
     }},
    {"read_write",
     [] {
         auto v = std::make_shared<gosync::SharedVar<int>>(0);
         go([v] { v->store(1); });
         go([v] { (void)v->load(); });
         for (int i = 0; i < 4; ++i)
             yield();
     }},
    {"read_read",
     [] {
         auto v = std::make_shared<gosync::SharedVar<int>>(0);
         go([v] { (void)v->load(); });
         go([v] { (void)v->load(); });
         for (int i = 0; i < 4; ++i)
             yield();
     }},
    {"mutex_protected",
     [] {
         auto v = std::make_shared<gosync::SharedVar<int>>(0);
         auto m = std::make_shared<gosync::Mutex>();
         for (int i = 0; i < 2; ++i) {
             go([v, m] {
                 m->lock();
                 v->store(v->load() + 1);
                 m->unlock();
             });
         }
         for (int i = 0; i < 6; ++i)
             yield();
     }},
    {"go_create",
     [] {
         auto v = std::make_shared<gosync::SharedVar<int>>(0);
         v->store(1);
         go([v] { (void)v->load(); });
         yield();
     }},
    {"rendezvous",
     [] {
         auto v = std::make_shared<gosync::SharedVar<int>>(0);
         auto c = std::make_shared<Chan<int>>(0);
         go([v, c] {
             v->store(42);
             c->send(1);
         });
         c->recv();
         (void)v->load();
         yield();
     }},
    {"buffered",
     [] {
         auto v = std::make_shared<gosync::SharedVar<int>>(0);
         auto c = std::make_shared<Chan<int>>(4);
         go([v, c] {
             v->store(7);
             c->send(1);
         });
         yield();
         c->recv();
         (void)v->load();
         yield();
     }},
    {"close_drain",
     [] {
         auto v = std::make_shared<gosync::SharedVar<int>>(0);
         auto c = std::make_shared<Chan<int>>(0);
         go([v, c] {
             v->store(3);
             c->close();
         });
         yield();
         (void)c->recvOk();
         (void)v->load();
         yield();
     }},
    {"waitgroup",
     [] {
         auto v = std::make_shared<gosync::SharedVar<int>>(0);
         auto wg = std::make_shared<gosync::WaitGroup>();
         wg->add(2);
         for (int i = 0; i < 2; ++i) {
             go([v, wg, i] {
                 if (i == 0)
                     v->store(5);
                 wg->done();
             });
         }
         wg->wait();
         (void)v->load();
         yield();
     }},
    {"racy_increment",
     [] {
         auto v = std::make_shared<gosync::SharedVar<int>>(0);
         go([v] { v->update([](int x) { return x + 1; }); });
         go([v] { v->update([](int x) { return x + 1; }); });
         for (int i = 0; i < 4; ++i)
             yield();
     }},
    {"four_writers",
     [] {
         auto v = std::make_shared<gosync::SharedVar<int>>(0);
         for (int i = 0; i < 4; ++i)
             go([v] { v->store(1); });
         for (int i = 0; i < 6; ++i)
             yield();
     }},
    {"racy_metrics",
     [] {
         struct Shared
         {
             gosync::SharedVar<int> requests{0};
             gosync::Mutex mu;
         };
         auto sh = std::make_shared<Shared>();
         for (int h = 0; h < 2; ++h) {
             goNamed("handler", [sh] {
                 sh->mu.lock();
                 sh->requests.update([](int v) { return v + 1; });
                 sh->mu.unlock();
             });
         }
         goNamed("stats-reporter", [sh] {
             int current = sh->requests.load(); // goat:nolint(GL008)
             (void)current;
         });
         sleepMs(5);
     }},
    {"fixed_metrics",
     [] {
         struct Shared
         {
             gosync::SharedVar<int> requests{0};
             gosync::Mutex mu;
             Chan<int> snapshots;
             Shared() : snapshots(0) {}
         };
         auto sh = std::make_shared<Shared>();
         goNamed("handlers", [sh] {
             for (int h = 0; h < 2; ++h) {
                 sh->mu.lock();
                 sh->requests.update([](int v) { return v + 1; });
                 sh->mu.unlock();
             }
             sh->snapshots.send(sh->requests.load());
         });
         goNamed("stats-reporter", [sh] {
             int snapshot = sh->snapshots.recv();
             (void)snapshot;
             (void)sh->requests.load();
         });
         sleepMs(5);
     }},
};

/**
 * The golden dump: the prediction document of every non-hostile GoKer
 * kernel at D=2, seeds 1–3, then the race report of every SharedVar
 * program above at D=2, seeds 1–5. No GoKer kernel touches a SharedVar,
 * so the second half is what pins the race detector's edges.
 */
std::string
hbGoldenDump()
{
    std::string out;
    for (const goker::KernelInfo *k :
         goker::KernelRegistry::instance().all()) {
        for (uint64_t seed = 1; seed <= 3; ++seed) {
            engine::SingleRun sr = engine::runOnce(k->fn, seed, 2);
            out += strFormat("== predict %s seed %llu\n", k->name.c_str(),
                             static_cast<unsigned long long>(seed));
            out += predictBlockingBugs(sr.ect).jsonDocStr(k->name);
            out += '\n';
        }
    }
    for (const RaceProgram &p : racePrograms) {
        for (uint64_t seed = 1; seed <= 5; ++seed) {
            engine::SingleRun sr = engine::runOnce(p.fn, seed, 2);
            out += strFormat("== race %s seed %llu\n", p.name,
                             static_cast<unsigned long long>(seed));
            out += detectRaces(sr.ect).str();
        }
    }
    return out;
}

} // namespace

// Regenerate with GOAT_UPDATE_GOLDEN=1 only after an intended change of
// the happens-before edges or of the report formats.
TEST(HbGolden, RaceReportsAndPredictionsMatchGolden)
{
    const std::string path = GOAT_SOURCE_DIR "/tests/golden/hb_goker_d2.txt";
    std::string dump = hbGoldenDump();
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
// The edge table of docs/ANALYSIS.md §3, one hand-built trace per row.
// Each test names two endpoint events and asserts which policies order
// the first before the second. Goroutines are not created unless the
// row is about creation, so their clocks start independent.
// ---------------------------------------------------------------------

namespace {

using trace::EventType;

/** A hand-built trace; add() appends one event and returns its index. */
struct TraceBuilder
{
    trace::Ect ect;

    size_t
    add(uint32_t gid, EventType type, int64_t a0 = 0, int64_t a1 = 0,
        int64_t a2 = 0, int64_t a3 = 0)
    {
        auto i = static_cast<uint32_t>(ect.size());
        ect.append(trace::Event(i + 1, gid, type, SourceLoc("hb.go", i + 1),
                                a0, a1, a2, a3));
        return i;
    }
};

/**
 * True when event @p a happens before event @p b under @p policy,
 * comparing each event's clock once its own edges are applied.
 */
bool
ordered(const trace::Ect &ect, HbPolicy policy, size_t a, size_t b)
{
    HbWalker walker;
    walker.begin(ect, ect.size(), policy);
    std::vector<ClockPool::Row> post;
    for (size_t k = 0; k < ect.size(); ++k) {
        const ClockPool::Row now = walker.tick(k);
        walker.apply(k);
        post.push_back(walker.clocks().copy(now));
    }
    return walker.clocks().le(post[a], post[b]);
}

/** True when @p a and @p b are ordered in neither direction. */
bool
concurrent(const trace::Ect &ect, HbPolicy policy, size_t a, size_t b)
{
    return !ordered(ect, policy, a, b) && !ordered(ect, policy, b, a);
}

const HbPolicy bothPolicies[] = {HbPolicy::Observed, HbPolicy::Must};

} // namespace

TEST(HbEdges, CreationOrdersParentBeforeChild)
{
    TraceBuilder t;
    size_t spawn = t.add(1, EventType::GoCreate, 2);
    size_t start = t.add(2, EventType::GoStart);
    for (HbPolicy p : bothPolicies)
        EXPECT_TRUE(ordered(t.ect, p, spawn, start));
}

TEST(HbEdges, RendezvousOrdersBothEndpoints)
{
    TraceBuilder t;
    size_t park = t.add(2, EventType::GoBlockRecv, 5);
    size_t send = t.add(1, EventType::ChSend, 5, 0, 1);
    t.add(1, EventType::GoUnblock, 2);
    size_t after_send = t.add(1, EventType::GoSched);
    size_t recv = t.add(2, EventType::ChRecv, 5, 1, 0, 1);
    for (HbPolicy p : bothPolicies) {
        EXPECT_TRUE(ordered(t.ect, p, send, recv));
        EXPECT_TRUE(ordered(t.ect, p, park, after_send));
    }
}

TEST(HbEdges, BufferedValuesCarryClocksFifo)
{
    TraceBuilder t;
    t.add(1, EventType::ChMake, 5, 2);
    size_t first = t.add(1, EventType::ChSend, 5, 0, 0);
    size_t second = t.add(3, EventType::ChSend, 5, 0, 0);
    size_t recv1 = t.add(2, EventType::ChRecv, 5, 0, 0, 1);
    size_t recv2 = t.add(2, EventType::ChRecv, 5, 0, 0, 1);
    for (HbPolicy p : bothPolicies) {
        EXPECT_TRUE(ordered(t.ect, p, first, recv1));
        EXPECT_FALSE(ordered(t.ect, p, second, recv1));
        EXPECT_TRUE(ordered(t.ect, p, second, recv2));
    }
}

TEST(HbEdges, CloseOrdersDrainMiss)
{
    TraceBuilder t;
    size_t close = t.add(1, EventType::ChClose, 5, 0);
    size_t drain = t.add(2, EventType::ChRecv, 5, 0, 0, 0);
    for (HbPolicy p : bothPolicies)
        EXPECT_TRUE(ordered(t.ect, p, close, drain));
}

TEST(HbEdges, WaitGroupReleaseOrdersWait)
{
    TraceBuilder t;
    size_t done = t.add(2, EventType::WgAdd, 7, -1, 0, 0);
    size_t wait = t.add(1, EventType::WgWait, 7, 0);
    for (HbPolicy p : bothPolicies)
        EXPECT_TRUE(ordered(t.ect, p, done, wait));
}

TEST(HbEdges, CondSignalIsOneWayUnderMust)
{
    TraceBuilder t;
    size_t park = t.add(2, EventType::GoBlockCond, 9);
    size_t signal = t.add(1, EventType::CvSignal, 9, 1);
    t.add(1, EventType::GoUnblock, 2);
    size_t after_signal = t.add(1, EventType::GoSched);
    size_t woken = t.add(2, EventType::CvWait, 9);
    EXPECT_TRUE(ordered(t.ect, HbPolicy::Must, signal, woken));
    EXPECT_TRUE(concurrent(t.ect, HbPolicy::Must, park, after_signal));
    EXPECT_TRUE(ordered(t.ect, HbPolicy::Observed, signal, woken));
    EXPECT_TRUE(ordered(t.ect, HbPolicy::Observed, park, after_signal));
}

TEST(HbEdges, UnlockLockOnlyUnderObserved)
{
    TraceBuilder t;
    t.add(1, EventType::MuLock, 3, 0);
    size_t unlock = t.add(1, EventType::MuUnlock, 3, 0);
    size_t lock = t.add(2, EventType::MuLock, 3, 0);
    EXPECT_TRUE(ordered(t.ect, HbPolicy::Observed, unlock, lock));
    EXPECT_TRUE(concurrent(t.ect, HbPolicy::Must, unlock, lock));
}

TEST(HbEdges, SyncHandoffWakeOnlyUnderObserved)
{
    TraceBuilder t;
    size_t park = t.add(2, EventType::GoBlockSync, 3);
    size_t wake = t.add(1, EventType::GoUnblock, 2);
    size_t after_wake = t.add(1, EventType::GoSched);
    size_t woken = t.add(2, EventType::GoSched);
    EXPECT_TRUE(ordered(t.ect, HbPolicy::Observed, wake, woken));
    EXPECT_TRUE(ordered(t.ect, HbPolicy::Observed, park, after_wake));
    EXPECT_TRUE(concurrent(t.ect, HbPolicy::Must, wake, woken));
    EXPECT_TRUE(concurrent(t.ect, HbPolicy::Must, park, after_wake));
}

TEST(HbEdges, SelectPollTransferIsAttributedToItsCase)
{
    TraceBuilder t;
    t.add(1, EventType::ChMake, 5, 1);
    size_t deposit = t.add(1, EventType::ChSend, 5, 0, 0);
    t.add(2, EventType::SelectBegin, 2, 0);
    t.add(2, EventType::SelectCase, 0, 0, 6);
    t.add(2, EventType::SelectCase, 1, 0, 5);
    size_t chose = t.add(2, EventType::SelectEnd, 1, 0, 0, 0);
    size_t select_send = t.add(3, EventType::SelectBegin, 1, 0);
    t.add(3, EventType::SelectCase, 0, 1, 5);
    t.add(3, EventType::SelectEnd, 0, 0, 0, 1);
    size_t recv = t.add(4, EventType::ChRecv, 5, 0, 0, 1);
    for (HbPolicy p : bothPolicies) {
        EXPECT_TRUE(ordered(t.ect, p, deposit, chose));
        EXPECT_TRUE(ordered(t.ect, p, select_send, recv));
        EXPECT_FALSE(ordered(t.ect, p, deposit, recv));
    }
}

// A select_case index comes straight from the parsed text. One outside
// the open select's cases, or with no select open, must be ignored
// rather than sized into memory.
TEST(HbWalkerInput, MalformedSelectCaseIsIgnored)
{
    const char *traces[] = {
        "1 1 select_begin f.go 3 1 0 0 0\n"
        "2 1 select_case f.go 3 -1 0 5 0\n",
        "1 1 select_begin f.go 3 1 0 0 0\n"
        "2 1 select_case f.go 3 1000000000000 0 5 0\n",
        "1 1 select_case f.go 3 0 0 5 0\n"
        "2 1 select_end f.go 3 0 0 0 0\n",
        "1 1 select_begin f.go 3 1000000000000 1 0 0\n"
        "2 1 select_case f.go 3 999999999999 0 5 0\n"
        "3 1 select_end f.go 3 999999999999 0 1 0\n",
    };
    for (const char *text : traces) {
        trace::Ect ect;
        ASSERT_TRUE(trace::ectFromString(text, ect)) << text;
        EXPECT_FALSE(detectRaces(ect).any()) << text;
        EXPECT_FALSE(predictBlockingBugs(ect).any()) << text;
    }
}

// detectRaces reads clocks only at accesses, so it stops walking at the
// last one: the sync events after it cannot change the report.
TEST(HbRace, WalkStopsAtLastAccess)
{
    auto build = [](bool tail) {
        TraceBuilder t;
        t.add(1, EventType::GoCreate, 2);
        t.add(2, EventType::GoStart);
        t.add(1, EventType::VarWrite, 7);
        t.add(2, EventType::VarWrite, 7);
        t.add(2, EventType::MuLock, 3, 0);
        t.add(2, EventType::VarRead, 8);
        t.add(2, EventType::MuUnlock, 3, 0);
        t.add(1, EventType::MuLock, 3, 0);
        t.add(1, EventType::VarWrite, 8);
        t.add(2, EventType::VarRead, 7);
        if (tail) {
            t.add(1, EventType::MuUnlock, 3, 0);
            t.add(2, EventType::ChSend, 5, 0, 1);
            t.add(1, EventType::ChRecv, 5, 1, 0, 1);
            t.add(1, EventType::WgWait, 9, 0);
        }
        return t.ect;
    };
    const RaceReport full = detectRaces(build(true));
    const RaceReport cut = detectRaces(build(false));
    ASSERT_TRUE(cut.any());
    EXPECT_EQ(full.str(), cut.str());

    TraceBuilder none;
    none.add(1, EventType::GoCreate, 2);
    none.add(2, EventType::MuLock, 3, 0);
    EXPECT_FALSE(detectRaces(none.ect).any());
}

// Slots are assigned in gid order, not in order of first appearance:
// g5 acts first, yet a clock renders its g2 component before g5's.
TEST(HbWalkerInput, SlotOrderIsGidOrder)
{
    TraceBuilder t;
    t.add(5, EventType::GoCreate, 2);
    t.add(2, EventType::ChMake, 9, 1);
    t.add(2, EventType::ChSend, 9, 0, 0);
    t.add(3, EventType::ChClose, 9);
    const PredictionReport r = predictBlockingBugs(t.ect);
    ASSERT_EQ(r.predictions.size(), 1u) << r.str();
    const Prediction &p = r.predictions[0];
    EXPECT_EQ(p.kind, PredictionKind::CloseSendRace);
    EXPECT_EQ(p.gidA, 2u);
    EXPECT_EQ(p.vcA, "{g2:2,g5:1}");
    EXPECT_EQ(p.vcB, "{g3:1}");
}

// No table is sized by a raw id: a trace whose goroutine, channel and
// mutex ids sit at the ends of their ranges predicts and races exactly
// like its small-id twin, under an order-preserving renaming.
TEST(HbWalkerInput, SparseIdsMatchRenamed)
{
    struct Ids
    {
        uint32_t g3;
        int64_t chan, muA, muB;
    };
    auto build = [](const Ids &id) {
        TraceBuilder t;
        t.add(1, EventType::ChMake, id.chan, 1);
        t.add(1, EventType::GoCreate, 2);
        t.add(1, EventType::GoCreate, id.g3);
        t.add(2, EventType::GoStart);
        t.add(2, EventType::MuLock, id.muA, 0);
        t.add(2, EventType::MuLock, id.muB, 0);
        t.add(2, EventType::MuUnlock, id.muB, 0);
        t.add(2, EventType::MuUnlock, id.muA, 0);
        t.add(2, EventType::ChSend, id.chan, 0, 0);
        t.add(2, EventType::VarWrite, 7);
        t.add(id.g3, EventType::GoStart);
        t.add(id.g3, EventType::MuLock, id.muB, 0);
        t.add(id.g3, EventType::MuLock, id.muA, 0);
        t.add(id.g3, EventType::MuUnlock, id.muA, 0);
        t.add(id.g3, EventType::MuUnlock, id.muB, 0);
        t.add(id.g3, EventType::ChClose, id.chan);
        t.add(id.g3, EventType::VarWrite, 7);
        return t.ect;
    };
    const Ids small{3, 1, 2, 3};
    const Ids sparse{UINT32_MAX, INT64_MIN, INT64_MIN + 1, INT64_MAX};
    auto gid = [&](uint32_t g) { return g == small.g3 ? sparse.g3 : g; };
    auto obj = [&](int64_t o) {
        return o == small.chan  ? sparse.chan
               : o == small.muA ? sparse.muA
               : o == small.muB ? sparse.muB
                                : o;
    };
    auto clock = [](std::string vc) {
        const std::string from = "g3:", to = strFormat("g%u:", UINT32_MAX);
        size_t at = vc.find(from);
        if (at != std::string::npos)
            vc.replace(at, from.size(), to);
        return vc;
    };

    const trace::Ect twin = build(small), wide = build(sparse);
    const PredictionReport pt = predictBlockingBugs(twin);
    const PredictionReport pw = predictBlockingBugs(wide);
    ASSERT_EQ(pt.predictions.size(), 2u) << pt.str();
    ASSERT_EQ(pw.predictions.size(), pt.predictions.size()) << pw.str();
    for (size_t i = 0; i < pt.predictions.size(); ++i) {
        const Prediction &t = pt.predictions[i], &w = pw.predictions[i];
        EXPECT_EQ(w.kind, t.kind);
        EXPECT_EQ(w.obj, obj(t.obj));
        EXPECT_EQ(w.obj2, obj(t.obj2));
        EXPECT_EQ(w.gidA, gid(t.gidA));
        EXPECT_EQ(w.gidB, gid(t.gidB));
        EXPECT_EQ(w.locA, t.locA);
        EXPECT_EQ(w.locB, t.locB);
        EXPECT_EQ(w.tsA, t.tsA);
        EXPECT_EQ(w.tsB, t.tsB);
        EXPECT_EQ(w.vcA, clock(t.vcA));
        EXPECT_EQ(w.vcB, clock(t.vcB));
        EXPECT_EQ(w.delayGid, gid(t.delayGid));
        EXPECT_EQ(w.delayLoc, t.delayLoc);
    }

    const RaceReport rt = detectRaces(twin), rw = detectRaces(wide);
    ASSERT_EQ(rt.races.size(), 1u) << rt.str();
    ASSERT_EQ(rw.races.size(), 1u) << rw.str();
    EXPECT_EQ(rw.races[0].varId, rt.races[0].varId);
    EXPECT_EQ(rw.races[0].gidA, gid(rt.races[0].gidA));
    EXPECT_EQ(rw.races[0].gidB, gid(rt.races[0].gidB));
    EXPECT_EQ(rw.races[0].locA, rt.races[0].locA);
    EXPECT_EQ(rw.races[0].locB, rt.races[0].locB);
}
