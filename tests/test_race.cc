/**
 * @file
 * Unit tests for the happens-before engine and data-race detection:
 * vector-clock algebra, the synchronization edges (go, unblock,
 * buffered channels, close, mutex, waitgroup), true races on
 * unsynchronized SharedVar accesses, and no false positives on
 * properly synchronized programs.
 */

#include <gtest/gtest.h>

#include "analysis/happens_before.hh"
#include "campaign/campaign.hh"
#include "chan/chan.hh"
#include "chan/select.hh"
#include "goat/engine.hh"
#include "sync/sharedvar.hh"
#include "sync/sync.hh"
#include "test_util.hh"

using namespace goat;
using namespace goat::analysis;
using goat::test::runProgram;

TEST(VectorClock, BasicOrdering)
{
    ClockPool pool;
    pool.reset(3);
    const ClockPool::Row a = pool.add(), b = pool.add();
    pool.tick(a, 1);
    EXPECT_FALSE(pool.le(a, b));
    EXPECT_TRUE(pool.le(b, a)); // zero ≤ anything
    pool.join(b, a);
    EXPECT_TRUE(pool.le(a, b));
    pool.tick(b, 2);
    EXPECT_TRUE(pool.le(a, b));
    EXPECT_FALSE(pool.le(b, a));
}

TEST(VectorClock, ConcurrencyDetection)
{
    ClockPool pool;
    pool.reset(3);
    const ClockPool::Row a = pool.add(), b = pool.add();
    pool.tick(a, 1);
    pool.tick(b, 2);
    EXPECT_TRUE(pool.concurrent(a, b));
    pool.join(a, b);
    EXPECT_FALSE(pool.concurrent(a, b)); // b ≤ a now
}

TEST(Race, UnsynchronizedWriteWriteDetected)
{
    auto rr = runProgram([] {
        auto v = std::make_shared<gosync::SharedVar<int>>(0);
        go([v] { v->store(1); });
        go([v] { v->store(2); });
        for (int i = 0; i < 4; ++i)
            yield();
    });
    RaceReport report = detectRaces(rr.ect);
    ASSERT_TRUE(report.any());
    EXPECT_TRUE(report.races[0].writeA || report.races[0].writeB);
}

TEST(Race, UnsynchronizedReadWriteDetected)
{
    auto rr = runProgram([] {
        auto v = std::make_shared<gosync::SharedVar<int>>(0);
        go([v] { v->store(1); });
        go([v] { (void)v->load(); });
        for (int i = 0; i < 4; ++i)
            yield();
    });
    EXPECT_TRUE(detectRaces(rr.ect).any());
}

TEST(Race, ReadReadIsNotARace)
{
    auto rr = runProgram([] {
        auto v = std::make_shared<gosync::SharedVar<int>>(0);
        go([v] { (void)v->load(); });
        go([v] { (void)v->load(); });
        for (int i = 0; i < 4; ++i)
            yield();
    });
    EXPECT_FALSE(detectRaces(rr.ect).any());
}

TEST(Race, SameGoroutineIsNotARace)
{
    auto rr = runProgram([] {
        gosync::SharedVar<int> v(0);
        v.store(1);
        (void)v.load();
        v.store(2);
    });
    EXPECT_FALSE(detectRaces(rr.ect).any());
}

TEST(Race, MutexProtectionOrdersAccesses)
{
    auto rr = runProgram([] {
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
    });
    EXPECT_FALSE(detectRaces(rr.ect).any())
        << detectRaces(rr.ect).str();
}

TEST(Race, GoCreateOrdersParentWritesBeforeChild)
{
    auto rr = runProgram([] {
        auto v = std::make_shared<gosync::SharedVar<int>>(0);
        v->store(1); // before spawn: ordered
        go([v] { (void)v->load(); });
        yield();
    });
    EXPECT_FALSE(detectRaces(rr.ect).any());
}

TEST(Race, RendezvousChannelOrdersAccesses)
{
    auto rr = runProgram([] {
        auto v = std::make_shared<gosync::SharedVar<int>>(0);
        auto c = std::make_shared<Chan<int>>(0);
        go([v, c] {
            v->store(42);
            c->send(1);
        });
        c->recv();
        (void)v->load(); // ordered after the send's write
        yield();
    });
    EXPECT_FALSE(detectRaces(rr.ect).any())
        << detectRaces(rr.ect).str();
}

TEST(Race, BufferedChannelCarriesHappensBefore)
{
    auto rr = runProgram([] {
        auto v = std::make_shared<gosync::SharedVar<int>>(0);
        auto c = std::make_shared<Chan<int>>(4);
        go([v, c] {
            v->store(7);
            c->send(1); // pure deposit: nobody parked
        });
        yield();
        c->recv();
        (void)v->load();
        yield();
    });
    EXPECT_FALSE(detectRaces(rr.ect).any())
        << detectRaces(rr.ect).str();
}

TEST(Race, CloseOrdersWritesBeforeDrainingReceiver)
{
    auto rr = runProgram([] {
        auto v = std::make_shared<gosync::SharedVar<int>>(0);
        auto c = std::make_shared<Chan<int>>(0);
        go([v, c] {
            v->store(3);
            c->close();
        });
        yield();
        auto [val, ok] = c->recvOk();
        EXPECT_FALSE(ok);
        (void)v->load();
        yield();
    });
    EXPECT_FALSE(detectRaces(rr.ect).any());
}

TEST(Race, WaitGroupOrdersWorkerWritesBeforeWait)
{
    auto rr = runProgram([] {
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
    });
    EXPECT_FALSE(detectRaces(rr.ect).any())
        << detectRaces(rr.ect).str();
}

TEST(Race, RacyIncrementDetectedAcrossSeeds)
{
    // The classic lost-update pattern: two unsynchronized
    // read-modify-writes. Racy under every schedule.
    int detected = 0;
    for (uint64_t seed = 1; seed <= 5; ++seed) {
        auto rr = runProgram(
            [] {
                auto v = std::make_shared<gosync::SharedVar<int>>(0);
                go([v] { v->update([](int x) { return x + 1; }); });
                go([v] { v->update([](int x) { return x + 1; }); });
                for (int i = 0; i < 4; ++i)
                    yield();
            },
            seed);
        if (detectRaces(rr.ect).any())
            ++detected;
    }
    EXPECT_EQ(detected, 5);
}

TEST(Race, EngineRaceDetectIntegration)
{
    engine::GoatConfig cfg;
    cfg.raceDetect = true;
    cfg.maxIterations = 5;
    auto result = campaign::runCampaign({.engine = cfg}, [] {
        auto v = std::make_shared<gosync::SharedVar<int>>(0);
        go([v] { v->store(1); });
        go([v] { v->store(2); });
        for (int i = 0; i < 4; ++i)
            yield();
    }).merged;
    EXPECT_GT(result.raceIteration, 0);
    EXPECT_TRUE(result.firstRaces.any());
    EXPECT_TRUE(result.bugFound);
}

TEST(Race, ReportRendering)
{
    auto rr = runProgram([] {
        auto v = std::make_shared<gosync::SharedVar<int>>(0);
        go([v] { v->store(1); });
        go([v] { v->store(2); });
        for (int i = 0; i < 4; ++i)
            yield();
    });
    RaceReport report = detectRaces(rr.ect);
    ASSERT_TRUE(report.any());
    std::string s = report.str();
    EXPECT_NE(s.find("DATA RACE"), std::string::npos);
    EXPECT_NE(s.find("write"), std::string::npos);
}

TEST(Race, DeduplicatesIdenticalLocationPairs)
{
    auto rr = runProgram([] {
        auto v = std::make_shared<gosync::SharedVar<int>>(0);
        for (int i = 0; i < 4; ++i)
            go([v] { v->store(1); }); // all from the same line
        for (int i = 0; i < 6; ++i)
            yield();
    });
    RaceReport report = detectRaces(rr.ect);
    ASSERT_TRUE(report.any());
    // 4 goroutines → 6 racy pairs, but one location pair.
    EXPECT_EQ(report.races.size(), 1u);
}
