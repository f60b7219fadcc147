/**
 * @file
 * Tests for the final-state wait-for analysis: blocked-on
 * descriptions for every primitive, lock-holder edges, circular-wait
 * detection (including self-deadlock and the Listing 1 mixed cycle),
 * and integration into the deadlock report.
 */

#include <gtest/gtest.h>

#include "analysis/deadlock.hh"
#include "analysis/report.hh"
#include "analysis/waitgraph.hh"
#include "campaign/campaign.hh"
#include "chan/chan.hh"
#include "chan/select.hh"
#include "goker/registry.hh"
#include "goat/engine.hh"
#include "sync/sync.hh"
#include "test_util.hh"

using namespace goat;
using namespace goat::analysis;
using goat::test::runProgram;

TEST(WaitGraphTest, ChannelSendWaiterDescribed)
{
    auto rr = runProgram([] {
        Chan<int> c;
        go([c]() mutable { c.send(1); });
        yield();
    });
    WaitGraph graph = buildWaitGraph(rr.ect);
    ASSERT_TRUE(graph.waiting.count(2));
    EXPECT_NE(graph.waiting[2].waitingOn.find("send"),
              std::string::npos);
    EXPECT_EQ(graph.waiting[2].holder, 0u);
}

TEST(WaitGraphTest, MutexWaiterPointsAtHolder)
{
    auto rr = runProgram([] {
        auto m = std::make_shared<gosync::Mutex>();
        go([m] {
            m->lock();
            Chan<int> never;
            never.recv(); // park holding the mutex
        });
        go([m] {
            m->lock(); // waits for G2
            m->unlock();
        });
        sleepMs(5);
    });
    WaitGraph graph = buildWaitGraph(rr.ect);
    ASSERT_TRUE(graph.waiting.count(3));
    EXPECT_EQ(graph.waiting[3].holder, 2u);
    auto chain = graph.chainFrom(3);
    ASSERT_GE(chain.size(), 2u);
    EXPECT_NE(chain[0].find("held by G2"), std::string::npos);
    EXPECT_NE(chain[1].find("chan"), std::string::npos);
}

TEST(WaitGraphTest, SelfDeadlockIsCircular)
{
    auto rr = runProgram([] {
        auto m = std::make_shared<gosync::Mutex>();
        go([m] {
            m->lock();
            m->lock(); // AA
            m->unlock();
            m->unlock();
        });
        sleepMs(5);
    });
    WaitGraph graph = buildWaitGraph(rr.ect);
    auto chain = graph.chainFrom(2);
    std::string joined;
    for (const auto &l : chain)
        joined += l + "\n";
    EXPECT_NE(joined.find("CIRCULAR WAIT"), std::string::npos);
}

TEST(WaitGraphTest, AbBaCycleReported)
{
    auto rr = runProgram([] {
        auto a = std::make_shared<gosync::Mutex>();
        auto b = std::make_shared<gosync::Mutex>();
        go([a, b] {
            a->lock();
            yield();
            b->lock();
            b->unlock();
            a->unlock();
        });
        go([a, b] {
            b->lock();
            yield();
            a->lock();
            a->unlock();
            b->unlock();
        });
        sleepMs(5);
    });
    WaitGraph graph = buildWaitGraph(rr.ect);
    auto chain = graph.chainFrom(2);
    std::string joined;
    for (const auto &l : chain)
        joined += l + "\n";
    EXPECT_NE(joined.find("held by G3"), std::string::npos);
    EXPECT_NE(joined.find("CIRCULAR WAIT"), std::string::npos);
}

TEST(WaitGraphTest, UnblockedGoroutineLeavesGraph)
{
    auto rr = runProgram([] {
        Chan<int> c;
        go([c]() mutable { c.send(1); });
        yield();
        c.recv(); // unblocks the sender
        yield();
    });
    WaitGraph graph = buildWaitGraph(rr.ect);
    EXPECT_FALSE(graph.waiting.count(2));
}

TEST(WaitGraphTest, WaitGroupAndCondAndSleepDescribed)
{
    auto rr = runProgram([] {
        auto wg = std::make_shared<gosync::WaitGroup>();
        wg->add(1);
        go([wg] { wg->wait(); });
        auto m = std::make_shared<gosync::Mutex>();
        auto cv = std::make_shared<gosync::Cond>(*m);
        go([m, cv] {
            m->lock();
            cv->wait();
            m->unlock();
        });
        go([] { sleepSec(1000); });
        yield();
        yield();
        yield();
    });
    WaitGraph graph = buildWaitGraph(rr.ect);
    EXPECT_NE(graph.waiting[2].waitingOn.find("waitgroup"),
              std::string::npos);
    EXPECT_NE(graph.waiting[3].waitingOn.find("cond"),
              std::string::npos);
    EXPECT_NE(graph.waiting[4].waitingOn.find("sleep"),
              std::string::npos);
}

TEST(WaitGraphTest, Listing1MixedCycleInReport)
{
    // Run the moby_28462 kernel until its bug occurs, and check the
    // deadlock report contains the mixed wait chain: a goroutine
    // blocked on the mutex held by the one blocked on the channel.
    const auto *kernel =
        goker::KernelRegistry::instance().find("moby_28462");
    ASSERT_NE(kernel, nullptr);
    engine::GoatConfig cfg;
    cfg.delayBound = 2;
    cfg.maxIterations = 2000;
    auto result = campaign::runCampaign({.engine = cfg}, kernel->fn).merged;
    ASSERT_TRUE(result.bugFound);
    EXPECT_NE(result.report.find("root-cause wait chains"),
              std::string::npos);
    EXPECT_NE(result.report.find("mutex"), std::string::npos);
    EXPECT_NE(result.report.find("chan"), std::string::npos);
}

TEST(WaitGraphTest, RwMutexWriterBlockedByReader)
{
    auto rr = runProgram([] {
        auto rw = std::make_shared<gosync::RWMutex>();
        rw->rlock();
        go([rw] {
            rw->lock(); // blocked behind main's read lock
            rw->unlock();
        });
        yield();
        // main exits holding the read lock: writer leaks.
    });
    WaitGraph graph = buildWaitGraph(rr.ect);
    ASSERT_TRUE(graph.waiting.count(2));
    EXPECT_NE(graph.waiting[2].waitingOn.find("mutex"),
              std::string::npos);
}
