/**
 * @file
 * Unit tests for the baseline detectors: the built-in global-deadlock
 * check, goleak's main-exit leak check, and LockDL's double-lock,
 * circular-wait, and lock-order warnings — including the blind spots
 * that differentiate them in the paper's evaluation.
 */

#include <gtest/gtest.h>

#include "chan/chan.hh"
#include "detectors/builtin.hh"
#include "detectors/goleak.hh"
#include "detectors/lockdl.hh"
#include "sync/sync.hh"
#include "test_util.hh"

using namespace goat;
using namespace goat::runtime;
using namespace goat::detectors;

TEST(Builtin, FiresOnGlobalDeadlock)
{
    auto rr = goat::test::runProgram([] {
        Chan<int> c;
        c.recv();
    });
    auto err = builtinCheck(rr.exec);
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("all goroutines are asleep"), std::string::npos);
}

TEST(Builtin, BlindToPartialDeadlock)
{
    auto rr = goat::test::runProgram([] {
        Chan<int> c;
        go([c]() mutable { c.recv(); }); // leaks
        yield();
    });
    EXPECT_EQ(rr.exec.outcome, RunOutcome::Ok);
    EXPECT_FALSE(builtinCheck(rr.exec).has_value());
}

TEST(Goleak, DetectsLeakAtMainExit)
{
    auto rr = goat::test::runProgram([] {
        Chan<int> c;
        goNamed("leaker", [c]() mutable { c.recv(); });
        yield();
    });
    auto gl = goleakCheck(rr.exec);
    EXPECT_TRUE(gl.ran);
    ASSERT_TRUE(gl.detected());
    EXPECT_NE(gl.leaks[0].find("leaker"), std::string::npos);
    EXPECT_NE(gl.leaks[0].find("chan recv"), std::string::npos);
}

TEST(Goleak, PassesOnCleanExit)
{
    auto rr = goat::test::runProgram([] {
        go([] {});
        yield();
    });
    auto gl = goleakCheck(rr.exec);
    EXPECT_TRUE(gl.ran);
    EXPECT_FALSE(gl.detected());
}

TEST(Goleak, CannotRunWhenMainDeadlocks)
{
    auto rr = goat::test::runProgram([] {
        Chan<int> c;
        c.recv();
    });
    auto gl = goleakCheck(rr.exec);
    EXPECT_FALSE(gl.ran);
    EXPECT_FALSE(gl.detected());
}

TEST(LockDL, DetectsDoubleLock)
{
    auto rr = goat::test::runProgram([] {
        gosync::Mutex m;
        m.lock();
        m.lock();
    });
    LockDL dl;
    dl.feed(rr.ect);
    EXPECT_TRUE(dl.detected());
    EXPECT_EQ(rr.exec.outcome, RunOutcome::GlobalDeadlock);
}

TEST(LockDL, DetectsActualAbBaCycle)
{
    // Force the AB-BA interleaving with explicit yields.
    auto rr = goat::test::runProgram([] {
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
        sleepMs(10);
    });
    LockDL dl;
    dl.feed(rr.ect);
    EXPECT_TRUE(dl.detected());
}

TEST(LockDL, OrderGraphWarnsWithoutActualDeadlock)
{
    // Inconsistent order taken sequentially (never concurrently): the
    // Goodlock order graph still flags the potential deadlock.
    auto rr = goat::test::runProgram([] {
        gosync::Mutex a, b;
        a.lock();
        b.lock();
        b.unlock();
        a.unlock();
        b.lock();
        a.lock();
        a.unlock();
        b.unlock();
    });
    LockDL dl;
    dl.feed(rr.ect);
    EXPECT_EQ(rr.exec.outcome, RunOutcome::Ok);
    EXPECT_TRUE(dl.detected());
}

TEST(LockDL, BlindToChannelDeadlock)
{
    auto rr = goat::test::runProgram([] {
        Chan<int> c;
        go([c]() mutable { c.send(1); }); // leaks: no receiver
        yield();
    });
    LockDL dl;
    dl.feed(rr.ect);
    EXPECT_FALSE(dl.detected());
    EXPECT_EQ(rr.exec.outcome, RunOutcome::Ok);
}

TEST(LockDL, BlindToMixedChannelLockCycleWithoutOrderViolation)
{
    // One goroutine holds the only mutex and parks on a send; the peer
    // blocks on the mutex. No second lock, no order cycle: LockDL sees
    // nothing even though both goroutines leak.
    auto rr = goat::test::runProgram([] {
        auto mu = std::make_shared<gosync::Mutex>();
        auto c = std::make_shared<Chan<int>>(0);
        go([mu, c] {
            mu->lock();
            c->send(1);
            mu->unlock();
        });
        go([mu, c] {
            mu->lock();
            c->recv();
            mu->unlock();
        });
        sleepMs(10);
    });
    LockDL dl;
    dl.feed(rr.ect);
    EXPECT_FALSE(dl.detected());
    EXPECT_EQ(rr.exec.leaked.size(), 2u);
}

TEST(LockDL, NoFalsePositiveOnCleanLocking)
{
    auto rr = goat::test::runProgram([] {
        gosync::Mutex a, b;
        for (int i = 0; i < 5; ++i) {
            a.lock();
            b.lock();
            b.unlock();
            a.unlock();
        }
    });
    LockDL dl;
    dl.feed(rr.ect);
    EXPECT_FALSE(dl.detected());
    EXPECT_EQ(rr.exec.outcome, RunOutcome::Ok);
}

TEST(LockDL, OrderGraphPersistsAcrossExecutions)
{
    // Execution 1 establishes a→b; execution 2 takes b→a: the
    // accumulated graph warns even though each run is individually
    // consistent.
    LockDL dl;

    auto mk = [&](bool ab) {
        return [ab] {
            gosync::Mutex a, b;
            gosync::Mutex &first = ab ? a : b;
            gosync::Mutex &second = ab ? b : a;
            first.lock();
            second.lock();
            second.unlock();
            first.unlock();
        };
    };

    dl.feed(goat::test::runProgram(mk(true)).ect);
    EXPECT_FALSE(dl.detected());
    dl.resetExecutionState();
    dl.feed(goat::test::runProgram(mk(false)).ect);
    // Object ids are deterministic per run (1, 2), so the second run's
    // inverted order closes the cycle in the accumulated graph.
    EXPECT_TRUE(dl.detected());
}
