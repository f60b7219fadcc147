/**
 * @file
 * Unit tests for the schedule-perturbation policy: yield bound D is
 * honored, D=0 injects nothing, decisions are deterministic per seed,
 * and perturbation changes real program interleavings (the paper's
 * bug-acceleration mechanism).
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "chan/chan.hh"
#include "chan/select.hh"
#include "perturb/perturb.hh"
#include "test_util.hh"

using namespace goat;
using namespace goat::runtime;
using goat::test::countEvents;
using goat::test::runProgram;

namespace {

/** A program with many CU points. */
void
busyProgram()
{
    Chan<int> c(64);
    for (int i = 0; i < 30; ++i)
        c.send(i);
    for (int i = 0; i < 30; ++i)
        c.recv();
}

size_t
countPerturbYields(const trace::Ect &ect)
{
    size_t n = 0;
    for (const auto &ev : ect.events())
        if (ev.type == trace::EventType::GoPreempt &&
            ev.args[0] == trace::PreemptTagPerturb)
            ++n;
    return n;
}

} // namespace

TEST(Perturb, BoundZeroInjectsNothing)
{
    for (uint64_t seed = 0; seed < 10; ++seed) {
        perturb::YieldPerturber yp(0, seed);
        auto rr = runProgram(busyProgram, seed, 0.0, yp.hook());
        EXPECT_EQ(countPerturbYields(rr.ect), 0u);
    }
}

TEST(Perturb, NeverExceedsBound)
{
    for (int bound : {1, 2, 3, 4}) {
        for (uint64_t seed = 0; seed < 20; ++seed) {
            perturb::YieldPerturber yp(bound, seed);
            auto rr = runProgram(busyProgram, seed, 0.0, yp.hook());
            EXPECT_LE(countPerturbYields(rr.ect),
                      static_cast<size_t>(bound));
        }
    }
}

TEST(Perturb, EventuallyUsesFullBudgetOnLongPrograms)
{
    // With 60 CU points and p=0.25, some seed must consume all yields.
    bool saw_full = false;
    for (uint64_t seed = 0; seed < 20 && !saw_full; ++seed) {
        perturb::YieldPerturber yp(3, seed);
        auto rr = runProgram(busyProgram, seed, 0.0, yp.hook());
        if (countPerturbYields(rr.ect) == 3)
            saw_full = true;
    }
    EXPECT_TRUE(saw_full);
}

TEST(Perturb, DeterministicPerSeed)
{
    perturb::YieldPerturber ya(3, 99), yb(3, 99);
    auto a = runProgram(busyProgram, 99, 0.0, ya.hook());
    auto b = runProgram(busyProgram, 99, 0.0, yb.hook());
    ASSERT_EQ(a.ect.size(), b.ect.size());
    for (size_t i = 0; i < a.ect.size(); ++i)
        EXPECT_EQ(a.ect.events()[i].type, b.ect.events()[i].type);
}

TEST(Perturb, ShouldYieldCountsUsage)
{
    perturb::YieldPerturber yp(2, 7, 1.0); // always yield until bound
    SourceLoc loc = SourceLoc::current();
    EXPECT_TRUE(yp.shouldYield(staticmodel::CuKind::Send, loc));
    EXPECT_TRUE(yp.shouldYield(staticmodel::CuKind::Send, loc));
    EXPECT_FALSE(yp.shouldYield(staticmodel::CuKind::Send, loc));
    EXPECT_EQ(yp.used(), 2);
}

TEST(Perturb, ChangesInterleavings)
{
    // Two goroutines appending markers around channel ops: with
    // perturbation the interleaving set grows beyond the native one.
    auto program = [](std::string *shape) {
        return [shape] {
            Chan<int> c(8);
            go([shape, c]() mutable {
                for (int i = 0; i < 4; ++i) {
                    c.send(i);
                    *shape += 'a';
                }
            });
            go([shape, c]() mutable {
                for (int i = 0; i < 4; ++i) {
                    c.send(i);
                    *shape += 'b';
                }
            });
            for (int i = 0; i < 10; ++i)
                yield();
        };
    };

    std::set<std::string> native, perturbed;
    for (uint64_t seed = 0; seed < 25; ++seed) {
        std::string s1, s2;
        perturb::YieldPerturber y0(0, seed), y3(3, seed);
        runProgram(program(&s1), seed, 0.0, y0.hook());
        native.insert(s1);
        runProgram(program(&s2), seed, 0.0, y3.hook());
        perturbed.insert(s2);
    }
    // Native (deterministic, no noise) always produces one shape.
    EXPECT_EQ(native.size(), 1u);
    EXPECT_GT(perturbed.size(), 1u);
}

TEST(Perturb, IndependentOfSchedulerRngStream)
{
    // One goroutine selecting over two always-ready channels, without
    // noise: the select permutations are the scheduler RNG's only
    // draws. Injected yields must not shift that stream, so bound 0
    // and bound 3 pick the same cases: the perturber draws from its
    // own stream.
    auto program = [] {
        Chan<int> a(64), b(64);
        for (int i = 0; i < 40; ++i) {
            a.send(i);
            b.send(i);
        }
        for (int i = 0; i < 40; ++i)
            Select().onRecv<int>(a, {}).onRecv<int>(b, {}).run();
    };
    auto chosen = [](const trace::Ect &ect) {
        std::vector<int64_t> out;
        for (const auto &ev : ect.events())
            if (ev.type == trace::EventType::SelectEnd)
                out.push_back(ev.args[0]);
        return out;
    };
    for (uint64_t seed = 1; seed <= 5; ++seed) {
        perturb::YieldPerturber native(0, seed), perturbed(3, seed);
        auto a = runProgram(program, seed, 0.0, native.hook());
        auto b = runProgram(program, seed, 0.0, perturbed.hook());
        ASSERT_EQ(chosen(a.ect).size(), 40u);
        EXPECT_GE(countPerturbYields(b.ect), 1u) << "seed " << seed;
        EXPECT_EQ(chosen(a.ect), chosen(b.ect)) << "seed " << seed;
    }
}
