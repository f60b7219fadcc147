/**
 * @file
 * Fuzz-style property suite: seeded random concurrent programs are
 * generated and executed, and universal properties are asserted —
 * termination within the step budget, trace well-formedness,
 * bit-determinism per seed, and sane outcome classification. The
 * generator only emits non-blocking operations (select with default),
 * so every generated program terminates; blocking behaviour is still
 * exercised through buffered-channel fills and lock contention.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "analysis/validate.hh"
#include "base/rng.hh"
#include "campaign/campaign.hh"
#include "chan/chan.hh"
#include "chan/select.hh"
#include "goat/engine.hh"
#include "sync/sync.hh"
#include "test_util.hh"

using namespace goat;
using goat::test::runProgram;

namespace {

/**
 * A random program over a fixed arena of channels and mutexes. All
 * channel operations go through selects with default (never block
 * forever); mutexes are always released; so the program terminates on
 * every schedule.
 */
struct FuzzProgram
{
    uint64_t seed;
    int goroutines;
    int ops_per_goroutine;

    void
    operator()() const
    {
        struct Arena
        {
            std::vector<Chan<int>> chans;
            std::vector<std::unique_ptr<gosync::Mutex>> mus;
            gosync::WaitGroup wg;
        };
        auto arena = std::make_shared<Arena>();
        for (int i = 0; i < 3; ++i)
            arena->chans.emplace_back(static_cast<size_t>(i)); // 0,1,2
        for (int i = 0; i < 2; ++i)
            arena->mus.push_back(std::make_unique<gosync::Mutex>());

        arena->wg.add(goroutines);
        for (int g = 0; g < goroutines; ++g) {
            go([arena, g, seed = seed, ops = ops_per_goroutine] {
                Rng rng(seed * 1315423911u + g);
                for (int i = 0; i < ops; ++i) {
                    auto &ch =
                        arena->chans[rng.nextBelow(arena->chans.size())];
                    auto &mu =
                        *arena->mus[rng.nextBelow(arena->mus.size())];
                    switch (rng.nextBelow(5)) {
                      case 0:
                        Select()
                            .onSend(ch, static_cast<int>(i))
                            .onDefault()
                            .run();
                        break;
                      case 1:
                        Select().onRecv<int>(ch, {}).onDefault().run();
                        break;
                      case 2:
                        mu.lock();
                        yield();
                        mu.unlock();
                        break;
                      case 3:
                        yield();
                        break;
                      case 4:
                        Select()
                            .onSend(ch, -1)
                            .onRecv<int>(ch, {})
                            .onDefault()
                            .run();
                        break;
                    }
                }
                arena->wg.done();
            });
        }
        arena->wg.wait();
        // Drain leftovers so nothing stays buffered (not required for
        // termination; keeps the state clean).
        for (auto &ch : arena->chans) {
            bool more = true;
            while (more) {
                more = false;
                Select()
                    .onRecv<int>(ch, [&](int, bool) { more = true; })
                    .onDefault()
                    .run();
            }
        }
    }
};

} // namespace

class Fuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(Fuzz, TerminatesCleanlyAndTraceIsWellFormed)
{
    uint64_t seed = GetParam();
    FuzzProgram prog{seed, 4, 12};
    auto rr = runProgram(prog, seed, 0.05);
    EXPECT_EQ(rr.exec.outcome, runtime::RunOutcome::Ok)
        << runtime::runOutcomeName(rr.exec.outcome);
    EXPECT_TRUE(rr.exec.leaked.empty());
    auto v = analysis::validateEct(rr.ect);
    EXPECT_TRUE(v.ok()) << v.str();
}

TEST_P(Fuzz, DeterministicPerSeed)
{
    uint64_t seed = GetParam();
    FuzzProgram prog{seed, 3, 10};
    auto a = runProgram(prog, seed, 0.05);
    auto b = runProgram(prog, seed, 0.05);
    ASSERT_EQ(a.ect.size(), b.ect.size());
    for (size_t i = 0; i < a.ect.size(); ++i) {
        EXPECT_EQ(a.ect.events()[i].type, b.ect.events()[i].type);
        EXPECT_EQ(a.ect.events()[i].gid, b.ect.events()[i].gid);
    }
}

TEST_P(Fuzz, SurvivesPerturbedCampaign)
{
    uint64_t seed = GetParam();
    FuzzProgram prog{seed, 3, 8};
    engine::GoatConfig cfg;
    cfg.delayBound = 4;
    cfg.maxIterations = 10;
    cfg.seedBase = seed;
    auto result = campaign::runCampaign({.engine = cfg}, prog).merged;
    EXPECT_FALSE(result.bugFound)
        << (result.report.empty() ? "?" : result.report);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz, ::testing::Range<uint64_t>(1, 21));
