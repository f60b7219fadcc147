/**
 * @file
 * Integration tests: realistic mini-applications built on the full API
 * surface (channels + select + sync + ctx + timers together), each
 * verified end-to-end for functional correctness, clean termination
 * under GoAT testing campaigns, and well-formed traces. These play the
 * role of GoBench's "GoReal" programs: whole applications rather than
 * bug kernels.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/validate.hh"
#include "campaign/campaign.hh"
#include "chan/chan.hh"
#include "chan/select.hh"
#include "chan/time.hh"
#include "ctx/context.hh"
#include "goat/engine.hh"
#include "runtime/api.hh"
#include "sync/sync.hh"
#include "test_util.hh"

using namespace goat;
using goat::test::runProgram;

namespace {

// ---------------------------------------------------------------------
// Mini-app 1: a replicated key-value store (etcd-flavoured). A leader
// serializes writes through a proposal channel; follower replicas
// apply them; reads go through a RWMutex-protected local store.
// ---------------------------------------------------------------------

struct KvStore
{
    struct Proposal
    {
        int key = 0;
        int value = 0;
    };

    gosync::RWMutex mu;
    std::map<int, int> data;
    Chan<Proposal> proposals;
    Chan<Unit> stop;
    gosync::WaitGroup replicas;

    KvStore() : proposals(8), stop(0) {}
};

void
kvApp(int writers, int writes_each, std::map<int, int> *final_state)
{
    auto kv = std::make_shared<KvStore>();
    const int n_replicas = 2;
    kv->replicas.add(n_replicas);

    // Appliers: drain the proposal log into the store.
    for (int r = 0; r < n_replicas; ++r) {
        goNamed("applier", [kv] {
            while (true) {
                bool stopping = false;
                Select()
                    .onRecv<KvStore::Proposal>(
                        kv->proposals,
                        [&](KvStore::Proposal p, bool ok) {
                            if (!ok)
                                return;
                            kv->mu.lock();
                            // Versioned last-writer-wins: two appliers
                            // may drain the FIFO log out of order, so
                            // stale proposals must not clobber newer
                            // state.
                            auto it = kv->data.find(p.key);
                            if (it == kv->data.end() ||
                                it->second < p.value)
                                kv->data[p.key] = p.value;
                            kv->mu.unlock();
                        })
                    .onRecv<Unit>(kv->stop,
                                  [&](Unit, bool) { stopping = true; })
                    .run();
                if (stopping)
                    break;
            }
            kv->replicas.done();
        });
    }

    // Writers: propose writes, occasionally read back.
    gosync::WaitGroup writers_wg;
    writers_wg.add(writers);
    for (int w = 0; w < writers; ++w) {
        goNamed("writer", [kv, &writers_wg, w, writes_each] {
            for (int i = 0; i < writes_each; ++i) {
                kv->proposals.send({w, i});
                kv->mu.rlock();
                (void)kv->data.size();
                kv->mu.runlock();
            }
            writers_wg.done();
        });
    }

    writers_wg.wait();
    // Drain: wait until all proposals applied, then stop the appliers.
    while (kv->proposals.len() > 0)
        yield();
    kv->stop.close();
    kv->replicas.wait();
    kv->mu.rlock();
    *final_state = kv->data;
    kv->mu.runlock();
}

// ---------------------------------------------------------------------
// Mini-app 2: a request router with per-request timeouts and context
// cancellation (grpc-flavoured).
// ---------------------------------------------------------------------

struct Router
{
    Chan<int> requests;
    Chan<std::string> responses;
    Router() : requests(0), responses(0) {}
};

void
routerApp(int requests, int *answered, int *timed_out)
{
    auto rt = std::make_shared<Router>();
    auto [app_ctx, cancel_app] = ctx::withCancel(ctx::background());

    goNamed("backend", [rt, app_ctx = app_ctx] {
        while (true) {
            int req = -1;
            bool stop = false;
            Select()
                .onRecv<int>(rt->requests,
                             [&](int r, bool ok) {
                                 if (ok)
                                     req = r;
                                 else
                                     stop = true;
                             })
                .onRecv<Unit>(app_ctx->done(),
                              [&](Unit, bool) { stop = true; })
                .run();
            if (stop)
                return;
            // Slow requests (odd ids) exceed the caller's deadline.
            if (req % 2 == 1)
                sleepMs(10);
            bool delivered = false;
            Select()
                .onSend(rt->responses, std::string("ok"),
                        [&] { delivered = true; })
                .onRecv<Unit>(app_ctx->done(), {})
                .run();
            if (!delivered)
                return;
        }
    });

    for (int r = 0; r < requests; ++r) {
        rt->requests.send(r);
        auto deadline = gotime::after(5 * gotime::Millisecond);
        bool got = false;
        Select()
            .onRecv<std::string>(rt->responses,
                                 [&](std::string, bool) { got = true; })
            .onRecv<Unit>(deadline, {})
            .run();
        if (got) {
            ++*answered;
        } else {
            ++*timed_out;
            // Drain the late response so the backend can move on.
            rt->responses.recvOk();
        }
    }
    cancel_app();
    yield();
}

} // namespace

TEST(Integration, KvStoreAppliesAllWrites)
{
    std::map<int, int> state;
    auto rr = runProgram([&] { kvApp(3, 5, &state); });
    EXPECT_EQ(rr.exec.outcome, runtime::RunOutcome::Ok);
    EXPECT_TRUE(rr.exec.leaked.empty());
    ASSERT_EQ(state.size(), 3u);
    for (int w = 0; w < 3; ++w)
        EXPECT_EQ(state[w], 4); // last write per writer wins
}

TEST(Integration, KvStoreCleanUnderNoiseSweep)
{
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        std::map<int, int> state;
        auto rr = runProgram([&] { kvApp(2, 4, &state); }, seed, 0.1);
        EXPECT_EQ(rr.exec.outcome, runtime::RunOutcome::Ok)
            << "seed " << seed;
        EXPECT_TRUE(rr.exec.leaked.empty()) << "seed " << seed;
        auto v = analysis::validateEct(rr.ect);
        EXPECT_TRUE(v.ok()) << v.str();
    }
}

TEST(Integration, KvStoreSurvivesGoatCampaign)
{
    engine::GoatConfig cfg;
    cfg.delayBound = 3;
    cfg.maxIterations = 30;
    auto result = campaign::runCampaign({.engine = cfg}, [] {
        std::map<int, int> state;
        kvApp(2, 3, &state);
    }).merged;
    EXPECT_FALSE(result.bugFound)
        << (result.report.empty() ? "?" : result.report);
}

TEST(Integration, RouterAnswersAndTimesOutAsExpected)
{
    int answered = 0, timed_out = 0;
    auto rr = runProgram([&] { routerApp(6, &answered, &timed_out); });
    EXPECT_EQ(rr.exec.outcome, runtime::RunOutcome::Ok);
    // Even ids answer fast, odd ids exceed the 5 ms deadline.
    EXPECT_EQ(answered, 3);
    EXPECT_EQ(timed_out, 3);
    EXPECT_TRUE(rr.exec.leaked.empty());
}

TEST(Integration, RouterCleanUnderGoatCampaign)
{
    engine::GoatConfig cfg;
    cfg.delayBound = 2;
    cfg.maxIterations = 25;
    auto result = campaign::runCampaign({.engine = cfg}, [] {
        int a = 0, t = 0;
        routerApp(4, &a, &t);
    }).merged;
    EXPECT_FALSE(result.bugFound)
        << (result.report.empty() ? "?" : result.report);
}

TEST(Integration, RouterWithoutDrainLeaksBackend)
{
    // Regression-style negative test: dropping the late-response drain
    // makes the backend leak on its response send, and GoAT sees it.
    auto buggy = [] {
        auto rt = std::make_shared<Router>();
        goNamed("backend", [rt] {
            rt->requests.recv();
            sleepMs(10);
            rt->responses.send("late"); // caller gave up: leaks
        });
        rt->requests.send(0);
        auto deadline = gotime::after(2 * gotime::Millisecond);
        Select()
            .onRecv<std::string>(rt->responses, {})
            .onRecv<Unit>(deadline, {})
            .run();
        // BUG: no drain of the late response.
    };
    engine::GoatConfig cfg;
    cfg.maxIterations = 10;
    auto result = campaign::runCampaign({.engine = cfg}, buggy).merged;
    EXPECT_TRUE(result.bugFound);
    EXPECT_EQ(result.firstBug.verdict,
              analysis::Verdict::PartialDeadlock);
}
