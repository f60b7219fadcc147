/**
 * @file
 * Google-benchmark micro-suite for the runtime substrate: goroutine
 * spawn/join, fiber context switches, channel operations, select,
 * sync primitives, and the cost of tracing — quantifying the
 * "automated dynamic tracing" overhead the paper's design relies on
 * being cheap — plus the fixed cost of a campaign that ends at its
 * first iteration, the common case of the Table IV sweep, and the
 * offline happens-before analyses (-predict's Must walk, -race's
 * access scan) on captured traces.
 */

#include <benchmark/benchmark.h>

#include "analysis/hb_predict.hh"
#include "analysis/hb_scratch.hh"
#include "campaign/campaign.hh"
#include "chan/chan.hh"
#include "chan/select.hh"
#include "goat/engine.hh"
#include "goker/registry.hh"
#include "obs/metrics.hh"
#include "runtime/api.hh"
#include "sync/sync.hh"
#include "trace/ect_ring.hh"

using namespace goat;
using runtime::SchedConfig;
using runtime::Scheduler;

namespace {

SchedConfig
quietCfg()
{
    SchedConfig cfg;
    cfg.noiseProb = 0.0;
    return cfg;
}

} // namespace

static void
BM_SpawnJoin(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        Scheduler sched(quietCfg());
        sched.run([&] {
            for (int i = 0; i < n; ++i)
                go([] {});
            yield();
        });
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SpawnJoin)->Arg(10)->Arg(100)->Arg(1000);

static void
BM_ContextSwitchPingPong(benchmark::State &state)
{
    const int rounds = 1000;
    for (auto _ : state) {
        Scheduler sched(quietCfg());
        sched.run([&] {
            go([&] {
                for (int i = 0; i < rounds; ++i)
                    yield();
            });
            for (int i = 0; i < rounds; ++i)
                yield();
        });
    }
    state.SetItemsProcessed(state.iterations() * rounds * 2);
}
BENCHMARK(BM_ContextSwitchPingPong);

static void
BM_ChanBufferedSendRecv(benchmark::State &state)
{
    const int n = 1000;
    for (auto _ : state) {
        Scheduler sched(quietCfg());
        sched.run([&] {
            Chan<int> c(64);
            go([&, c]() mutable {
                for (int i = 0; i < n; ++i)
                    c.send(i);
            });
            int sink = 0;
            for (int i = 0; i < n; ++i)
                sink += c.recv();
            benchmark::DoNotOptimize(sink);
        });
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ChanBufferedSendRecv);

static void
BM_ChanRendezvous(benchmark::State &state)
{
    const int n = 500;
    for (auto _ : state) {
        Scheduler sched(quietCfg());
        sched.run([&] {
            Chan<int> c;
            go([&, c]() mutable {
                for (int i = 0; i < n; ++i)
                    c.send(i);
            });
            for (int i = 0; i < n; ++i)
                c.recv();
        });
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ChanRendezvous);

static void
BM_SelectTwoReady(benchmark::State &state)
{
    const int n = 500;
    for (auto _ : state) {
        Scheduler sched(quietCfg());
        sched.run([&] {
            Chan<int> a(1), b(1);
            for (int i = 0; i < n; ++i) {
                a.send(1);
                b.send(1);
                Select().onRecv<int>(a, {}).onRecv<int>(b, {}).run();
                // Drain whichever stayed full.
                Select()
                    .onRecv<int>(a, {})
                    .onRecv<int>(b, {})
                    .run();
            }
        });
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SelectTwoReady);

static void
BM_MutexLockUnlock(benchmark::State &state)
{
    const int n = 2000;
    for (auto _ : state) {
        Scheduler sched(quietCfg());
        sched.run([&] {
            gosync::Mutex m;
            for (int i = 0; i < n; ++i) {
                m.lock();
                m.unlock();
            }
        });
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MutexLockUnlock);

static void
BM_WaitGroupCycle(benchmark::State &state)
{
    const int workers = 8;
    for (auto _ : state) {
        Scheduler sched(quietCfg());
        sched.run([&] {
            gosync::WaitGroup wg;
            wg.add(workers);
            for (int i = 0; i < workers; ++i)
                go([&] { wg.done(); });
            wg.wait();
        });
    }
    state.SetItemsProcessed(state.iterations() * workers);
}
BENCHMARK(BM_WaitGroupCycle);

static void
BM_TracingOverhead(benchmark::State &state)
{
    // Same channel workload with and without ring capture at the
    // default capacity (bind, run, finish: what every campaign run
    // pays to produce its ECT).
    const int n = 1000;
    const bool traced = state.range(0) != 0;
    trace::EctRing ring;
    for (auto _ : state) {
        Scheduler sched(quietCfg());
        trace::Ect ect;
        if (traced) {
            ring.bind(&ect);
            sched.setRing(&ring);
        }
        sched.run([&] {
            Chan<int> c(64);
            go([&, c]() mutable {
                for (int i = 0; i < n; ++i)
                    c.send(i);
            });
            for (int i = 0; i < n; ++i)
                c.recv();
        });
        if (traced)
            ring.finish();
    }
    state.SetItemsProcessed(state.iterations() * n);
    state.SetLabel(traced ? "traced" : "untraced");
}
BENCHMARK(BM_TracingOverhead)->Arg(0)->Arg(1);

// A whole jobs=1, stop-on-bug -cov -predict -race campaign on a kernel
// whose bug shows at iteration 1: one iteration plus everything a
// campaign costs to set up and finalize.
static void
BM_CampaignFixedCost(benchmark::State &state)
{
    const goker::KernelInfo *k =
        goker::KernelRegistry::instance().find("etcd_7492");
    campaign::CampaignConfig cfg;
    cfg.engine.delayBound = 2;
    cfg.engine.collectCoverage = true;
    cfg.engine.predict = true;
    cfg.engine.raceDetect = true;
    cfg.engine.staticModel = goker::kernelCuTable(*k);
    for (auto _ : state) {
        campaign::CampaignResult r = campaign::runCampaign(cfg, k->fn);
        if (r.merged.bugIteration != 1) {
            state.SkipWithError("etcd_7492 no longer fails at iteration 1");
            break;
        }
    }
}
BENCHMARK(BM_CampaignFixedCost);

// A campaign worker's metrics life cycle: a fresh registry, one
// scheduler run recorded into it, then its fold into a parent.
static void
BM_WorkerRegistryCycle(benchmark::State &state)
{
    obs::Registry parent;
    for (auto _ : state) {
        obs::Registry worker;
        {
            obs::ScopedRegistry scope(worker);
            Scheduler sched(quietCfg());
            sched.run([] {
                go([] {});
                yield();
            });
        }
        parent.absorb(worker);
    }
}
BENCHMARK(BM_WorkerRegistryCycle);

// predictBlockingBugs over the traces of every kernel at D=0..4, seed
// 1, captured before timing, on one reused scratch (as a campaign
// worker runs it). Items are traces.
static void
BM_PredictBlockingBugs(benchmark::State &state)
{
    std::vector<trace::Ect> traces;
    for (const goker::KernelInfo *k : goker::KernelRegistry::instance().all())
        for (int d = 0; d <= 4; ++d)
            traces.push_back(engine::runOnce(k->fn, 1, d).ect);
    analysis::HbScratch scratch;
    size_t predicted = 0;
    for (auto _ : state)
        for (const trace::Ect &ect : traces)
            predicted += analysis::predictBlockingBugs(ect, scratch)
                             .predictions.size();
    benchmark::DoNotOptimize(predicted);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(traces.size()));
}
BENCHMARK(BM_PredictBlockingBugs);

// detectRaces over a hand-built trace of N SharedVar accesses to one
// variable by four goroutines, with a lock round every eight accesses.
// The pair scan is quadratic in N. Items are accesses.
static void
BM_DetectRaces(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    trace::Ect ect;
    uint64_t ts = 0;
    auto add = [&](uint32_t gid, trace::EventType type, uint32_t line,
                   int64_t a0 = 0) {
        ect.append(trace::Event(++ts, gid, type, SourceLoc("bench.go", line),
                                a0));
    };
    for (uint32_t g = 2; g <= 5; ++g)
        add(1, trace::EventType::GoCreate, 1, g);
    for (int i = 0; i < n; ++i) {
        auto g = static_cast<uint32_t>(2 + i % 4);
        if (i % 8 == 0) {
            add(g, trace::EventType::MuLock, 2, 3);
            add(g, trace::EventType::MuUnlock, 3, 3);
        }
        add(g, i % 3 == 0 ? trace::EventType::VarWrite
                          : trace::EventType::VarRead,
            10 + i % 8, 7);
    }
    analysis::HbScratch scratch;
    size_t races = 0;
    for (auto _ : state)
        races += analysis::detectRaces(ect, scratch).races.size();
    benchmark::DoNotOptimize(races);
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DetectRaces)->Arg(64)->Arg(256)->Arg(1024);

BENCHMARK_MAIN();
