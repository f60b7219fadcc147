/**
 * @file
 * Google-benchmark micro-suite for the telemetry subsystem: the
 * hot-path cost of counter increments and histogram observations
 * (what every scheduler event now pays), the registry's ledger-row
 * delta render (what every ledgered iteration pays) next to the
 * snapshot/delta it replaced, the stage-profiler scope in its disabled
 * and enabled forms (what every instrumentation site pays), and the
 * Chrome trace export (a one-shot cost on the buggy iteration).
 *
 * After the micro benches, a custom main runs two A/Bs on the same
 * pinned-seed campaign, each interleaved min-of-N so the numbers
 * survive a noisy shared host: the stage profiler off vs on, and the
 * row path (-ledger with -checkpoint-every=64) off vs on. Both land in
 * BENCH_obs.json together with the best profile-on rep's per-stage
 * breakdown (tools/check_bench.py holds the profile overhead to the
 * documented <5% budget and compares every leg and per-stage means
 * across baselines in --compare mode).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "base/logging.hh"
#include "campaign/campaign.hh"
#include "chan/chan.hh"
#include "goat/engine.hh"
#include "goker/registry.hh"
#include "obs/chrome_trace.hh"
#include "obs/ledger.hh"
#include "obs/metrics.hh"
#include "obs/profile.hh"
#include "obs/saturation.hh"
#include "runtime/api.hh"

using namespace goat;
using namespace goat::obs;

static void
BM_CounterInc(benchmark::State &state)
{
    Registry reg;
    Counter &c = reg.counter("bench");
    for (auto _ : state)
        c.inc();
    benchmark::DoNotOptimize(c.value());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterInc);

static void
BM_HistogramObserve(benchmark::State &state)
{
    Registry reg;
    Histogram &h = reg.histogram(
        "bench", {100, 1'000, 10'000, 100'000, 1'000'000, 10'000'000});
    uint64_t v = 1;
    for (auto _ : state) {
        h.observe(v);
        v = v * 31 % 20'000'000;
    }
    benchmark::DoNotOptimize(h.count());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramObserve);

/** Populate @p reg to the size of the real global registry. */
static void
populate(Registry &reg)
{
    for (int i = 0; i < 80; ++i)
        reg.counter("c" + std::to_string(i)).inc(i);
    for (int i = 0; i < 4; ++i)
        reg.gauge("g" + std::to_string(i)).set(i);
    reg.histogram("h", {100, 1'000, 10'000}).observe(7);
}

static void
BM_SnapshotDelta(benchmark::State &state)
{
    Registry reg;
    populate(reg);
    Snapshot before = reg.snapshot();
    for (auto _ : state) {
        reg.counter("c1").inc();
        Snapshot now = reg.snapshot();
        Snapshot delta = now.deltaFrom(before);
        benchmark::DoNotOptimize(delta.counters.size());
        before = std::move(now);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotDelta);

static void
BM_DeltaJson(benchmark::State &state)
{
    // The same registry as BM_SnapshotDelta, rendered the way a ledger
    // row is: straight from the instruments, no snapshots, into a
    // string reused across renders (a campaign worker's record keeps
    // its string).
    Registry reg;
    populate(reg);
    Counter &c1 = reg.counter("c1");
    std::string json;
    reg.deltaJson(&json);
    for (auto _ : state) {
        c1.inc();
        reg.deltaJson(&json);
        benchmark::DoNotOptimize(json.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeltaJson);

static void
BM_LedgerEntryJson(benchmark::State &state)
{
    Registry reg;
    for (int i = 0; i < 30; ++i)
        reg.counter("c" + std::to_string(i)).inc(i + 1);
    LedgerEntry e;
    e.iteration = 1;
    e.seed = 42;
    e.outcome = "ok";
    e.verdict = "pass";
    e.steps = 1234;
    e.coveragePct = 61.8;
    e.metricsDelta = reg.snapshot();
    for (auto _ : state) {
        std::string json = ledgerEntryJson(e);
        benchmark::DoNotOptimize(json.size());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LedgerEntryJson);

static void
BM_ChromeTraceExport(benchmark::State &state)
{
    // A leaky producer/consumer mix gives the export all three shapes:
    // instants, blocking durations, and unblock flows.
    auto program = [] {
        Chan<int> c;
        go([c]() mutable {
            for (int i = 0; i < 50; ++i)
                c.send(i);
        });
        for (int i = 0; i < 50; ++i)
            c.recv();
    };
    engine::SingleRun sr = engine::runOnce(program, /*seed=*/1);
    for (auto _ : state) {
        std::string json = chromeTraceJson(sr.ect);
        benchmark::DoNotOptimize(json.size());
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<int64_t>(sr.ect.events().size()));
}
BENCHMARK(BM_ChromeTraceExport);

static void
BM_ProfileScopeDisabled(benchmark::State &state)
{
    // No installed profiler: the whole scope is one thread-local load
    // and a branch — the price every site pays when -profile is off.
    for (auto _ : state) {
        ProfileScope s(Stage::ChanOp);
        benchmark::DoNotOptimize(&s);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfileScopeDisabled);

static void
BM_ProfileScopeEnabled(benchmark::State &state)
{
    // Installed profiler: an entry increment per scope plus, on every
    // kSampleEvery-th entry, two clock reads and a histogram observe.
    Profiler p;
    ScopedProfiler install(p);
    for (auto _ : state) {
        ProfileScope s(Stage::ChanOp);
        benchmark::DoNotOptimize(&s);
    }
    benchmark::DoNotOptimize(p.peek().stage(Stage::ChanOp).total);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfileScopeEnabled);

static void
BM_SaturationSample(benchmark::State &state)
{
    // One merged-iteration sample: four typed scans of the covered
    // set plus a push_back (cold path — runs once per merged row).
    engine::SingleRun sr = engine::runOnce(
        [] {
            Chan<int> c;
            go([c]() mutable { c.send(1); });
            c.recv();
        },
        /*seed=*/1);
    analysis::CoverageState cov;
    cov.addEct(sr.ect);
    SaturationSeries series;
    int iter = 0;
    for (auto _ : state)
        series.sample(++iter, cov);
    benchmark::DoNotOptimize(series.samples().size());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SaturationSample);

namespace {

/** Which instrumentation a campaignWallMicros() run turns on. */
enum class Leg
{
    Plain,
    Profile,
    /** -ledger with -checkpoint-every=64: the row path. */
    Ledger,
};

/**
 * Wall time of a pinned-seed fixed-budget campaign with @p leg's
 * instrumentation on. The A/Bs interleave legs min-of-N: alternate
 * off/on runs and keep each side's minimum, which is the standard way
 * to get a stable ratio out of a noisy shared host.
 */
uint64_t
campaignWallMicros(Leg leg, int iterations,
                   std::string *stages_json = nullptr)
{
    using std::chrono::steady_clock;
    const goker::KernelInfo *k =
        goker::KernelRegistry::instance().find("cockroach_1055");
    if (!k) {
        std::fprintf(stderr, "bench_obs: kernel missing\n");
        std::exit(1);
    }
    campaign::CampaignConfig cfg;
    cfg.engine.delayBound = 2;
    cfg.engine.seedBase = 0xC0FFEE;
    cfg.engine.maxIterations = iterations;
    cfg.engine.stopOnBug = false;
    cfg.engine.collectCoverage = true;
    cfg.engine.covThreshold = 200.0;
    cfg.engine.staticModel = goker::kernelCuTable(*k);
    cfg.engine.profile = leg == Leg::Profile;
    cfg.jobs = 1;
    const std::string ledger = "bench_obs.ledger.jsonl";
    const std::string checkpoint = "bench_obs.checkpoint";
    if (leg == Leg::Ledger) {
        // The ledger appends across runs; start each rep empty.
        std::remove(ledger.c_str());
        cfg.engine.ledgerPath = ledger;
        cfg.checkpointPath = checkpoint;
        cfg.checkpointEvery = 64;
    }
    auto t0 = steady_clock::now();
    campaign::CampaignResult r = campaign::runCampaign(cfg, k->fn);
    const auto t1 = steady_clock::now();
    benchmark::DoNotOptimize(r.executedIterations);
    if (leg == Leg::Ledger) {
        if (!r.ledgerOk || !r.checkpointOk) {
            std::fprintf(stderr, "bench_obs: ledger/checkpoint failed\n");
            std::exit(1);
        }
        std::remove(ledger.c_str());
        std::remove(checkpoint.c_str());
    }
    if (leg == Leg::Profile && stages_json)
        *stages_json = r.executedProfile.jsonStr();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
            .count());
}

/** 100 × (on − off) / off. */
double
overheadPct(uint64_t off, uint64_t on)
{
    return off ? 100.0 *
                     (static_cast<double>(on) - static_cast<double>(off)) /
                     static_cast<double>(off)
               : 0.0;
}

int
runOverheadAb()
{
    // The hot-path memory overhaul cut per-iteration wall ~3.5×; 300
    // iterations now finish in ~5 ms, too short for a stable ratio on
    // a shared host. 2000 keeps each leg in the tens of milliseconds.
    constexpr int kIterations = 2000;
    constexpr int kReps = 9;
    uint64_t best_off = UINT64_MAX, best_on = UINT64_MAX;
    uint64_t best_ledger = UINT64_MAX;
    // Per-stage breakdown of the best profile-on rep (the campaign is
    // seed-pinned, so every rep folds the same stage work).
    std::string stages;
    campaignWallMicros(Leg::Plain, kIterations); // warm up stack pools
    for (int rep = 0; rep < kReps; ++rep) {
        uint64_t off = campaignWallMicros(Leg::Plain, kIterations);
        std::string rep_stages;
        uint64_t on =
            campaignWallMicros(Leg::Profile, kIterations, &rep_stages);
        uint64_t ledger = campaignWallMicros(Leg::Ledger, kIterations);
        best_off = std::min(best_off, off);
        best_ledger = std::min(best_ledger, ledger);
        if (on < best_on) {
            best_on = on;
            stages = std::move(rep_stages);
        }
    }
    const double overhead_pct = overheadPct(best_off, best_on);
    const double ledger_pct = overheadPct(best_off, best_ledger);
    std::printf("\n=== instrumentation A/Bs: cockroach_1055, %d "
                "iterations, min of %d interleaved reps ===\n"
                "plain                 %8.1f ms\n"
                "-profile              %8.1f ms  %+7.2f %%\n"
                "-ledger -checkpoint   %8.1f ms  %+7.2f %%\n",
                kIterations, kReps, best_off / 1e3, best_on / 1e3,
                overhead_pct, best_ledger / 1e3, ledger_pct);

    std::FILE *f = std::fopen("BENCH_obs.json", "w");
    if (!f) {
        std::fprintf(stderr, "bench_obs: cannot write BENCH_obs.json\n");
        return 1;
    }
    // The plain leg is the "off" side of both A/Bs; it is written
    // under both names so each A/B reads on its own.
    std::fprintf(f,
                 "{\"bench\":\"profile_overhead\","
                 "\"kernel\":\"cockroach_1055\",\"iterations\":%d,"
                 "\"reps\":%d,\"profile_off_us\":%llu,"
                 "\"profile_on_us\":%llu,\"overhead_pct\":%.3f,"
                 "\"ledger_off_us\":%llu,\"ledger_on_us\":%llu,"
                 "\"ledger_overhead_pct\":%.3f,"
                 "\"stages\":%s}\n",
                 kIterations, kReps,
                 static_cast<unsigned long long>(best_off),
                 static_cast<unsigned long long>(best_on),
                 overhead_pct,
                 static_cast<unsigned long long>(best_off),
                 static_cast<unsigned long long>(best_ledger), ledger_pct,
                 stages.empty() ? "{}" : stages.c_str());
    std::fclose(f);
    std::printf("summary written to BENCH_obs.json\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    setQuiet(true);
    return runOverheadAb();
}
