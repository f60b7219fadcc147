/**
 * @file
 * The built-in instruments: every metric the scheduler, the engine and
 * the campaign record, interned once per process. Recording sites
 * index registries by these ids (obs/metrics.hh); none registers a
 * built-in instrument by name. docs/INTERNALS.md §7.1 documents the
 * same set of names, and a test holds the two equal.
 */

#ifndef GOAT_OBS_BUILTIN_METRICS_HH
#define GOAT_OBS_BUILTIN_METRICS_HH

#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "trace/event.hh"

namespace goat::obs {

/** The scheduler's instruments, folded from its per-run tallies. */
struct SchedMetricIds
{
    CounterId event[static_cast<size_t>(trace::EventType::NumEventTypes)];
    CounterId park[9];    // indexed by runtime::BlockReason
    CounterId outcome[4]; // indexed by runtime::RunOutcome
    CounterId runs;
    CounterId dispatches;
    CounterId ctxSwitches;
    CounterId spawns;
    CounterId wakes;
    CounterId yields;
    CounterId preemptNoise;
    CounterId preemptPerturb;
    CounterId timerFires;
    CounterId stackPoolHits;
    CounterId stackPoolMisses;
    CounterId chanMakes;
    CounterId chanSendImmediate;
    CounterId chanSendParked;
    CounterId chanRecvImmediate;
    CounterId chanRecvParked;
    CounterId chanCloses;
    CounterId mutexFast;
    CounterId mutexContended;
    CounterId rwFast;
    CounterId rwContended;
    CounterId wgWaitFast;
    CounterId wgWaitParked;
    CounterId condWaits;
    CounterId condSignals;
    CounterId perturbInjected;
    CounterId perturbSkipped;
    CounterId guidedHot;
    CounterId guidedCold;
    GaugeId stackPoolSize;
    GaugeId goroutinesPeak;
    HistogramId stepsPerRun;
    /** Every id above: what a run's flush registers. */
    IdSet all;
};

/** The engine's and the campaign's instruments. */
struct CampaignMetricIds
{
    // Per worker, per iteration.
    CounterId iterations;
    CounterId bugsFound;
    HistogramId iterWallUs;
    // Per campaign, in the caller's registry.
    CounterId campaigns;
    CounterId runs;
    CounterId fanouts;
    CounterId executed;
    CounterId discarded;
    CounterId predictions;
    CounterId predictionsConfirmed;
    CounterId respawns;
    CounterId crashes;
    CounterId timeouts;
    GaugeId workers;
};

struct BuiltinMetrics
{
    SchedMetricIds sched;
    CampaignMetricIds campaign;
    /** Every built-in instrument's name, sorted. */
    std::vector<std::string> names;
};

/** The built-in ids, interned on first use. */
const BuiltinMetrics &builtinMetrics();

} // namespace goat::obs

#endif // GOAT_OBS_BUILTIN_METRICS_HH
