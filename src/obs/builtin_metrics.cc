#include "obs/builtin_metrics.hh"

#include <algorithm>

namespace goat::obs {

namespace {

const std::vector<uint64_t> kDecades = {100,     1'000,     10'000,
                                        100'000, 1'000'000, 10'000'000};

/** Interns names and keeps them for BuiltinMetrics::names. */
struct Interner
{
    std::vector<std::string> &names;

    CounterId
    counter(const std::string &name)
    {
        names.push_back(name);
        return internCounter(name);
    }

    GaugeId
    gauge(const std::string &name)
    {
        names.push_back(name);
        return internGauge(name);
    }

    HistogramId
    histogram(const std::string &name, const std::vector<uint64_t> &bounds)
    {
        names.push_back(name);
        return internHistogram(name, bounds);
    }
};

SchedMetricIds
internSched(Interner &in)
{
    SchedMetricIds m;
    IdSet &all = m.all;
    auto c = [&](const std::string &name) {
        CounterId id = in.counter(name);
        all.add(id);
        return id;
    };
    for (size_t i = 0;
         i < static_cast<size_t>(trace::EventType::NumEventTypes); ++i) {
        m.event[i] = c(std::string("event.") +
                       trace::eventTypeName(static_cast<trace::EventType>(i)));
    }
    static const char *reason_names[9] = {
        "none",    "chan_send", "chan_recv", "select", "mutex",
        "rwmutex", "waitgroup", "cond",      "sleep"};
    for (size_t i = 0; i < 9; ++i)
        m.park[i] = c(std::string("sched.park.") + reason_names[i]);
    static const char *outcome_names[4] = {"ok", "global_deadlock", "crash",
                                           "step_budget"};
    for (size_t i = 0; i < 4; ++i)
        m.outcome[i] = c(std::string("sched.outcome.") + outcome_names[i]);
    m.runs = c("sched.runs");
    m.dispatches = c("sched.dispatches");
    m.ctxSwitches = c("sched.ctx_switches");
    m.spawns = c("sched.spawns");
    m.wakes = c("sched.wakes");
    m.yields = c("sched.yields");
    m.preemptNoise = c("sched.preempt.noise");
    m.preemptPerturb = c("sched.preempt.perturb");
    m.timerFires = c("sched.timer_fires");
    m.stackPoolHits = c("sched.stackpool.hits");
    m.stackPoolMisses = c("sched.stackpool.misses");
    m.chanMakes = c("chan.makes");
    m.chanSendImmediate = c("chan.send.immediate");
    m.chanSendParked = c("chan.send.parked");
    m.chanRecvImmediate = c("chan.recv.immediate");
    m.chanRecvParked = c("chan.recv.parked");
    m.chanCloses = c("chan.closes");
    m.mutexFast = c("sync.mutex.acquire.fast");
    m.mutexContended = c("sync.mutex.acquire.contended");
    m.rwFast = c("sync.rwmutex.acquire.fast");
    m.rwContended = c("sync.rwmutex.acquire.contended");
    m.wgWaitFast = c("sync.wg.wait.fast");
    m.wgWaitParked = c("sync.wg.wait.parked");
    m.condWaits = c("sync.cond.waits");
    m.condSignals = c("sync.cond.signals");
    m.perturbInjected = c("perturb.yields.injected");
    m.perturbSkipped = c("perturb.yields.skipped");
    m.guidedHot = c("perturb.guided.hot_picks");
    m.guidedCold = c("perturb.guided.cold_picks");
    m.stackPoolSize = in.gauge("sched.stackpool.size");
    m.goroutinesPeak = in.gauge("sched.goroutines_peak");
    m.stepsPerRun = in.histogram("sched.steps_per_run", kDecades);
    all.add(m.stackPoolSize);
    all.add(m.goroutinesPeak);
    all.add(m.stepsPerRun);
    return m;
}

CampaignMetricIds
internCampaign(Interner &in)
{
    CampaignMetricIds m;
    m.iterations = in.counter("engine.iterations");
    m.bugsFound = in.counter("engine.bugs_found");
    m.iterWallUs = in.histogram("engine.iter_wall_us", kDecades);
    m.campaigns = in.counter("engine.campaigns");
    m.runs = in.counter("campaign.runs");
    m.fanouts = in.counter("campaign.fanouts");
    m.executed = in.counter("campaign.iterations.executed");
    m.discarded = in.counter("campaign.iterations.discarded");
    m.predictions = in.counter("campaign.predictions");
    m.predictionsConfirmed = in.counter("campaign.predictions.confirmed");
    m.respawns = in.counter("campaign.respawns");
    m.crashes = in.counter("campaign.crashes");
    m.timeouts = in.counter("campaign.timeouts");
    m.workers = in.gauge("campaign.workers");
    return m;
}

} // namespace

const BuiltinMetrics &
builtinMetrics()
{
    static const BuiltinMetrics m = [] {
        BuiltinMetrics b;
        Interner in{b.names};
        b.sched = internSched(in);
        b.campaign = internCampaign(in);
        std::sort(b.names.begin(), b.names.end());
        return b;
    }();
    return m;
}

} // namespace goat::obs
