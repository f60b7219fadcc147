/**
 * @file
 * Shared helpers for the GoAT-CPP test suites: run a program under a
 * fresh scheduler, capturing its trace through an ECT ring as engine
 * runs do, and return both the execution result and the trace.
 */

#ifndef GOAT_TESTS_TEST_UTIL_HH
#define GOAT_TESTS_TEST_UTIL_HH

#include <functional>
#include <utility>

#include "runtime/api.hh"
#include "runtime/scheduler.hh"
#include "trace/ect.hh"
#include "trace/ect_ring.hh"

namespace goat::test {

struct RunResult
{
    runtime::ExecResult exec;
    trace::Ect ect;
};

/**
 * Execute @p fn as a program main under a fresh scheduler, recording
 * through an EctRing bound to the result's trace (as
 * engine::runOnceHooked does, minus the metadata and analysis).
 *
 * @param fn The program.
 * @param seed Scheduler seed.
 * @param noise Noise-preemption probability (0 = fully deterministic).
 * @param hook Perturbation hook (none by default).
 * @param ringCapacity Ring rows (0 = the default).
 */
inline RunResult
runProgram(std::function<void()> fn, uint64_t seed = 1, double noise = 0.0,
           runtime::PerturbHook hook = {}, size_t ringCapacity = 0)
{
    runtime::SchedConfig cfg;
    cfg.seed = seed;
    cfg.noiseProb = noise;
    cfg.perturb = std::move(hook);
    runtime::Scheduler sched(cfg);
    trace::EctRing ring(ringCapacity);
    RunResult rr;
    ring.bind(&rr.ect);
    sched.setRing(&ring);
    rr.exec = sched.run(std::move(fn));
    ring.finish();
    return rr;
}

/** Count events of one type in a trace. */
inline size_t
countEvents(const trace::Ect &ect, trace::EventType t)
{
    size_t n = 0;
    for (const auto &ev : ect.events())
        if (ev.type == t)
            ++n;
    return n;
}

} // namespace goat::test

#endif // GOAT_TESTS_TEST_UTIL_HH
