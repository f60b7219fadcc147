/**
 * @file
 * Quickstart: write a small concurrent program against the GoAT-CPP
 * runtime API, run it under the GoAT engine, and read the deadlock
 * report.
 *
 * The program has a classic bug: a worker sends its result on an
 * unbuffered channel, but the coordinator only receives when a racing
 * "cancel" notification loses — otherwise the worker leaks.
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <cstdio>
#include <memory>

#include "campaign/campaign.hh"
#include "chan/chan.hh"
#include "chan/select.hh"
#include "runtime/api.hh"

using namespace goat;

namespace {

/** The program under test: one coordinator, one worker, one race. */
void
program()
{
    struct Shared
    {
        Chan<int> result;
        Shared() : result(0) {} // unbuffered
    };
    auto sh = std::make_shared<Shared>();

    goNamed("worker", [sh] {
        int answer = 6 * 7;
        sh->result.send(answer); // leaks if nobody ever receives
    });

    // The coordinator races the result against a cancel notification;
    // both may be ready, and the runtime picks pseudo-randomly.
    Chan<Unit> cancel(1);
    cancel.send(Unit{});
    bool canceled = false;
    Select()
        .onRecv<int>(sh->result,
                     [&](int v, bool) { std::printf("got %d\n", v); })
        .onRecv<Unit>(cancel, [&](Unit, bool) { canceled = true; })
        .run();
    if (canceled)
        return; // BUG: the worker's send never rendezvouses
    sleepMs(1);
}

} // namespace

int
main()
{
    std::printf("== GoAT-CPP quickstart ==\n\n");
    std::printf("Testing the program for blocking bugs (D = 2, up to "
                "100 iterations)...\n\n");

    engine::GoatConfig cfg;
    cfg.delayBound = 2;      // inject up to 2 random yields per run
    cfg.maxIterations = 100; // the -freq flag
    engine::GoatResult result =
        campaign::runCampaign({.engine = cfg}, program).merged;

    if (result.bugFound) {
        std::printf("bug found at iteration %d: %s\n\n",
                    result.bugIteration,
                    result.firstBug.shortStr().c_str());
        std::printf("%s\n", result.report.c_str());
    } else {
        std::printf("no bug found in %zu iterations\n",
                    result.iterations.size());
    }
    return 0;
}
