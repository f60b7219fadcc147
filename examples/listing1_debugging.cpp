/**
 * @file
 * Field-debugging walkthrough of the paper's Listing 1 (the moby_28462
 * Docker bug): a container Monitor goroutine races a StatusChange
 * goroutine on a mutex and an unbuffered status channel; a rare
 * context switch between the select's default arm and the mutex lock
 * produces a mixed (channel + lock) circular wait that native testing
 * almost never hits.
 *
 * The example contrasts native stress testing (D = 0) with GoAT's
 * schedule perturbation (D = 2), then prints the visualizations GoAT
 * generates when the bug is caught: the goroutine tree (paper fig. 3)
 * and the executed interleaving (listing 1, right side).
 *
 * Build & run:  ./build/examples/listing1_debugging
 */

#include <cstdio>

#include "analysis/report.hh"
#include "campaign/campaign.hh"
#include "goker/registry.hh"

using namespace goat;
using namespace goat::engine;

namespace {

int
campaignLength(const goker::KernelInfo &kernel, int delay_bound,
               uint64_t seed)
{
    GoatConfig cfg;
    cfg.delayBound = delay_bound;
    cfg.maxIterations = 2000;
    cfg.seedBase = seed;
    GoatResult r = campaign::runCampaign({.engine = cfg}, kernel.fn).merged;
    return r.bugFound ? r.bugIteration : -1;
}

} // namespace

int
main()
{
    std::printf("== Debugging Listing 1 (moby_28462) with GoAT ==\n\n");
    const goker::KernelInfo *kernel =
        goker::KernelRegistry::instance().find("moby_28462");
    if (!kernel) {
        std::printf("kernel not registered\n");
        return 1;
    }
    std::printf("bug: %s\n\n", kernel->description.c_str());

    // How many executions does each strategy need? Average over a few
    // campaigns for stability.
    for (int d : {0, 2}) {
        long total = 0;
        int campaigns = 10;
        for (int c = 0; c < campaigns; ++c) {
            int n = campaignLength(*kernel, d, 0x5EED + c);
            total += n > 0 ? n : 2000;
        }
        std::printf("D = %d: mean executions to expose the bug: %.1f\n",
                    d, static_cast<double>(total) / campaigns);
    }

    // Catch it once more and show the reports.
    GoatConfig cfg;
    cfg.delayBound = 2;
    cfg.maxIterations = 2000;
    GoatResult r = campaign::runCampaign({.engine = cfg}, kernel->fn).merged;
    if (!r.bugFound) {
        std::printf("unexpected: bug not found\n");
        return 1;
    }
    std::printf("\ncaught at iteration %d (%s); GoAT's report:\n\n%s\n",
                r.bugIteration, r.firstBug.shortStr().c_str(),
                r.report.c_str());
    return 0;
}
