/**
 * @file
 * Regenerates **Table III**: the concurrency usages and coverage
 * requirements of the paper's Listing 1 program (the moby_28462
 * kernel), with the requirements covered by a successful run (#1), by
 * a leaking run (#2), and overall — demonstrating that the leak run
 * covers behaviours (like send-blocked) the clean run cannot.
 */

#include <cstdio>
#include <vector>

#include "analysis/coverage.hh"
#include "base/logging.hh"
#include "goat/engine.hh"
#include "goker/registry.hh"

using namespace goat;
using namespace goat::analysis;
using namespace goat::engine;

int
main()
{
    setQuiet(true);
    std::printf("=== Table III: CUs and coverage requirements of "
                "Listing 1 (moby_28462) ===\n\n");

    const goker::KernelInfo *kernel =
        goker::KernelRegistry::instance().find("moby_28462");
    if (!kernel) {
        std::printf("moby_28462 missing\n");
        return 1;
    }
    staticmodel::CuTable statics = goker::kernelCuTable(*kernel);
    std::printf("static CU model M (%zu usages):\n%s\n", statics.size(),
                statics.str().c_str());

    // Find one successful and one leaking execution.
    SingleRun clean, leaky;
    bool have_clean = false, have_leaky = false;
    for (uint64_t seed = 1; seed <= 2000 && !(have_clean && have_leaky);
         ++seed) {
        SingleRun sr = runOnce(kernel->fn, seed, 0, 0.02);
        if (sr.dl.verdict == Verdict::Pass && !have_clean) {
            clean = sr;
            have_clean = true;
        } else if (sr.dl.verdict == Verdict::PartialDeadlock &&
                   !have_leaky) {
            leaky = sr;
            have_leaky = true;
        }
    }
    if (!have_clean || !have_leaky) {
        std::printf("could not find both a clean and a leaking run\n");
        return 1;
    }

    CoverageState run1(statics), run2(statics), overall(statics);
    run1.addEct(clean.ect);
    run2.addEct(leaky.ect);
    overall.addEct(clean.ect);
    overall.addEct(leaky.ect);

    std::printf("run #1: %s   run #2: %s\n\n", clean.dl.shortStr().c_str(),
                leaky.dl.shortStr().c_str());
    std::printf("%-42s %-8s %-8s %-8s\n", "requirement", "run#1",
                "run#2", "overall");

    // Program-level requirement keys from the overall universe.
    const staticmodel::CuTable cus = overall.cuTable();
    for (const auto &cu : cus.all()) {
        for (ReqType t : {ReqType::Blocked, ReqType::Unblocking,
                          ReqType::Nop, ReqType::Blocking}) {
            std::string key = CoverageState::key(cu, t);
            if (!overall.isRequired(key))
                continue;
            std::printf("%-42s %-8s %-8s %-8s\n", key.c_str(),
                        run1.isCovered(key) ? "yes" : "-",
                        run2.isCovered(key) ? "yes" : "-",
                        overall.isCovered(key) ? "yes" : "-");
        }
    }

    std::printf("\ncoverage: run#1 %.1f%%, run#2 %.1f%%, overall %.1f%%\n",
                run1.percent(), run2.percent(), overall.percent());
    return 0;
}
