/**
 * @file
 * Domain scenario: a correct worker-pool pipeline (producer → N
 * workers → collector with a shutdown timeout), used to demonstrate
 * GoAT's *testing quality measurement*: the coverage requirements
 * (Table I) quantify how thoroughly repeated testing explored the
 * schedule space, and the uncovered requirements tell the developer
 * which behaviours were never exercised (paper §III-C tenet 3).
 *
 * Build & run:  ./build/examples/worker_pool
 */

#include <cstdio>
#include <memory>

#include "campaign/campaign.hh"
#include "chan/chan.hh"
#include "chan/select.hh"
#include "chan/time.hh"
#include "runtime/api.hh"
#include "sync/sync.hh"

using namespace goat;

namespace {

void
pipeline()
{
    struct Shared
    {
        Chan<int> jobs;
        Chan<int> results;
        gosync::WaitGroup wg;
        Shared() : jobs(4), results(4) {}
    };
    auto sh = std::make_shared<Shared>();

    const int n_workers = 3, n_jobs = 9;
    sh->wg.add(n_workers);
    for (int w = 0; w < n_workers; ++w) {
        goNamed("worker", [sh] {
            sh->jobs.range([sh](int job) {
                sh->results.send(job * job);
            });
            sh->wg.done();
        });
    }

    goNamed("producer", [sh] {
        for (int j = 0; j < n_jobs; ++j)
            sh->jobs.send(j);
        sh->jobs.close();
    });

    goNamed("closer", [sh] {
        sh->wg.wait();
        sh->results.close();
    });

    // Collector with a defensive timeout (never fires in this correct
    // pipeline — GoAT's coverage report proves that path untested).
    int sum = 0;
    bool done = false;
    auto deadline = gotime::after(gotime::Second);
    while (!done) {
        Select()
            .onRecv<int>(sh->results,
                         [&](int v, bool ok) {
                             if (!ok)
                                 done = true;
                             else
                                 sum += v;
                         })
            .onRecv<Unit>(deadline, [&](Unit, bool) { done = true; })
            .run();
    }
    (void)sum;
}

} // namespace

int
main()
{
    std::printf("== Worker-pool pipeline: coverage-guided testing ==\n\n");

    engine::GoatConfig cfg;
    cfg.delayBound = 3;
    cfg.maxIterations = 60;
    cfg.collectCoverage = true;
    cfg.covThreshold = 200.0; // keep exploring the full budget
    cfg.stopOnBug = true;     // any deadlock would abort the campaign
    campaign::CampaignResult run =
        campaign::runCampaign({.engine = cfg}, pipeline);
    const engine::GoatResult &result = run.merged;

    if (result.bugFound) {
        std::printf("unexpected bug: %s\n%s\n",
                    result.firstBug.shortStr().c_str(),
                    result.report.c_str());
        return 1;
    }

    std::printf("%zu iterations, no blocking bug detected\n",
                result.iterations.size());
    std::printf("coverage after run 1:  %.1f%%\n",
                result.iterations.front().coveragePct);
    std::printf("coverage after run %zu: %.1f%%\n\n",
                result.iterations.size(), result.finalCoverage);

    const auto &cov = run.coverage;
    std::printf("covered %zu of %zu requirement instances\n\n",
                cov.coveredCount(), cov.totalRequirements());

    std::printf("uncovered requirements (program level) — each one is "
                "either dead code,\na semantic invariant (e.g. the "
                "defensive timeout never fires), or a hint\nto extend "
                "testing:\n");
    int shown = 0;
    for (const auto &key : cov.uncovered()) {
        if (key.find('|') != std::string::npos)
            continue; // skip node-level duplicates for readability
        std::printf("  %s\n", key.c_str());
        if (++shown >= 20)
            break;
    }
    return 0;
}
