/**
 * @file
 * Regenerates **Figures 6a and 6b**: coverage percentage over testing
 * iterations for the two representative kernels etcd_7443 and
 * kubernetes_11298, for delay bounds D ∈ {0..4}. Reproduces the
 * paper's qualitative findings: coverage grows over iterations, larger
 * D accelerates early exploration, higher D does not always dominate,
 * and coverage can drop when a run discovers new requirements.
 */

#include <cstdio>
#include <vector>

#include "analysis/coverage.hh"
#include "base/logging.hh"
#include "campaign/campaign.hh"
#include "goker/registry.hh"

using namespace goat;
using namespace goat::engine;

namespace {

constexpr int iterations = 100;

void
coverageSeries(const goker::KernelInfo &kernel)
{
    std::printf("--- %s (%s): coverage %% per iteration, D = 0..4 ---\n",
                kernel.name.c_str(), kernel.project.c_str());

    std::vector<std::vector<double>> series;
    for (int d = 0; d <= 4; ++d) {
        GoatConfig cfg;
        cfg.delayBound = d;
        cfg.maxIterations = iterations;
        cfg.collectCoverage = true;
        cfg.covThreshold = 200.0; // never stop on coverage
        cfg.stopOnBug = false;    // the coverage study keeps iterating
        cfg.seedBase = 0xE7C0 + d;
        cfg.staticModel = goker::kernelCuTable(kernel);
        GoatResult result =
            campaign::runCampaign({.engine = cfg}, kernel.fn).merged;
        std::vector<double> pct;
        for (const auto &it : result.iterations)
            pct.push_back(it.coveragePct);
        series.push_back(std::move(pct));
    }

    std::printf("iter");
    for (int d = 0; d <= 4; ++d)
        std::printf("      D%d", d);
    std::printf("\n");
    for (int i = 0; i < iterations; i = i < 10 ? i + 1 : i + 5) {
        std::printf("%4d", i + 1);
        for (int d = 0; d <= 4; ++d)
            std::printf("  %6.2f", series[d][i]);
        std::printf("\n");
    }
    std::printf("finl");
    for (int d = 0; d <= 4; ++d)
        std::printf("  %6.2f", series[d].back());
    std::printf("\n\n");
}

} // namespace

int
main()
{
    setQuiet(true);
    std::printf("=== Figure 6: coverage percentage during testing "
                "iterations (%d runs per delay bound) ===\n\n",
                iterations);
    auto &reg = goker::KernelRegistry::instance();
    const goker::KernelInfo *etcd = reg.find("etcd_7443");
    const goker::KernelInfo *kube = reg.find("kubernetes_11298");
    if (!etcd || !kube) {
        std::printf("kernels missing from registry\n");
        return 1;
    }
    coverageSeries(*etcd);   // fig. 6a
    coverageSeries(*kube);   // fig. 6b
    return 0;
}
