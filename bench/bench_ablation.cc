/**
 * @file
 * Ablation study for the design choices DESIGN.md calls out:
 *
 *  1. Delay bound D beyond the paper's 0-4 range (does more yielding
 *     keep helping? the paper claims the optimum is ≤ 3);
 *  2. the per-CU yield probability of the perturbation policy;
 *  3. the native-noise model (what "D=0 nondeterminism" buys).
 *
 * Metric: mean iterations-to-detect over a fixed kernel subset that
 * spans the rarity spectrum, plus the number of kernels detected.
 */

#include <cstdio>
#include <functional>
#include <vector>

#include "base/logging.hh"
#include "campaign/campaign.hh"
#include "goat/tool.hh"
#include "goker/registry.hh"
#include "perturb/perturb.hh"

using namespace goat;
using namespace goat::engine;

namespace {

constexpr int maxIter = 400;

const std::vector<std::string> subset = {
    "moby_28462",        // window-based mixed deadlock
    "moby_4951",         // AB-BA window
    "kubernetes_6632",   // select-race mixed deadlock
    "kubernetes_30872",  // rare rotational 3-lock cycle
    "serving_2137",      // rare window+select conjunction
    "etcd_6857",         // select race
    "hugo_3251",         // recursive-RLock window
    "kubernetes_25331",  // double-close crash window
};

/**
 * Detection campaign with explicit perturbation parameters (bound and
 * per-CU yield probability) and noise level.
 */
ToolCampaign
detectCampaign(const std::function<void()> &program, int bound, double prob,
               double noise, uint64_t seed_base)
{
    ToolCampaign out;
    for (int iter = 1; iter <= maxIter; ++iter) {
        uint64_t seed = campaignIterationSeed(seed_base, iter);
        out.iterationsRun = iter;
        SingleRun sr = runOnceHooked(
            program, seed, perturb::YieldPerturber(bound, seed, prob).hook(),
            noise, 400'000, bound);
        if (sr.buggy()) {
            out.verdict.detected = true;
            out.firstDetectIteration = iter;
            return out;
        }
    }
    return out;
}

void
report(const char *title,
       const std::function<ToolCampaign(const goker::KernelInfo &)> &run)
{
    long sum = 0;
    int detected = 0;
    for (const auto &name : subset) {
        const auto *k = goker::KernelRegistry::instance().find(name);
        if (!k)
            continue;
        ToolCampaign c = run(*k);
        if (c.verdict.detected) {
            ++detected;
            sum += c.firstDetectIteration;
        } else {
            sum += maxIter; // censored at the cap
        }
    }
    std::printf("  %-28s detected %d/%zu, mean iters %.1f\n", title,
                detected, subset.size(),
                static_cast<double>(sum) / subset.size());
}

} // namespace

int
main()
{
    setQuiet(true);
    std::printf("=== Ablation: perturbation design choices (subset of "
                "%zu kernels, cap %d iterations) ===\n\n",
                subset.size(), maxIter);

    std::printf("1) delay bound D (yield prob 0.25, noise 0.02):\n");
    for (int d : {0, 1, 2, 3, 4, 6, 8}) {
        char title[64];
        std::snprintf(title, sizeof(title), "D = %d", d);
        report(title, [&](const goker::KernelInfo &k) {
            return detectCampaign(k.fn, d, 0.25, 0.02, 0xAB1 + d);
        });
    }

    std::printf("\n2) per-CU yield probability (D = 3, noise 0.02):\n");
    for (double p : {0.05, 0.1, 0.25, 0.5, 0.9}) {
        char title[64];
        std::snprintf(title, sizeof(title), "yield prob = %.2f", p);
        report(title, [&](const goker::KernelInfo &k) {
            return detectCampaign(k.fn, 3, p, 0.02, 0xAB2);
        });
    }

    std::printf("\n3) native-noise model (D = 0):\n");
    for (double noise : {0.0, 0.005, 0.02, 0.05, 0.1}) {
        char title[64];
        std::snprintf(title, sizeof(title), "noise prob = %.3f", noise);
        report(title, [&](const goker::KernelInfo &k) {
            return detectCampaign(k.fn, 0, 0.25, noise, 0xAB3);
        });
    }

    std::printf("\nExpected shape: D>0 sharply beats D=0; gains beyond "
                "D≈3 flatten (the paper's optimum);\nmoderate yield "
                "probabilities beat extreme ones; without noise, D=0 "
                "detection collapses\nto deterministically buggy "
                "kernels only.\n");
    return 0;
}
