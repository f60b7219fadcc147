/**
 * @file
 * Priority-site schedule perturbation (-lint-guided, -mhp-prune): the
 * bounded seeded yield policy, with yields concentrated on a fixed set
 * of statically chosen CU sites — lint findings or statically
 * may-happen-in-parallel sites. A yield at such a site plausibly flips
 * the interleaving the static pass flagged, so the perturber yields
 * there with high probability and rarely anywhere else. The site set
 * is fixed for the campaign, so every decision is a pure function of
 * the seed. The yield budget D still bounds total perturbation per
 * execution.
 */

#ifndef GOAT_PERTURB_GUIDED_HH
#define GOAT_PERTURB_GUIDED_HH

#include <vector>

#include "base/rng.hh"
#include "perturb/perturb.hh"
#include "runtime/scheduler.hh"
#include "staticmodel/cu.hh"

namespace goat::perturb {

/** Priority-site bounded yield policy, one instance per execution. */
class GuidedPerturber
{
  public:
    /**
     * @param sites Priority sites, matched by (basename, line) (not
     *              owned; must outlive the perturber). nullptr = none.
     * @param bound Maximum injected yields per execution.
     * @param seed Seed for the yield decisions.
     */
    GuidedPerturber(const std::vector<SourceLoc> *sites, int bound,
                    uint64_t seed)
        : sites_(sites), bound_(bound), rng_(seed ^ 0x67756964ull)
    {}

    /** The goat.handler() decision. */
    bool
    shouldYield(staticmodel::CuKind, const SourceLoc &loc)
    {
        if (used_ >= bound_) {
            detail::tally(&runtime::SchedTallies::perturbSkipped);
            return false;
        }
        const bool hot = isPriority(loc);
        detail::tally(hot ? &runtime::SchedTallies::guidedHot
                          : &runtime::SchedTallies::guidedCold);
        if (!rng_.chance(hot ? kPriorityProb : kOtherProb)) {
            detail::tally(&runtime::SchedTallies::perturbSkipped);
            return false;
        }
        ++used_;
        detail::tally(&runtime::SchedTallies::perturbInjected);
        return true;
    }

    /** Install this policy on a scheduler configuration. */
    runtime::PerturbHook
    hook()
    {
        return [this](staticmodel::CuKind k, const SourceLoc &l) {
            return shouldYield(k, l);
        };
    }

    int used() const { return used_; }

  private:
    /** Yield probability at a priority site. */
    static constexpr double kPriorityProb = 0.9;
    /** Yield probability at any other site. */
    static constexpr double kOtherProb = 0.05;

    bool
    isPriority(const SourceLoc &loc) const
    {
        if (!sites_)
            return false;
        for (const SourceLoc &s : *sites_)
            if (s == loc)
                return true;
        return false;
    }

    const std::vector<SourceLoc> *sites_;
    int bound_;
    int used_ = 0;
    Rng rng_;
};

} // namespace goat::perturb

#endif // GOAT_PERTURB_GUIDED_HH
