/**
 * @file
 * Schedule perturbation: the paper's goat.handler() — a bounded,
 * probabilistic runtime.Gosched() injected before every concurrency
 * usage point.
 *
 * With bound D = 0 the program executes natively (no injected yields);
 * with D > 0 at most D yields are injected per execution, each taken
 * with a fixed probability when a goroutine reaches a CU. The paper's
 * central empirical claim is that D ≤ 3 suffices to expose most rare
 * blocking bugs.
 */

#ifndef GOAT_PERTURB_PERTURB_HH
#define GOAT_PERTURB_PERTURB_HH

#include <cstdint>

#include "base/rng.hh"
#include "base/source_loc.hh"
#include "runtime/scheduler.hh"
#include "staticmodel/cu.hh"

namespace goat::perturb {

namespace detail {

/**
 * Perturbation telemetry (yields injected vs. skipped, and the
 * priority-site policy's hot/cold classifications: a priority site or
 * any other site) lands in the live scheduler's
 * per-run SchedTallies; a no-op when called outside a run (unit tests
 * exercise the policies without a scheduler).
 */
inline void
tally(uint64_t runtime::SchedTallies::*field)
{
    if (auto *s = runtime::Scheduler::cur())
        ++(s->tallies().*field);
}

} // namespace detail

/**
 * Bounded random-yield policy, one instance per execution.
 */
class YieldPerturber
{
  public:
    /**
     * @param bound Maximum injected yields per execution (the paper's
     *              D; 0 disables perturbation).
     * @param seed Seed for the yield decisions (independent of the
     *             scheduler's own stream so changing D does not
     *             re-randomize select choices).
     * @param prob Per-CU yield probability while under the bound.
     */
    YieldPerturber(int bound, uint64_t seed, double prob = 0.25)
        : bound_(bound), prob_(prob), rng_(seed ^ 0x676f6174ull)
    {}

    /**
     * Decide whether to yield at a CU (the goat.handler() body).
     * Called from inside the scheduler's `perturb_decision` stage
     * scope (obs/profile.hh), so with -profile the cost of every
     * policy's decision path — this one, the guided perturber, replay
     * — lands in that histogram; keep the body allocation-free.
     */
    bool
    shouldYield(staticmodel::CuKind kind, const SourceLoc &loc)
    {
        if (used_ >= bound_) {
            detail::tally(&runtime::SchedTallies::perturbSkipped);
            return false;
        }
        if (!rng_.chance(prob_)) {
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
    int bound() const { return bound_; }

  private:
    int bound_;
    double prob_;
    int used_ = 0;
    Rng rng_;
};

} // namespace goat::perturb

#endif // GOAT_PERTURB_PERTURB_HH
