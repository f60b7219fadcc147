/**
 * @file
 * Happens-before analysis and offline data-race detection over ECTs —
 * the GoAT-CPP counterpart of the paper artifact's `-race` flag
 * (Go's dynamic race detector).
 *
 * HbWalker is the one forward pass that advances per-goroutine vector
 * clocks along a trace's synchronization edges (the edge table of
 * docs/ANALYSIS.md §3):
 *
 *  - goroutine creation: the child starts with the parent's clock;
 *  - wake-ups: a GoUnblock(waker → target) joins the two clocks (this
 *    exactly covers rendezvous channels, lock hand-offs, WaitGroup
 *    releases, cond signals — every park/unpark);
 *  - buffered channels: each delivered value carries the sender's
 *    clock FIFO; the receiver joins it (covers transfers that park
 *    nobody);
 *  - channel close: receivers observing the close join the closer;
 *  - WaitGroup: a wait joins every earlier done();
 *  - mutex / rwmutex: a lock joins the previous unlock of the same
 *    object (covers uncontended critical-section ordering).
 *
 * Its edge policy picks which of those edges count. Observed keeps
 * them all: the order the schedule actually established, which is
 * what detectRaces() needs. Must keeps only the edges every feasible
 * schedule respects, which is what the predictive tier (hb_predict.hh)
 * needs: it drops unlock→lock, and classifies a GoUnblock by what the
 * target was parked on.
 *
 * Two VarRead/VarWrite accesses to the same variable race iff they
 * come from different goroutines, at least one is a write, and their
 * observed clocks are incomparable.
 */

#ifndef GOAT_ANALYSIS_HAPPENS_BEFORE_HH
#define GOAT_ANALYSIS_HAPPENS_BEFORE_HH

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "trace/ect.hh"

namespace goat::analysis {

/**
 * Sparse vector clock (gid → count).
 */
class VectorClock
{
  public:
    /** Advance this goroutine's own component. */
    void
    tick(uint32_t gid)
    {
        ++clock_[gid];
    }

    /** Component-wise maximum with @p other. */
    void join(const VectorClock &other);

    /**
     * True when this clock happens-before-or-equals @p other
     * (component-wise ≤).
     */
    bool le(const VectorClock &other) const;

    /** True when neither clock orders the other. */
    static bool
    concurrent(const VectorClock &a, const VectorClock &b)
    {
        return !a.le(b) && !b.le(a);
    }

    std::string str() const;

  private:
    std::map<uint32_t, uint64_t> clock_;
};

/** Which edges of the docs/ANALYSIS.md §3 table an HbWalker applies. */
enum class HbPolicy : uint8_t
{
    /** Every edge the schedule established (race detection). */
    Observed,
    /** Only edges every feasible schedule respects (prediction). */
    Must,
};

/** A goroutine's most recent GoBlock* event (its pre-wake state). */
struct BlockSnap
{
    trace::EventType type = trace::EventType::NumEventTypes;
    int64_t obj = 0;
    SourceLoc loc;
    uint64_t ts = 0;
    /** The parker's clock at the GoBlock* event. */
    VectorClock pre;
};

/**
 * The one happens-before pass over an ECT. Each event is taken in
 * three steps: tick() advances the acting goroutine's clock and
 * returns it, the caller reads that pre-edge clock, then apply() joins
 * the clocks along the event's edges under the walker's policy.
 */
class HbWalker
{
  public:
    /** The case of an open select that a SelectEnd resolved on. */
    struct Arm
    {
        int64_t chan = -1;
        bool send = false;
    };

    explicit HbWalker(HbPolicy policy) : policy_(policy) {}

    /**
     * Step one: tick @p ev's goroutine. The returned clock stays valid
     * for the whole walk, but apply() may join into it.
     */
    const VectorClock &tick(const trace::Event &ev);

    /** Step three: apply @p ev's edges. Must follow tick(@p ev). */
    void apply(const trace::Event &ev);

    /**
     * Last GoBlock* snapshot of @p gid, or nullptr before its first
     * park. Recorded under the Must policy only.
     */
    const BlockSnap *lastBlock(uint32_t gid) const;

    /**
     * The case a SelectEnd transfers on without parking (the poll
     * path), or nullptr for a default, a park, or no open select. Valid
     * until apply(@p end).
     */
    const Arm *pollArm(const trace::Event &end) const;

  private:
    /** A select between its SelectBegin and SelectEnd. */
    struct OpenSelect
    {
        int64_t nCases = 0;
        std::vector<Arm> arms;
    };

    HbPolicy policy_;
    /** Clock of the goroutine of the event between tick and apply. */
    VectorClock *cur_ = nullptr;
    std::map<uint32_t, VectorClock> vc_;
    /** Clocks of buffered values in flight, FIFO per channel. */
    std::map<int64_t, std::deque<VectorClock>> chanQueue_;
    std::map<int64_t, VectorClock> closeVc_;
    /** Accumulated release clocks: unlocks and done()s per object. */
    std::map<int64_t, VectorClock> release_;
    std::map<uint32_t, OpenSelect> sel_;
    std::map<uint32_t, BlockSnap> lastBlock_;
};

/**
 * One detected race: an unordered conflicting access pair.
 */
struct Race
{
    uint64_t varId = 0;
    uint32_t gidA = 0, gidB = 0;
    SourceLoc locA, locB;
    bool writeA = false, writeB = false;

    std::string str() const;
};

/**
 * Result of the offline race detection pass.
 */
struct RaceReport
{
    /** Distinct races (deduplicated by variable + location pair). */
    std::vector<Race> races;

    bool any() const { return !races.empty(); }

    std::string str() const;
};

/**
 * Run happens-before race detection over a trace.
 */
RaceReport detectRaces(const trace::Ect &ect);

} // namespace goat::analysis

#endif // GOAT_ANALYSIS_HAPPENS_BEFORE_HH
