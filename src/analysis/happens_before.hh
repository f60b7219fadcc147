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
 * Clocks are dense. Before a walk, one pre-scan maps the trace's
 * goroutines to slots 0..G-1 in gid order, and its channel, mutex and
 * WaitGroup ids to object slots in id order, so no table is sized by
 * a raw id. Every clock is a row of G counters in one flat pool
 * (ClockPool): a tick is one increment, a join an element-wise max.
 *
 * Two VarRead/VarWrite accesses to the same variable race iff they
 * come from different goroutines, at least one is a write, and their
 * observed clocks are incomparable.
 */

#ifndef GOAT_ANALYSIS_HAPPENS_BEFORE_HH
#define GOAT_ANALYSIS_HAPPENS_BEFORE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/slot_map.hh"
#include "trace/ect.hh"

namespace goat::analysis {

/**
 * Flat vector clocks: each clock is a row of one counter pool, with
 * one component per goroutine slot (the pool's width). A row is named
 * by its index, so appending rows never invalidates a held clock.
 */
class ClockPool
{
  public:
    /** Index of one clock row. */
    using Row = uint32_t;

    /**
     * Drop every row, set the row width, and start with @p rows
     * all-zero clocks. Keeps the capacity.
     */
    void
    reset(uint32_t width, uint32_t rows = 0)
    {
        width_ = width;
        rows_ = rows;
        counts_.assign(size_t{width} * rows, 0);
    }

    /** Append an all-zero clock. */
    Row add();

    /** Append a copy of clock @p from. */
    Row copy(Row from);

    /** Overwrite clock @p into with clock @p from. */
    void assign(Row into, Row from);

    /** Advance component @p slot of clock @p r. */
    void
    tick(Row r, uint32_t slot)
    {
        ++counts_[size_t{r} * width_ + slot];
    }

    /** Component @p slot of clock @p r. */
    uint32_t
    at(Row r, uint32_t slot) const
    {
        return counts_[size_t{r} * width_ + slot];
    }

    /** Element-wise maximum of clock @p into with clock @p from. */
    void join(Row into, Row from);

    /**
     * True when clock @p a happens-before-or-equals clock @p b
     * (element-wise ≤).
     */
    bool le(Row a, Row b) const;

    /** True when neither clock orders the other. */
    bool
    concurrent(Row a, Row b) const
    {
        return !le(a, b) && !le(b, a);
    }

    uint32_t width() const { return width_; }

  private:
    uint32_t width_ = 0;
    uint32_t rows_ = 0;
    std::vector<uint32_t> counts_;
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
    ClockPool::Row pre = 0;
};

/**
 * The one happens-before pass over an ECT. begin() maps the walked
 * events to slots; then each event k is taken in three steps: tick(k)
 * advances the acting goroutine's clock and returns it, the caller
 * reads that pre-edge clock, then apply(k) joins the clocks along the
 * event's edges under the walker's policy. A walker is reusable: its
 * buffers keep their capacity, so a walk no larger than an earlier one
 * allocates nothing.
 */
class HbWalker
{
  public:
    using Row = ClockPool::Row;

    /** The case of an open select that a SelectEnd resolved on. */
    struct Arm
    {
        int64_t chan = -1;
        /** Object slot of chan. */
        uint32_t chanSlot = 0;
        bool send = false;
    };

    /**
     * Start a walk of events [0, @p end) of @p ect under @p policy.
     * @p ect must outlive the walk.
     */
    void begin(const trace::Ect &ect, size_t end, HbPolicy policy);

    /**
     * Step one: tick event @p k's goroutine and return its clock. The
     * row stays that goroutine's clock for the whole walk, but
     * apply() may join into it.
     */
    Row
    tick(size_t k)
    {
        const uint32_t g = slots_[k].gid;
        clocks_.tick(g, g);
        return g;
    }

    /** Step three: apply event @p k's edges. Must follow tick(@p k). */
    void apply(size_t k);

    /** Goroutine slot of event @p k's actor. */
    uint32_t gidSlot(size_t k) const { return slots_[k].gid; }

    /**
     * Event @p k's second slot: the target's goroutine slot for
     * GoCreate and GoUnblock, the object slot for channel, mutex and
     * WaitGroup events, the case's channel slot for SelectCase.
     */
    uint32_t auxSlot(size_t k) const { return slots_[k].aux; }

    /** Goroutine and object slot counts of the walk. */
    size_t gidSlots() const { return gids_.size(); }
    size_t objSlots() const { return objs_.size(); }

    /** The object id of slot @p slot. */
    int64_t objId(uint32_t slot) const { return objs_.id(slot); }

    /**
     * Last GoBlock* snapshot of goroutine slot @p slot, or nullptr
     * before its first park. Recorded under the Must policy only.
     */
    const BlockSnap *
    lastBlock(uint32_t slot) const
    {
        const BlockSnap &s = snaps_[slot];
        return s.type == trace::EventType::NumEventTypes ? nullptr : &s;
    }

    /**
     * The case SelectEnd event @p k transfers on without parking (the
     * poll path), or nullptr for a default, a park, or no open select.
     * Valid until apply(@p k).
     */
    const Arm *pollArm(size_t k) const;

    /** The clock pool; phase-one callers append snapshots to it. */
    ClockPool &clocks() { return clocks_; }
    const ClockPool &clocks() const { return clocks_; }

    /**
     * Render clock @p r as its nonzero components in gid order:
     * "{g0:2,g1:2,g2:6}".
     */
    std::string clockStr(Row r) const;

  private:
    static constexpr uint32_t kNone = SlotMap<uint32_t>::kNone;

    /** Event k's slots (see gidSlot and auxSlot). */
    struct Slots
    {
        uint32_t gid = 0;
        uint32_t aux = kNone;
    };

    /** A select between its SelectBegin and SelectEnd. */
    struct OpenSelect
    {
        bool open = false;
        int64_t nCases = 0;
        std::vector<Arm> arms;
    };

    /** Per object: close and release clocks, buffered-value FIFO. */
    struct ObjState
    {
        /** Clock of the last close (kNone: never closed). */
        Row close = kNone;
        /** Accumulated release clock: unlocks and done()s. */
        Row release = kNone;
        /** First and last deposit of the FIFO (kNone: empty). */
        uint32_t head = kNone, tail = kNone;
    };

    /** A buffered value in flight: its sender's clock, FIFO link. */
    struct Deposit
    {
        Row clock = 0;
        uint32_t next = kNone;
    };

    /** Append a copy of @p clock to object slot @p obj's FIFO. */
    void deposit(uint32_t obj, Row clock);
    /** Join the FIFO head of @p obj into @p me and pop it. */
    bool receive(uint32_t obj, Row me);
    /** Join the close clock of @p obj (if any) into @p me. */
    void joinClose(uint32_t obj, Row me);
    /** The release clock of @p obj, created on first use. */
    Row releaseOf(uint32_t obj);

    HbPolicy policy_ = HbPolicy::Observed;
    const trace::Event *events_ = nullptr;
    /** The pre-scan's ids, then their slots. */
    std::vector<uint32_t> gidIds_;
    std::vector<int64_t> objIds_;
    SlotMap<uint32_t> gids_;
    SlotMap<int64_t> objs_;
    std::vector<Slots> slots_;
    /** Rows 0..G-1: the goroutines' clocks; then every other clock. */
    ClockPool clocks_;
    std::vector<BlockSnap> snaps_;
    /** Open selects by goroutine slot; never shrunk, to keep arms. */
    std::vector<OpenSelect> sel_;
    std::vector<ObjState> objState_;
    std::vector<Deposit> deposits_;
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

struct HbScratch;

/**
 * Run happens-before race detection over a trace, on the walker and
 * buffers of @p scratch (analysis/hb_scratch.hh).
 */
RaceReport detectRaces(const trace::Ect &ect, HbScratch &scratch);

/** detectRaces() on a scratch of its own. */
RaceReport detectRaces(const trace::Ect &ect);

} // namespace goat::analysis

#endif // GOAT_ANALYSIS_HAPPENS_BEFORE_HH
