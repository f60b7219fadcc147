/**
 * @file
 * Reusable buffers of the happens-before analyses: the HbWalker, the
 * race detector's access list, and the predictive tier's phase-one
 * tables (hb_predict.hh). Every table is indexed by a walker slot, so
 * none is sized by a raw gid or object id, and each keeps its capacity
 * from one trace to the next: a campaign worker owns one scratch, and
 * a warm walk allocates nothing. The one-argument detectRaces() and
 * predictBlockingBugs() build a scratch of their own.
 */

#ifndef GOAT_ANALYSIS_HB_SCRATCH_HH
#define GOAT_ANALYSIS_HB_SCRATCH_HH

#include <cstdint>
#include <vector>

#include "analysis/happens_before.hh"

namespace goat::analysis {

namespace hb {

/** One recorded shared access (race detection). */
struct Access
{
    uint64_t var = 0;
    uint32_t gid = 0;
    bool write = false;
    SourceLoc loc;
    ClockPool::Row vc = 0;
};

/** One held lock of a goroutine (its lock stack). */
struct HeldLock
{
    int64_t obj = 0;
    bool exclusive = true;
    /** Acquire site — the confirmation delay target for P1. */
    SourceLoc loc;
};

/**
 * One witnessing event: goroutine, site, trace timestamp, and a
 * snapshot of the pre-event must-clock.
 */
struct Witness
{
    uint32_t gid = 0;
    SourceLoc loc;
    uint64_t ts = 0;
    ClockPool::Row pre = 0;
};

/**
 * A recorded WaitGroup wait or release (P1 material): the witness and
 * the locks its goroutine held, [heldBegin, heldEnd) of
 * HbScratch::heldCopies.
 */
struct WgOp
{
    Witness at;
    uint32_t heldBegin = 0, heldEnd = 0;
};

/** One lock-nesting step: `inner` acquired (at `at`) holding `outer`. */
struct Gadget
{
    Witness at;
    int64_t outer = 0, inner = 0;
    bool outerExcl = true, innerExcl = true;
};

/** An observed rendezvous handoff into a polling select (P3). */
struct LostCand
{
    int64_t chan = 0;
    Witness sender, sel;
};

/** A select's entry point, carried from SelectBegin to its End (P3). */
struct SelEntry
{
    bool open = false;
    bool hasDefault = false;
    Witness at;
};

/**
 * The most recent GoUnblock by a goroutine that woke a parked sender:
 * the sender's channel and attempt point (P3).
 */
struct PendingWake
{
    bool set = false;
    int64_t chan = 0;
    Witness sender;
};

} // namespace hb

/** Reusable buffers of detectRaces() and predictBlockingBugs(). */
struct HbScratch
{
    HbWalker walker;

    /** detectRaces: accesses in walk order, then grouped by variable. */
    std::vector<hb::Access> accesses;
    std::vector<uint32_t> byVar;

    /** Phase one, by goroutine slot. */
    std::vector<std::vector<hb::HeldLock>> held;
    std::vector<hb::SelEntry> selEntry;
    std::vector<hb::PendingWake> pendingWake;
    /** Phase one, by object slot. */
    std::vector<int64_t> chanCap;
    std::vector<std::vector<hb::Witness>> sends, closes;
    std::vector<std::vector<hb::WgOp>> wgWaits, wgDones;
    /** Phase one, flat. */
    std::vector<hb::HeldLock> heldCopies;
    std::vector<hb::Gadget> gadgets;
    std::vector<hb::LostCand> lostCands;
};

} // namespace goat::analysis

#endif // GOAT_ANALYSIS_HB_SCRATCH_HH
