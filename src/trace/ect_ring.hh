/**
 * @file
 * Fixed-width binary ECT ring buffer: the scheduler's one trace-capture
 * path.
 *
 * The rich trace::Event carries a std::string; building one per emit
 * would cost the campaign hot loop an Event construction plus a vector
 * push for each of the hundreds of events an iteration emits. The ring
 * records each event as a POD EctRow (one 64-byte store into a
 * preallocated buffer) and batch-converts rows into a trace::Ect once,
 * at flush time. Rare string payloads (panic messages) ride in a side
 * table. tests/golden/ect_capture.txt pins the converted traces.
 *
 * When the ring fills mid-run it flushes to the bound Ect and keeps
 * recording — capacity bounds memory, not trace length. Event-type
 * tallies are folded from the rows in the same batch pass
 * (foldTypeCounts), which is what lets the scheduler skip its
 * per-event tally increment entirely in ring mode.
 */

#ifndef GOAT_TRACE_ECT_RING_HH
#define GOAT_TRACE_ECT_RING_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/ect.hh"

namespace goat::trace {

/**
 * One fixed-width trace row. POD on purpose: writing one is a handful
 * of scalar stores, and a batch of them converts to Events linearly.
 */
struct EctRow
{
    uint64_t ts;
    const char *file; ///< Interned literal (SourceLoc::file).
    int64_t args[4];
    uint32_t gid;
    uint32_t line;
    uint32_t strIdx; ///< 1-based index into the side table; 0 = none.
    EventType type;
};

/** Process-wide default ring capacity (rows); see -ring-capacity. */
size_t defaultEctRingCapacity();
void setDefaultEctRingCapacity(size_t rows);

/**
 * The ring buffer. One per worker thread, rebound to a fresh Ect per
 * execution (bind() resets all state).
 */
class EctRing
{
  public:
    explicit EctRing(size_t capacity = 0);

    EctRing(const EctRing &) = delete;
    EctRing &operator=(const EctRing &) = delete;

    /** Start recording into @p out (clears rows, strings, counts). */
    void bind(Ect *out);

    /** Stop recording: flush pending rows and detach. */
    void finish();

    /**
     * Reserve the next row. The caller fills every field (strIdx via
     * setStr() for the rare string-carrying events).
     */
    EctRow *
    push()
    {
        if (n_ == cap_)
            flush();
        return &rows_[n_++];
    }

    /** Attach a string payload to @p row. */
    void
    setStr(EctRow *row, const std::string &s)
    {
        strs_.push_back(s);
        row->strIdx = static_cast<uint32_t>(strs_.size());
    }

    /** Convert pending rows into the bound Ect (keeps recording). */
    void flush();

    /**
     * Add per-event-type counts (flushed + pending rows) into
     * @p counts, an array of NumEventTypes buckets. Called once per
     * run by the scheduler when folding its batched tallies.
     */
    void foldTypeCounts(uint64_t *counts) const;

    size_t capacity() const { return cap_; }

    /** Resize (drops pending rows; call only between runs). */
    void setCapacity(size_t rows);

    /** True while bound to an output trace. */
    bool active() const { return out_ != nullptr; }

  private:
    std::unique_ptr<EctRow[]> rows_;
    size_t cap_ = 0;
    size_t n_ = 0;
    Ect *out_ = nullptr;
    std::vector<std::string> strs_;
    uint64_t counts_[static_cast<size_t>(EventType::NumEventTypes)] = {};
};

} // namespace goat::trace

#endif // GOAT_TRACE_ECT_RING_HH
