/**
 * @file
 * Fixed-width ECT ring buffer: the scheduler's one trace-capture path.
 *
 * The ring's rows are trace::Events, which are trivially copyable:
 * recording an event is a handful of scalar stores into a
 * preallocated buffer, and a flush appends the pending rows to the
 * bound Ect in one bulk copy. The rare string payloads (panic
 * messages) go straight into the bound Ect's string table (setStr).
 * tests/golden/ect_capture.txt pins the captured traces.
 *
 * When the ring fills mid-run it flushes to the bound Ect and keeps
 * recording, so the capacity is the flush batch size: it bounds the
 * ring's memory, not the trace's length. Event-type tallies are
 * counted from the rows in the same flush (foldTypeCounts), which is
 * what lets the scheduler skip its per-event tally increment entirely
 * while a ring is bound.
 */

#ifndef GOAT_TRACE_ECT_RING_HH
#define GOAT_TRACE_ECT_RING_HH

#include <cstdint>
#include <memory>
#include <string>

#include "trace/ect.hh"

namespace goat::trace {

/**
 * Ring capacity in rows when none is given: 4096 rows (288 KiB) hold
 * every GoKer kernel's full trace with room to spare; longer
 * executions wrap and flush in batches.
 */
constexpr size_t
defaultEctRingCapacity()
{
    return 4096;
}

/**
 * The ring buffer. One per worker thread, rebound to a fresh Ect per
 * execution (bind() resets all state).
 */
class EctRing
{
  public:
    /** @p capacity rows (0 = the default), floored at 16. */
    explicit EctRing(size_t capacity = 0);

    EctRing(const EctRing &) = delete;
    EctRing &operator=(const EctRing &) = delete;

    /** Start recording into @p out (clears pending rows and counts). */
    void bind(Ect *out);

    /** Stop recording: flush pending rows and detach. */
    void finish();

    /**
     * Reserve the next row. The caller fills every field (strIdx via
     * setStr() for the rare string-carrying events).
     */
    Event *
    push()
    {
        if (n_ == cap_)
            flush();
        return &rows_[n_++];
    }

    /** Attach string payload @p s to @p row (in the bound Ect). */
    void
    setStr(Event *row, const std::string &s)
    {
        out_->setStr(*row, s);
    }

    /** Append pending rows to the bound Ect (keeps recording). */
    void flush();

    /**
     * Add per-event-type counts (flushed + pending rows) into
     * @p counts, an array of NumEventTypes buckets. Called once per
     * run by the scheduler when folding its batched tallies.
     */
    void foldTypeCounts(uint64_t *counts) const;

    size_t capacity() const { return cap_; }

    /** True while bound to an output trace. */
    bool active() const { return out_ != nullptr; }

  private:
    /** Frees rows allocated uninitialised by the constructor. */
    struct FreeRows
    {
        void operator()(Event *rows) const { ::operator delete(rows); }
    };

    std::unique_ptr<Event[], FreeRows> rows_;
    size_t cap_ = 0;
    size_t n_ = 0;
    Ect *out_ = nullptr;
    uint64_t counts_[static_cast<size_t>(EventType::NumEventTypes)] = {};
};

} // namespace goat::trace

#endif // GOAT_TRACE_ECT_RING_HH
