#include "trace/ect_ring.hh"

#include <new>
#include <type_traits>

#include "base/logging.hh"

namespace goat::trace {

namespace {

/**
 * 4096 rows (288 KiB) holds every GoKer kernel's full trace with room
 * to spare; long executions wrap and flush in batches.
 */
size_t ringCapacity = 4096;

} // namespace

size_t
defaultEctRingCapacity()
{
    return ringCapacity;
}

void
setDefaultEctRingCapacity(size_t rows)
{
    if (rows < 16)
        rows = 16; // floor keeps the wrap path sane
    ringCapacity = rows;
}

EctRing::EctRing(size_t capacity)
{
    setCapacity(capacity ? capacity : defaultEctRingCapacity());
}

void
EctRing::setCapacity(size_t rows)
{
    if (rows == cap_)
        return;
    if (rows < 16)
        rows = 16;
    // Rows are written by push()'s caller before any flush reads them,
    // so the buffer is left uninitialised: a fresh thread's ring
    // touches only the pages its runs fill instead of zeroing all of
    // them. Event is trivially copyable, an implicit-lifetime type,
    // so operator new's storage holds its rows without construction.
    static_assert(std::is_trivially_copyable_v<Event> &&
                  std::is_trivially_destructible_v<Event>);
    rows_.reset(static_cast<Event *>(::operator new(rows * sizeof(Event))));
    cap_ = rows;
    n_ = 0;
}

void
EctRing::bind(Ect *out)
{
    if (out_)
        panic("EctRing::bind while already bound");
    out_ = out;
    n_ = 0;
    for (uint64_t &c : counts_)
        c = 0;
}

void
EctRing::flush()
{
    if (!out_)
        panic("EctRing::flush without a bound Ect");
    for (size_t i = 0; i < n_; ++i)
        ++counts_[static_cast<size_t>(rows_[i].type)];
    out_->append(rows_.get(), n_);
    n_ = 0;
}

void
EctRing::finish()
{
    flush();
    out_ = nullptr;
}

void
EctRing::foldTypeCounts(uint64_t *counts) const
{
    for (size_t i = 0;
         i < static_cast<size_t>(EventType::NumEventTypes); ++i)
        counts[i] += counts_[i];
    for (size_t i = 0; i < n_; ++i)
        ++counts[static_cast<size_t>(rows_[i].type)];
}

} // namespace goat::trace
