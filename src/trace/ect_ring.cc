#include "trace/ect_ring.hh"

#include <new>
#include <type_traits>

#include "base/logging.hh"

namespace goat::trace {

EctRing::EctRing(size_t capacity)
{
    size_t rows = capacity ? capacity : defaultEctRingCapacity();
    if (rows < 16)
        rows = 16; // floor keeps the wrap path sane
    // Rows are written by push()'s caller before any flush reads them,
    // so the buffer is left uninitialised: a fresh thread's ring
    // touches only the pages its runs fill instead of zeroing all of
    // them. Event is trivially copyable, an implicit-lifetime type,
    // so operator new's storage holds its rows without construction.
    static_assert(std::is_trivially_copyable_v<Event> &&
                  std::is_trivially_destructible_v<Event>);
    rows_.reset(static_cast<Event *>(::operator new(rows * sizeof(Event))));
    cap_ = rows;
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
