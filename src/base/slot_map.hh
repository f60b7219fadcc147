/**
 * @file
 * Dense slots for the sparse ids of one trace (goroutine, channel,
 * mutex and WaitGroup ids): the distinct ids get slots 0..n-1 in id
 * order, so per-id tables become vectors of n entries.
 *
 * Ids a runtime hands out are small and consecutive, so when the ids
 * span a range no wider than a caller-given bound (the trace's length,
 * say), a slot is one load from a table over that range. Wider ranges,
 * which only a parsed or hand-built trace carries, fall back to a
 * binary search over the sorted ids. Either way no buffer is sized by
 * a raw id.
 */

#ifndef GOAT_BASE_SLOT_MAP_HH
#define GOAT_BASE_SLOT_MAP_HH

#include <algorithm>
#include <cstdint>
#include <vector>

namespace goat {

template <typename Id>
class SlotMap
{
  public:
    /** The slot of an id that was not in build()'s list. */
    static constexpr uint32_t kNone = UINT32_MAX;

    /**
     * Number the distinct ids of @p ids (any order, repeats allowed).
     * A direct table is used when the ids span at most @p bound
     * values. Buffers keep their capacity across builds.
     */
    void
    build(const std::vector<Id> &ids, size_t bound)
    {
        ids_.clear();
        direct_.clear();
        if (ids.empty())
            return;
        auto [lo, hi] = std::minmax_element(ids.begin(), ids.end());
        base_ = *lo;
        // Unsigned difference: exact for any pair of int64 ids.
        const uint64_t span = static_cast<uint64_t>(*hi) -
                              static_cast<uint64_t>(*lo);
        if (span < bound) {
            direct_.assign(span + 1, kNone);
            ids_.reserve(direct_.size());
            for (Id id : ids)
                direct_[offset(id)] = 0;
            for (size_t i = 0; i < direct_.size(); ++i) {
                if (direct_[i] == kNone)
                    continue;
                direct_[i] = static_cast<uint32_t>(ids_.size());
                ids_.push_back(static_cast<Id>(
                    static_cast<uint64_t>(base_) + i));
            }
            return;
        }
        ids_ = ids;
        std::sort(ids_.begin(), ids_.end());
        ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
    }

    /** Slot of @p id, or kNone when build() did not see it. */
    uint32_t
    slot(Id id) const
    {
        if (!direct_.empty()) {
            uint64_t off = offset(id);
            return off < direct_.size() ? direct_[off] : kNone;
        }
        auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
        return it != ids_.end() && *it == id
                   ? static_cast<uint32_t>(it - ids_.begin())
                   : kNone;
    }

    /** The id of slot @p s. */
    Id id(uint32_t s) const { return ids_[s]; }

    /** Number of slots. */
    size_t size() const { return ids_.size(); }

  private:
    uint64_t
    offset(Id id) const
    {
        return static_cast<uint64_t>(id) - static_cast<uint64_t>(base_);
    }

    /** Slot → id, ascending. */
    std::vector<Id> ids_;
    Id base_ = 0;
    /** Slot of id base_ + i (kNone: absent); empty when too wide. */
    std::vector<uint32_t> direct_;
};

} // namespace goat

#endif // GOAT_BASE_SLOT_MAP_HH
