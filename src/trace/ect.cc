#include "trace/ect.hh"

#include <algorithm>

namespace goat::trace {

void
Ect::setMeta(const std::string &key, const std::string &value)
{
    meta_[key] = value;
}

std::string
Ect::meta(const std::string &key) const
{
    auto it = meta_.find(key);
    return it == meta_.end() ? "" : it->second;
}

const std::string &
Ect::str(const Event &ev) const
{
    static const std::string none;
    return ev.strIdx ? strs_[ev.strIdx - 1] : none;
}

const Event *
Ect::lastEventOf(uint32_t gid) const
{
    for (auto it = events_.rbegin(); it != events_.rend(); ++it)
        if (it->gid == gid)
            return &*it;
    return nullptr;
}

std::vector<uint32_t>
Ect::goroutineIds() const
{
    std::vector<uint32_t> ids;
    for (const auto &ev : events_)
        ids.push_back(ev.gid);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return ids;
}

void
Ect::clear()
{
    events_.clear();
    strs_.clear();
    meta_.clear();
}

} // namespace goat::trace
