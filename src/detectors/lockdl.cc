#include "detectors/lockdl.hh"

#include <algorithm>
#include <deque>

#include "base/fmt.hh"

namespace goat::detectors {

using trace::Event;
using trace::EventType;

void
LockDL::warn(const std::string &msg)
{
    warnings_.push_back(msg);
}

void
LockDL::addOrderEdge(uint64_t from, uint64_t to)
{
    if (from == to)
        return;
    if (order_[from].insert(to).second) {
        // New edge: a path to → ... → from means a cycle.
        if (orderReachable(to, from)) {
            warn(strFormat("POTENTIAL DEADLOCK: inconsistent lock "
                           "ordering between mutex %lu and mutex %lu",
                           static_cast<unsigned long>(from),
                           static_cast<unsigned long>(to)));
        }
    }
}

bool
LockDL::orderReachable(uint64_t from, uint64_t to) const
{
    std::set<uint64_t> seen;
    std::deque<uint64_t> work{from};
    while (!work.empty()) {
        uint64_t cur = work.front();
        work.pop_front();
        if (cur == to)
            return true;
        if (!seen.insert(cur).second)
            continue;
        auto it = order_.find(cur);
        if (it == order_.end())
            continue;
        for (uint64_t next : it->second)
            work.push_back(next);
    }
    return false;
}

void
LockDL::resetExecutionState()
{
    holder_.clear();
    held_.clear();
    waitingOn_.clear();
    waitq_.clear();
}

void
LockDL::feed(const trace::Ect &ect)
{
    for (const Event &ev : ect.events())
        onEvent(ev);
}

void
LockDL::onEvent(const Event &ev)
{
    switch (ev.type) {
      case EventType::MuLockReq:
      case EventType::RWLockReq: {
        auto mid = static_cast<uint64_t>(ev.args[0]);
        // Lock-order edges from every lock currently held.
        for (uint64_t h : held_[ev.gid])
            addOrderEdge(h, mid);

        bool busy = ev.type == EventType::MuLockReq ? ev.args[1] != -1
                                                    : ev.args[1] != 0;
        if (!busy)
            break;

        auto hit = holder_.find(mid);
        if (hit != holder_.end() && hit->second == ev.gid) {
            warn(strFormat("POTENTIAL DEADLOCK: goroutine %u is "
                           "re-locking mutex %lu it already holds",
                           ev.gid, static_cast<unsigned long>(mid)));
        }

        waitingOn_[ev.gid] = mid;
        waitq_[mid].push_back(ev.gid);

        // Actual circular wait: requester → mutex → holder → ... chain
        // returning to the requester.
        std::set<uint32_t> seen{ev.gid};
        uint64_t cur_mid = mid;
        while (true) {
            auto h = holder_.find(cur_mid);
            if (h == holder_.end())
                break;
            uint32_t holder_gid = h->second;
            if (seen.count(holder_gid)) {
                warn(strFormat("DEADLOCK: circular wait involving "
                               "mutex %lu (goroutine %u)",
                               static_cast<unsigned long>(cur_mid),
                               ev.gid));
                break;
            }
            seen.insert(holder_gid);
            auto w = waitingOn_.find(holder_gid);
            if (w == waitingOn_.end())
                break;
            cur_mid = w->second;
        }
        break;
      }

      case EventType::MuLock:
      case EventType::RWLock: {
        auto mid = static_cast<uint64_t>(ev.args[0]);
        holder_[mid] = ev.gid;
        held_[ev.gid].push_back(mid);
        waitingOn_.erase(ev.gid);
        auto &q = waitq_[mid];
        q.erase(std::remove(q.begin(), q.end(), ev.gid), q.end());
        break;
      }

      case EventType::MuUnlock:
      case EventType::RWUnlock: {
        auto mid = static_cast<uint64_t>(ev.args[0]);
        auto hit = holder_.find(mid);
        if (hit != holder_.end()) {
            auto &stack = held_[hit->second];
            stack.erase(std::remove(stack.begin(), stack.end(), mid),
                        stack.end());
            holder_.erase(hit);
        }
        break;
      }

      default:
        break;
    }
}

} // namespace goat::detectors
