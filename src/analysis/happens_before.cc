#include "analysis/happens_before.hh"

#include <set>

#include "base/fmt.hh"

namespace goat::analysis {

using trace::Event;
using trace::EventType;

void
VectorClock::join(const VectorClock &other)
{
    for (const auto &[gid, n] : other.clock_) {
        auto &mine = clock_[gid];
        if (n > mine)
            mine = n;
    }
}

bool
VectorClock::le(const VectorClock &other) const
{
    for (const auto &[gid, n] : clock_) {
        auto it = other.clock_.find(gid);
        uint64_t theirs = it == other.clock_.end() ? 0 : it->second;
        if (n > theirs)
            return false;
    }
    return true;
}

std::string
VectorClock::str() const
{
    std::vector<std::string> parts;
    for (const auto &[gid, n] : clock_)
        parts.push_back(strFormat("g%u:%lu", gid,
                                  static_cast<unsigned long>(n)));
    return "{" + strJoin(parts, ",") + "}";
}

std::string
Race::str() const
{
    return strFormat("DATA RACE on var %lu: %s by g%u at %s vs %s by "
                     "g%u at %s",
                     static_cast<unsigned long>(varId),
                     writeA ? "write" : "read", gidA, locA.str().c_str(),
                     writeB ? "write" : "read", gidB, locB.str().c_str());
}

std::string
RaceReport::str() const
{
    std::string out;
    for (const auto &race : races) {
        out += race.str();
        out += '\n';
    }
    return out;
}

const VectorClock &
HbWalker::tick(const Event &ev)
{
    cur_ = &vc_[ev.gid];
    cur_->tick(ev.gid);
    return *cur_;
}

const BlockSnap *
HbWalker::lastBlock(uint32_t gid) const
{
    auto it = lastBlock_.find(gid);
    return it == lastBlock_.end() ? nullptr : &it->second;
}

const HbWalker::Arm *
HbWalker::pollArm(const Event &end) const
{
    auto it = sel_.find(end.gid);
    int64_t chosen = end.args[0];
    bool blocked_first = end.args[1] != 0;
    if (it == sel_.end() || chosen < 0 || blocked_first ||
        static_cast<size_t>(chosen) >= it->second.arms.size())
        return nullptr; // default / park path: GoUnblock covered it
    return &it->second.arms[chosen];
}

void
HbWalker::apply(const Event &ev)
{
    VectorClock &me = *cur_;
    switch (ev.type) {
      case EventType::GoCreate: {
        auto child = static_cast<uint32_t>(ev.args[0]);
        vc_[child].join(me);
        break;
      }

      case EventType::GoBlockSend:
      case EventType::GoBlockRecv:
      case EventType::GoBlockSelect:
      case EventType::GoBlockSync:
      case EventType::GoBlockCond:
        if (policy_ == HbPolicy::Must)
            lastBlock_[ev.gid] = {ev.type, ev.args[0], ev.loc, ev.ts, me};
        break;
      case EventType::GoUnblock: {
        // Observed: conservative bidirectional edge for every wake-up
        // (exact for rendezvous, safe — never introduces false races —
        // for one-way wakeups). Must: classify by what the target was
        // parked on. A channel park is a rendezvous, whose transfer
        // orders both endpoints in every feasible schedule; a cond park
        // is a one-way waker → waiter signal edge. Mutex/WaitGroup
        // handoffs are schedule-induced and dropped; the wg must-order
        // comes from the explicit release→wait edge.
        auto target = static_cast<uint32_t>(ev.args[0]);
        const BlockSnap *snap = lastBlock(target);
        EventType parked = snap ? snap->type : EventType::NumEventTypes;
        bool rendezvous = policy_ == HbPolicy::Observed ||
                          parked == EventType::GoBlockSend ||
                          parked == EventType::GoBlockRecv ||
                          parked == EventType::GoBlockSelect;
        VectorClock &tv = vc_[target];
        if (rendezvous || parked == EventType::GoBlockCond)
            tv.join(me);
        if (rendezvous)
            me.join(tv);
        break;
      }

      case EventType::ChSend:
        if (ev.args[1] == 0 && ev.args[2] == 0) {
            // Pure buffered deposit: the value carries this clock.
            chanQueue_[ev.args[0]].push_back(me);
        }
        break;
      case EventType::ChRecv: {
        auto &q = chanQueue_[ev.args[0]];
        if (ev.args[3] == 1) {
            if (!q.empty()) {
                me.join(q.front());
                q.pop_front();
            }
        } else {
            // Closed-drain miss: ordered after the close.
            auto it = closeVc_.find(ev.args[0]);
            if (it != closeVc_.end())
                me.join(it->second);
        }
        break;
      }
      case EventType::ChClose:
        closeVc_[ev.args[0]] = me;
        break;

      // Select paths emit no Ch* events: a poll-phase transfer is
      // attributed at SelectEnd through the goroutine's open select.
      case EventType::SelectBegin:
        sel_[ev.gid] = OpenSelect{ev.args[0], {}};
        break;
      case EventType::SelectCase: {
        // Cases arrive in index order right after their SelectBegin. A
        // parsed trace can carry any index: one outside the open
        // select's [0, nCases), or past the next free slot, is ignored.
        auto it = sel_.find(ev.gid);
        if (it == sel_.end())
            break;
        OpenSelect &s = it->second;
        int64_t idx = ev.args[0];
        if (idx < 0 || idx >= s.nCases ||
            static_cast<size_t>(idx) > s.arms.size())
            break;
        if (static_cast<size_t>(idx) == s.arms.size())
            s.arms.emplace_back();
        s.arms[idx] = {ev.args[2], ev.args[1] != 0};
        break;
      }
      case EventType::SelectEnd: {
        if (const Arm *arm = pollArm(ev)) {
            if (arm->send) {
                if (ev.args[2] == 0) // nobody woken: buffered deposit
                    chanQueue_[arm->chan].push_back(me);
            } else {
                auto &q = chanQueue_[arm->chan];
                if (!q.empty()) {
                    me.join(q.front());
                    q.pop_front();
                } else if (closeVc_.count(arm->chan)) {
                    me.join(closeVc_[arm->chan]);
                }
            }
        }
        sel_.erase(ev.gid);
        break;
      }

      case EventType::MuLock:
      case EventType::RWLock:
      case EventType::RWRLock: {
        auto it = release_.find(ev.args[0]);
        if (it != release_.end())
            me.join(it->second);
        break;
      }
      case EventType::MuUnlock:
      case EventType::RWUnlock:
      case EventType::RWRUnlock:
        // Must: no unlock→lock edge — another schedule may grant the
        // lock in a different order. The unlock records no release
        // clock, so the next lock of this object finds none to join.
        if (policy_ == HbPolicy::Observed)
            release_[ev.args[0]].join(me);
        break;

      case EventType::WgAdd:
        if (ev.args[1] < 0)
            release_[ev.args[0]].join(me); // Done releases
        break;
      case EventType::WgWait: {
        auto it = release_.find(ev.args[0]);
        if (it != release_.end())
            me.join(it->second);
        break;
      }

      default:
        break;
    }
}

namespace {

/** One recorded shared access. */
struct Access
{
    uint32_t gid;
    bool write;
    SourceLoc loc;
    VectorClock vc;
};

} // namespace

RaceReport
detectRaces(const trace::Ect &ect)
{
    // Clocks are read only at accesses, so the walk ends at the last
    // one (GoKer kernels have none at all and skip it entirely).
    const std::vector<Event> &events = ect.events();
    size_t end = events.size();
    while (end > 0 && events[end - 1].type != EventType::VarRead &&
           events[end - 1].type != EventType::VarWrite)
        --end;
    if (end == 0)
        return RaceReport();

    HbWalker walker(HbPolicy::Observed);
    std::map<uint64_t, std::vector<Access>> accesses;
    for (size_t k = 0; k < end; ++k) {
        const Event &ev = events[k];
        const VectorClock &now = walker.tick(ev);
        if (ev.type == EventType::VarRead ||
            ev.type == EventType::VarWrite) {
            auto var = static_cast<uint64_t>(ev.args[0]);
            accesses[var].push_back(
                {ev.gid, ev.type == EventType::VarWrite, ev.loc, now});
        }
        walker.apply(ev);
    }

    // Conflicting, concurrent access pairs (deduplicated by location
    // pair per variable).
    RaceReport report;
    std::set<std::string> seen;
    for (const auto &[var, accs] : accesses) {
        for (size_t i = 0; i < accs.size(); ++i) {
            for (size_t j = i + 1; j < accs.size(); ++j) {
                const Access &a = accs[i];
                const Access &b = accs[j];
                if (a.gid == b.gid || (!a.write && !b.write))
                    continue;
                if (!VectorClock::concurrent(a.vc, b.vc))
                    continue;
                std::string key = strFormat(
                    "%lu/%s/%d-%s/%d",
                    static_cast<unsigned long>(var),
                    a.loc.str().c_str(), a.write ? 1 : 0,
                    b.loc.str().c_str(), b.write ? 1 : 0);
                if (!seen.insert(key).second)
                    continue;
                Race race;
                race.varId = var;
                race.gidA = a.gid;
                race.gidB = b.gid;
                race.locA = a.loc;
                race.locB = b.loc;
                race.writeA = a.write;
                race.writeB = b.write;
                report.races.push_back(race);
            }
        }
    }
    return report;
}

} // namespace goat::analysis
