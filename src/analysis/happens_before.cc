#include "analysis/happens_before.hh"

#include <algorithm>
#include <array>

#include "analysis/hb_scratch.hh"
#include "base/fmt.hh"

namespace goat::analysis {

using trace::Event;
using trace::EventType;

ClockPool::Row
ClockPool::add()
{
    counts_.resize(counts_.size() + width_, 0);
    return rows_++;
}

ClockPool::Row
ClockPool::copy(Row from)
{
    Row r = add();
    assign(r, from);
    return r;
}

void
ClockPool::assign(Row into, Row from)
{
    std::copy_n(counts_.begin() + size_t{from} * width_, width_,
                counts_.begin() + size_t{into} * width_);
}

void
ClockPool::join(Row into, Row from)
{
    uint32_t *dst = counts_.data() + size_t{into} * width_;
    const uint32_t *src = counts_.data() + size_t{from} * width_;
    for (uint32_t i = 0; i < width_; ++i)
        dst[i] = std::max(dst[i], src[i]);
}

bool
ClockPool::le(Row a, Row b) const
{
    const uint32_t *x = counts_.data() + size_t{a} * width_;
    const uint32_t *y = counts_.data() + size_t{b} * width_;
    for (uint32_t i = 0; i < width_; ++i)
        if (x[i] > y[i])
            return false;
    return true;
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

namespace {

/** Which argument of an event names its second slot, if any. */
enum class AuxArg : uint8_t
{
    None,
    /** args[0] is a target goroutine (GoCreate, GoUnblock). */
    Gid,
    /** args[0] is a channel, mutex or WaitGroup id. */
    Obj0,
    /** args[2] is a channel (SelectCase). */
    Obj2,
};

/** AuxArg by event type: a table, not a switch, on the per-event path. */
constexpr auto kAuxArg = [] {
    std::array<AuxArg, static_cast<size_t>(EventType::NumEventTypes) + 1> t{};
    t[static_cast<size_t>(EventType::GoCreate)] = AuxArg::Gid;
    t[static_cast<size_t>(EventType::GoUnblock)] = AuxArg::Gid;
    for (EventType e :
         {EventType::ChMake, EventType::ChSend, EventType::ChRecv,
          EventType::ChClose, EventType::MuLock, EventType::MuUnlock,
          EventType::RWLock, EventType::RWUnlock, EventType::RWRLock,
          EventType::RWRUnlock, EventType::WgAdd, EventType::WgWait})
        t[static_cast<size_t>(e)] = AuxArg::Obj0;
    t[static_cast<size_t>(EventType::SelectCase)] = AuxArg::Obj2;
    return t;
}();

AuxArg
auxArg(const Event &ev)
{
    return kAuxArg[static_cast<size_t>(ev.type)];
}

/** The id named by argument @p aux (not None) of @p ev. */
int64_t
auxId(const Event &ev, AuxArg aux)
{
    return ev.args[aux == AuxArg::Obj2 ? 2 : 0];
}

} // namespace

void
HbWalker::begin(const trace::Ect &ect, size_t end, HbPolicy policy)
{
    policy_ = policy;
    events_ = ect.events().data();

    // The pre-scan: every gid that acts or is targeted, every object
    // id, each to a slot in id order. Runs of one gid are common, so
    // a repeat of the last gid is not collected. The walk's length
    // bounds a direct slot table (ids a run hands out are small and
    // dense).
    gidIds_.clear();
    objIds_.clear();
    for (size_t k = 0; k < end; ++k) {
        const Event &ev = events_[k];
        if (gidIds_.empty() || gidIds_.back() != ev.gid)
            gidIds_.push_back(ev.gid);
        const AuxArg aux = auxArg(ev);
        if (aux == AuxArg::Gid)
            gidIds_.push_back(static_cast<uint32_t>(auxId(ev, aux)));
        else if (aux != AuxArg::None)
            objIds_.push_back(auxId(ev, aux));
    }
    gids_.build(gidIds_, 2 * end + 64);
    objs_.build(objIds_, 2 * end + 64);

    slots_.resize(end);
    for (size_t k = 0; k < end; ++k) {
        const Event &ev = events_[k];
        Slots &s = slots_[k];
        s.gid = gids_.slot(ev.gid);
        const AuxArg aux = auxArg(ev);
        s.aux = aux == AuxArg::None ? kNone
                : aux == AuxArg::Gid
                    ? gids_.slot(static_cast<uint32_t>(auxId(ev, aux)))
                    : objs_.slot(auxId(ev, aux));
    }

    const size_t g = gids_.size();
    clocks_.reset(static_cast<uint32_t>(g), static_cast<uint32_t>(g));
    snaps_.assign(g, BlockSnap{});
    if (sel_.size() < g)
        sel_.resize(g);
    for (size_t i = 0; i < g; ++i) {
        sel_[i].open = false;
        sel_[i].arms.clear();
    }
    objState_.assign(objs_.size(), ObjState{});
    deposits_.clear();
}

const HbWalker::Arm *
HbWalker::pollArm(size_t k) const
{
    const Event &end = events_[k];
    const OpenSelect &s = sel_[slots_[k].gid];
    int64_t chosen = end.args[0];
    bool blocked_first = end.args[1] != 0;
    if (!s.open || chosen < 0 || blocked_first ||
        static_cast<size_t>(chosen) >= s.arms.size())
        return nullptr; // default / park path: GoUnblock covered it
    return &s.arms[chosen];
}

std::string
HbWalker::clockStr(Row r) const
{
    std::string out = "{";
    for (uint32_t i = 0; i < clocks_.width(); ++i) {
        uint32_t n = clocks_.at(r, i);
        if (n == 0)
            continue;
        if (out.size() > 1)
            out += ',';
        out += 'g';
        out += std::to_string(gids_.id(i));
        out += ':';
        out += std::to_string(n);
    }
    out += '}';
    return out;
}

void
HbWalker::deposit(uint32_t obj, Row clock)
{
    auto d = static_cast<uint32_t>(deposits_.size());
    deposits_.push_back({clocks_.copy(clock), kNone});
    ObjState &o = objState_[obj];
    if (o.tail == kNone)
        o.head = d;
    else
        deposits_[o.tail].next = d;
    o.tail = d;
}

bool
HbWalker::receive(uint32_t obj, Row me)
{
    ObjState &o = objState_[obj];
    if (o.head == kNone)
        return false;
    clocks_.join(me, deposits_[o.head].clock);
    o.head = deposits_[o.head].next;
    if (o.head == kNone)
        o.tail = kNone;
    return true;
}

void
HbWalker::joinClose(uint32_t obj, Row me)
{
    if (objState_[obj].close != kNone)
        clocks_.join(me, objState_[obj].close);
}

HbWalker::Row
HbWalker::releaseOf(uint32_t obj)
{
    Row &r = objState_[obj].release;
    if (r == kNone)
        r = clocks_.add();
    return r;
}

void
HbWalker::apply(size_t k)
{
    const Event &ev = events_[k];
    const Slots s = slots_[k];
    const Row me = s.gid;
    switch (ev.type) {
      case EventType::GoCreate:
        clocks_.join(s.aux, me);
        break;

      case EventType::GoBlockSend:
      case EventType::GoBlockRecv:
      case EventType::GoBlockSelect:
      case EventType::GoBlockSync:
      case EventType::GoBlockCond:
        if (policy_ == HbPolicy::Must) {
            BlockSnap &snap = snaps_[s.gid];
            Row pre = snap.type == EventType::NumEventTypes
                          ? clocks_.add()
                          : snap.pre;
            clocks_.assign(pre, me);
            snap = {ev.type, ev.args[0], ev.loc, ev.ts, pre};
        }
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
        const BlockSnap *snap = lastBlock(s.aux);
        EventType parked = snap ? snap->type : EventType::NumEventTypes;
        bool rendezvous = policy_ == HbPolicy::Observed ||
                          parked == EventType::GoBlockSend ||
                          parked == EventType::GoBlockRecv ||
                          parked == EventType::GoBlockSelect;
        const Row target = s.aux;
        if (rendezvous || parked == EventType::GoBlockCond)
            clocks_.join(target, me);
        if (rendezvous)
            clocks_.join(me, target);
        break;
      }

      case EventType::ChSend:
        if (ev.args[1] == 0 && ev.args[2] == 0) {
            // Pure buffered deposit: the value carries this clock.
            deposit(s.aux, me);
        }
        break;
      case EventType::ChRecv:
        if (ev.args[3] == 1)
            receive(s.aux, me);
        else
            joinClose(s.aux, me); // closed-drain miss: after the close
        break;
      case EventType::ChClose: {
        Row &close = objState_[s.aux].close;
        if (close == kNone)
            close = clocks_.add();
        clocks_.assign(close, me);
        break;
      }

      // Select paths emit no Ch* events: a poll-phase transfer is
      // attributed at SelectEnd through the goroutine's open select.
      case EventType::SelectBegin: {
        OpenSelect &sel = sel_[s.gid];
        sel.open = true;
        sel.nCases = ev.args[0];
        sel.arms.clear();
        break;
      }
      case EventType::SelectCase: {
        // Cases arrive in index order right after their SelectBegin. A
        // parsed trace can carry any index: one outside the open
        // select's [0, nCases), or past the next free slot, is ignored.
        OpenSelect &sel = sel_[s.gid];
        if (!sel.open)
            break;
        int64_t idx = ev.args[0];
        if (idx < 0 || idx >= sel.nCases ||
            static_cast<size_t>(idx) > sel.arms.size())
            break;
        if (static_cast<size_t>(idx) == sel.arms.size())
            sel.arms.emplace_back();
        sel.arms[idx] = {ev.args[2], s.aux, ev.args[1] != 0};
        break;
      }
      case EventType::SelectEnd: {
        if (const Arm *arm = pollArm(k)) {
            if (arm->send) {
                if (ev.args[2] == 0) // nobody woken: buffered deposit
                    deposit(arm->chanSlot, me);
            } else if (!receive(arm->chanSlot, me)) {
                joinClose(arm->chanSlot, me);
            }
        }
        sel_[s.gid].open = false;
        break;
      }

      case EventType::MuLock:
      case EventType::RWLock:
      case EventType::RWRLock:
      case EventType::WgWait:
        if (objState_[s.aux].release != kNone)
            clocks_.join(me, objState_[s.aux].release);
        break;
      case EventType::MuUnlock:
      case EventType::RWUnlock:
      case EventType::RWRUnlock:
        // Must: no unlock→lock edge — another schedule may grant the
        // lock in a different order. The unlock records no release
        // clock, so the next lock of this object finds none to join.
        if (policy_ == HbPolicy::Observed)
            clocks_.join(releaseOf(s.aux), me);
        break;

      case EventType::WgAdd:
        if (ev.args[1] < 0)
            clocks_.join(releaseOf(s.aux), me); // Done releases
        break;

      default:
        break;
    }
}

namespace {

/**
 * One past the last VarRead/VarWrite of @p ect. Clocks are read only at
 * accesses, so the race walk ends there (GoKer kernels have none at
 * all and skip it entirely).
 */
size_t
accessEnd(const trace::Ect &ect)
{
    const std::vector<Event> &events = ect.events();
    size_t end = events.size();
    while (end > 0 && events[end - 1].type != EventType::VarRead &&
           events[end - 1].type != EventType::VarWrite)
        --end;
    return end;
}

} // namespace

RaceReport
detectRaces(const trace::Ect &ect)
{
    if (accessEnd(ect) == 0)
        return RaceReport();
    HbScratch scratch;
    return detectRaces(ect, scratch);
}

RaceReport
detectRaces(const trace::Ect &ect, HbScratch &scratch)
{
    const std::vector<Event> &events = ect.events();
    const size_t end = accessEnd(ect);
    if (end == 0)
        return RaceReport();

    HbWalker &walker = scratch.walker;
    walker.begin(ect, end, HbPolicy::Observed);
    ClockPool &clocks = walker.clocks();
    std::vector<hb::Access> &accs = scratch.accesses;
    accs.clear();
    for (size_t k = 0; k < end; ++k) {
        const Event &ev = events[k];
        const ClockPool::Row now = walker.tick(k);
        if (ev.type == EventType::VarRead ||
            ev.type == EventType::VarWrite)
            accs.push_back({static_cast<uint64_t>(ev.args[0]), ev.gid,
                            ev.type == EventType::VarWrite, ev.loc,
                            clocks.copy(now)});
        walker.apply(k);
    }

    // Accesses grouped by variable, in variable order, each group in
    // walk order.
    std::vector<uint32_t> &order = scratch.byVar;
    order.resize(accs.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<uint32_t>(i);
    std::sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
        return accs[x].var != accs[y].var ? accs[x].var < accs[y].var
                                          : x < y;
    });

    // Conflicting, concurrent access pairs (deduplicated by location
    // pair per variable).
    RaceReport report;
    for (size_t lo = 0, hi; lo < order.size(); lo = hi) {
        const uint64_t var = accs[order[lo]].var;
        for (hi = lo; hi < order.size() && accs[order[hi]].var == var;)
            ++hi;
        const size_t first_race = report.races.size();
        for (size_t i = lo; i < hi; ++i) {
            for (size_t j = i + 1; j < hi; ++j) {
                const hb::Access &a = accs[order[i]];
                const hb::Access &b = accs[order[j]];
                if (a.gid == b.gid || (!a.write && !b.write))
                    continue;
                if (!clocks.concurrent(a.vc, b.vc))
                    continue;
                auto same = [&](const Race &r) {
                    return r.writeA == a.write && r.writeB == b.write &&
                           r.locA == a.loc && r.locB == b.loc;
                };
                if (std::any_of(report.races.begin() + first_race,
                                report.races.end(), same))
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
