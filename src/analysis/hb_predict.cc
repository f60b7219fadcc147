#include "analysis/hb_predict.hh"

#include <algorithm>

#include "analysis/hb_scratch.hh"
#include "base/fmt.hh"

namespace goat::analysis {

using trace::Event;
using trace::EventType;

const char *
predictionKindName(PredictionKind k)
{
    switch (k) {
      case PredictionKind::LockGatedWait:
        return "lock_gated_wait";
      case PredictionKind::CloseSendRace:
        return "close_send_race";
      case PredictionKind::LostSignal:
        return "lost_signal";
      case PredictionKind::LockOrderInversion:
        return "lock_order_inversion";
    }
    return "?";
}

std::string
Prediction::key() const
{
    // Site pair in lexical order: which witness the analyzed schedule
    // happened to execute first is not part of the bug's identity.
    std::string sa = locA.str(), sb = locB.str();
    if (sb < sa)
        std::swap(sa, sb);
    return strFormat("%s/%s/%s/%lld/%lld", predictionKindName(kind),
                     sa.c_str(), sb.c_str(),
                     static_cast<long long>(obj),
                     static_cast<long long>(obj2));
}

std::string
Prediction::str() const
{
    std::string out = strFormat(
        "predicted %s on obj %lld: g%u at %s vs g%u at %s — %s",
        predictionKindName(kind), static_cast<long long>(obj), gidA,
        locA.str().c_str(), gidB, locB.str().c_str(), detail.c_str());
    if (confirmed)
        out += strFormat(" [confirmed: %s]", confirmVerdict.c_str());
    return out;
}

std::string
Prediction::jsonStr() const
{
    std::string out = strFormat(
        "{\"kind\":\"%s\",\"iter\":%d,\"obj\":%lld,\"obj2\":%lld,"
        "\"gid_a\":%u,\"loc_a\":\"%s\",\"ts_a\":%llu,\"vc_a\":\"%s\","
        "\"gid_b\":%u,\"loc_b\":\"%s\",\"ts_b\":%llu,\"vc_b\":\"%s\","
        "\"delay_gid\":%u,\"delay_loc\":\"%s\",\"detail\":\"%s\","
        "\"confirmed\":%s",
        predictionKindName(kind), iteration,
        static_cast<long long>(obj), static_cast<long long>(obj2),
        gidA, jsonEscape(locA.str()).c_str(),
        static_cast<unsigned long long>(tsA),
        jsonEscape(vcA).c_str(), gidB, jsonEscape(locB.str()).c_str(),
        static_cast<unsigned long long>(tsB), jsonEscape(vcB).c_str(),
        delayGid, jsonEscape(delayLoc.str()).c_str(),
        jsonEscape(detail).c_str(), confirmed ? "true" : "false");
    if (confirmed)
        out += strFormat(",\"confirm_verdict\":\"%s\"",
                         jsonEscape(confirmVerdict).c_str());
    out += "}";
    return out;
}

int
PredictionReport::confirmedCount() const
{
    int n = 0;
    for (const Prediction &p : predictions)
        n += p.confirmed ? 1 : 0;
    return n;
}

void
PredictionReport::canonicalize()
{
    std::sort(predictions.begin(), predictions.end(),
              [](const Prediction &a, const Prediction &b) {
                  std::string ka = a.key(), kb = b.key();
                  if (ka != kb)
                      return ka < kb;
                  return a.tsA < b.tsA;
              });
    // Sorted by key, so duplicates are adjacent: keep the first of each.
    std::vector<Prediction> out;
    out.reserve(predictions.size());
    std::string last;
    for (Prediction &p : predictions) {
        std::string key = p.key();
        if (!out.empty() && key == last)
            continue;
        last = std::move(key);
        out.push_back(std::move(p));
    }
    predictions = std::move(out);
}

std::string
PredictionReport::str() const
{
    std::string out;
    for (const Prediction &p : predictions) {
        out += p.str();
        out += '\n';
    }
    return out;
}

std::string
PredictionReport::jsonDocStr(const std::string &kernel) const
{
    std::string out = strFormat(
        "{\"kernel\":\"%s\",\"predicted\":%zu,\"confirmed\":%d,"
        "\"predictions\":[",
        jsonEscape(kernel).c_str(), predictions.size(),
        confirmedCount());
    for (size_t i = 0; i < predictions.size(); ++i) {
        if (i)
            out += ',';
        out += predictions[i].jsonStr();
    }
    out += "]}";
    return out;
}

namespace {

using hb::Gadget;
using hb::HeldLock;
using hb::LostCand;
using hb::WgOp;
using hb::Witness;
using Row = ClockPool::Row;

/** Two lock-hold modes conflict unless both are shared (read) holds. */
bool
lockConflict(bool exclA, bool exclB)
{
    return exclA || exclB;
}

/** Locks held by a recorded WaitGroup operation. */
struct HeldSpan
{
    const HeldLock *begin, *end;
};

bool
heldIntersect(HeldSpan a, HeldSpan b, HeldLock *shared_of_b)
{
    for (const HeldLock *x = a.begin; x != a.end; ++x) {
        for (const HeldLock *y = b.begin; y != b.end; ++y) {
            if (x->obj == y->obj &&
                lockConflict(x->exclusive, y->exclusive)) {
                if (shared_of_b)
                    *shared_of_b = *y;
                return true;
            }
        }
    }
    return false;
}

/**
 * Size a per-slot table of lists to @p n and empty its first @p n
 * lists. Lists past @p n keep their capacity (and stale contents,
 * which no walk of @p n slots reads).
 */
template <typename T>
void
resetLists(std::vector<std::vector<T>> &lists, size_t n)
{
    if (lists.size() < n)
        lists.resize(n);
    for (size_t i = 0; i < n; ++i)
        lists[i].clear();
}

/**
 * Reset phase one's tables for a walk of @p g goroutine slots and
 * @p o object slots.
 */
void
resetPhaseOne(HbScratch &hb, size_t g, size_t o)
{
    resetLists(hb.held, g);
    hb.selEntry.assign(g, {});
    hb.pendingWake.assign(g, {});
    hb.chanCap.assign(o, 0);
    resetLists(hb.sends, o);
    resetLists(hb.closes, o);
    resetLists(hb.wgWaits, o);
    resetLists(hb.wgDones, o);
    hb.heldCopies.clear();
    hb.gadgets.clear();
    hb.lostCands.clear();
}

} // namespace

PredictionReport
predictBlockingBugs(const trace::Ect &ect)
{
    HbScratch scratch;
    return predictBlockingBugs(ect, scratch);
}

PredictionReport
predictBlockingBugs(const trace::Ect &ect, HbScratch &hb)
{
    // Phase one: one forward pass under the must policy, recording the
    // operations phase two matches over.
    const std::vector<Event> &events = ect.events();
    HbWalker &walker = hb.walker;
    walker.begin(ect, events.size(), HbPolicy::Must);
    ClockPool &clocks = walker.clocks();
    resetPhaseOne(hb, walker.gidSlots(), walker.objSlots());

    // Goroutine @p gid at its last park @p snap (its attempt point).
    auto parked = [&](uint32_t gid, const BlockSnap &snap) {
        return Witness{gid, snap.loc, snap.ts, clocks.copy(snap.pre)};
    };
    // The locks goroutine slot @p g holds, copied for a WgOp.
    auto heldNow = [&](uint32_t g, const Witness &at) {
        auto begin = static_cast<uint32_t>(hb.heldCopies.size());
        hb.heldCopies.insert(hb.heldCopies.end(), hb.held[g].begin(),
                             hb.held[g].end());
        return WgOp{at, begin,
                    static_cast<uint32_t>(hb.heldCopies.size())};
    };

    for (size_t k = 0; k < events.size(); ++k) {
        const Event &ev = events[k];
        // The must-clock before any join this event causes, copied
        // once for all the witnesses this event records.
        const Row must = walker.tick(k);
        const uint32_t g = walker.gidSlot(k), aux = walker.auxSlot(k);
        Row snapshot = UINT32_MAX;
        auto here = [&] {
            if (snapshot == UINT32_MAX)
                snapshot = clocks.copy(must);
            return Witness{ev.gid, ev.loc, ev.ts, snapshot};
        };

        // Most recent GoUnblock by this goroutine that woke a parked
        // *sender* (cleared by any other event of the goroutine): the
        // handoff a subsequent SelectEnd of it attributes.
        hb::PendingWake &pw = hb.pendingWake[g];
        if (ev.type != EventType::GoUnblock &&
            ev.type != EventType::SelectEnd)
            pw.set = false;

        switch (ev.type) {
          case EventType::GoUnblock: {
            const BlockSnap *snap = walker.lastBlock(aux);
            if (snap && snap->type == EventType::GoBlockSend)
                pw = {true, snap->obj,
                      parked(static_cast<uint32_t>(ev.args[0]), *snap)};
            break;
          }

          case EventType::ChMake:
            hb.chanCap[aux] = ev.args[1];
            break;

          case EventType::ChSend: {
            // P2 endpoint. A parked send's attempt point is its
            // GoBlockSend (the post-wake ChSend clock already carries
            // the partner's history).
            const BlockSnap *snap = walker.lastBlock(g);
            if (ev.args[1] == 1 && snap &&
                snap->type == EventType::GoBlockSend)
                hb.sends[aux].push_back(parked(ev.gid, *snap));
            else
                hb.sends[aux].push_back(here());
            break;
          }
          case EventType::ChClose:
            hb.closes[aux].push_back(here());
            break;

          case EventType::SelectBegin:
            hb.selEntry[g] = {true, ev.args[1] != 0, here()};
            break;
          case EventType::SelectEnd: {
            hb::SelEntry &entry = hb.selEntry[g];
            if (!entry.open)
                break;
            entry.open = false;
            // P3 candidate: the poll phase of a select with a default
            // consumed a rendezvous sender. Had the poll run first,
            // the default would have fired and stranded that sender.
            const HbWalker::Arm *arm = walker.pollArm(k);
            bool woke = ev.args[2] != 0;
            if (arm && entry.hasDefault && !arm->send && woke && pw.set &&
                pw.chan == arm->chan && hb.chanCap[arm->chanSlot] == 0)
                hb.lostCands.push_back({arm->chan, pw.sender, entry.at});
            pw.set = false;
            break;
          }

          case EventType::MuLock:
          case EventType::RWLock:
          case EventType::RWRLock: {
            bool excl = ev.type != EventType::RWRLock;
            std::vector<HeldLock> &hs = hb.held[g];
            for (const HeldLock &h : hs) {
                if (h.obj != ev.args[0])
                    hb.gadgets.push_back({here(), h.obj, ev.args[0],
                                          h.exclusive, excl});
            }
            hs.push_back({ev.args[0], excl, ev.loc});
            break;
          }
          case EventType::MuUnlock:
          case EventType::RWUnlock:
          case EventType::RWRUnlock: {
            std::vector<HeldLock> &hs = hb.held[g];
            for (auto it = hs.rbegin(); it != hs.rend(); ++it) {
                if (it->obj == ev.args[0]) {
                    hs.erase(std::next(it).base());
                    break;
                }
            }
            break;
          }

          case EventType::WgAdd:
            if (ev.args[1] < 0)
                hb.wgDones[aux].push_back(heldNow(g, here()));
            break;
          case EventType::WgWait:
            // Captured before the release→wait join of apply().
            hb.wgWaits[aux].push_back(heldNow(g, here()));
            break;

          default:
            break;
        }
        walker.apply(k);
    }

    // Phase two: search the recorded operations for alternative
    // matchings that block, crash, or lose a signal.
    PredictionReport report;

    // A prediction of @p kind on @p obj, witnessed by @p a then @p b.
    auto predicted = [&](PredictionKind kind, int64_t obj, const Witness &a,
                         const Witness &b) {
        Prediction p;
        p.kind = kind;
        p.obj = obj;
        p.gidA = a.gid;
        p.locA = a.loc;
        p.tsA = a.ts;
        p.vcA = walker.clockStr(a.pre);
        p.gidB = b.gid;
        p.locB = b.loc;
        p.tsB = b.ts;
        p.vcB = walker.clockStr(b.pre);
        return p;
    };
    auto heldOf = [&](const WgOp &op) {
        const HeldLock *base = hb.heldCopies.data();
        return HeldSpan{base + op.heldBegin, base + op.heldEnd};
    };

    // P4 — lock-order inversion: gadget pairs nesting two locks in
    // opposite orders with must-concurrent inner acquires.
    const std::vector<Gadget> &gadgets = hb.gadgets;
    for (size_t i = 0; i < gadgets.size(); ++i) {
        for (size_t j = i + 1; j < gadgets.size(); ++j) {
            const Gadget &a = gadgets[i]; // earlier inner acquire
            const Gadget &b = gadgets[j];
            if (a.at.gid == b.at.gid)
                continue;
            if (a.inner != b.outer || a.outer != b.inner)
                continue;
            if (!lockConflict(a.innerExcl, b.outerExcl) ||
                !lockConflict(b.innerExcl, a.outerExcl))
                continue;
            if (!clocks.concurrent(a.at.pre, b.at.pre))
                continue;
            Prediction p = predicted(PredictionKind::LockOrderInversion,
                                     a.outer, a.at, b.at);
            p.obj2 = a.inner;
            p.detail = strFormat(
                "g%u nests lock %lld→%lld while g%u nests %lld→%lld; "
                "interleaving the acquires deadlocks both",
                a.at.gid, static_cast<long long>(a.outer),
                static_cast<long long>(a.inner), b.at.gid,
                static_cast<long long>(b.outer),
                static_cast<long long>(b.inner));
            // Suspend the earlier nester between its two acquires so
            // the other goroutine takes the inner lock first.
            p.delayGid = a.at.gid;
            p.delayLoc = a.at.loc;
            report.predictions.push_back(std::move(p));
        }
    }

    // Object slots run in id order, so P1 and P2 visit objects in the
    // same order as an id-keyed map would.
    for (uint32_t o = 0; o < walker.objSlots(); ++o) {
        // P1 — lock-gated wait: a WaitGroup wait under a held lock
        // whose releasing Done runs under an intersecting lock.
        const int64_t wg = walker.objId(o);
        for (const WgOp &w : hb.wgWaits[o]) {
            if (w.heldBegin == w.heldEnd)
                continue;
            for (const WgOp &r : hb.wgDones[o]) {
                if (w.at.gid == r.at.gid)
                    continue;
                HeldLock gate;
                if (!heldIntersect(heldOf(w), heldOf(r), &gate))
                    continue;
                if (!clocks.concurrent(w.at.pre, r.at.pre))
                    continue;
                bool waitFirst = w.at.ts < r.at.ts;
                Prediction p = predicted(PredictionKind::LockGatedWait, wg,
                                         waitFirst ? w.at : r.at,
                                         waitFirst ? r.at : w.at);
                p.obj2 = gate.obj;
                p.detail = strFormat(
                    "g%u waits on wg %lld holding lock %lld, which "
                    "g%u needs before its Done; waiting first "
                    "deadlocks both",
                    w.at.gid, static_cast<long long>(wg),
                    static_cast<long long>(gate.obj), r.at.gid);
                // Suspend the releaser before it takes the gate lock
                // so the waiter acquires it and parks first.
                p.delayGid = r.at.gid;
                p.delayLoc = gate.loc;
                report.predictions.push_back(std::move(p));
            }
        }
    }
    for (uint32_t o = 0; o < walker.objSlots(); ++o) {
        // P2 — close/send race: a send and a close on the same channel
        // with no must-order; reordering panics the sender.
        const int64_t chan = walker.objId(o);
        for (const Witness &s : hb.sends[o]) {
            for (const Witness &c : hb.closes[o]) {
                if (s.gid == c.gid)
                    continue;
                if (!clocks.concurrent(s.pre, c.pre))
                    continue;
                Prediction p = predicted(PredictionKind::CloseSendRace,
                                         chan, s.ts < c.ts ? s : c,
                                         s.ts < c.ts ? c : s);
                p.detail = strFormat(
                    "g%u's send on chan %lld is unordered against "
                    "g%u's close; closing first panics the sender",
                    s.gid, static_cast<long long>(chan), c.gid);
                p.delayGid = s.gid;
                p.delayLoc = s.loc;
                report.predictions.push_back(std::move(p));
            }
        }
    }

    // P3 — lost poll signal: the observed partner of a rendezvous
    // send was a select arm backed by a default case.
    for (const LostCand &lc : hb.lostCands) {
        if (!clocks.concurrent(lc.sel.pre, lc.sender.pre))
            continue;
        Prediction p = predicted(PredictionKind::LostSignal, lc.chan,
                                 lc.sender, lc.sel);
        p.detail = strFormat(
            "g%u's rendezvous send on chan %lld was consumed by "
            "g%u's non-blocking select; polling first takes the "
            "default and strands the sender",
            lc.sender.gid, static_cast<long long>(lc.chan), lc.sel.gid);
        p.delayGid = lc.sender.gid;
        p.delayLoc = lc.sender.loc;
        report.predictions.push_back(std::move(p));
    }

    report.canonicalize();
    return report;
}

} // namespace goat::analysis
