#include "analysis/hb_predict.hh"

#include <algorithm>
#include <map>
#include <set>

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
    std::set<std::string> seen;
    std::vector<Prediction> out;
    out.reserve(predictions.size());
    for (Prediction &p : predictions)
        if (seen.insert(p.key()).second)
            out.push_back(std::move(p));
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

/** One held lock of a goroutine (its lock stack). */
struct HeldLock
{
    int64_t obj = 0;
    bool exclusive = true;
    /** Acquire site — the confirmation delay target for P1. */
    SourceLoc loc;
};

/**
 * One witnessing event: goroutine, site, trace timestamp, and the
 * pre-event must-clock. Channel sends and closes (P2 material) are
 * recorded as bare witnesses.
 */
struct Witness
{
    uint32_t gid = 0;
    SourceLoc loc;
    uint64_t ts = 0;
    VectorClock pre;
};

/** A recorded WaitGroup wait or release (P1 material). */
struct WgOp
{
    Witness at;
    std::vector<HeldLock> held;
};

/** One lock-nesting step: `inner` acquired (at `at`) holding `outer`. */
struct Gadget
{
    Witness at;
    int64_t outer = 0, inner = 0;
    bool outerExcl = true, innerExcl = true;
};

/** An observed rendezvous handoff into a polling select (P3). */
struct LostCand
{
    int64_t chan = 0;
    Witness sender, sel;
};

/** A select's entry point, carried from SelectBegin to its End (P3). */
struct SelEntry
{
    bool hasDefault = false;
    Witness at;
};

/** The acting goroutine of @p ev at its pre-edge clock @p pre. */
Witness
witness(const Event &ev, const VectorClock &pre)
{
    return {ev.gid, ev.loc, ev.ts, pre};
}

/** Goroutine @p gid at its last park @p snap (its attempt point). */
Witness
parkedWitness(uint32_t gid, const BlockSnap &snap)
{
    return {gid, snap.loc, snap.ts, snap.pre};
}

/** A prediction of @p kind on @p obj, witnessed by @p a then @p b. */
Prediction
predicted(PredictionKind kind, int64_t obj, const Witness &a,
          const Witness &b)
{
    Prediction p;
    p.kind = kind;
    p.obj = obj;
    p.gidA = a.gid;
    p.locA = a.loc;
    p.tsA = a.ts;
    p.vcA = a.pre.str();
    p.gidB = b.gid;
    p.locB = b.loc;
    p.tsB = b.ts;
    p.vcB = b.pre.str();
    return p;
}

/** Two lock-hold modes conflict unless both are shared (read) holds. */
bool
lockConflict(bool exclA, bool exclB)
{
    return exclA || exclB;
}

bool
heldIntersect(const std::vector<HeldLock> &a,
              const std::vector<HeldLock> &b, HeldLock *shared_of_b)
{
    for (const HeldLock &x : a) {
        for (const HeldLock &y : b) {
            if (x.obj == y.obj && lockConflict(x.exclusive, y.exclusive)) {
                if (shared_of_b)
                    *shared_of_b = y;
                return true;
            }
        }
    }
    return false;
}

} // namespace

PredictionReport
predictBlockingBugs(const trace::Ect &ect)
{
    // Phase one: one forward pass under the must policy, recording the
    // operations phase two matches over.
    HbWalker walker(HbPolicy::Must);
    std::map<uint32_t, SelEntry> selEntry;
    // Most recent GoUnblock by a gid that woke a parked *sender*
    // (cleared by any other event of that gid): the sender's channel
    // and attempt point, the handoff a subsequent SelectEnd of the
    // same goroutine attributes.
    std::map<uint32_t, std::pair<int64_t, Witness>> pendingWake;
    std::map<int64_t, int64_t> chanCap;
    std::map<uint32_t, std::vector<HeldLock>> held;

    std::map<int64_t, std::vector<Witness>> sends, closes;
    std::map<int64_t, std::vector<WgOp>> wgWaits, wgDones;
    std::vector<Gadget> gadgets;
    std::vector<LostCand> lostCands;

    for (const Event &ev : ect.events()) {
        // The must-clock before any join this event causes.
        const VectorClock &must = walker.tick(ev);

        if (ev.type != EventType::GoUnblock &&
            ev.type != EventType::SelectEnd)
            pendingWake.erase(ev.gid);

        switch (ev.type) {
          case EventType::GoUnblock: {
            auto target = static_cast<uint32_t>(ev.args[0]);
            const BlockSnap *snap = walker.lastBlock(target);
            if (snap && snap->type == EventType::GoBlockSend)
                pendingWake[ev.gid] = {snap->obj,
                                       parkedWitness(target, *snap)};
            break;
          }

          case EventType::ChMake:
            chanCap[ev.args[0]] = ev.args[1];
            break;

          case EventType::ChSend: {
            // P2 endpoint. A parked send's attempt point is its
            // GoBlockSend (the post-wake ChSend clock already carries
            // the partner's history).
            const BlockSnap *snap = walker.lastBlock(ev.gid);
            if (ev.args[1] == 1 && snap &&
                snap->type == EventType::GoBlockSend)
                sends[ev.args[0]].push_back(parkedWitness(ev.gid, *snap));
            else
                sends[ev.args[0]].push_back(witness(ev, must));
            break;
          }
          case EventType::ChClose:
            closes[ev.args[0]].push_back(witness(ev, must));
            break;

          case EventType::SelectBegin:
            selEntry[ev.gid] = {ev.args[1] != 0, witness(ev, must)};
            break;
          case EventType::SelectEnd: {
            auto se = selEntry.find(ev.gid);
            if (se == selEntry.end())
                break;
            const SelEntry entry = std::move(se->second);
            selEntry.erase(se);
            // P3 candidate: the poll phase of a select with a default
            // consumed a rendezvous sender. Had the poll run first,
            // the default would have fired and stranded that sender.
            const HbWalker::Arm *arm = walker.pollArm(ev);
            bool woke = ev.args[2] != 0;
            auto pw = pendingWake.find(ev.gid);
            if (arm && entry.hasDefault && !arm->send && woke &&
                pw != pendingWake.end() && pw->second.first == arm->chan &&
                chanCap[arm->chan] == 0)
                lostCands.push_back({arm->chan, pw->second.second, entry.at});
            pendingWake.erase(ev.gid);
            break;
          }

          case EventType::MuLock:
          case EventType::RWLock:
          case EventType::RWRLock: {
            bool excl = ev.type != EventType::RWRLock;
            std::vector<HeldLock> &hs = held[ev.gid];
            for (const HeldLock &h : hs) {
                if (h.obj != ev.args[0])
                    gadgets.push_back({witness(ev, must), h.obj, ev.args[0],
                                       h.exclusive, excl});
            }
            hs.push_back({ev.args[0], excl, ev.loc});
            break;
          }
          case EventType::MuUnlock:
          case EventType::RWUnlock:
          case EventType::RWRUnlock: {
            std::vector<HeldLock> &hs = held[ev.gid];
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
                wgDones[ev.args[0]].push_back({witness(ev, must),
                                               held[ev.gid]});
            break;
          case EventType::WgWait:
            // Captured before the release→wait join of apply().
            wgWaits[ev.args[0]].push_back({witness(ev, must), held[ev.gid]});
            break;

          default:
            break;
        }
        walker.apply(ev);
    }

    // Phase two: search the recorded operations for alternative
    // matchings that block, crash, or lose a signal.
    PredictionReport report;

    // P4 — lock-order inversion: gadget pairs nesting two locks in
    // opposite orders with must-concurrent inner acquires.
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
            if (!VectorClock::concurrent(a.at.pre, b.at.pre))
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

    // P1 — lock-gated wait: a WaitGroup wait under a held lock whose
    // releasing Done runs under an intersecting lock.
    for (const auto &[wg, waits] : wgWaits) {
        auto dit = wgDones.find(wg);
        if (dit == wgDones.end())
            continue;
        for (const WgOp &w : waits) {
            if (w.held.empty())
                continue;
            for (const WgOp &r : dit->second) {
                if (w.at.gid == r.at.gid)
                    continue;
                HeldLock gate;
                if (!heldIntersect(w.held, r.held, &gate))
                    continue;
                if (!VectorClock::concurrent(w.at.pre, r.at.pre))
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

    // P2 — close/send race: a send and a close on the same channel
    // with no must-order; reordering panics the sender.
    for (const auto &[chan, ss] : sends) {
        auto cit = closes.find(chan);
        if (cit == closes.end())
            continue;
        for (const Witness &s : ss) {
            for (const Witness &c : cit->second) {
                if (s.gid == c.gid)
                    continue;
                if (!VectorClock::concurrent(s.pre, c.pre))
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
    for (const LostCand &lc : lostCands) {
        if (!VectorClock::concurrent(lc.sel.pre, lc.sender.pre))
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
