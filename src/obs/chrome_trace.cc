#include "obs/chrome_trace.hh"

#include <cstdio>
#include <map>
#include <sstream>
#include <vector>

#include "base/fileio.hh"
#include "base/fmt.hh"
#include "runtime/goroutine.hh"
#include "trace/event.hh"

namespace goat::obs {

using trace::Ect;
using trace::Event;
using trace::EventType;

namespace {

/** Emitter state shared across the serializer helpers. */
struct Writer
{
    std::ostringstream os;
    bool first = true;

    /** Open the next event object, emitting the separator. */
    std::ostringstream &
    next()
    {
        if (!first)
            os << ",\n";
        first = false;
        return os;
    }
};

std::string
locStr(const Event &ev)
{
    return ev.loc.str();
}

/** Common args payload: source location, raw a0..a3, optional str. */
std::string
argsJson(const Ect &ect, const Event &ev)
{
    std::ostringstream os;
    os << "{\"loc\":\"" << jsonEscape(locStr(ev)) << "\",\"a\":["
       << ev.args[0] << ',' << ev.args[1] << ',' << ev.args[2] << ','
       << ev.args[3] << ']';
    if (ev.strIdx)
        os << ",\"str\":\"" << jsonEscape(ect.str(ev)) << '"';
    os << '}';
    return os.str();
}

const char *
blockName(const Event &ev)
{
    // park() stamps the BlockReason into a1 of every GoBlock* event.
    // Local name table (not runtime::blockReasonName) keeps goat_obs
    // link-independent of goat_runtime, which links back to us.
    switch (static_cast<runtime::BlockReason>(ev.args[1])) {
      case runtime::BlockReason::None: return "none";
      case runtime::BlockReason::Send: return "chan send";
      case runtime::BlockReason::Recv: return "chan recv";
      case runtime::BlockReason::Select: return "select";
      case runtime::BlockReason::Mutex: return "mutex";
      case runtime::BlockReason::RWMutex: return "rwmutex";
      case runtime::BlockReason::WaitGroup: return "waitgroup";
      case runtime::BlockReason::Cond: return "cond";
      case runtime::BlockReason::Sleep: return "sleep";
    }
    return "?";
}

} // namespace

std::string
chromeTraceJson(const Ect &ect)
{
    const auto &events = ect.events();
    const uint64_t last_ts = events.empty() ? 0 : events.back().ts;

    // Per-goroutine event index lists, for resume lookups.
    std::map<uint32_t, std::vector<size_t>> byGid;
    for (size_t i = 0; i < events.size(); ++i)
        byGid[events[i].gid].push_back(i);

    // Index of the next event of the same goroutine after event i
    // (SIZE_MAX = none: the goroutine never runs again).
    std::vector<size_t> nextSameGid(events.size(), SIZE_MAX);
    for (const auto &[gid, idxs] : byGid) {
        for (size_t k = 0; k + 1 < idxs.size(); ++k)
            nextSameGid[idxs[k]] = idxs[k + 1];
    }

    Writer w;
    w.os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";

    // Track metadata: one named, gid-sorted thread per goroutine.
    for (const auto &[gid, idxs] : byGid) {
        std::string name = gid == 0 ? "scheduler"
                         : gid == 1 ? "G1 (main)"
                                    : strFormat("G%u", gid);
        w.next() << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << gid
                 << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
                 << jsonEscape(name) << "\"}}";
        w.next() << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << gid
                 << ",\"name\":\"thread_sort_index\",\"args\":{"
                    "\"sort_index\":"
                 << gid << "}}";
    }

    uint64_t flow_id = 0;
    for (size_t i = 0; i < events.size(); ++i) {
        const Event &ev = events[i];

        if (trace::isBlockEvent(ev.type)) {
            // Blocking episode: park → resume (or trace end if the
            // goroutine stays parked — a visible leak).
            size_t resume = nextSameGid[i];
            uint64_t end_ts =
                resume == SIZE_MAX ? last_ts : events[resume].ts;
            uint64_t dur = end_ts > ev.ts ? end_ts - ev.ts : 0;
            w.next() << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << ev.gid
                     << ",\"ts\":" << ev.ts << ",\"dur\":" << dur
                     << ",\"name\":\"blocked: " << jsonEscape(blockName(ev))
                     << "\",\"cat\":\"block\",\"args\":{\"loc\":\""
                     << jsonEscape(locStr(ev)) << "\",\"obj\":"
                     << ev.args[0]
                     << (resume == SIZE_MAX ? ",\"leaked\":true" : "")
                     << "}}";
            continue;
        }

        w.next() << "{\"ph\":\"i\",\"pid\":1,\"tid\":" << ev.gid
                 << ",\"ts\":" << ev.ts << ",\"s\":\"t\",\"name\":\""
                 << trace::eventTypeName(ev.type)
                 << "\",\"cat\":\"ect\",\"args\":" << argsJson(ect, ev)
                 << '}';

        if (ev.type == EventType::GoUnblock) {
            // Flow arrow from the unblocker to the unblocked
            // goroutine's resume point.
            auto target = static_cast<uint32_t>(ev.args[0]);
            auto it = byGid.find(target);
            if (it == byGid.end())
                continue;
            size_t resume = SIZE_MAX;
            for (size_t idx : it->second) {
                if (idx > i) {
                    resume = idx;
                    break;
                }
            }
            if (resume == SIZE_MAX)
                continue;
            ++flow_id;
            w.next() << "{\"ph\":\"s\",\"pid\":1,\"tid\":" << ev.gid
                     << ",\"ts\":" << ev.ts << ",\"id\":" << flow_id
                     << ",\"name\":\"unblock\",\"cat\":\"wake\"}";
            w.next() << "{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":"
                     << target << ",\"ts\":" << events[resume].ts
                     << ",\"id\":" << flow_id
                     << ",\"name\":\"unblock\",\"cat\":\"wake\"}";
        }
    }

    // Execution metadata rides along for tooling (seed, outcome, ...).
    w.os << "\n],\"otherData\":{";
    bool first = true;
    for (const auto &[k, v] : ect.metaAll()) {
        w.os << (first ? "" : ",") << '"' << jsonEscape(k) << "\":\""
             << jsonEscape(v) << '"';
        first = false;
    }
    w.os << "}}\n";
    return w.os.str();
}

bool
writeChromeTraceFile(const Ect &ect, const std::string &path)
{
    return goat::atomicWriteFile(path, chromeTraceJson(ect));
}

} // namespace goat::obs
