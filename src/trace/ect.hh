/**
 * @file
 * Execution concurrency trace (ECT) container.
 *
 * An ECT is a totally ordered sequence of events describing the dynamic
 * behaviour of every concurrency primitive in one execution. The
 * scheduler captures it through a trace::EctRing (trace/ect_ring.hh);
 * GoAT's offline analyses (deadlock detection, coverage measurement,
 * reports, the LockDL baseline) consume ECTs exclusively — never live
 * runtime state — mirroring the paper's trace-then-analyze
 * architecture.
 */

#ifndef GOAT_TRACE_ECT_HH
#define GOAT_TRACE_ECT_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "trace/event.hh"

namespace goat::trace {

/**
 * One execution concurrency trace: ordered events plus execution
 * metadata (seed, outcome, step counts) as string key/value pairs.
 */
class Ect
{
  public:
    /** Append an event (events must arrive in ts order). */
    void
    append(const Event &ev)
    {
        events_.push_back(ev);
    }

    void
    append(Event &&ev)
    {
        events_.push_back(std::move(ev));
    }

    /** All events, in total (ts) order. */
    const std::vector<Event> &events() const { return events_; }

    bool empty() const { return events_.empty(); }
    size_t size() const { return events_.size(); }

    /** Set a metadata key (e.g. "seed", "outcome"). */
    void setMeta(const std::string &key, const std::string &value);

    /** Get a metadata value ("" when absent). */
    std::string meta(const std::string &key) const;

    /** All metadata, sorted by key. */
    const std::map<std::string, std::string> &metaAll() const
    {
        return meta_;
    }

    /** Events executed by goroutine @p gid, in order. */
    std::vector<Event> eventsOf(uint32_t gid) const;

    /**
     * Last event executed by goroutine @p gid.
     *
     * @retval nullptr when the goroutine executed no event.
     */
    const Event *lastEventOf(uint32_t gid) const;

    /** Ids of all goroutines appearing in the trace, ascending. */
    std::vector<uint32_t> goroutineIds() const;

    void clear();

  private:
    std::vector<Event> events_;
    std::map<std::string, std::string> meta_;
};

} // namespace goat::trace

#endif // GOAT_TRACE_ECT_HH
