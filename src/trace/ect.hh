/**
 * @file
 * Execution concurrency trace (ECT) container.
 *
 * An ECT is a totally ordered sequence of events describing the dynamic
 * behaviour of every concurrency primitive in one execution. The
 * scheduler captures it through a trace::EctRing (trace/ect_ring.hh),
 * whose rows are the Ect's events; the Ect also owns the string table
 * that the rare payload-carrying events (panic messages) index into.
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
 * One execution concurrency trace: ordered events, their string
 * payloads, and execution metadata (seed, outcome, step counts) as
 * string key/value pairs.
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

    /** Append @p n events in one copy (the ring's flush). */
    void
    append(const Event *evs, size_t n)
    {
        events_.insert(events_.end(), evs, evs + n);
    }

    /**
     * Attach string payload @p s to @p ev, which this Ect holds or
     * will hold: the payload goes into the string table and
     * ev.strIdx names it.
     */
    void
    setStr(Event &ev, std::string s)
    {
        strs_.push_back(std::move(s));
        ev.strIdx = static_cast<uint32_t>(strs_.size());
    }

    /** String payload of @p ev ("" when it carries none). */
    const std::string &str(const Event &ev) const;

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
    std::vector<std::string> strs_;
    std::map<std::string, std::string> meta_;
};

} // namespace goat::trace

#endif // GOAT_TRACE_ECT_HH
