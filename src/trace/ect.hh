/**
 * @file
 * Execution concurrency trace (ECT) container, the trace-sink interface
 * that the scheduler publishes events to, and the standard ECT recorder.
 *
 * An ECT is a totally ordered sequence of events describing the dynamic
 * behaviour of every concurrency primitive in one execution; GoAT's
 * offline analyses (deadlock detection, coverage measurement, reports)
 * consume ECTs exclusively — never live runtime state — mirroring the
 * paper's trace-then-analyze architecture.
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

/**
 * Interface for execution monitors: the scheduler publishes every trace
 * event to each attached sink as it happens. The ECT recorder, LockDL,
 * and goleak are all sinks.
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Called synchronously for every event, in total order. */
    virtual void onEvent(const Event &ev) = 0;
};

/**
 * Sink that appends every event to an Ect. Engine runs capture
 * through trace::EctRing instead; this is the simple reference the
 * ring is tested against.
 */
class EctRecorder : public TraceSink
{
  public:
    void onEvent(const Event &ev) override { ect_.append(ev); }

    Ect &ect() { return ect_; }
    const Ect &ect() const { return ect_; }

  private:
    Ect ect_;
};

} // namespace goat::trace

#endif // GOAT_TRACE_ECT_HH
