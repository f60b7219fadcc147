/**
 * @file
 * Trace event vocabulary for execution concurrency traces (ECT).
 *
 * The vocabulary mirrors the Go execution tracer's goroutine/scheduler
 * events (GoCreate, GoStart, GoEnd, GoSched, GoBlock*, GoUnblock, ...)
 * and adds the concurrency events GoAT contributes on top of the stock
 * tracer: channel make/send/recv/close, select begin/case/end, mutex and
 * rwmutex lock/unlock, wait-group add/wait, and conditional-variable
 * wait/signal/broadcast. Every event is attributed to exactly one source
 * statement (its concurrency-usage point) via a SourceLoc.
 *
 * An Event is one fixed-width, trivially copyable row: the scheduler
 * writes it straight into the capture ring (trace/ect_ring.hh) and a
 * flush copies rows into the Ect in bulk. The rare string payload (a
 * panic message) lives in the owning Ect's string table; the row holds
 * only its index (Ect::str()).
 */

#ifndef GOAT_TRACE_EVENT_HH
#define GOAT_TRACE_EVENT_HH

#include <cstdint>
#include <string>
#include <type_traits>

#include "base/source_loc.hh"

namespace goat::trace {

/**
 * Event types recorded in an ECT.
 *
 * The first block mirrors the standard Go tracer's scheduling vocabulary;
 * the second block is GoAT's concurrency-event enhancement.
 */
enum class EventType : uint8_t
{
    // -- Trace lifecycle -------------------------------------------------
    TraceStart,     ///< Tracing enabled (first event of every ECT).
    TraceStop,      ///< Tracing disabled (last event of every ECT).

    // -- Goroutine / scheduler events (standard tracer vocabulary) -------
    GoCreate,       ///< a0 = new gid, a1 = system flag.
    GoStart,        ///< Goroutine starts running on the processor.
    GoEnd,          ///< Goroutine finished (reached its end state).
    GoSched,        ///< Voluntary yield; a0 = SchedTag.
    GoPreempt,      ///< Forced preemption; a0 = PreemptTag.
    GoSleep,        ///< Virtual-clock sleep; a0 = duration (ns).
    GoBlockSend,    ///< Parked on channel send; a0 = chan id.
    GoBlockRecv,    ///< Parked on channel recv; a0 = chan id.
    GoBlockSelect,  ///< Parked on a select with no ready case.
    GoBlockSync,    ///< Parked on mutex/rwmutex/waitgroup; a0 = obj id.
    GoBlockCond,    ///< Parked on a conditional variable; a0 = cv id.
    GoUnblock,      ///< Current goroutine made a0 = gid runnable.
    GoPanic,        ///< Goroutine panicked; payload = message.

    // -- Concurrency events (GoAT enhancement) ---------------------------
    ChMake,         ///< a0 = chan id, a1 = capacity.
    ChSend,         ///< a0 = chan id, a1 = blockedFirst, a2 = nWoken.
    ChRecv,         ///< a0 = chan id, a1 = blockedFirst, a2 = nWoken,
                    ///< a3 = ok (0 if closed-drain miss).
    ChClose,        ///< a0 = chan id, a1 = nWoken.
    SelectBegin,    ///< a0 = nCases, a1 = hasDefault.
    SelectCase,     ///< One per case at select entry: a0 = case index,
                    ///< a1 = isSend, a2 = chan id.
    SelectEnd,      ///< a0 = chosen index (-1 = default),
                    ///< a1 = blockedFirst, a2 = nWoken, a3 = isSend.
    MuLockReq,      ///< Lock attempt: a0 = mutex id, a1 = holder gid
                    ///< (-1 when the mutex is free).
    MuLock,         ///< Acquired: a0 = mutex id, a1 = blockedFirst.
    MuUnlock,       ///< Released: a0 = mutex id, a1 = nWoken.
    RWLockReq,      ///< Writer-lock attempt: a0 = rwmutex id.
    RWLock,         ///< a0 = rwmutex id, a1 = blockedFirst.
    RWUnlock,       ///< a0 = rwmutex id, a1 = nWoken.
    RWRLockReq,     ///< Reader-lock attempt: a0 = rwmutex id.
    RWRLock,        ///< a0 = rwmutex id, a1 = blockedFirst.
    RWRUnlock,      ///< a0 = rwmutex id, a1 = nWoken.
    WgAdd,          ///< a0 = wg id, a1 = delta, a2 = new count,
                    ///< a3 = nWoken.
    WgWait,         ///< a0 = wg id, a1 = blockedFirst.
    CvWait,         ///< a0 = cv id (cond Wait always parks).
    CvSignal,       ///< a0 = cv id, a1 = nWoken.
    CvBroadcast,    ///< a0 = cv id, a1 = nWoken.
    VarRead,        ///< Instrumented shared read: a0 = var id.
    VarWrite,       ///< Instrumented shared write: a0 = var id.

    NumEventTypes
};

/** Tag values for GoSched's a0 argument. */
enum SchedTag : int64_t
{
    SchedTagYield = 0,      ///< Plain runtime yield.
    SchedTagTraceStop = 1,  ///< Main goroutine handing off at trace stop.
};

/** Tag values for GoPreempt's a0 argument. */
enum PreemptTag : int64_t
{
    PreemptTagNoise = 0,    ///< Scheduler noise (models native timing).
    PreemptTagPerturb = 1,  ///< GoAT yield perturbation (goat.handler()).
};

/** Stable lowercase name of an event type (used in serialized ECTs). */
const char *eventTypeName(EventType t);

/** Inverse of eventTypeName(); returns NumEventTypes when unknown. */
EventType eventTypeFromName(const std::string &name);

/** True for the GoBlock* family. */
bool isBlockEvent(EventType t);

/** True for the concurrency events GoAT adds on top of the Go tracer. */
bool isConcurrencyEvent(EventType t);

/**
 * One totally ordered trace event.
 *
 * @c ts is the logical step stamp assigned by the scheduler (strictly
 * increasing across the whole execution, giving the ECT its total
 * order); @c gid is the acting goroutine; @c strIdx is the 1-based
 * index of the event's string payload in its Ect's table, 0 for none.
 */
struct Event
{
    uint64_t ts = 0;
    uint32_t gid = 0;
    EventType type = EventType::TraceStart;
    SourceLoc loc;
    int64_t args[4] = {0, 0, 0, 0};
    uint32_t strIdx = 0;

    Event() = default;

    Event(uint64_t ts, uint32_t gid, EventType type, SourceLoc loc,
          int64_t a0 = 0, int64_t a1 = 0, int64_t a2 = 0, int64_t a3 = 0)
        : ts(ts), gid(gid), type(type), loc(loc), args{a0, a1, a2, a3}
    {}
};

static_assert(std::is_trivially_copyable_v<Event>,
              "Event is the ring's row: a flush copies rows in bulk");

} // namespace goat::trace

#endif // GOAT_TRACE_EVENT_HH
