#include "trace/event.hh"

#include <array>

namespace goat::trace {

namespace {

constexpr size_t numTypes = static_cast<size_t>(EventType::NumEventTypes);

const std::array<const char *, numTypes> typeNames = {
    "trace_start",
    "trace_stop",
    "go_create",
    "go_start",
    "go_end",
    "go_sched",
    "go_preempt",
    "go_sleep",
    "go_block_send",
    "go_block_recv",
    "go_block_select",
    "go_block_sync",
    "go_block_cond",
    "go_unblock",
    "go_panic",
    "ch_make",
    "ch_send",
    "ch_recv",
    "ch_close",
    "select_begin",
    "select_case",
    "select_end",
    "mu_lock_req",
    "mu_lock",
    "mu_unlock",
    "rw_lock_req",
    "rw_lock",
    "rw_unlock",
    "rw_rlock_req",
    "rw_rlock",
    "rw_runlock",
    "wg_add",
    "wg_wait",
    "cv_wait",
    "cv_signal",
    "cv_broadcast",
    "var_read",
    "var_write",
};

} // namespace

const char *
eventTypeName(EventType t)
{
    size_t i = static_cast<size_t>(t);
    return i < numTypes ? typeNames[i] : "unknown";
}

EventType
eventTypeFromName(const std::string &name)
{
    for (size_t i = 0; i < numTypes; ++i)
        if (name == typeNames[i])
            return static_cast<EventType>(i);
    return EventType::NumEventTypes;
}

bool
isBlockEvent(EventType t)
{
    switch (t) {
      case EventType::GoBlockSend:
      case EventType::GoBlockRecv:
      case EventType::GoBlockSelect:
      case EventType::GoBlockSync:
      case EventType::GoBlockCond:
        return true;
      default:
        return false;
    }
}

bool
isConcurrencyEvent(EventType t)
{
    return static_cast<size_t>(t) >= static_cast<size_t>(EventType::ChMake) &&
           static_cast<size_t>(t) < numTypes;
}

} // namespace goat::trace
