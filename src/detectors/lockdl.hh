/**
 * @file
 * Model of LockDL (sasha-s/go-deadlock): an execution monitor that
 * intercepts every mutex lock/unlock to maintain lock-set state and
 * issues warnings for
 *
 *  - double locking (a goroutine re-locking a mutex it holds),
 *  - actual circular waits (a blocked lock request whose holder chain
 *    leads back to the requester), and
 *  - potential deadlocks (a cycle in the cross-execution lock-order
 *    graph, the classic Goodlock condition).
 *
 * LockDL observes only mutexes and rwmutex writer locks — channel,
 * wait-group, and cond-based blocking is invisible to it, which is why
 * it misses communication and mixed deadlocks in the evaluation.
 */

#ifndef GOAT_DETECTORS_LOCKDL_HH
#define GOAT_DETECTORS_LOCKDL_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "trace/ect.hh"

namespace goat::detectors {

/**
 * Lock-set deadlock monitor, fed a run's recorded trace after the run
 * (runTool does). The lock-order graph persists across executions when
 * the same instance is reused (as the real tool accumulates order
 * knowledge).
 */
class LockDL
{
  public:
    /** Observe @p ect's events in order. */
    void feed(const trace::Ect &ect);

    /** Warnings issued so far (empty = nothing detected). */
    const std::vector<std::string> &warnings() const { return warnings_; }

    bool detected() const { return !warnings_.empty(); }

    /** Forget per-execution state (keeps the lock-order graph). */
    void resetExecutionState();

  private:
    void onEvent(const trace::Event &ev);
    void warn(const std::string &msg);
    void addOrderEdge(uint64_t from, uint64_t to);
    bool orderReachable(uint64_t from, uint64_t to) const;

    std::map<uint64_t, uint32_t> holder_;          ///< mutex → holder gid
    std::map<uint32_t, std::vector<uint64_t>> held_; ///< gid → lock stack
    std::map<uint32_t, uint64_t> waitingOn_;       ///< gid → mutex
    std::map<uint64_t, std::vector<uint32_t>> waitq_; ///< mutex → FIFO
    std::map<uint64_t, std::set<uint64_t>> order_; ///< lock-order edges
    std::vector<std::string> warnings_;
};

} // namespace goat::detectors

#endif // GOAT_DETECTORS_LOCKDL_HH
