/**
 * @file
 * Offline deadlock detection: the paper's Procedure 1 (DeadlockCheck),
 * a BFS over the goroutine tree.
 *
 * An execution is successful iff (1) every goroutine spawned from the
 * main goroutine's subtree ends with GoEnd, and (2) the main
 * goroutine's final event is GoSched carrying the traceStop tag. A
 * violation of (2) is a global deadlock; a violation of (1) is a
 * partial deadlock (goroutine leak). A GoPanic final event anywhere is
 * a crash, reported separately.
 */

#ifndef GOAT_ANALYSIS_DEADLOCK_HH
#define GOAT_ANALYSIS_DEADLOCK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/goroutine_tree.hh"

namespace goat::analysis {

/** Result class of the offline deadlock check. */
enum class Verdict : uint8_t
{
    Pass,            ///< Successful execution.
    PartialDeadlock, ///< ≥1 goroutine leaked (did not reach GoEnd).
    GlobalDeadlock,  ///< Main never reached its final hand-off.
    Crash,           ///< A goroutine panicked.
    Timeout,         ///< Supervised run exceeded its wall-clock deadline.
};

const char *verdictName(Verdict v);

/**
 * Inverse of verdictName.
 *
 * @retval false when @p name names no verdict (@p out untouched).
 */
bool verdictFromName(const std::string &name, Verdict *out);

/**
 * Outcome of DeadlockCheck with the evidence needed for reports.
 */
struct DeadlockReport
{
    Verdict verdict = Verdict::Pass;
    /** Gids of leaked goroutines (partial deadlocks). */
    std::vector<uint32_t> leaked;
    /** Gid of the panicking goroutine (crash verdicts). */
    uint32_t panicGid = 0;
    std::string panicMsg;

    /** True when the check found any blocking bug or crash. */
    bool
    buggy() const
    {
        return verdict != Verdict::Pass;
    }

    /** One-line summary ("PDL-2", "GDL", "CRASH", "PASS"). */
    std::string shortStr() const;
};

/**
 * Procedure 1: check a goroutine tree for partial/global deadlocks.
 */
DeadlockReport deadlockCheck(const GoroutineTree &tree);

} // namespace goat::analysis

#endif // GOAT_ANALYSIS_DEADLOCK_HH
