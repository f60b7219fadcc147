#include "analysis/deadlock.hh"

#include "base/fmt.hh"

namespace goat::analysis {

using trace::EventType;

const char *
verdictName(Verdict v)
{
    switch (v) {
      case Verdict::Pass: return "pass";
      case Verdict::PartialDeadlock: return "partial_deadlock";
      case Verdict::GlobalDeadlock: return "global_deadlock";
      case Verdict::Crash: return "crash";
      case Verdict::Timeout: return "timeout";
    }
    return "?";
}

bool
verdictFromName(const std::string &name, Verdict *out)
{
    for (Verdict v : {Verdict::Pass, Verdict::PartialDeadlock,
                      Verdict::GlobalDeadlock, Verdict::Crash,
                      Verdict::Timeout}) {
        if (name == verdictName(v)) {
            *out = v;
            return true;
        }
    }
    return false;
}

std::string
DeadlockReport::shortStr() const
{
    switch (verdict) {
      case Verdict::Pass:
        return "PASS";
      case Verdict::PartialDeadlock:
        return strFormat("PDL-%zu", leaked.size());
      case Verdict::GlobalDeadlock:
        return "GDL";
      case Verdict::Crash:
        return "CRASH";
      case Verdict::Timeout:
        return "TIMEOUT";
    }
    return "?";
}

DeadlockReport
deadlockCheck(const GoroutineTree &tree)
{
    DeadlockReport report;
    const GoroutineNode *root = tree.root();
    if (!root) {
        // No main goroutine in the trace: treat as a global deadlock
        // (the program never really started).
        report.verdict = Verdict::GlobalDeadlock;
        return report;
    }

    // Crashes dominate: a panic aborts the run before goroutines could
    // reach their end states, so leak evidence is meaningless.
    for (const GoroutineNode *node : tree.appNodes()) {
        const trace::Event *last = node->lastEvent();
        if (last && last->type == EventType::GoPanic) {
            report.verdict = Verdict::Crash;
            report.panicGid = node->gid;
            report.panicMsg = node->lastStr;
            return report;
        }
    }

    // Root condition: main's final event must be the trace-stop
    // hand-off (GoSched tagged traceStop).
    const trace::Event *root_last = root->lastEvent();
    if (!root_last || root_last->type != EventType::GoSched ||
        root_last->args[0] != trace::SchedTagTraceStop) {
        report.verdict = Verdict::GlobalDeadlock;
        return report;
    }

    // BFS over main's application-level descendants: every goroutine
    // must have reached GoEnd.
    for (const GoroutineNode *node : tree.appNodes()) {
        if (node == root)
            continue;
        const trace::Event *last = node->lastEvent();
        if (!last || last->type != EventType::GoEnd)
            report.leaked.push_back(node->gid);
    }
    if (!report.leaked.empty())
        report.verdict = Verdict::PartialDeadlock;
    return report;
}

} // namespace goat::analysis
