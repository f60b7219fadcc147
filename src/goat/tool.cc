#include "goat/tool.hh"

#include <algorithm>

#include "base/fmt.hh"
#include "detectors/builtin.hh"
#include "detectors/goleak.hh"
#include "detectors/lockdl.hh"

namespace goat::engine {

using analysis::DeadlockReport;
using analysis::Verdict;
using runtime::RunOutcome;

const char *
toolName(ToolKind t)
{
    switch (t) {
      case ToolKind::GoatD0: return "goat-d0";
      case ToolKind::GoatD1: return "goat-d1";
      case ToolKind::GoatD2: return "goat-d2";
      case ToolKind::GoatD3: return "goat-d3";
      case ToolKind::GoatD4: return "goat-d4";
      case ToolKind::Builtin: return "builtin";
      case ToolKind::LockDL: return "lockdl";
      case ToolKind::Goleak: return "goleak";
      default: return "?";
    }
}

int
toolDelayBound(ToolKind t)
{
    switch (t) {
      case ToolKind::GoatD0: return 0;
      case ToolKind::GoatD1: return 1;
      case ToolKind::GoatD2: return 2;
      case ToolKind::GoatD3: return 3;
      case ToolKind::GoatD4: return 4;
      default: return -1;
    }
}

std::string
ToolCampaign::cellStr() const
{
    if (firstDetectIteration > 0)
        return strFormat("%s (%d)", verdict.label.c_str(),
                         firstDetectIteration);
    return strFormat("X (%d)", iterationsRun);
}

ToolVerdict
classifyRun(ToolKind tool, const runtime::ExecResult &exec,
            const DeadlockReport &dl, bool lockdl_warned)
{
    ToolVerdict v;

    // Crashes are visible to every tool: the process dies loudly.
    if (exec.outcome == RunOutcome::Crash) {
        v.detected = true;
        v.label = "CRASH";
        return v;
    }

    // The watchdog/step-budget timeout: the run made no progress. GoAT
    // reports it through its watchdog; the baselines' harnesses hit
    // their own 30 s / 10 min timeouts.
    if (exec.outcome == RunOutcome::StepBudget) {
        v.detected = true;
        v.label = "TO/GDL";
        return v;
    }

    int d = toolDelayBound(tool);
    if (d >= 0) {
        // GoAT: offline Procedure 1 over the ECT.
        if (dl.verdict == Verdict::PartialDeadlock) {
            v.detected = true;
            v.label = strFormat("PDL-%zu", dl.leaked.size());
        } else if (dl.verdict == Verdict::GlobalDeadlock) {
            v.detected = true;
            v.label = "GDL";
        }
        return v;
    }

    switch (tool) {
      case ToolKind::Builtin:
        if (auto err = detectors::builtinCheck(exec)) {
            v.detected = true;
            v.label = "GDL";
        }
        break;
      case ToolKind::Goleak: {
        if (exec.outcome == RunOutcome::GlobalDeadlock) {
            // The runtime aborts before goleak's check runs; the crash
            // is visible as Go's built-in fatal error.
            v.detected = true;
            v.label = "GDL";
            break;
        }
        auto gl = detectors::goleakCheck(exec);
        if (gl.detected()) {
            v.detected = true;
            v.label = strFormat("PDL-%zu", gl.leaks.size());
        }
        break;
      }
      case ToolKind::LockDL:
        if (lockdl_warned) {
            v.detected = true;
            v.label = "DL";
        } else if (exec.outcome == RunOutcome::GlobalDeadlock) {
            // LockDL's 30 s application timeout trips.
            v.detected = true;
            v.label = "TO/GDL";
        }
        break;
      default:
        break;
    }
    return v;
}

ToolCampaign
runTool(ToolKind tool, const std::function<void()> &program, int max_iter,
        uint64_t seed_base, double noise_prob, uint64_t step_budget)
{
    ToolCampaign campaign;

    // Every tool runs the campaign iteration: the baselines see the
    // same unperturbed (D = 0) schedule as goat-d0, captured through
    // the ring like any run, and each classifies it its own way.
    GoatConfig cfg;
    cfg.delayBound = std::max(toolDelayBound(tool), 0);
    cfg.seedBase = seed_base;
    cfg.noiseProb = noise_prob;
    cfg.stepBudget = step_budget;

    // LockDL accumulates its lock-order graph across executions and
    // reads each run's trace after the fact.
    detectors::LockDL lockdl;

    for (int iter = 1; iter <= max_iter; ++iter) {
        campaign.iterationsRun = iter;
        SingleRun sr = runCampaignIteration(cfg, program, iter);

        bool lockdl_warned = false;
        if (tool == ToolKind::LockDL) {
            size_t warnings_before = lockdl.warnings().size();
            lockdl.resetExecutionState();
            lockdl.feed(sr.ect);
            lockdl_warned = lockdl.warnings().size() > warnings_before;
        }

        ToolVerdict v = classifyRun(tool, sr.exec, sr.dl, lockdl_warned);
        if (v.detected) {
            campaign.verdict = v;
            campaign.firstDetectIteration = iter;
            return campaign;
        }
    }
    return campaign;
}

} // namespace goat::engine
