/**
 * @file
 * Tool-comparison harness for the paper's evaluation (Table IV,
 * figs. 2/4/5): run a bug kernel repeatedly under one of the eight
 * tool configurations — GoAT with delay bound D ∈ {0..4}, Go's
 * built-in detector, LockDL, or goleak — and record the first
 * iteration at which the tool detects the bug, with the paper's
 * outcome labels (PDL-k, GDL, TO/GDL, DL, CRASH, X).
 */

#ifndef GOAT_GOAT_TOOL_HH
#define GOAT_GOAT_TOOL_HH

#include <functional>
#include <string>

#include "goat/engine.hh"

namespace goat::engine {

/** The tools compared in the paper's evaluation. */
enum class ToolKind : uint8_t
{
    GoatD0,
    GoatD1,
    GoatD2,
    GoatD3,
    GoatD4,
    Builtin,
    LockDL,
    Goleak,
    NumTools
};

const char *toolName(ToolKind t);

/** GoAT delay bound of a tool (-1 for the baselines). */
int toolDelayBound(ToolKind t);

/**
 * Result of evaluating one tool on one iteration or campaign.
 */
struct ToolVerdict
{
    bool detected = false;
    /** Paper label: "PDL-k", "GDL", "TO/GDL", "DL", "CRASH", "X". */
    std::string label = "X";
};

/**
 * Result of a full detection campaign (up to maxIterations runs).
 */
struct ToolCampaign
{
    ToolVerdict verdict;
    /** 1-based iteration of first detection (-1 = never). */
    int firstDetectIteration = -1;
    int iterationsRun = 0;

    /** Table IV cell text: "PDL-1 (3)" or "X (1000)". */
    std::string cellStr() const;
};

/**
 * Evaluate @p tool on one execution outcome.
 *
 * @param exec The execution result.
 * @param dl Offline deadlock report (GoAT tools only; pass a default
 *           report for baselines).
 * @param lockdl_warned LockDL warning state after the run.
 */
ToolVerdict classifyRun(ToolKind tool, const runtime::ExecResult &exec,
                        const analysis::DeadlockReport &dl,
                        bool lockdl_warned);

/**
 * Run a detection campaign: iterate executions under @p tool until it
 * detects a bug or @p max_iter runs complete.
 *
 * Each iteration is runCampaignIteration(iteration i) at the tool's
 * delay bound (D = 0 for the baselines), classified by classifyRun.
 * All tools share the campaign seed schedule, so iteration i of every
 * tool replays the same native nondeterminism; GoAT's D > 0
 * additionally perturbs it.
 */
ToolCampaign runTool(ToolKind tool, const std::function<void()> &program,
                     int max_iter, uint64_t seed_base,
                     double noise_prob = 0.02,
                     uint64_t step_budget = 2'000'000);

} // namespace goat::engine

#endif // GOAT_GOAT_TOOL_HH
