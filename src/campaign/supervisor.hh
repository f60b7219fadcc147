/**
 * @file
 * Campaign process isolation (-isolate): run the iteration shards in
 * forked child processes under a parent supervisor, so an iteration
 * that segfaults, aborts, runs away on memory, or livelocks takes
 * down only its shard — the supervisor classifies the loss and
 * respawns the shard, the campaign records the loss as a crash/timeout
 * ledger row with a replayable seeded-policy recipe, and continues.
 *
 * Topology: jobs shards; shard c owns the iterations with
 * (i - start) % jobs == c, a static partition — deterministic content
 * per iteration (seed partitioning) makes placement irrelevant to the
 * canonical merge, exactly as with in-process worker threads.
 *
 * The supervisor is process management only: it never parses what a
 * shard sends. Each shard runs a child body, a callback supplied by the
 * campaign, on its owed iterations; a body returns its iteration's
 * result as an opaque string, and the parent hands that string back to
 * the campaign, which decodes it (campaign.cc) and folds the record
 * like any other (docs/INTERNALS.md §8).
 *
 * Wire protocol (child → parent, one pipe per shard): length-prefixed
 * frames — a 4-byte little-endian payload length, then the payload,
 * whose first byte is the frame type:
 *
 *   'B' <iter>     about to run iteration <iter> (arms the watchdog)
 *   'R' <body>     that iteration finished; the child body's result
 *   'D'            shard done (graceful exit follows)
 *
 * A result takes its iteration from the 'B' frame before it, and the
 * parent counts each shard's results (its wseq) itself.
 *
 * Parent → child is a one-byte control pipe: any byte means "stop
 * after the current iteration" (the early-stop broadcast and the
 * SIGINT/SIGTERM drain); EOF means the parent is gone.
 *
 * Failure handling:
 *  - abnormal child exit → classifyExitStatus() names the cause
 *    ("sigsegv", "sigabrt", "oom", "exit_N", …); the in-flight
 *    iteration (known from its 'B' frame) becomes a Crash event;
 *  - -iter-timeout=N → a shard past its per-iteration deadline is
 *    SIGKILLed and the iteration becomes a Timeout event;
 *  - -mem-limit=M → the child runs under RLIMIT_AS with a
 *    std::set_new_handler that exits 77, classified "oom";
 *  - each loss respawns the shard (fresh fork continuing at the next
 *    owed iteration) with exponential backoff, up to -max-respawns
 *    per shard; an exhausted budget degrades gracefully — the shard's
 *    remaining iterations become "respawn_budget" Crash events and
 *    the campaign completes with what it has.
 */

#ifndef GOAT_CAMPAIGN_SUPERVISOR_HH
#define GOAT_CAMPAIGN_SUPERVISOR_HH

#include <functional>
#include <string>

#include "campaign/campaign.hh"

namespace goat::campaign {

/**
 * Classify a waitpid() status: "" for a clean exit 0, otherwise the
 * crash-cause token recorded on the ledger row ("sigsegv", "sigabrt",
 * "sigbus", "sigill", "sigfpe", "sigkill", "sigterm", "signal_N",
 * "oom" for exit 77, "exit_N" for other nonzero exits).
 */
std::string classifyExitStatus(int wait_status);

/**
 * A shard's child body: run iteration @p iter as the @p wseq-th result
 * of shard @p shard and return the result to ship ("" = cut short by
 * an interrupt: the shard stops without a result). Runs in the forked
 * child.
 */
using ShardBody =
    std::function<std::string(int iter, int shard, int wseq)>;

/**
 * One supervision event, delivered to the campaign in arrival order
 * (the campaign buffers and folds the contiguous iteration prefix).
 */
struct ShardEvent
{
    enum class Kind
    {
        Result,  ///< Iteration completed; body is the child's result.
        Crash,   ///< Shard died on this iteration (cause says how).
        Timeout, ///< Watchdog fired on this iteration.
        Respawn, ///< Shard restarted; iteration is its next owed one.
    };
    Kind kind = Kind::Result;
    int iteration = 0;
    int shard = 0;
    /** The shard's 1-based result sequence number (not for Respawn). */
    int wseq = 0;
    /** Respawns of this shard so far. */
    int respawns = 0;
    /** Loss classification: a Crash's exit cause, "watchdog" for a
     *  Timeout. */
    std::string cause;
    /** The child body's result, verbatim (Result only). */
    std::string body;
};

/**
 * Fork cfg.jobs shards covering iterations startIteration..
 * engine.maxIterations, each running @p body on its owed iterations,
 * and pump their pipes until every shard is done (or stopped).
 * @p onEvent receives every event; @p stopRequested is polled between
 * events — returning true broadcasts the stop byte and drains. Must be
 * called from a thread that may fork (no other live thread; no live
 * Scheduler).
 */
void superviseCampaign(const CampaignConfig &cfg, int startIteration,
                       const ShardBody &body,
                       const std::function<void(ShardEvent &&)> &onEvent,
                       const std::function<bool()> &stopRequested);

} // namespace goat::campaign

#endif // GOAT_CAMPAIGN_SUPERVISOR_HH
