/**
 * @file
 * Predictive happens-before analysis: infer blocking bugs from a single
 * recorded trace, without re-executing the program.
 *
 * The campaign loop (goat/engine.hh) only reports a bug when the
 * perturbed scheduler physically drives the program into a bad
 * interleaving. Following Sulzmann & Stadtmüller's two-phase
 * vector-clock analyses of message-passing Go (arXiv:1807.03585,
 * arXiv:1709.01588), one *passing* trace can instead be replayed
 * symbolically: phase one records pre-event vector clocks for every
 * channel, mutex, and WaitGroup event in the ECT; phase two searches
 * the recorded operations for alternative matchings that would block,
 * race, or lose a signal under a different — but happens-before-
 * consistent — schedule.
 *
 * Phase one is the race detector's HbWalker (happens_before.hh) under
 * the *must* edge policy (the full written specification lives in
 * docs/ANALYSIS.md). It keeps only edges every feasible schedule is
 * forced to respect — goroutine creation, channel value transfer and
 * close, WaitGroup release→wait, cond signal→waiter — and drops the
 * schedule-induced ones: mutex unlock→lock coupling and
 * mutex/waitgroup hand-off wake-ups.
 *
 * Two operations that are must-concurrent could have executed in
 * either order; phase two reports the orders that go wrong:
 *
 *  - P1 lock-gated wait: a WaitGroup wait under a held lock whose
 *    releasing Done runs under an intersecting lock (mixed deadlock);
 *  - P2 close/send race: a send and a close on the same channel with
 *    no must-order (send-on-closed-channel crash);
 *  - P3 lost poll signal: a rendezvous send whose only observed
 *    partner is a non-blocking select arm — polling first takes the
 *    default and strands the sender (communication deadlock);
 *  - P4 lock-order inversion: two goroutines nest a lock pair in
 *    opposite orders with must-concurrent inner acquires (ABBA
 *    resource deadlock).
 *
 * Every prediction names the witnessing event pair (gid, site, trace
 * timestamp, must-clock) plus a scheduling hint — delay `delayGid`
 * just before `delayLoc` — from which the engine synthesizes a repro
 * recipe that steers the scheduler into the predicted interleaving
 * (engine::confirmPredictions). Confirmed predictions upgrade to
 * dynamic verdicts.
 */

#ifndef GOAT_ANALYSIS_HB_PREDICT_HH
#define GOAT_ANALYSIS_HB_PREDICT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/happens_before.hh"
#include "trace/ect.hh"

namespace goat::analysis {

/** Alternative-matching rule that produced a prediction. */
enum class PredictionKind : uint8_t
{
    LockGatedWait,      ///< P1: wait under a lock the releaser needs.
    CloseSendRace,      ///< P2: unordered close and send on one channel.
    LostSignal,         ///< P3: rendezvous send vs. non-blocking poll.
    LockOrderInversion, ///< P4: ABBA lock-nesting cycle.
};

/** Stable lowercase rule name ("lock_order_inversion", ...). */
const char *predictionKindName(PredictionKind k);

/**
 * One predicted blocking bug: an alternative matching of recorded
 * operations that a feasible schedule could realize.
 */
struct Prediction
{
    PredictionKind kind = PredictionKind::LockOrderInversion;
    /** Primary object (channel / mutex / wg id) of the matching. */
    int64_t obj = 0;
    /** Second lock of an ABBA pair (-1 otherwise). */
    int64_t obj2 = -1;

    /** Witnessing event pair: A is earlier in the analyzed trace. */
    uint32_t gidA = 0, gidB = 0;
    SourceLoc locA, locB;
    uint64_t tsA = 0, tsB = 0;
    /** Must-clocks of the witnesses at their events (incomparable). */
    std::string vcA, vcB;

    /** One-line human rationale for the report. */
    std::string detail;

    /**
     * Scheduling hint for confirmation: suspending @c delayGid just
     * before it reaches @c delayLoc steers the scheduler toward the
     * predicted interleaving.
     */
    uint32_t delayGid = 0;
    SourceLoc delayLoc;

    /**
     * Campaign iteration whose trace produced the prediction (0 =
     * standalone analysis). Stamped by the campaign merge.
     */
    int iteration = 0;

    /** Set by engine::confirmPredictions when a replay reproduced it. */
    bool confirmed = false;
    /** Dynamic verdict of the confirming run ("" when unconfirmed). */
    std::string confirmVerdict;

    /**
     * Stable identity for deduplication across iterations: the rule
     * plus the witnessing sites and objects (trace timestamps, gids,
     * and clocks are schedule-dependent and excluded).
     */
    std::string key() const;

    /** One-line rendering for text reports. */
    std::string str() const;

    /** JSON object rendering (one finding of the -predict-out file). */
    std::string jsonStr() const;
};

/**
 * Result of the predictive pass over one trace (phase two output).
 */
struct PredictionReport
{
    /** Predictions in canonical order (kind, then key). */
    std::vector<Prediction> predictions;

    bool any() const { return !predictions.empty(); }

    /** Count of confirmed predictions. */
    int confirmedCount() const;

    /** Sort canonically and drop duplicate keys (stable fold order). */
    void canonicalize();

    /** Multi-line text rendering (one prediction per line). */
    std::string str() const;

    /**
     * Render the full findings document (the -predict-out payload):
     * a single JSON object with kernel label, prediction array, and
     * summary counts. Deterministic byte-for-byte for a fixed input.
     */
    std::string jsonDocStr(const std::string &kernel) const;
};

/**
 * Run the two-phase predictive analysis over a trace, on the walker
 * and phase-one tables of @p scratch (analysis/hb_scratch.hh). A pure
 * function of the ECT: callers on different threads, each with its
 * own scratch, may invoke it concurrently.
 */
PredictionReport predictBlockingBugs(const trace::Ect &ect,
                                     HbScratch &scratch);

/** predictBlockingBugs() on a scratch of its own. */
PredictionReport predictBlockingBugs(const trace::Ect &ect);

} // namespace goat::analysis

#endif // GOAT_ANALYSIS_HB_PREDICT_HH
