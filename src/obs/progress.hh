/**
 * @file
 * Live campaign progress: a heartbeat thread that samples a handful of
 * relaxed atomics the campaign workers bump per iteration, printing
 * one stderr line per interval (iters/sec, coverage %, verdict
 * counts, ETA) and atomically rewriting a machine-readable JSON
 * status snapshot (`-status-out=`, tmp-file + rename so readers never
 * observe a torn file) — the seed of the `goat serve` dashboard.
 *
 * The reporter is pure observability: workers touch only
 * ProgressCounters (relaxed atomic adds, off the scheduler hot loop —
 * once per iteration), so enabling `-progress` cannot perturb the
 * campaign's deterministic results. Progress numbers are sampled
 * mid-flight and therefore include iterations the canonical merge may
 * later discard; the final printed/merged results remain authoritative.
 */

#ifndef GOAT_OBS_PROGRESS_HH
#define GOAT_OBS_PROGRESS_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

namespace goat::obs {

/** Cross-thread campaign counters the workers publish. */
struct ProgressCounters
{
    /** Number of verdict classes tracked (analysis::Verdict values). */
    static constexpr size_t kVerdicts = 5;

    std::atomic<uint64_t> executed{0};
    std::atomic<uint64_t> bugs{0};
    /** Cumulative coverage in 0.1% units (workers publish local max). */
    std::atomic<uint64_t> coveragePermille{0};
    std::atomic<uint64_t> verdict[kVerdicts]{};
    /** Supervised shard respawns (isolate mode; see supervisor.hh). */
    std::atomic<uint64_t> respawns{0};

    /** One-call worker-side update after each iteration. */
    void
    noteIteration(size_t verdict_idx, bool bug)
    {
        executed.fetch_add(1, std::memory_order_relaxed);
        if (bug)
            bugs.fetch_add(1, std::memory_order_relaxed);
        if (verdict_idx < kVerdicts)
            verdict[verdict_idx].fetch_add(1,
                                           std::memory_order_relaxed);
    }

    /** Raise the published coverage to @p permille if higher. */
    void
    noteCoveragePermille(uint64_t permille)
    {
        uint64_t cur = coveragePermille.load(std::memory_order_relaxed);
        while (permille > cur &&
               !coveragePermille.compare_exchange_weak(
                   cur, permille, std::memory_order_relaxed)) {
        }
    }
};

/** ProgressReporter configuration. */
struct ProgressConfig
{
    /** Heartbeat interval in seconds (0 disables the stderr line). */
    int intervalSeconds = 0;
    /** Iteration budget (ETA denominator; 0 = unknown). */
    int totalIterations = 0;
    /** Kernel/program label stamped into the status JSON. */
    std::string label;
    /** Rewrite this JSON snapshot atomically each interval ("" off). */
    std::string statusPath;
    /** True when coverage is measured (gates the coverage field). */
    bool haveCoverage = false;
};

/**
 * Heartbeat thread. Construct-start / stop-join; the destructor stops
 * the thread if still running. One final status write happens at
 * stop() so the file always reflects the completed campaign.
 */
class ProgressReporter
{
  public:
    ProgressReporter(ProgressConfig cfg, ProgressCounters &counters);
    ~ProgressReporter();

    ProgressReporter(const ProgressReporter &) = delete;
    ProgressReporter &operator=(const ProgressReporter &) = delete;

    /** Stop the heartbeat and write the final status snapshot. */
    void stop();

    /** False when a requested status file could not be written. */
    bool statusOk() const { return statusOk_; }

    /** The status JSON the reporter would write right now. */
    std::string statusJson(bool done) const;

  private:
    void loop();
    void emitHeartbeat();
    bool writeStatus(bool done);

    ProgressConfig cfg_;
    ProgressCounters &counters_;
    std::chrono::steady_clock::time_point t0_;
    std::mutex mtx_;
    std::condition_variable cv_;
    bool stopping_ = false;
    bool stopped_ = false;
    bool statusOk_ = true;
    std::thread thread_;
};

} // namespace goat::obs

#endif // GOAT_OBS_PROGRESS_HH
