/**
 * @file
 * Hot-path stage profiler: log-bucketed (HDR-style) nanosecond
 * histograms for the named stages of the testing loop — fiber context
 * switch, channel op dispatch, trace append, perturb decision, merge —
 * recorded per worker through RAII scopes that compile down to a
 * thread-local pointer null check when `-profile` is off.
 *
 * Determinism contract. Wall-clock durations are host noise, but the
 * *entry counts* per stage are a pure function of (program, seed,
 * config): every iteration executes the same dispatches, channel ops,
 * and trace appends regardless of which campaign worker claims it. The
 * profiler therefore splits each stage into
 *
 *   total  — entries observed (deterministic; ledger-canonical),
 *   count  — entries actually timed (1-in-kSampleEvery sampling),
 *   sum_ns — summed sampled durations,
 *   bucket[i] — sampled durations with bit_width(ns) == i.
 *
 * Sampling is counter-based (no RNG): entry k is timed iff
 * k % kSampleEvery == 0, and `drain()` resets the per-stage entry
 * counters, so the sampling phase restarts identically at every
 * iteration boundary. Under a deterministic clock (setProfileClock, the
 * test seam) a drained per-iteration snapshot is itself a pure function
 * of the iteration, which is what lets tests assert jobs=1 vs jobs=4
 * merged snapshots byte-identical. Under the real clock only `total`
 * participates in the byte-identity guarantee (check_ledger.py strips
 * count/sum like wall_us).
 *
 * Threading model mirrors obs::Registry: one Profiler per campaign
 * worker, installed thread-locally via ScopedProfiler; instruments
 * never see a concurrent writer; per-iteration snapshots are folded at
 * merge time in canonical iteration order (ProfileSnapshot::mergeFrom,
 * plain bucket adds — commutative, so the fold is worker-count
 * independent).
 */

#ifndef GOAT_OBS_PROFILE_HH
#define GOAT_OBS_PROFILE_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

namespace goat::obs {

/** Named hot-path stages (prof::Stage in reports and ledger keys). */
enum class Stage : uint8_t
{
    FiberSwitch,     ///< FiberContext::swap round trip (dispatch).
    ChanOp,          ///< One channel send/recv/close dispatch.
    TraceAppend,     ///< Scheduler::emit writing one ECT ring row.
    PerturbDecision, ///< Perturbation-hook call inside cuHook.
    Merge,           ///< Per-iteration record fold at campaign merge.
    NumStages,
};

constexpr size_t kNumStages = static_cast<size_t>(Stage::NumStages);

/** Stable lowercase stage name ("fiber_switch", ...). */
const char *stageName(Stage s);

/**
 * One stage's log-bucketed latency histogram. Bucket i counts sampled
 * durations whose nanosecond value has bit width i (i.e. in
 * [2^(i-1), 2^i)); bucket 0 counts zero durations. 40 buckets cover
 * up to ~17 minutes, far beyond any single scope.
 */
struct StageHist
{
    static constexpr size_t kBuckets = 40;

    /** Scope entries observed (deterministic across hosts/jobs). */
    uint64_t total = 0;
    /** Entries actually timed (total / kSampleEvery, phase-aligned). */
    uint64_t count = 0;
    /** Summed sampled durations, nanoseconds. */
    uint64_t sum = 0;
    std::array<uint64_t, kBuckets> buckets{};

    void
    observe(uint64_t ns)
    {
        ++count;
        sum += ns;
        size_t b = 0;
        while (ns > 0 && b + 1 < kBuckets) {
            ns >>= 1;
            ++b;
        }
        ++buckets[b];
    }

    void
    mergeFrom(const StageHist &o)
    {
        total += o.total;
        count += o.count;
        sum += o.sum;
        for (size_t i = 0; i < kBuckets; ++i)
            buckets[i] += o.buckets[i];
    }

    bool empty() const { return total == 0 && count == 0; }

    /** Approximate mean of the sampled durations (0 when unsampled). */
    uint64_t
    meanNs() const
    {
        return count ? sum / count : 0;
    }
};

/**
 * Value snapshot of all stages: the unit the campaign merge folds in
 * canonical iteration order and the ledger/report rendering substrate.
 */
struct ProfileSnapshot
{
    std::array<StageHist, kNumStages> stages{};

    const StageHist &
    stage(Stage s) const
    {
        return stages[static_cast<size_t>(s)];
    }

    /** Plain per-stage adds: commutative, so folds are order-free. */
    void mergeFrom(const ProfileSnapshot &o);

    bool empty() const;

    /**
     * Full JSON object, one key per non-empty stage:
     *   {"chan_op":{"total":N,"count":N,"sum_ns":N,"buckets":[...]},…}
     * Trailing zero buckets are trimmed so the encoding is compact and
     * canonical (equal snapshots ⇔ equal strings).
     */
    std::string jsonStr() const;

    /**
     * Compact per-stage totals for ledger rows (no buckets):
     *   {"chan_op":{"total":N,"count":N,"sum_ns":N},…}
     */
    std::string jsonRowStr() const;

    /** Human-readable per-stage table (the -profile stdout report). */
    std::string tableStr() const;
};

/** Nanosecond clock used to time scopes (swappable for tests). */
using ProfileClock = uint64_t (*)();

/**
 * Install @p clock as the profiler's process-wide time source (so
 * campaign worker threads see it too). Pass nullptr to restore the
 * real steady_clock; returns the previous clock so tests can restore
 * it. A deterministic test clock keeps its counter in thread_local
 * state inside the function — durations are same-thread differences,
 * so each worker's stream stays a pure function of its code path.
 */
ProfileClock setProfileClock(ProfileClock clock);

/**
 * Per-worker stage profiler. All mutation happens on the owning
 * thread; the campaign reads snapshots only after workers join.
 */
class Profiler
{
  public:
    /**
     * Time every kSampleEvery-th scope entry (power of two). 32 keeps
     * the enabled-profiler overhead inside the documented budget now
     * that the hot-path memory overhaul shrank the work each scope
     * brackets; the clock reads are the dominant cost, and entry
     * *counts* (the deterministic signal) are unaffected by the rate.
     */
    static constexpr uint64_t kSampleEvery = 32;

    /**
     * Count one scope entry of @p s; true when this entry is the
     * 1-in-kSampleEvery one the scope should actually time. The
     * decision is counter-based (no RNG), so it is a pure function of
     * the entry index since the last drain().
     */
    bool
    enter(Stage s)
    {
        size_t i = static_cast<size_t>(s);
        ++cur_.stages[i].total;
        return entries_[i]++ % kSampleEvery == 0;
    }

    /**
     * Record one sampled entry of @p s lasting @p ns. Called by
     * ProfileScope's destructor on sampled entries only.
     */
    void
    observe(Stage s, uint64_t ns)
    {
        cur_.stages[static_cast<size_t>(s)].observe(ns);
    }

    /**
     * Return everything recorded since the last drain and reset,
     * including the sampling phase — per-iteration deltas and their
     * sampling decisions are therefore pure functions of the
     * iteration, not of how many iterations this worker ran before.
     */
    ProfileSnapshot drain();

    /** Current (undrained) snapshot, without resetting. */
    const ProfileSnapshot &peek() const { return cur_; }

    /**
     * The calling thread's installed profiler, or nullptr when
     * profiling is off — the whole fast path of a disabled build is
     * this thread-local load.
     */
    static Profiler *current();

  private:
    ProfileSnapshot cur_;
    std::array<uint64_t, kNumStages> entries_{};
};

/**
 * RAII thread-profiler override, mirroring ScopedRegistry: installs
 * @p p as Profiler::current() for the calling thread and restores the
 * previous binding on scope exit.
 */
class ScopedProfiler
{
  public:
    explicit ScopedProfiler(Profiler &p);
    ~ScopedProfiler();

    ScopedProfiler(const ScopedProfiler &) = delete;
    ScopedProfiler &operator=(const ScopedProfiler &) = delete;

  private:
    Profiler *prev_;
};

/** The profiler's nanosecond timestamp (real or test clock). */
uint64_t profileNowNs();

/**
 * RAII stage scope. Construction with no live profiler costs one
 * thread-local load and a branch; with a profiler, one increment plus
 * (on every kSampleEvery-th entry) two clock reads and a histogram
 * observe. Instrumentation sites construct it unconditionally.
 */
class ProfileScope
{
  public:
    explicit ProfileScope(Stage s)
        : prof_(Profiler::current())
    {
        if (!prof_)
            return;
        if (!prof_->enter(s)) {
            prof_ = nullptr; // entry counted, not timed
            return;
        }
        stage_ = s;
        t0_ = profileNowNs();
    }

    ~ProfileScope()
    {
        if (!prof_)
            return;
        uint64_t t1 = profileNowNs();
        prof_->observe(stage_, t1 >= t0_ ? t1 - t0_ : 0);
    }

    ProfileScope(const ProfileScope &) = delete;
    ProfileScope &operator=(const ProfileScope &) = delete;

  private:
    Profiler *prof_;
    Stage stage_ = Stage::FiberSwitch;
    uint64_t t0_ = 0;
};

} // namespace goat::obs

#endif // GOAT_OBS_PROFILE_HH
