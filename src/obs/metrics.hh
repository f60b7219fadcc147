/**
 * @file
 * Campaign telemetry: the metrics registry.
 *
 * A process-wide `Registry` hands out named `Counter`s, `Gauge`s, and
 * fixed-bucket `Histogram`s. Registration (name lookup) is cold and
 * mutex-protected; the instruments themselves are plain words — the
 * whole runtime is single-threaded by construction (cooperative
 * fibers on one OS thread), so no atomic RMW or fence is ever needed.
 * Runtime hot paths (emit, park, channel ops) do not even touch the
 * instruments: they bump plain fields in the scheduler's per-run
 * SchedTallies, which Scheduler::run() flushes into this registry once
 * per execution. Direct instrument use is reserved for cold paths
 * (engine iteration bookkeeping, run outcomes).
 *
 * Multi-worker campaigns (src/campaign) keep that single-threaded
 * story intact by giving every worker thread a private Registry:
 * `Registry::current()` resolves to the thread's installed registry
 * (`ScopedRegistry`), defaulting to `global()`. Worker registries are
 * folded into one snapshot at campaign merge time (`Snapshot::
 * mergeFrom`, `Registry::absorb`); instruments therefore never see a
 * concurrent writer.
 *
 * `snapshot()` returns a value-type `Snapshot` that can be diffed
 * against an earlier one (`deltaFrom`) and rendered as JSON. The
 * per-iteration ledger row skips that round trip: `deltaJson()`
 * renders the same object straight from the live instruments against
 * a per-counter baseline the registry keeps, and moves the baseline
 * forward. A registry therefore has at most one ledger consumer (a
 * campaign worker or an -isolate shard).
 */

#ifndef GOAT_OBS_METRICS_HH
#define GOAT_OBS_METRICS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace goat::obs {

/**
 * Monotonically increasing event tally.
 */
class Counter
{
  public:
    void inc(uint64_t n = 1) { v_ += n; }

    uint64_t value() const { return v_; }

    void reset() { v_ = 0; }

  private:
    uint64_t v_ = 0;
};

/**
 * Point-in-time signed level (pool sizes, peaks, live counts).
 */
class Gauge
{
  public:
    void set(int64_t v) { v_ = v; }

    void add(int64_t n) { v_ += n; }

    /** Raise the gauge to @p v if it is below (peak tracking). */
    void
    setMax(int64_t v)
    {
        if (v_ < v)
            v_ = v;
    }

    int64_t value() const { return v_; }

    void reset() { v_ = 0; }

  private:
    int64_t v_ = 0;
};

struct HistogramSnapshot;

/**
 * Fixed-bucket histogram: counts per upper bound plus an overflow
 * bucket, a running sum, and a total count. Bucket bounds are set at
 * registration and never change; observe() is a linear scan over a
 * handful of bounds plus three plain increments.
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<uint64_t> bounds);

    void observe(uint64_t v);

    const std::vector<uint64_t> &bounds() const { return bounds_; }

    /** Count in bucket @p i (i == bounds().size() = overflow). */
    uint64_t bucketCount(size_t i) const;

    uint64_t count() const { return count_; }
    uint64_t sum() const { return sum_; }

    /**
     * Add a snapshot's buckets/count/sum into this histogram (the
     * campaign fold). Buckets are added only when the bounds match;
     * count and sum always add.
     */
    void absorb(const HistogramSnapshot &h);

    void reset();

  private:
    std::vector<uint64_t> bounds_;
    std::vector<uint64_t> buckets_;
    uint64_t count_ = 0;
    uint64_t sum_ = 0;
};

/** Value snapshot of one histogram. */
struct HistogramSnapshot
{
    std::vector<uint64_t> bounds;
    /** bounds.size() + 1 entries; the last is the overflow bucket. */
    std::vector<uint64_t> buckets;
    uint64_t count = 0;
    uint64_t sum = 0;
};

/**
 * Value snapshot of a whole registry at one instant.
 */
struct Snapshot
{
    std::map<std::string, uint64_t> counters;
    std::map<std::string, int64_t> gauges;
    std::map<std::string, HistogramSnapshot> histograms;

    /**
     * Counter deltas since @p earlier (zero-delta entries dropped);
     * gauges and histograms carry the current values.
     */
    Snapshot deltaFrom(const Snapshot &earlier) const;

    /**
     * Fold @p other into this snapshot (the campaign merge): counters
     * and histogram buckets/count/sum add; gauges take the maximum
     * (every registered gauge is a peak or pool size, where max is the
     * meaningful cross-worker fold). Histograms with mismatched bucket
     * bounds keep this snapshot's buckets and add only count/sum.
     */
    void mergeFrom(const Snapshot &other);

    /** Render as one JSON object (counters/gauges/histograms keys). */
    std::string jsonStr() const;
};

/**
 * Named-instrument registry. Instrument addresses are stable for the
 * registry's lifetime, so callers cache references.
 */
class Registry
{
  public:
    /** Find-or-create the counter named @p name. */
    Counter &counter(const std::string &name);

    /** Find-or-create the gauge named @p name. */
    Gauge &gauge(const std::string &name);

    /**
     * Find-or-create a histogram. @p bounds is used only on first
     * registration; later calls return the existing instrument.
     */
    Histogram &histogram(const std::string &name,
                         std::vector<uint64_t> bounds);

    /** Value snapshot of every registered instrument. */
    Snapshot snapshot() const;

    /**
     * Render "counters changed since the last call (delta), every
     * gauge, every histogram" as one JSON object and move the counter
     * baseline forward. Byte-identical to
     * `snapshot().deltaFrom(prev).jsonStr()` with `prev` the snapshot
     * at the previous call or at the last resetAll() (all zero for a
     * fresh registry), but without building either snapshot.
     */
    std::string deltaJson();

    /**
     * Fold a snapshot into this registry's instruments (find-or-create
     * by name): counters inc by the snapshot value, gauges setMax,
     * histograms add buckets/count/sum (bounds taken from the snapshot
     * on first registration; mismatched bounds add only count/sum).
     * Used to absorb per-worker campaign registries into the
     * campaign-level registry.
     */
    void absorb(const Snapshot &s);

    /** Zero every instrument and the delta baseline (registration
     *  survives). */
    void resetAll();

    /** Registered instrument names, sorted (for reports and tests). */
    std::vector<std::string> names() const;

    /** The process-wide registry every built-in metric lives in. */
    static Registry &global();

    /**
     * The calling thread's registry: the one installed by the
     * innermost live ScopedRegistry on this thread, or global() when
     * none is. Everything that records metrics resolves instruments
     * through here so campaign workers write to private registries.
     */
    static Registry &current();

    /**
     * Process-unique id of this registry instance. Ids are never
     * reused, so caches keyed on them (unlike ones keyed on the
     * registry's address) cannot alias a destroyed registry with a
     * later one allocated at the same address.
     */
    uint64_t id() const { return id_; }

  private:
    const uint64_t id_ = nextId();
    static uint64_t nextId();

    /**
     * One registered instrument. Map nodes never move, so the
     * instrument's address is stable.
     */
    template <class I>
    struct Slot
    {
        template <class... Args>
        explicit Slot(const std::string &name, Args &&...args);

        I inst;
        /** The name as an escaped JSON object key ("name":), rendered
         *  once, at registration. */
        std::string key;
        /** deltaJson() baseline (counters only). */
        uint64_t base = 0;
    };

    mutable std::mutex mtx_;
    std::map<std::string, Slot<Counter>> counters_;
    std::map<std::string, Slot<Gauge>> gauges_;
    std::map<std::string, Slot<Histogram>> histograms_;
    /** Size of the last deltaJson() render (the next one's reserve). */
    size_t deltaBytes_ = 0;
};

/**
 * RAII thread-registry override: installs @p r as Registry::current()
 * for the calling thread, restoring the previous binding on scope
 * exit. Campaign workers hold one for their whole lifetime.
 */
class ScopedRegistry
{
  public:
    explicit ScopedRegistry(Registry &r);
    ~ScopedRegistry();

    ScopedRegistry(const ScopedRegistry &) = delete;
    ScopedRegistry &operator=(const ScopedRegistry &) = delete;

  private:
    Registry *prev_;
};

} // namespace goat::obs

#endif // GOAT_OBS_METRICS_HH
