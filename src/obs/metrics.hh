/**
 * @file
 * Campaign telemetry: the metrics registry.
 *
 * A `Registry` holds `Counter`s, `Gauge`s, and fixed-bucket
 * `Histogram`s. Instrument names are interned once per process: a
 * process-wide name table maps each name of a kind to a dense id and
 * keeps its JSON key, escaped once, and (for histograms) its bounds.
 * A registry is flat arrays of instruments indexed by those ids plus a
 * "registered" bitset, so building one costs nothing and folding one
 * into another (`absorb(const Registry &)`) is a slot-wise add and max.
 * The built-in instruments' ids are interned once, in one table
 * (obs/builtin_metrics.hh); only tests, benches and snapshot folds
 * still register by name.
 *
 * The instruments themselves are plain words: a registry is written
 * by one thread at a time (cooperative fibers run on one OS thread),
 * so no atomic RMW or fence is needed. Runtime hot paths (emit, park,
 * channel ops) do not even touch the instruments: they bump plain
 * fields in the scheduler's per-run SchedTallies, which
 * Scheduler::run() flushes into the registry once per execution
 * through a `Registry::Batch`.
 *
 * Multi-worker campaigns (src/campaign) keep that single-writer story
 * by giving every worker thread a private Registry:
 * `Registry::current()` resolves to the thread's installed registry
 * (`ScopedRegistry`), defaulting to `global()`. The campaign folds the
 * worker registries into the caller's registry when it ends.
 *
 * `snapshot()` returns a string-keyed value-type `Snapshot` that can be
 * diffed against an earlier one (`deltaFrom`) and rendered as JSON.
 * The per-iteration ledger row skips that round trip: `deltaJson()`
 * renders the same object straight from the live instruments, into a
 * string the caller keeps across renders, against a per-counter
 * baseline the registry keeps, and moves the baseline forward. A
 * registry therefore has at most one ledger consumer (a campaign
 * worker or an -isolate shard). Renders list instruments in name order
 * through a sorted permutation of the ids, rebuilt only after a new
 * name is interned.
 */

#ifndef GOAT_OBS_METRICS_HH
#define GOAT_OBS_METRICS_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
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

    /** Same fold from a live histogram. */
    void absorb(const Histogram &h);

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

/** Instrument kinds; each has its own id space. */
enum class MetricKind : uint8_t
{
    Counter,
    Gauge,
    Histogram,
};

/**
 * An interned instrument name: a dense index into the process-wide
 * name table of kind @p K. Ids are never reused or removed.
 */
template <MetricKind K>
struct MetricId
{
    uint32_t index = 0;
};

using CounterId = MetricId<MetricKind::Counter>;
using GaugeId = MetricId<MetricKind::Gauge>;
using HistogramId = MetricId<MetricKind::Histogram>;

/** Intern @p name as a counter (find-or-add). */
CounterId internCounter(const std::string &name);

/** Intern @p name as a gauge (find-or-add). */
GaugeId internGauge(const std::string &name);

/**
 * Intern @p name as a histogram. @p bounds are kept only on the
 * name's first interning; they are the bounds `Registry::histogram(id)`
 * registers with.
 */
HistogramId internHistogram(const std::string &name,
                            std::vector<uint64_t> bounds);

/** A set of ids of one kind, as a bitset. */
class IdMask
{
  public:
    void add(uint32_t i);

    bool
    has(uint32_t i) const
    {
        return i / 64 < words_.size() && (words_[i / 64] >> (i % 64) & 1);
    }

    /** Add every id of @p o. */
    void merge(const IdMask &o);

    /** One past the highest id in the set (0 when empty). */
    uint32_t end() const;

    /** Call @p f(id) for every id in the set, ascending. */
    template <class F>
    void
    forEach(F &&f) const
    {
        for (size_t w = 0; w < words_.size(); ++w) {
            for (uint64_t bits = words_[w]; bits; bits &= bits - 1)
                f(static_cast<uint32_t>(w * 64 + __builtin_ctzll(bits)));
        }
    }

  private:
    std::vector<uint64_t> words_;
};

/** A set of instrument ids of every kind. */
struct IdSet
{
    IdMask counters;
    IdMask gauges;
    IdMask histograms;

    void add(CounterId id) { counters.add(id.index); }
    void add(GaugeId id) { gauges.add(id.index); }
    void add(HistogramId id) { histograms.add(id.index); }
};

/**
 * Instrument registry: flat instrument arrays indexed by interned id,
 * plus the set of ids registered here. Instrument addresses are
 * stable for the registry's lifetime, so callers cache references.
 * Copies are deep (a copy's instruments are its own).
 */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &o);
    Registry &operator=(const Registry &o);

    /** Find-or-create the counter with id @p id. */
    Counter &counter(CounterId id);

    /** Find-or-create the gauge with id @p id. */
    Gauge &gauge(GaugeId id);

    /**
     * Find-or-create a histogram with the bounds its name was first
     * interned with.
     */
    Histogram &histogram(HistogramId id);

    /** Find-or-create the counter named @p name. */
    Counter &counter(const std::string &name);

    /** Find-or-create the gauge named @p name. */
    Gauge &gauge(const std::string &name);

    /**
     * Find-or-create a histogram. @p bounds is used only on the first
     * registration in this registry; later calls return the existing
     * instrument.
     */
    Histogram &histogram(const std::string &name,
                         std::vector<uint64_t> bounds);

    /**
     * Exclusive access by id, for a writer that updates many
     * instruments at once (the scheduler's per-run flush): holds the
     * registry's mutex and registers every id in @p ids, whose
     * instruments are then plain array reads. Indexing an id outside
     * @p ids is undefined.
     */
    class Batch
    {
      public:
        Batch(Registry &r, const IdSet &ids);

        Counter &
        operator[](CounterId id)
        {
            return r_.counters_[id.index].inst;
        }

        Gauge &operator[](GaugeId id) { return r_.gauges_[id.index]; }

        Histogram &
        operator[](HistogramId id)
        {
            return *r_.histograms_[id.index];
        }

      private:
        Registry &r_;
        std::lock_guard<std::mutex> guard_;
    };

    /** Value snapshot of every registered instrument. */
    Snapshot snapshot() const;

    /**
     * Render "counters changed since the last call (delta), every
     * gauge, every histogram" as one JSON object into @p out (replacing
     * its contents, keeping its capacity) and move the counter baseline
     * forward. Byte-identical to `snapshot().deltaFrom(prev).jsonStr()`
     * with `prev` the snapshot at the previous call or at the last
     * resetAll() (all zero for a fresh registry), but without building
     * either snapshot. A campaign worker renders into its record's
     * string, which comes back with the record, so once warm a render
     * allocates nothing.
     */
    void deltaJson(std::string *out);

    /**
     * Fold @p o's instruments into this registry's, slot by slot,
     * under this registry's mutex: counters add, gauges setMax,
     * histograms add buckets/count/sum (bounds taken from @p o on
     * first registration here; mismatched bounds add only count/sum),
     * and every instrument registered in @p o becomes registered here.
     * Equal to `absorb(o.snapshot())`. The campaign folds its worker
     * registries into the caller's registry through here.
     */
    void absorb(const Registry &o);

    /**
     * Fold a snapshot into this registry's instruments (find-or-create
     * by name), with the same rules as absorb(const Registry &).
     */
    void absorb(const Snapshot &s);

    /** Zero every instrument and the delta baseline (registration
     *  survives). */
    void resetAll();

    /** Registered instrument names: counters, then gauges, then
     *  histograms, each sorted (for reports and tests). */
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

  private:
    /** A counter and its deltaJson() baseline. */
    struct CounterSlot
    {
        Counter inst;
        uint64_t base = 0;
    };

    // The *Locked helpers run under mtx_.
    void enrollLocked(const IdSet &ids);
    CounterSlot &counterLocked(uint32_t id);
    Gauge &gaugeLocked(uint32_t id);
    /** Find-or-create with @p bounds (null: the interned bounds). */
    Histogram &histogramLocked(uint32_t id,
                               const std::vector<uint64_t> *bounds);
    void absorbLocked(const Registry &o);

    mutable std::mutex mtx_;
    // Indexed by id and grown to the highest registered one; a deque
    // (and a histogram's own allocation) keeps instrument addresses
    // stable as it grows.
    std::deque<CounterSlot> counters_;
    std::deque<Gauge> gauges_;
    std::vector<std::unique_ptr<Histogram>> histograms_;
    /** The ids registered here: what snapshot(), names() and the
     *  renders list. */
    IdSet registered_;
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
