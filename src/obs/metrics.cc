#include "obs/metrics.hh"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <unordered_map>

#include "base/fmt.hh"

namespace goat::obs {

namespace {

/** @p bounds made strictly ascending (each at least its predecessor
 *  plus one). */
std::vector<uint64_t>
ascending(std::vector<uint64_t> bounds)
{
    for (size_t i = 1; i < bounds.size(); ++i) {
        if (bounds[i] <= bounds[i - 1])
            bounds[i] = bounds[i - 1] + 1;
    }
    return bounds;
}

constexpr size_t kKinds = 3;

/** One interned name. Immutable once added. */
struct NameEntry
{
    std::string name;
    /** The name as an escaped JSON object key ("name":). */
    std::string key;
    /** Histograms only: the bounds of the first interning. */
    std::vector<uint64_t> bounds;
};

/** An immutable view of the name table, per kind: the entries by id
 *  and the ids in name order. */
struct NameView
{
    std::vector<const NameEntry *> byId[kKinds];
    std::vector<uint32_t> sorted[kKinds];
};

/** The process-wide name table. */
class NameTable
{
  public:
    uint32_t
    intern(MetricKind kind, const std::string &name,
           std::vector<uint64_t> *bounds = nullptr)
    {
        const size_t k = static_cast<size_t>(kind);
        std::lock_guard<std::mutex> guard(mtx_);
        auto [it, added] = ids_[k].try_emplace(
            name, static_cast<uint32_t>(entries_[k].size()));
        if (added) {
            auto e = std::make_unique<NameEntry>();
            e->name = name;
            e->key = '"' + jsonEscape(name) + "\":";
            if (bounds)
                e->bounds = ascending(std::move(*bounds));
            entries_[k].push_back(std::move(e));
            view_.reset();
        }
        return it->second;
    }

    const NameEntry &
    entry(MetricKind kind, uint32_t id)
    {
        std::lock_guard<std::mutex> guard(mtx_);
        return *entries_[static_cast<size_t>(kind)][id];
    }

    /** The current view, rebuilt when a name was added since the last
     *  one. */
    std::shared_ptr<const NameView>
    view()
    {
        std::lock_guard<std::mutex> guard(mtx_);
        if (!view_) {
            auto v = std::make_shared<NameView>();
            for (size_t k = 0; k < kKinds; ++k) {
                for (const auto &e : entries_[k])
                    v->byId[k].push_back(e.get());
                std::vector<uint32_t> &order = v->sorted[k];
                order.resize(entries_[k].size());
                std::iota(order.begin(), order.end(), 0u);
                std::sort(order.begin(), order.end(),
                          [&](uint32_t a, uint32_t b) {
                              return v->byId[k][a]->name < v->byId[k][b]->name;
                          });
            }
            view_ = std::move(v);
        }
        return view_;
    }

  private:
    std::mutex mtx_;
    std::unordered_map<std::string, uint32_t> ids_[kKinds];
    std::vector<std::unique_ptr<NameEntry>> entries_[kKinds];
    /** Null after a name was added. */
    std::shared_ptr<const NameView> view_;
};

NameTable &
nameTable()
{
    static NameTable *t = new NameTable(); // outlives static teardown
    return *t;
}

constexpr size_t kC = static_cast<size_t>(MetricKind::Counter);
constexpr size_t kG = static_cast<size_t>(MetricKind::Gauge);
constexpr size_t kH = static_cast<size_t>(MetricKind::Histogram);

} // namespace

CounterId
internCounter(const std::string &name)
{
    return {nameTable().intern(MetricKind::Counter, name)};
}

GaugeId
internGauge(const std::string &name)
{
    return {nameTable().intern(MetricKind::Gauge, name)};
}

HistogramId
internHistogram(const std::string &name, std::vector<uint64_t> bounds)
{
    return {nameTable().intern(MetricKind::Histogram, name, &bounds)};
}

void
IdMask::add(uint32_t i)
{
    if (i / 64 >= words_.size())
        words_.resize(i / 64 + 1);
    words_[i / 64] |= uint64_t{1} << (i % 64);
}

void
IdMask::merge(const IdMask &o)
{
    if (o.words_.size() > words_.size())
        words_.resize(o.words_.size());
    for (size_t w = 0; w < o.words_.size(); ++w)
        words_[w] |= o.words_[w];
}

uint32_t
IdMask::end() const
{
    for (size_t w = words_.size(); w-- > 0;) {
        if (words_[w])
            return static_cast<uint32_t>(w * 64 + 64 -
                                         __builtin_clzll(words_[w]));
    }
    return 0;
}

Histogram::Histogram(std::vector<uint64_t> bounds)
    : bounds_(ascending(std::move(bounds))), buckets_(bounds_.size() + 1)
{
}

void
Histogram::observe(uint64_t v)
{
    size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i])
        ++i;
    ++buckets_[i];
    ++count_;
    sum_ += v;
}

uint64_t
Histogram::bucketCount(size_t i) const
{
    if (i >= buckets_.size())
        return 0;
    return buckets_[i];
}

void
Histogram::absorb(const HistogramSnapshot &h)
{
    if (h.bounds == bounds_ && h.buckets.size() == buckets_.size()) {
        for (size_t i = 0; i < buckets_.size(); ++i)
            buckets_[i] += h.buckets[i];
    }
    count_ += h.count;
    sum_ += h.sum;
}

void
Histogram::absorb(const Histogram &h)
{
    if (h.bounds_ == bounds_) {
        for (size_t i = 0; i < buckets_.size(); ++i)
            buckets_[i] += h.buckets_[i];
    }
    count_ += h.count_;
    sum_ += h.sum_;
}

void
Histogram::reset()
{
    for (auto &b : buckets_)
        b = 0;
    count_ = 0;
    sum_ = 0;
}

void
Snapshot::mergeFrom(const Snapshot &other)
{
    for (const auto &[name, v] : other.counters)
        counters[name] += v;
    for (const auto &[name, v] : other.gauges) {
        auto it = gauges.find(name);
        if (it == gauges.end())
            gauges[name] = v;
        else if (it->second < v)
            it->second = v;
    }
    for (const auto &[name, h] : other.histograms) {
        auto it = histograms.find(name);
        if (it == histograms.end()) {
            histograms[name] = h;
            continue;
        }
        HistogramSnapshot &mine = it->second;
        if (mine.bounds == h.bounds) {
            for (size_t i = 0; i < mine.buckets.size(); ++i)
                mine.buckets[i] += h.buckets[i];
        }
        mine.count += h.count;
        mine.sum += h.sum;
    }
}

Snapshot
Snapshot::deltaFrom(const Snapshot &earlier) const
{
    Snapshot d;
    for (const auto &[name, v] : counters) {
        uint64_t prev = 0;
        auto it = earlier.counters.find(name);
        if (it != earlier.counters.end())
            prev = it->second;
        if (v != prev)
            d.counters[name] = v - prev;
    }
    d.gauges = gauges;
    d.histograms = histograms;
    return d;
}

std::string
Snapshot::jsonStr() const
{
    std::ostringstream os;
    os << "{\"counters\":{";
    bool first = true;
    for (const auto &[name, v] : counters) {
        os << (first ? "" : ",") << '"' << jsonEscape(name) << "\":" << v;
        first = false;
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto &[name, v] : gauges) {
        os << (first ? "" : ",") << '"' << jsonEscape(name) << "\":" << v;
        first = false;
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto &[name, h] : histograms) {
        os << (first ? "" : ",") << '"' << jsonEscape(name)
           << "\":{\"bounds\":[";
        for (size_t i = 0; i < h.bounds.size(); ++i)
            os << (i ? "," : "") << h.bounds[i];
        os << "],\"buckets\":[";
        for (size_t i = 0; i < h.buckets.size(); ++i)
            os << (i ? "," : "") << h.buckets[i];
        os << "],\"count\":" << h.count << ",\"sum\":" << h.sum << '}';
        first = false;
    }
    os << "}}";
    return os.str();
}

Registry::Registry(const Registry &o)
{
    std::lock_guard<std::mutex> guard(o.mtx_);
    counters_ = o.counters_;
    gauges_ = o.gauges_;
    for (const auto &h : o.histograms_)
        histograms_.push_back(h ? std::make_unique<Histogram>(*h) : nullptr);
    registered_ = o.registered_;
}

Registry &
Registry::operator=(const Registry &o)
{
    if (this != &o) {
        Registry copy(o);
        std::lock_guard<std::mutex> guard(mtx_);
        counters_ = std::move(copy.counters_);
        gauges_ = std::move(copy.gauges_);
        histograms_ = std::move(copy.histograms_);
        registered_ = std::move(copy.registered_);
    }
    return *this;
}

Registry::CounterSlot &
Registry::counterLocked(uint32_t id)
{
    if (counters_.size() <= id)
        counters_.resize(id + 1);
    registered_.counters.add(id);
    return counters_[id];
}

Gauge &
Registry::gaugeLocked(uint32_t id)
{
    if (gauges_.size() <= id)
        gauges_.resize(id + 1);
    registered_.gauges.add(id);
    return gauges_[id];
}

Histogram &
Registry::histogramLocked(uint32_t id, const std::vector<uint64_t> *bounds)
{
    if (histograms_.size() <= id)
        histograms_.resize(id + 1);
    std::unique_ptr<Histogram> &h = histograms_[id];
    if (!h) {
        h = std::make_unique<Histogram>(
            bounds ? *bounds
                   : nameTable().entry(MetricKind::Histogram, id).bounds);
        registered_.histograms.add(id);
    }
    return *h;
}

void
Registry::enrollLocked(const IdSet &ids)
{
    if (counters_.size() < ids.counters.end())
        counters_.resize(ids.counters.end());
    registered_.counters.merge(ids.counters);
    if (gauges_.size() < ids.gauges.end())
        gauges_.resize(ids.gauges.end());
    registered_.gauges.merge(ids.gauges);
    ids.histograms.forEach(
        [&](uint32_t id) { histogramLocked(id, nullptr); });
}

Counter &
Registry::counter(CounterId id)
{
    std::lock_guard<std::mutex> guard(mtx_);
    return counterLocked(id.index).inst;
}

Gauge &
Registry::gauge(GaugeId id)
{
    std::lock_guard<std::mutex> guard(mtx_);
    return gaugeLocked(id.index);
}

Histogram &
Registry::histogram(HistogramId id)
{
    std::lock_guard<std::mutex> guard(mtx_);
    return histogramLocked(id.index, nullptr);
}

Counter &
Registry::counter(const std::string &name)
{
    return counter(internCounter(name));
}

Gauge &
Registry::gauge(const std::string &name)
{
    return gauge(internGauge(name));
}

Histogram &
Registry::histogram(const std::string &name, std::vector<uint64_t> bounds)
{
    const HistogramId id = internHistogram(name, bounds);
    std::lock_guard<std::mutex> guard(mtx_);
    return histogramLocked(id.index, &bounds);
}

Registry::Batch::Batch(Registry &r, const IdSet &ids)
    : r_(r), guard_(r.mtx_)
{
    r.enrollLocked(ids);
}

Snapshot
Registry::snapshot() const
{
    std::lock_guard<std::mutex> guard(mtx_);
    // Taken under the lock: every id registered here was interned
    // before it was registered, so the view names it.
    const std::shared_ptr<const NameView> v = nameTable().view();
    Snapshot s;
    for (uint32_t id : v->sorted[kC]) {
        if (registered_.counters.has(id))
            s.counters.emplace_hint(s.counters.end(), v->byId[kC][id]->name,
                                    counters_[id].inst.value());
    }
    for (uint32_t id : v->sorted[kG]) {
        if (registered_.gauges.has(id))
            s.gauges.emplace_hint(s.gauges.end(), v->byId[kG][id]->name,
                                  gauges_[id].value());
    }
    for (uint32_t id : v->sorted[kH]) {
        if (!registered_.histograms.has(id))
            continue;
        const Histogram &h = *histograms_[id];
        HistogramSnapshot hs;
        hs.bounds = h.bounds();
        hs.buckets.resize(hs.bounds.size() + 1);
        for (size_t i = 0; i < hs.buckets.size(); ++i)
            hs.buckets[i] = h.bucketCount(i);
        hs.count = h.count();
        hs.sum = h.sum();
        s.histograms.emplace_hint(s.histograms.end(), v->byId[kH][id]->name,
                                  std::move(hs));
    }
    return s;
}

void
Registry::deltaJson(std::string *dst)
{
    std::lock_guard<std::mutex> guard(mtx_);
    const std::shared_ptr<const NameView> v = nameTable().view();
    std::string &out = *dst;
    out.assign("{\"counters\":{");
    bool first = true;
    for (uint32_t id : v->sorted[kC]) {
        if (!registered_.counters.has(id))
            continue;
        CounterSlot &c = counters_[id];
        const uint64_t val = c.inst.value();
        if (val == c.base)
            continue;
        if (!first)
            out += ',';
        first = false;
        out += v->byId[kC][id]->key;
        appendNum(out, val - c.base);
        c.base = val;
    }
    out += "},\"gauges\":{";
    first = true;
    for (uint32_t id : v->sorted[kG]) {
        if (!registered_.gauges.has(id))
            continue;
        if (!first)
            out += ',';
        first = false;
        out += v->byId[kG][id]->key;
        appendNum(out, gauges_[id].value());
    }
    out += "},\"histograms\":{";
    first = true;
    for (uint32_t id : v->sorted[kH]) {
        if (!registered_.histograms.has(id))
            continue;
        const Histogram &h = *histograms_[id];
        if (!first)
            out += ',';
        first = false;
        out += v->byId[kH][id]->key;
        out += "{\"bounds\":[";
        for (size_t i = 0; i < h.bounds().size(); ++i) {
            if (i)
                out += ',';
            appendNum(out, h.bounds()[i]);
        }
        out += "],\"buckets\":[";
        for (size_t i = 0; i <= h.bounds().size(); ++i) {
            if (i)
                out += ',';
            appendNum(out, h.bucketCount(i));
        }
        out += "],\"count\":";
        appendNum(out, h.count());
        out += ",\"sum\":";
        appendNum(out, h.sum());
        out += '}';
    }
    out += "}}";
}

void
Registry::absorbLocked(const Registry &o)
{
    o.registered_.counters.forEach([&](uint32_t id) {
        counterLocked(id).inst.inc(o.counters_[id].inst.value());
    });
    o.registered_.gauges.forEach([&](uint32_t id) {
        gaugeLocked(id).setMax(o.gauges_[id].value());
    });
    o.registered_.histograms.forEach([&](uint32_t id) {
        const Histogram &h = *o.histograms_[id];
        histogramLocked(id, &h.bounds()).absorb(h);
    });
}

void
Registry::absorb(const Registry &o)
{
    if (&o == this) {
        absorb(o.snapshot());
        return;
    }
    std::scoped_lock guard(mtx_, o.mtx_);
    absorbLocked(o);
}

void
Registry::absorb(const Snapshot &s)
{
    for (const auto &[name, v] : s.counters)
        counter(name).inc(v);
    for (const auto &[name, v] : s.gauges)
        gauge(name).setMax(v);
    for (const auto &[name, h] : s.histograms)
        histogram(name, h.bounds).absorb(h);
}

void
Registry::resetAll()
{
    std::lock_guard<std::mutex> guard(mtx_);
    for (CounterSlot &c : counters_) {
        c.inst.reset();
        c.base = 0;
    }
    for (Gauge &g : gauges_)
        g.reset();
    for (auto &h : histograms_)
        if (h)
            h->reset();
}

std::vector<std::string>
Registry::names() const
{
    std::lock_guard<std::mutex> guard(mtx_);
    const std::shared_ptr<const NameView> v = nameTable().view();
    const IdMask *masks[kKinds] = {&registered_.counters,
                                   &registered_.gauges,
                                   &registered_.histograms};
    std::vector<std::string> out;
    for (size_t k = 0; k < kKinds; ++k) {
        for (uint32_t id : v->sorted[k])
            if (masks[k]->has(id))
                out.push_back(v->byId[k][id]->name);
    }
    return out;
}

Registry &
Registry::global()
{
    static Registry *r = new Registry(); // never destroyed: instruments
                                         // outlive static teardown
    return *r;
}

namespace {
thread_local Registry *tlsRegistry = nullptr;
} // namespace

Registry &
Registry::current()
{
    return tlsRegistry ? *tlsRegistry : global();
}

ScopedRegistry::ScopedRegistry(Registry &r)
    : prev_(tlsRegistry)
{
    tlsRegistry = &r;
}

ScopedRegistry::~ScopedRegistry()
{
    tlsRegistry = prev_;
}

} // namespace goat::obs
