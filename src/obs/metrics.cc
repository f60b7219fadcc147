#include "obs/metrics.hh"

#include <atomic>
#include <charconv>
#include <sstream>

#include "base/fmt.hh"

namespace goat::obs {

Histogram::Histogram(std::vector<uint64_t> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1)
{
    for (size_t i = 1; i < bounds_.size(); ++i) {
        if (bounds_[i] <= bounds_[i - 1])
            bounds_[i] = bounds_[i - 1] + 1; // enforce ascending bounds
    }
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

template <class I>
template <class... Args>
Registry::Slot<I>::Slot(const std::string &name, Args &&...args)
    : inst(std::forward<Args>(args)...),
      key('"' + jsonEscape(name) + "\":")
{
}

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> guard(mtx_);
    return counters_.try_emplace(name, name).first->second.inst;
}

Gauge &
Registry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> guard(mtx_);
    return gauges_.try_emplace(name, name).first->second.inst;
}

Histogram &
Registry::histogram(const std::string &name, std::vector<uint64_t> bounds)
{
    std::lock_guard<std::mutex> guard(mtx_);
    auto it = histograms_.find(name);
    if (it == histograms_.end())
        it = histograms_.try_emplace(name, name, std::move(bounds)).first;
    return it->second.inst;
}

Snapshot
Registry::snapshot() const
{
    std::lock_guard<std::mutex> guard(mtx_);
    Snapshot s;
    for (const auto &[name, c] : counters_)
        s.counters[name] = c.inst.value();
    for (const auto &[name, g] : gauges_)
        s.gauges[name] = g.inst.value();
    for (const auto &[name, slot] : histograms_) {
        const Histogram &h = slot.inst;
        HistogramSnapshot hs;
        hs.bounds = h.bounds();
        hs.buckets.resize(hs.bounds.size() + 1);
        for (size_t i = 0; i < hs.buckets.size(); ++i)
            hs.buckets[i] = h.bucketCount(i);
        hs.count = h.count();
        hs.sum = h.sum();
        s.histograms[name] = std::move(hs);
    }
    return s;
}

namespace {

/** Append the decimal form of @p v (what operator<< would print). */
template <class T>
void
appendNum(std::string &out, T v)
{
    char buf[24];
    auto res = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, res.ptr);
}

} // namespace

std::string
Registry::deltaJson()
{
    std::lock_guard<std::mutex> guard(mtx_);
    std::string out;
    out.reserve(deltaBytes_ + 64);
    out += "{\"counters\":{";
    bool first = true;
    for (auto &[name, c] : counters_) {
        const uint64_t v = c.inst.value();
        if (v == c.base)
            continue;
        if (!first)
            out += ',';
        first = false;
        out += c.key;
        appendNum(out, v - c.base);
        c.base = v;
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto &[name, g] : gauges_) {
        if (!first)
            out += ',';
        first = false;
        out += g.key;
        appendNum(out, g.inst.value());
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto &[name, slot] : histograms_) {
        const Histogram &h = slot.inst;
        if (!first)
            out += ',';
        first = false;
        out += slot.key;
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
    deltaBytes_ = out.size();
    return out;
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
    for (auto &[name, c] : counters_) {
        c.inst.reset();
        c.base = 0;
    }
    for (auto &[name, g] : gauges_)
        g.inst.reset();
    for (auto &[name, h] : histograms_)
        h.inst.reset();
}

std::vector<std::string>
Registry::names() const
{
    std::lock_guard<std::mutex> guard(mtx_);
    std::vector<std::string> out;
    for (const auto &[name, c] : counters_)
        out.push_back(name);
    for (const auto &[name, g] : gauges_)
        out.push_back(name);
    for (const auto &[name, h] : histograms_)
        out.push_back(name);
    return out;
}

uint64_t
Registry::nextId()
{
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
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
