#include "obs/progress.hh"

#include <cstdio>

#include "base/fileio.hh"
#include "base/fmt.hh"

namespace goat::obs {

namespace {

/** Status-JSON keys per verdict slot (mirrors analysis::Verdict). */
const char *const kVerdictKeys[ProgressCounters::kVerdicts] = {
    "pass",
    "partial_deadlock",
    "global_deadlock",
    "crash",
    "timeout",
};

/** Short heartbeat labels in the same order. */
const char *const kVerdictShort[ProgressCounters::kVerdicts] = {
    "pass",
    "pdl",
    "gdl",
    "crash",
    "to",
};

} // namespace

ProgressReporter::ProgressReporter(ProgressConfig cfg,
                                   ProgressCounters &counters)
    : cfg_(std::move(cfg)), counters_(counters),
      t0_(std::chrono::steady_clock::now())
{
    if (cfg_.intervalSeconds > 0 || !cfg_.statusPath.empty())
        thread_ = std::thread([this]() { loop(); });
    else
        stopped_ = true;
}

ProgressReporter::~ProgressReporter()
{
    stop();
}

void
ProgressReporter::stop()
{
    {
        std::lock_guard<std::mutex> lk(mtx_);
        if (stopped_)
            return;
        stopping_ = true;
        stopped_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable())
        thread_.join();
    // Final snapshot: the status file always ends complete.
    if (!cfg_.statusPath.empty() && !writeStatus(true))
        statusOk_ = false;
}

void
ProgressReporter::loop()
{
    // The status file appears promptly even for 1 s intervals on a
    // short campaign: write an initial snapshot, then tick.
    if (!cfg_.statusPath.empty() && !writeStatus(false))
        statusOk_ = false;
    int interval = cfg_.intervalSeconds > 0 ? cfg_.intervalSeconds : 1;
    std::unique_lock<std::mutex> lk(mtx_);
    while (!stopping_) {
        cv_.wait_for(lk, std::chrono::seconds(interval));
        if (stopping_)
            break;
        lk.unlock();
        if (cfg_.intervalSeconds > 0)
            emitHeartbeat();
        if (!cfg_.statusPath.empty() && !writeStatus(false))
            statusOk_ = false;
        lk.lock();
    }
}

void
ProgressReporter::emitHeartbeat()
{
    uint64_t done = counters_.executed.load(std::memory_order_relaxed);
    uint64_t bugs = counters_.bugs.load(std::memory_order_relaxed);
    double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0_)
            .count();
    double rate = secs > 0 ? static_cast<double>(done) / secs : 0;

    std::string line =
        strFormat("goat: %s %llu", cfg_.label.c_str(),
                  static_cast<unsigned long long>(done));
    if (cfg_.totalIterations > 0)
        line += strFormat("/%d", cfg_.totalIterations);
    line += strFormat(" iters (%.1f/s)", rate);
    if (cfg_.haveCoverage) {
        uint64_t pm =
            counters_.coveragePermille.load(std::memory_order_relaxed);
        line += strFormat(", coverage %.1f%%",
                          static_cast<double>(pm) / 10.0);
    }
    line += strFormat(", bugs %llu",
                      static_cast<unsigned long long>(bugs));
    for (size_t i = 0; i < ProgressCounters::kVerdicts; ++i) {
        uint64_t v = counters_.verdict[i].load(std::memory_order_relaxed);
        if (v)
            line += strFormat(", %s=%llu", kVerdictShort[i],
                              static_cast<unsigned long long>(v));
    }
    uint64_t respawns =
        counters_.respawns.load(std::memory_order_relaxed);
    if (respawns)
        line += strFormat(", respawns %llu",
                          static_cast<unsigned long long>(respawns));
    if (cfg_.totalIterations > 0 && rate > 0 &&
        done < static_cast<uint64_t>(cfg_.totalIterations)) {
        double eta =
            static_cast<double>(
                static_cast<uint64_t>(cfg_.totalIterations) - done) /
            rate;
        line += strFormat(", eta %.0fs", eta);
    }
    std::fprintf(stderr, "%s\n", line.c_str());
}

std::string
ProgressReporter::statusJson(bool done) const
{
    uint64_t executed =
        counters_.executed.load(std::memory_order_relaxed);
    uint64_t bugs = counters_.bugs.load(std::memory_order_relaxed);
    double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0_)
            .count();
    double rate = secs > 0 ? static_cast<double>(executed) / secs : 0;

    std::string out = "{\"kernel\":\"" + jsonEscape(cfg_.label) + "\"";
    out += strFormat(",\"running\":%s", done ? "false" : "true");
    out += strFormat(",\"executed\":%llu",
                     static_cast<unsigned long long>(executed));
    if (cfg_.totalIterations > 0)
        out += strFormat(",\"budget\":%d", cfg_.totalIterations);
    out += strFormat(",\"iters_per_sec\":%.3f", rate);
    out += strFormat(",\"elapsed_sec\":%.3f", secs);
    if (cfg_.haveCoverage) {
        uint64_t pm =
            counters_.coveragePermille.load(std::memory_order_relaxed);
        out += strFormat(",\"coverage_pct\":%.1f",
                         static_cast<double>(pm) / 10.0);
    }
    out += strFormat(",\"bugs\":%llu",
                     static_cast<unsigned long long>(bugs));
    out += strFormat(",\"respawns\":%llu",
                     static_cast<unsigned long long>(
                         counters_.respawns.load(
                             std::memory_order_relaxed)));
    out += ",\"verdicts\":{";
    for (size_t i = 0; i < ProgressCounters::kVerdicts; ++i) {
        if (i)
            out += ',';
        out += strFormat(
            "\"%s\":%llu", kVerdictKeys[i],
            static_cast<unsigned long long>(
                counters_.verdict[i].load(std::memory_order_relaxed)));
    }
    out += "}}";
    return out;
}

bool
ProgressReporter::writeStatus(bool done)
{
    return goat::atomicWriteFile(cfg_.statusPath, statusJson(done) + "\n");
}

} // namespace goat::obs
