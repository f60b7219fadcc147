#include "obs/ledger.hh"

#include <algorithm>
#include <charconv>

#include <sys/stat.h>

#include "base/fmt.hh"
#include "base/logging.hh"

namespace goat::obs {

namespace {

/** Append ,"key":<decimal v>. */
template <class T>
void
appendField(std::string &out, const char *key, T v)
{
    out += ",\"";
    out += key;
    out += "\":";
    appendNum(out, v);
}

/** Append ,"key":"<escaped s>". */
void
appendStr(std::string &out, const char *key, const std::string &s)
{
    out += ",\"";
    out += key;
    out += "\":\"";
    out += jsonEscape(s);
    out += '"';
}

/** Append ledgerEntryJson(@p e) to @p out (no newline). */
void
appendEntryJson(std::string &out, const LedgerEntry &e)
{
    const std::string metrics =
        e.metricsJson.empty() ? e.metricsDelta.jsonStr() : std::string();
    const std::string &m = e.metricsJson.empty() ? metrics : e.metricsJson;
    if (out.empty())
        out.reserve(256 + m.size());
    out += "{\"iter\":";
    appendNum(out, e.iteration);
    appendField(out, "seed", e.seed);
    appendField(out, "delay_bound", e.delayBound);
    appendStr(out, "outcome", e.outcome);
    appendStr(out, "verdict", e.verdict);
    out += e.bug ? ",\"bug\":true" : ",\"bug\":false";
    appendField(out, "steps", e.steps);
    // Omitted entirely when coverage was not measured (< 0).
    // std::to_chars rounds like printf's %.3f, without the format
    // parse; the buffer holds any double in fixed notation.
    if (e.coveragePct >= 0) {
        char buf[400];
        auto res = std::to_chars(buf, buf + sizeof buf, e.coveragePct,
                                 std::chars_format::fixed, 3);
        out += ",\"coverage_pct\":";
        out.append(buf, res.ptr);
    }
    // Saturation counts ride along with coverage measurement.
    if (e.satCovered >= 0 && e.satTotal >= 0) {
        appendField(out, "covered", e.satCovered);
        appendField(out, "req_total", e.satTotal);
    }
    appendField(out, "wall_us", e.wallMicros);
    // Campaign rows carry worker tags; untagged rows (worker -1) omit them.
    if (e.worker >= 0) {
        appendField(out, "worker", e.worker);
        appendField(out, "wseq", e.workerSeq);
    }
    // Repro fields appear only on recorded/minimized bug rows.
    if (!e.recipePath.empty())
        appendStr(out, "recipe", e.recipePath);
    if (e.minimizedYields >= 0)
        appendField(out, "min_yields", e.minimizedYields);
    // Lint-bridge fields appear only on lint-guided campaign ledgers;
    // the confirmed count additionally only on the bug row.
    if (e.staticWarnings >= 0)
        appendField(out, "static_warnings", e.staticWarnings);
    if (e.confirmedWarnings >= 0)
        appendField(out, "confirmed_warnings", e.confirmedWarnings);
    // Predictive-analysis fields appear only on -predict campaign
    // ledgers; the confirmed count additionally only on rows whose
    // iteration contributed confirmed predictions.
    if (e.predicted >= 0)
        appendField(out, "predicted", e.predicted);
    if (e.predictedConfirmed >= 0)
        appendField(out, "predicted_confirmed", e.predictedConfirmed);
    // Supervisor fields appear only on isolate-mode campaign ledgers.
    if (!e.crashCause.empty())
        appendStr(out, "crash_cause", e.crashCause);
    if (e.respawns >= 0)
        appendField(out, "respawns", e.respawns);
    // Per-iteration stage-profiler delta (compact: no buckets).
    if (!e.profileJson.empty()) {
        out += ",\"profile\":";
        out += e.profileJson;
    }
    out += ",\"metrics\":";
    out += m;
    out += '}';
}

} // namespace

std::string
ledgerEntryJson(const LedgerEntry &e)
{
    std::string out;
    appendEntryJson(out, e);
    return out;
}

RunLedger::RunLedger(const std::string &path)
    : path_(path)
{
    if (path_.empty())
        return;
    f_ = std::fopen(path_.c_str(), "a");
    if (!f_) {
        warn("cannot open ledger file " + path_);
        return;
    }
    struct stat st;
    if (::fstat(::fileno(f_), &st) == 0)
        bytes_ = static_cast<uint64_t>(st.st_size);
}

RunLedger::~RunLedger()
{
    if (f_) {
        flush();
        std::fclose(f_);
    }
}

bool
RunLedger::write(const char *data, size_t n)
{
    const size_t done = std::fwrite(data, 1, n, f_);
    bytes_ += done;
    return std::fflush(f_) == 0 && done == n;
}

void
RunLedger::append(const LedgerEntry &e)
{
    stage(e);
    flush();
}

void
RunLedger::stage(const LedgerEntry &e)
{
    if (!f_)
        return;
    appendEntryJson(buf_, e);
    buf_ += '\n';
    if (++staged_ >= kStagedRows)
        flush();
}

void
RunLedger::flush()
{
    if (!f_ || staged_ == 0)
        return;
    write(buf_.data(), buf_.size());
    lines_ += staged_;
    staged_ = 0;
    buf_.clear();
}

bool
RunLedger::appendRange(const std::string &path, uint64_t from, uint64_t to)
{
    if (!f_)
        return false;
    flush();
    std::FILE *in = std::fopen(path.c_str(), "rb");
    if (!in)
        return false;
    bool ok = ::fseeko(in, static_cast<off_t>(from), SEEK_SET) == 0;
    char chunk[1 << 16];
    for (uint64_t left = to - from; ok && left > 0;) {
        const size_t want =
            static_cast<size_t>(std::min<uint64_t>(left, sizeof chunk));
        const size_t got = std::fread(chunk, 1, want, in);
        ok = got == want && write(chunk, got);
        left -= got;
    }
    std::fclose(in);
    return ok;
}

} // namespace goat::obs
