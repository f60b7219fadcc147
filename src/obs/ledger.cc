#include "obs/ledger.hh"

#include <charconv>

#include "base/fmt.hh"
#include "base/logging.hh"

namespace goat::obs {

namespace {

/** Append ,"key":<decimal v>. */
template <class T>
void
appendField(std::string &out, const char *key, T v)
{
    char buf[24];
    auto res = std::to_chars(buf, buf + sizeof buf, v);
    out += ",\"";
    out += key;
    out += "\":";
    out.append(buf, res.ptr);
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
    out += std::to_string(e.iteration);
    appendField(out, "seed", e.seed);
    appendField(out, "delay_bound", e.delayBound);
    appendStr(out, "outcome", e.outcome);
    appendStr(out, "verdict", e.verdict);
    out += e.bug ? ",\"bug\":true" : ",\"bug\":false";
    appendField(out, "steps", e.steps);
    // Omitted entirely when coverage was not measured (< 0).
    if (e.coveragePct >= 0)
        out += strFormat(",\"coverage_pct\":%.3f", e.coveragePct);
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
    if (!f_)
        warn("cannot open ledger file " + path_);
}

RunLedger::~RunLedger()
{
    if (f_)
        std::fclose(f_);
}

void
RunLedger::append(const LedgerEntry &e)
{
    if (!f_)
        return;
    std::string line = ledgerEntryJson(e);
    std::fwrite(line.data(), 1, line.size(), f_);
    std::fputc('\n', f_);
    std::fflush(f_);
    ++lines_;
}

void
RunLedger::appendBatch(const std::vector<LedgerEntry> &rows)
{
    if (!f_ || rows.empty())
        return;
    buf_.clear();
    for (const LedgerEntry &e : rows) {
        appendEntryJson(buf_, e);
        buf_ += '\n';
    }
    std::fwrite(buf_.data(), 1, buf_.size(), f_);
    std::fflush(f_);
    lines_ += rows.size();
}

} // namespace goat::obs
