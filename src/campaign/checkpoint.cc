#include "campaign/checkpoint.hh"

#include <cerrno>
#include <cstdio>
#include <sstream>
#include <string_view>
#include <unordered_set>

#include <fcntl.h>
#include <unistd.h>

#include "analysis/deadlock.hh"
#include "base/fileio.hh"
#include "base/fmt.hh"

namespace goat::campaign {

bool
rowOutcomeFromName(const std::string &name, runtime::RunOutcome *out)
{
    if (runtime::runOutcomeFromName(name, out))
        return true;
    if (name == kCrashed) {
        *out = runtime::RunOutcome::Crash;
        return true;
    }
    if (name == kTimedOut) {
        *out = runtime::RunOutcome::StepBudget;
        return true;
    }
    return false;
}

namespace {

const char kMagicV1[] = "# goat-checkpoint v1";
const char kMagicV2[] = "# goat-checkpoint v2";
const char kMagicV3[] = "# goat-checkpoint v3";

/** Exact-round-trip double encoding (shortest form that re-parses). */
std::string
dblStr(double v)
{
    return strFormat("%.17g", v);
}

/** "key value" split; value may contain spaces (metrics JSON). */
bool
keyVal(const std::string &line, std::string *key, std::string *val)
{
    size_t sp = line.find(' ');
    if (sp == std::string::npos) {
        *key = line;
        val->clear();
        return !key->empty();
    }
    *key = line.substr(0, sp);
    *val = line.substr(sp + 1);
    return true;
}

/** Parse a 0/1 flag. */
bool
parseFlag(std::string_view s, bool *out)
{
    if (s != "0" && s != "1")
        return false;
    *out = s == "1";
    return true;
}

/** Append " <decimal v>". */
template <class T>
void
appendField(std::string &out, T v)
{
    out += ' ';
    appendNum(out, v);
}

/** Append the decimal form of @p v followed by a newline. */
template <class T>
void
appendNumLine(std::string &out, const char *key, T v)
{
    out += key;
    appendField(out, v);
    out += '\n';
}

/** Append the commit line of @p rows rows, which starts at @p offset. */
void
appendCommit(std::string &out, size_t rows, uint64_t offset)
{
    out += "commit";
    appendField(out, rows);
    appendField(out, offset);
    out += '\n';
}

/** Append a cov_begin/cov_end block ("" bitmap = nothing). */
void
appendCovBlock(std::string &out, const std::string &bitmap)
{
    if (bitmap.empty())
        return;
    out += "cov_begin\n";
    out += bitmap;
    if (bitmap.back() != '\n')
        out += '\n';
    out += "cov_end\n";
}

/** Split @p text into lines (trailing newlines stripped). */
std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t nl = text.find('\n', pos);
        if (nl == std::string::npos) {
            lines.push_back(text.substr(pos));
            break;
        }
        lines.push_back(text.substr(pos, nl - pos));
        pos = nl + 1;
    }
    return lines;
}

/**
 * Read the cov block whose "cov_begin" line is lines[*idx] into
 * @p bitmap; *idx is advanced past "cov_end".
 * @retval false when the block is unterminated.
 */
bool
parseCovLines(const std::vector<std::string> &lines, size_t *idx,
              std::string *bitmap)
{
    bitmap->clear();
    size_t i = *idx + 1;
    for (; i < lines.size() && lines[i] != "cov_end"; ++i) {
        *bitmap += lines[i];
        *bitmap += '\n';
    }
    *idx = i + 1;
    return i < lines.size();
}

/** Append one ledger row as a row_begin/row_end block. */
void
serializeRow(std::string &out, const obs::LedgerEntry &e)
{
    out += "row_begin\n";
    appendNumLine(out, "iter", e.iteration);
    appendNumLine(out, "seed", e.seed);
    appendNumLine(out, "delay_bound", e.delayBound);
    out += "outcome ";
    out += e.outcome;
    out += "\nverdict ";
    out += e.verdict;
    out += '\n';
    appendNumLine(out, "bug", e.bug ? 1 : 0);
    appendNumLine(out, "steps", e.steps);
    out += "coverage_pct ";
    out += dblStr(e.coveragePct);
    out += '\n';
    appendNumLine(out, "sat_covered", e.satCovered);
    appendNumLine(out, "sat_total", e.satTotal);
    appendNumLine(out, "wall_us", e.wallMicros);
    appendNumLine(out, "worker", e.worker);
    appendNumLine(out, "wseq", e.workerSeq);
    appendNumLine(out, "static_warnings", e.staticWarnings);
    if (!e.crashCause.empty()) {
        out += "crash_cause ";
        out += e.crashCause;
        out += '\n';
    }
    appendNumLine(out, "respawns", e.respawns);
    // The metrics object rides along as the exact JSON it was first
    // rendered to, so a re-emitted ledger line is byte-identical.
    out += "metrics ";
    out += e.metricsJson.empty() ? e.metricsDelta.jsonStr() : e.metricsJson;
    out += "\nrow_end\n";
}

/**
 * Parse one row block from @p lines starting at *idx (which must point
 * at the "row_begin" line); *idx is advanced past "row_end".
 * @retval false on malformed input.
 */
bool
parseRowLines(const std::vector<std::string> &lines, size_t *idx,
              obs::LedgerEntry *out)
{
    size_t i = *idx;
    if (i >= lines.size() || lines[i] != "row_begin")
        return false;
    ++i;
    *out = obs::LedgerEntry{};
    std::string key, val;
    for (; i < lines.size(); ++i) {
        if (lines[i] == "row_end") {
            *idx = i + 1;
            // The row keeps the names; they must name known values.
            runtime::RunOutcome outcome;
            analysis::Verdict verdict;
            return out->iteration > 0 &&
                   rowOutcomeFromName(out->outcome, &outcome) &&
                   analysis::verdictFromName(out->verdict, &verdict);
        }
        if (!keyVal(lines[i], &key, &val))
            return false;
        bool ok = true;
        if (key == "iter")
            ok = parseNum(val, &out->iteration);
        else if (key == "seed")
            ok = parseNum(val, &out->seed);
        else if (key == "delay_bound")
            ok = parseNum(val, &out->delayBound);
        else if (key == "outcome")
            out->outcome = val;
        else if (key == "verdict")
            out->verdict = val;
        else if (key == "bug")
            ok = parseFlag(val, &out->bug);
        else if (key == "steps")
            ok = parseNum(val, &out->steps);
        else if (key == "coverage_pct")
            ok = parseNum(val, &out->coveragePct);
        else if (key == "sat_covered")
            ok = parseNum(val, &out->satCovered);
        else if (key == "sat_total")
            ok = parseNum(val, &out->satTotal);
        else if (key == "wall_us")
            ok = parseNum(val, &out->wallMicros);
        else if (key == "worker")
            ok = parseNum(val, &out->worker);
        else if (key == "wseq")
            ok = parseNum(val, &out->workerSeq);
        else if (key == "static_warnings")
            ok = parseNum(val, &out->staticWarnings);
        else if (key == "crash_cause")
            out->crashCause = val;
        else if (key == "respawns")
            ok = parseNum(val, &out->respawns);
        else if (key == "metrics")
            out->metricsJson = val;
        // Unknown keys are skipped for forward compatibility.
        if (!ok)
            return false;
    }
    return false; // ran out of lines before row_end
}

/** Header of a v2 log. */
std::string
v2Header(const std::string &fingerprint)
{
    return std::string(kMagicV2) + "\nfingerprint " + fingerprint + "\n";
}

/**
 * Close a one-round v2 log: append the samples @p sat, the summary
 * keys and coverage block of @p d, and the commit line for @p rowCount
 * rows. @p out already holds the header and the row blocks.
 */
void
appendV2Round(std::string &out, const CheckpointData &d, size_t rowCount,
              const std::vector<obs::SaturationSample> &sat)
{
    for (size_t i = 0; i < sat.size(); ++i) {
        const obs::SaturationSample &s = sat[i];
        out += strFormat("sat %d %llu %llu %llu %llu %llu %llu\n", s.iter,
                         static_cast<unsigned long long>(s.covered),
                         static_cast<unsigned long long>(s.total),
                         static_cast<unsigned long long>(s.blocked),
                         static_cast<unsigned long long>(s.unblocking),
                         static_cast<unsigned long long>(s.nop),
                         static_cast<unsigned long long>(s.blocking));
    }
    appendNumLine(out, "executed", d.executed);
    appendNumLine(out, "respawns", d.respawns);
    appendNumLine(out, "crashes", d.crashes);
    appendNumLine(out, "timeouts", d.timeouts);
    appendNumLine(out, "bug_iteration", d.bugIteration);
    appendNumLine(out, "race_iteration", d.raceIteration);
    appendNumLine(out, "stopped", d.stopped ? 1 : 0);
    appendCovBlock(out, d.covBitmap);
    appendCommit(out, rowCount, out.size());
}

/**
 * End of the last complete commit line of a v2/v3 log (0 = none).
 * Anything after it is a torn append.
 */
size_t
committedEnd(const std::string &text)
{
    size_t end = 0;
    for (size_t pos = 0; pos < text.size();) {
        size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            break; // a torn last line
        if (text.compare(pos, 7, "commit ") == 0)
            end = nl + 1;
        pos = nl + 1;
    }
    return end;
}

// ---- v3: one line per row; the ledger holds the rows

/** Append the line binding the log to @p ledger (or to none). */
void
appendBinding(std::string &out, const LedgerSpan &ledger)
{
    if (ledger.path.empty()) {
        out += "ledger none\n";
        return;
    }
    out += "ledger";
    appendField(out, ledger.start);
    out += ' ';
    out += ledger.path;
    out += '\n';
}

/** Header of a v3 log. */
std::string
v3Header(const std::string &fingerprint, const LedgerSpan &ledger)
{
    std::string out =
        std::string(kMagicV3) + "\nfingerprint " + fingerprint + "\n";
    if (!ledger.path.empty())
        appendBinding(out, ledger);
    return out;
}

/** Append the row line of @p e and its sample @p s (null = none). */
void
appendRowLine(std::string &out, const obs::LedgerEntry &e,
              const obs::SaturationSample *s)
{
    out += "row";
    appendField(out, e.iteration);
    out += ' ';
    out += e.outcome;
    out += ' ';
    out += e.verdict;
    out += e.bug ? " 1" : " 0";
    appendField(out, e.steps);
    appendField(out, e.wallMicros);
    if (s) {
        appendField(out, s->covered);
        appendField(out, s->total);
        appendField(out, s->blocked);
        appendField(out, s->unblocking);
        appendField(out, s->nop);
        appendField(out, s->blocking);
    }
    if (e.respawns >= 0 || !e.crashCause.empty()) {
        appendField(out, e.respawns);
        out += ' ';
        out += e.crashCause.empty() ? "-" : e.crashCause;
    }
    out += '\n';
}

/** Append the state line of @p d. */
void
appendState(std::string &out, const CheckpointData &d)
{
    out += "state";
    appendField(out, d.executed);
    appendField(out, d.respawns);
    appendField(out, d.crashes);
    appendField(out, d.timeouts);
    appendField(out, d.bugIteration);
    appendField(out, d.raceIteration);
    out += d.stopped ? " 1" : " 0";
    if (d.ledger.path.empty())
        out += " -1";
    else
        appendField(out, d.ledger.end);
    out += '\n';
}

/** Append the cov block of the lines of @p now that @p before lacks. */
void
appendNewCovLines(std::string &out, const std::string &before,
                  const std::string &now)
{
    if (now == before)
        return;
    std::unordered_set<std::string_view> seen;
    for (std::string_view l : strSplitView(before, '\n'))
        seen.insert(l);
    std::string added;
    for (std::string_view l : strSplitView(now, '\n')) {
        if (!l.empty() && !seen.count(l)) {
            added += l;
            added += '\n';
        }
    }
    appendCovBlock(out, added);
}

/**
 * Parse the fields of a row line (after "row "); @p iter is the
 * iteration it must carry. *sat is set when the row carries a sample.
 */
bool
parseRowLine(std::string_view val, int iter, obs::LedgerEntry *e,
             obs::SaturationSample *sat, bool *sampled)
{
    const std::vector<std::string_view> f = strSplitView(val, ' ');
    const size_t n = f.size();
    if (n != 6 && n != 8 && n != 12 && n != 14)
        return false;
    *e = obs::LedgerEntry{};
    e->outcome = f[1];
    e->verdict = f[2];
    runtime::RunOutcome outcome;
    analysis::Verdict verdict;
    if (!parseNum(f[0], &e->iteration) || e->iteration != iter ||
        !rowOutcomeFromName(e->outcome, &outcome) ||
        !analysis::verdictFromName(e->verdict, &verdict) ||
        !parseFlag(f[3], &e->bug) ||
        !parseNum(f[4], &e->steps) || !parseNum(f[5], &e->wallMicros))
        return false;
    *sampled = n >= 12;
    if (*sampled) {
        *sat = obs::SaturationSample{};
        sat->iter = iter;
        if (!parseNum(f[6], &sat->covered) || !parseNum(f[7], &sat->total) ||
            !parseNum(f[8], &sat->blocked) ||
            !parseNum(f[9], &sat->unblocking) || !parseNum(f[10], &sat->nop) ||
            !parseNum(f[11], &sat->blocking) || sat->covered > sat->total)
            return false;
        e->satCovered = static_cast<int64_t>(sat->covered);
        e->satTotal = static_cast<int64_t>(sat->total);
        // CoverageState::percent's expression, so the value is exact.
        e->coveragePct = sat->total == 0
                             ? 100.0
                             : 100.0 * static_cast<double>(sat->covered) /
                                   static_cast<double>(sat->total);
    }
    if (n == 8 || n == 14) {
        if (!parseNum(f[n - 2], &e->respawns) || f[n - 1].empty())
            return false;
        if (f[n - 1] != "-")
            e->crashCause = f[n - 1];
    }
    return true;
}

/** Parse a state line's fields (after "state "). */
bool
parseStateLine(std::string_view val, CheckpointData *out, int64_t *ledgerEnd)
{
    const std::vector<std::string_view> f = strSplitView(val, ' ');
    return f.size() == 8 && parseNum(f[0], &out->executed) &&
           parseNum(f[1], &out->respawns) && parseNum(f[2], &out->crashes) &&
           parseNum(f[3], &out->timeouts) &&
           parseNum(f[4], &out->bugIteration) &&
           parseNum(f[5], &out->raceIteration) &&
           parseFlag(f[6], &out->stopped) &&
           parseNum(f[7], ledgerEnd) && *ledgerEnd >= -1;
}

/** Parse a ledger binding's value ("none", or "<start> <path>"). */
bool
parseBinding(const std::string &val, LedgerSpan *out)
{
    *out = LedgerSpan{};
    if (val == "none")
        return true;
    size_t sp = val.find(' ');
    if (sp == std::string::npos || sp + 1 == val.size())
        return false;
    out->path = val.substr(sp + 1);
    return parseNum(std::string_view(val).substr(0, sp), &out->start);
}

/**
 * Parse the committed prefix of a v3 log. The first line is the magic;
 * *why names the first problem on failure.
 */
bool
parseV3(const std::string &text, CheckpointData *out, std::string *why)
{
    out->version = 3;
    const size_t end = committedEnd(text);
    if (end == 0) {
        *why = "checkpoint log has no committed round";
        return false;
    }
    out->committedLog = text.substr(0, end);
    const std::vector<std::string> lines = splitLines(out->committedLog);
    std::vector<uint64_t> starts(lines.size());
    for (size_t i = 1; i < lines.size(); ++i)
        starts[i] = starts[i - 1] + lines[i - 1].size() + 1;
    // The state line of the open round, and the ledger end it names.
    bool stated = false;
    int64_t ledger_end = -1;
    std::string key, val, block;
    for (size_t i = 1; i < lines.size();) {
        const std::string &line = lines[i];
        if (line.empty()) {
            ++i;
            continue;
        }
        if (line == "cov_begin") {
            // Every block adds the lines new in its round.
            if (!parseCovLines(lines, &i, &block)) {
                *why = "unterminated cov block";
                return false;
            }
            out->covBitmap += block;
            continue;
        }
        bool ok = keyVal(line, &key, &val);
        if (ok && key == "fingerprint") {
            out->fingerprint = val;
        } else if (ok && key == "ledger") {
            ok = parseBinding(val, &out->ledger);
        } else if (ok && key == "row") {
            obs::LedgerEntry e;
            obs::SaturationSample s;
            bool sampled = false;
            ok = parseRowLine(val, static_cast<int>(out->rows.size()) + 1, &e,
                              &s, &sampled);
            if (ok && sampled)
                out->satSamples.push_back(s);
            if (ok)
                out->rows.push_back(std::move(e));
        } else if (ok && key == "state") {
            ok = parseStateLine(val, out, &ledger_end);
            stated = ok;
        } else if (ok && key == "commit") {
            // A commit closes a round with a state line, and names a
            // ledger end iff the log is bound to a ledger.
            const std::vector<std::string_view> f = strSplitView(val, ' ');
            uint64_t off = 0;
            const bool bound = !out->ledger.path.empty();
            ok = f.size() == 2 && parseNum(f[0], &out->cursor) &&
                 parseNum(f[1], &off) && off == starts[i] &&
                 static_cast<size_t>(out->cursor) == out->rows.size() &&
                 stated && bound == (ledger_end >= 0) &&
                 (!bound ||
                  static_cast<uint64_t>(ledger_end) >= out->ledger.start);
            stated = false;
        }
        // Unknown keys are skipped for forward compatibility.
        if (!ok) {
            *why = "malformed line: " + line;
            return false;
        }
        ++i;
    }
    if (ledger_end >= 0)
        out->ledger.end = static_cast<uint64_t>(ledger_end);
    return true;
}

} // namespace

std::string
configFingerprint(const CampaignConfig &cfg)
{
    const engine::GoatConfig &e = cfg.engine;
    std::ostringstream os;
    os << "kernel=" << cfg.programName << ";seed=" << e.seedBase
       << ";d=" << e.delayBound << ";noise=" << dblStr(e.noiseProb)
       << ";budget=" << e.stepBudget << ";cov=" << (e.collectCoverage ? 1 : 0)
       // The removed coverage-guided policy's field: logs of unguided
       // campaigns keep matching, and a guided=1 log never does.
       << ";guided=0"
       << ";covthr=" << dblStr(e.covThreshold)
       << ";stoponbug=" << (e.stopOnBug ? 1 : 0)
       << ";race=" << (e.raceDetect ? 1 : 0)
       << ";lint=" << (cfg.lintBridge ? 1 : 0)
       << ";prio=" << e.prioritySites.size();
    return os.str();
}

std::string
digestToString(const ShardDigest &d)
{
    std::string out;
    serializeRow(out, d.row);
    appendCovBlock(out, d.covBitmap);
    return out;
}

bool
digestFromString(const std::string &text, ShardDigest *out)
{
    *out = ShardDigest{};
    std::vector<std::string> lines = splitLines(text);
    size_t i = 0;
    if (!parseRowLines(lines, &i, &out->row))
        return false;
    return i >= lines.size() || lines[i] != "cov_begin" ||
           parseCovLines(lines, &i, &out->covBitmap);
}

std::string
checkpointToString(const CheckpointData &d)
{
    std::string out = v2Header(d.fingerprint);
    for (const obs::LedgerEntry &e : d.rows)
        serializeRow(out, e);
    appendV2Round(out, d, d.rows.size(), d.satSamples);
    return out;
}

bool
parseCheckpoint(const std::string &text, CheckpointData *out,
                std::string *err)
{
    *out = CheckpointData{};
    auto fail = [err](const std::string &why) {
        if (err)
            *err = why;
        return false;
    };
    const std::string magic = text.substr(0, text.find('\n'));
    if (magic == kMagicV3) {
        std::string why;
        return parseV3(text, out, &why) || fail(why);
    }
    const bool v2 = magic == kMagicV2;
    if (!v2 && magic != kMagicV1)
        return fail("bad checkpoint magic");
    out->version = v2 ? 2 : 1;
    if (v2) {
        // Only the committed prefix counts; a torn append is ignored.
        const size_t end = committedEnd(text);
        if (end == 0)
            return fail("checkpoint log has no committed round");
        out->committedLog = text.substr(0, end);
    }
    const std::vector<std::string> lines =
        splitLines(v2 ? out->committedLog : text);
    // Byte offset of every line (v2 commit lines are checked against
    // their own position).
    std::vector<uint64_t> starts(lines.size());
    for (size_t i = 1; i < lines.size(); ++i)
        starts[i] = starts[i - 1] + lines[i - 1].size() + 1;

    std::string key, val;
    for (size_t i = 1; i < lines.size();) {
        const std::string &line = lines[i];
        if (line.empty()) {
            ++i;
            continue;
        }
        if (line == "row_begin") {
            obs::LedgerEntry e;
            if (!parseRowLines(lines, &i, &e))
                return fail("malformed row block");
            out->rows.push_back(std::move(e));
            continue;
        }
        if (line == "cov_begin") {
            // A log carries one block per round; the last one wins.
            if (!parseCovLines(lines, &i, &out->covBitmap))
                return fail("unterminated cov block");
            continue;
        }
        if (!keyVal(line, &key, &val))
            return fail("malformed line: " + line);
        bool ok = true;
        if (key == "fingerprint")
            out->fingerprint = val;
        else if (key == "cursor")
            ok = parseNum(val, &out->cursor);
        else if (key == "executed")
            ok = parseNum(val, &out->executed);
        else if (key == "respawns")
            ok = parseNum(val, &out->respawns);
        else if (key == "crashes")
            ok = parseNum(val, &out->crashes);
        else if (key == "timeouts")
            ok = parseNum(val, &out->timeouts);
        else if (key == "bug_iteration")
            ok = parseNum(val, &out->bugIteration);
        else if (key == "race_iteration")
            ok = parseNum(val, &out->raceIteration);
        else if (key == "stopped")
            ok = parseFlag(val, &out->stopped);
        else if (key == "sat") {
            obs::SaturationSample s;
            std::istringstream is(val);
            std::string f[7];
            for (std::string &x : f)
                is >> x;
            ok = is.eof() && parseNum(f[0], &s.iter) &&
                 parseNum(f[1], &s.covered) && parseNum(f[2], &s.total) &&
                 parseNum(f[3], &s.blocked) &&
                 parseNum(f[4], &s.unblocking) &&
                 parseNum(f[5], &s.nop) && parseNum(f[6], &s.blocking);
            if (ok)
                out->satSamples.push_back(s);
        } else if (v2 && key == "commit") {
            size_t sp = val.find(' ');
            uint64_t off = 0;
            ok = sp != std::string::npos &&
                 parseNum(val.substr(0, sp), &out->cursor) &&
                 parseNum(val.substr(sp + 1), &off) && off == starts[i] &&
                 static_cast<size_t>(out->cursor) == out->rows.size();
        }
        // Unknown keys are skipped for forward compatibility.
        if (!ok)
            return fail("malformed line: " + line);
        ++i;
    }
    if (static_cast<int>(out->rows.size()) != out->cursor)
        return fail(strFormat("row count %zu does not match cursor %d",
                              out->rows.size(), out->cursor));
    for (size_t r = 0; r < out->rows.size(); ++r) {
        if (out->rows[r].iteration != static_cast<int>(r) + 1)
            return fail("rows are not contiguous from iteration 1");
    }
    return true;
}

bool
writeCheckpointFile(const std::string &path, const CheckpointData &d)
{
    return atomicWriteFile(path, checkpointToString(d));
}

bool
readCheckpointFile(const std::string &path, CheckpointData *out,
                   std::string *err)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        if (err)
            *err = "cannot open " + path;
        return false;
    }
    std::string text;
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return parseCheckpoint(text, out, err);
}

CheckpointLog::~CheckpointLog()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
CheckpointLog::append(const std::string &bytes)
{
    size_t done = 0;
    while (fd_ >= 0 && done < bytes.size()) {
        ssize_t n = ::write(fd_, bytes.data() + done, bytes.size() - done);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            // The tail is torn; readers stop at the last commit, and
            // later rounds must not append after the tear.
            ::close(fd_);
            fd_ = -1;
            return false;
        }
        done += static_cast<size_t>(n);
    }
    bytes_ += done;
    return fd_ >= 0;
}

bool
CheckpointLog::reopen(const std::string &path, uint64_t size)
{
    fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND);
    bytes_ = size;
    if (fd_ >= 0 && ::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
        ::close(fd_);
        fd_ = -1;
    }
    return fd_ >= 0;
}

bool
CheckpointLog::create(const std::string &path,
                      const std::string &fingerprint,
                      const LedgerSpan &ledger)
{
    ledger_ = ledger;
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND,
                 0644);
    return append(v3Header(fingerprint, ledger));
}

bool
CheckpointLog::resume(const std::string &path, const std::string &from,
                      const CheckpointData &ck)
{
    rows_ = ck.rows.size();
    ledger_ = ck.ledger;
    bitmap_ = ck.covBitmap;
    // In place, the torn tail is dropped; a new path gets the
    // committed prefix verbatim.
    if (!sameFile(path, from) && !atomicWriteFile(path, ck.committedLog))
        return false;
    return reopen(path, ck.committedLog.size());
}

bool
CheckpointLog::migrate(const std::string &path, const CheckpointData &ck)
{
    rows_ = ck.rows.size();
    ledger_ = ck.ledger;
    bitmap_ = ck.covBitmap;
    std::string out = v3Header(ck.fingerprint, ck.ledger);
    // A v1/v2 log samples every row of a -cov campaign; each row line
    // carries the sample taken at its iteration.
    const std::vector<obs::SaturationSample> &sat = ck.satSamples;
    size_t s = 0;
    for (const obs::LedgerEntry &e : ck.rows) {
        while (s < sat.size() && sat[s].iter < e.iteration)
            ++s;
        appendRowLine(out, e,
                      s < sat.size() && sat[s].iter == e.iteration ? &sat[s]
                                                                    : nullptr);
    }
    appendState(out, ck);
    appendCovBlock(out, ck.covBitmap);
    appendCommit(out, rows_, out.size());
    return atomicWriteFile(path, out) && reopen(path, out.size());
}

void
CheckpointLog::addRow(const obs::LedgerEntry &e,
                      const obs::SaturationSample *sat)
{
    if (fd_ < 0)
        return; // closed: no round will be written
    appendRowLine(round_, e, sat);
    ++rows_;
}

bool
CheckpointLog::commit(const CheckpointData &d)
{
    if (fd_ < 0)
        return false;
    if (d.ledger.path != ledger_.path || d.ledger.start != ledger_.start) {
        std::string binding;
        appendBinding(binding, d.ledger);
        round_.insert(0, binding);
        ledger_ = d.ledger;
    }
    appendState(round_, d);
    appendNewCovLines(round_, bitmap_, d.covBitmap);
    appendCommit(round_, rows_, bytes_ + round_.size());
    if (!append(round_))
        return false;
    round_.clear();
    bitmap_ = d.covBitmap;
    return true;
}

} // namespace goat::campaign
