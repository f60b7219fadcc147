#include "campaign/checkpoint.hh"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "base/fileio.hh"
#include "base/fmt.hh"

namespace goat::campaign {

namespace {

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

} // namespace

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

std::string
configFingerprint(const CampaignConfig &cfg)
{
    const engine::GoatConfig &e = cfg.engine;
    std::ostringstream os;
    os << "kernel=" << cfg.programName << ";seed=" << e.seedBase
       << ";d=" << e.delayBound << ";noise=" << dblStr(e.noiseProb)
       << ";budget=" << e.stepBudget << ";cov=" << (e.collectCoverage ? 1 : 0)
       << ";guided=" << (e.coverageGuided ? 1 : 0)
       << ";covthr=" << dblStr(e.covThreshold)
       << ";stoponbug=" << (e.stopOnBug ? 1 : 0)
       << ";race=" << (e.raceDetect ? 1 : 0)
       << ";lint=" << (cfg.lintBridge ? 1 : 0)
       << ";prio=" << e.prioritySites.size();
    return os.str();
}

void
serializeRow(std::ostream &os, const obs::LedgerEntry &e)
{
    os << "row_begin\n";
    os << "iter " << e.iteration << '\n';
    os << "seed " << e.seed << '\n';
    os << "delay_bound " << e.delayBound << '\n';
    os << "outcome " << e.outcome << '\n';
    os << "verdict " << e.verdict << '\n';
    os << "bug " << (e.bug ? 1 : 0) << '\n';
    os << "steps " << e.steps << '\n';
    os << "coverage_pct " << dblStr(e.coveragePct) << '\n';
    os << "sat_covered " << e.satCovered << '\n';
    os << "sat_total " << e.satTotal << '\n';
    os << "wall_us " << e.wallMicros << '\n';
    os << "worker " << e.worker << '\n';
    os << "wseq " << e.workerSeq << '\n';
    os << "static_warnings " << e.staticWarnings << '\n';
    if (!e.crashCause.empty())
        os << "crash_cause " << e.crashCause << '\n';
    os << "respawns " << e.respawns << '\n';
    // The metrics object rides along as the exact JSON it was first
    // rendered to, so a re-emitted ledger line is byte-identical.
    os << "metrics "
       << (e.metricsJson.empty() ? e.metricsDelta.jsonStr()
                                 : e.metricsJson)
       << '\n';
    os << "row_end\n";
}

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
            return out->iteration > 0;
        }
        if (!keyVal(lines[i], &key, &val))
            return false;
        if (key == "iter")
            out->iteration = std::atoi(val.c_str());
        else if (key == "seed")
            out->seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (key == "delay_bound")
            out->delayBound = std::atoi(val.c_str());
        else if (key == "outcome")
            out->outcome = val;
        else if (key == "verdict")
            out->verdict = val;
        else if (key == "bug")
            out->bug = val == "1";
        else if (key == "steps")
            out->steps = std::strtoull(val.c_str(), nullptr, 10);
        else if (key == "coverage_pct")
            out->coveragePct = std::strtod(val.c_str(), nullptr);
        else if (key == "sat_covered")
            out->satCovered = std::strtoll(val.c_str(), nullptr, 10);
        else if (key == "sat_total")
            out->satTotal = std::strtoll(val.c_str(), nullptr, 10);
        else if (key == "wall_us")
            out->wallMicros = std::strtoull(val.c_str(), nullptr, 10);
        else if (key == "worker")
            out->worker = std::atoi(val.c_str());
        else if (key == "wseq")
            out->workerSeq = std::atoi(val.c_str());
        else if (key == "static_warnings")
            out->staticWarnings = std::atoi(val.c_str());
        else if (key == "crash_cause")
            out->crashCause = val;
        else if (key == "respawns")
            out->respawns = std::atoi(val.c_str());
        else if (key == "metrics")
            out->metricsJson = val;
        // Unknown keys are skipped for forward compatibility.
    }
    return false; // ran out of lines before row_end
}

std::string
checkpointToString(const CheckpointData &d)
{
    return checkpointToString(d, d.rows);
}

std::string
checkpointToString(const CheckpointData &d,
                   const std::vector<obs::LedgerEntry> &rows)
{
    std::ostringstream os;
    os << "# goat-checkpoint v1\n";
    os << "fingerprint " << d.fingerprint << '\n';
    os << "cursor " << d.cursor << '\n';
    os << "executed " << d.executed << '\n';
    os << "respawns " << d.respawns << '\n';
    os << "crashes " << d.crashes << '\n';
    os << "timeouts " << d.timeouts << '\n';
    os << "bug_iteration " << d.bugIteration << '\n';
    os << "race_iteration " << d.raceIteration << '\n';
    os << "stopped " << (d.stopped ? 1 : 0) << '\n';
    for (const obs::SaturationSample &s : d.satSamples)
        os << "sat " << s.iter << ' ' << s.covered << ' ' << s.total
           << ' ' << s.blocked << ' ' << s.unblocking << ' ' << s.nop
           << ' ' << s.blocking << '\n';
    if (!d.covBitmap.empty()) {
        os << "cov_begin\n" << d.covBitmap;
        if (d.covBitmap.back() != '\n')
            os << '\n';
        os << "cov_end\n";
    }
    for (const obs::LedgerEntry &e : rows)
        serializeRow(os, e);
    return os.str();
}

bool
parseCheckpoint(const std::string &text, CheckpointData *out,
                std::string *err)
{
    *out = CheckpointData{};
    std::vector<std::string> lines = splitLines(text);
    if (lines.empty() || lines[0] != "# goat-checkpoint v1") {
        if (err)
            *err = "bad checkpoint magic";
        return false;
    }
    std::string key, val;
    for (size_t i = 1; i < lines.size();) {
        const std::string &line = lines[i];
        if (line.empty()) {
            ++i;
            continue;
        }
        if (line == "row_begin") {
            obs::LedgerEntry e;
            if (!parseRowLines(lines, &i, &e)) {
                if (err)
                    *err = "malformed row block";
                return false;
            }
            out->rows.push_back(std::move(e));
            continue;
        }
        if (line == "cov_begin") {
            ++i;
            while (i < lines.size() && lines[i] != "cov_end") {
                out->covBitmap += lines[i];
                out->covBitmap += '\n';
                ++i;
            }
            if (i >= lines.size()) {
                if (err)
                    *err = "unterminated cov block";
                return false;
            }
            ++i; // past cov_end
            continue;
        }
        if (!keyVal(line, &key, &val)) {
            if (err)
                *err = "malformed line: " + line;
            return false;
        }
        if (key == "fingerprint")
            out->fingerprint = val;
        else if (key == "cursor")
            out->cursor = std::atoi(val.c_str());
        else if (key == "executed")
            out->executed = std::atoi(val.c_str());
        else if (key == "respawns")
            out->respawns = std::atoi(val.c_str());
        else if (key == "crashes")
            out->crashes = std::atoi(val.c_str());
        else if (key == "timeouts")
            out->timeouts = std::atoi(val.c_str());
        else if (key == "bug_iteration")
            out->bugIteration = std::atoi(val.c_str());
        else if (key == "race_iteration")
            out->raceIteration = std::atoi(val.c_str());
        else if (key == "stopped")
            out->stopped = val == "1";
        else if (key == "sat") {
            obs::SaturationSample s;
            unsigned long long v[6] = {};
            if (std::sscanf(val.c_str(),
                            "%d %llu %llu %llu %llu %llu %llu",
                            &s.iter, &v[0], &v[1], &v[2], &v[3], &v[4],
                            &v[5]) != 7) {
                if (err)
                    *err = "malformed sat line";
                return false;
            }
            s.covered = v[0];
            s.total = v[1];
            s.blocked = v[2];
            s.unblocking = v[3];
            s.nop = v[4];
            s.blocking = v[5];
            out->satSamples.push_back(s);
        }
        // Unknown keys are skipped for forward compatibility.
        ++i;
    }
    if (static_cast<int>(out->rows.size()) != out->cursor) {
        if (err)
            *err = strFormat("row count %zu does not match cursor %d",
                             out->rows.size(), out->cursor);
        return false;
    }
    for (size_t r = 0; r < out->rows.size(); ++r) {
        if (out->rows[r].iteration != static_cast<int>(r) + 1) {
            if (err)
                *err = "rows are not contiguous from iteration 1";
            return false;
        }
    }
    return true;
}

bool
writeCheckpointFile(const std::string &path, const CheckpointData &d)
{
    return writeCheckpointFile(path, d, d.rows);
}

bool
writeCheckpointFile(const std::string &path, const CheckpointData &d,
                    const std::vector<obs::LedgerEntry> &rows)
{
    return atomicWriteFile(path, checkpointToString(d, rows));
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

} // namespace goat::campaign
