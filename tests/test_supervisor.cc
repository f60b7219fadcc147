/**
 * @file
 * Tests for the campaign fault-tolerance subsystem: exit-status
 * classification and the shard-digest wire format (campaign/
 * supervisor.hh), the checkpoint serializer (campaign/checkpoint.hh),
 * and — via subprocess runs of the real binary over the hostile
 * kernels — the supervised campaign's crash/timeout/OOM triage.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/checkpoint.hh"
#include "campaign/supervisor.hh"
#include "goker/registry.hh"

using namespace goat;
using campaign::CampaignConfig;
using campaign::CheckpointData;
using campaign::ShardDigest;

namespace {

/** Encode a waitpid status for a normal exit with @p code (glibc). */
int
exitedStatus(int code)
{
    return (code & 0xff) << 8;
}

/** Encode a waitpid status for death by @p sig (glibc). */
int
signaledStatus(int sig)
{
    return sig & 0x7f;
}

/** Run the real goat binary and return what it prints on stdout. */
std::string
goatStdout(const std::string &args)
{
    std::string cmd = std::string(GOAT_CLI_BIN) + " " + args + " 2>/dev/null";
    std::string out;
    FILE *p = ::popen(cmd.c_str(), "r");
    if (!p)
        return out;
    char buf[4096];
    while (size_t n = std::fread(buf, 1, sizeof buf, p))
        out.append(buf, n);
    ::pclose(p);
    return out;
}

/** Run the real goat binary; return its exit status (-1 on spawn fail). */
int
runGoat(const std::string &args)
{
    std::string cmd = std::string(GOAT_CLI_BIN) + " " + args +
                      " >/dev/null 2>&1";
    int rc = std::system(cmd.c_str());
    return rc < 0 ? -1 : (WIFEXITED(rc) ? WEXITSTATUS(rc) : -1);
}

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "goat_supervisor_" + name;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Count ledger lines containing @p needle. */
int
countLines(const std::string &path, const std::string &needle)
{
    std::ifstream in(path);
    std::string line;
    int n = 0;
    while (std::getline(in, line))
        if (line.find(needle) != std::string::npos)
            ++n;
    return n;
}

} // namespace

// ---------------------------------------------------------------------
// classifyExitStatus
// ---------------------------------------------------------------------

TEST(ClassifyExit, CleanExitIsEmpty)
{
    EXPECT_EQ(campaign::classifyExitStatus(exitedStatus(0)), "");
}

TEST(ClassifyExit, FatalSignalsByName)
{
    EXPECT_EQ(campaign::classifyExitStatus(signaledStatus(SIGSEGV)),
              "sigsegv");
    EXPECT_EQ(campaign::classifyExitStatus(signaledStatus(SIGABRT)),
              "sigabrt");
    EXPECT_EQ(campaign::classifyExitStatus(signaledStatus(SIGBUS)),
              "sigbus");
    EXPECT_EQ(campaign::classifyExitStatus(signaledStatus(SIGILL)),
              "sigill");
    EXPECT_EQ(campaign::classifyExitStatus(signaledStatus(SIGFPE)),
              "sigfpe");
    EXPECT_EQ(campaign::classifyExitStatus(signaledStatus(SIGKILL)),
              "sigkill");
    EXPECT_EQ(campaign::classifyExitStatus(signaledStatus(SIGTERM)),
              "sigterm");
}

TEST(ClassifyExit, UnnamedSignalGetsNumber)
{
    EXPECT_EQ(campaign::classifyExitStatus(signaledStatus(SIGUSR1)),
              "signal_" + std::to_string(SIGUSR1));
}

TEST(ClassifyExit, OomMarkerExitCode)
{
    EXPECT_EQ(campaign::classifyExitStatus(exitedStatus(77)), "oom");
}

TEST(ClassifyExit, OtherNonzeroExits)
{
    EXPECT_EQ(campaign::classifyExitStatus(exitedStatus(1)), "exit_1");
    EXPECT_EQ(campaign::classifyExitStatus(exitedStatus(42)),
              "exit_42");
}

// ---------------------------------------------------------------------
// Shard-digest wire format
// ---------------------------------------------------------------------

namespace {

obs::LedgerEntry
sampleRow()
{
    obs::LedgerEntry e;
    e.iteration = 17;
    e.seed = 0x123456789abcdefULL;
    e.delayBound = 2;
    e.outcome = "ok";
    e.verdict = "pass";
    e.bug = false;
    e.steps = 431;
    e.coveragePct = 63.125;
    e.wallMicros = 184;
    e.worker = 3;
    e.workerSeq = 6;
    e.metricsJson =
        R"({"counters":{"sched.runs":1},"gauges":{},"histograms":{}})";
    return e;
}

} // namespace

TEST(ShardDigest, RoundTripsEveryField)
{
    ShardDigest d;
    d.row = sampleRow();
    d.covBitmap = "1 chan:a.cc:10 blocked\n1 chan:a.cc:10 nop\n";

    ShardDigest back;
    ASSERT_TRUE(campaign::digestFromString(campaign::digestToString(d),
                                           &back));
    EXPECT_EQ(back.row.iteration, d.row.iteration);
    EXPECT_EQ(back.row.seed, d.row.seed);
    EXPECT_EQ(back.row.delayBound, d.row.delayBound);
    EXPECT_EQ(back.row.outcome, d.row.outcome);
    EXPECT_EQ(back.row.verdict, d.row.verdict);
    EXPECT_EQ(back.row.bug, d.row.bug);
    EXPECT_EQ(back.row.steps, d.row.steps);
    EXPECT_EQ(back.row.coveragePct, d.row.coveragePct);
    EXPECT_EQ(back.row.worker, d.row.worker);
    EXPECT_EQ(back.row.workerSeq, d.row.workerSeq);
    EXPECT_EQ(back.row.metricsJson, d.row.metricsJson);
    EXPECT_EQ(back.covBitmap, d.covBitmap);
}

TEST(ShardDigest, LossFieldsSurvive)
{
    ShardDigest d;
    d.row = sampleRow();
    d.row.outcome = "crashed";
    d.row.verdict = "crash";
    d.row.bug = true;
    d.row.steps = 0;
    d.row.crashCause = "sigsegv";
    d.row.respawns = 3;

    ShardDigest back;
    ASSERT_TRUE(campaign::digestFromString(campaign::digestToString(d),
                                           &back));
    EXPECT_EQ(back.row.crashCause, "sigsegv");
    EXPECT_EQ(back.row.respawns, 3);
    EXPECT_EQ(back.row.outcome, "crashed");
    EXPECT_TRUE(back.row.bug);
}

TEST(ShardDigest, RendersIdenticalLedgerLine)
{
    // The digest must preserve everything the ledger line renders:
    // a row that crossed the pipe emits byte-identically.
    ShardDigest d;
    d.row = sampleRow();
    ShardDigest back;
    ASSERT_TRUE(campaign::digestFromString(campaign::digestToString(d),
                                           &back));
    EXPECT_EQ(obs::ledgerEntryJson(back.row),
              obs::ledgerEntryJson(d.row));
}

TEST(ShardDigest, RejectsGarbage)
{
    ShardDigest back;
    EXPECT_FALSE(campaign::digestFromString("not a digest", &back));
    EXPECT_FALSE(campaign::digestFromString("", &back));
}

TEST(ShardDigest, RoundTripsEveryOutcomeAndVerdictName)
{
    // Every name a row can carry parses back to its value, in a digest
    // too; an unknown name is refused, not read as ok/pass.
    auto roundTrips = [](const std::string &outcome,
                         const std::string &verdict) {
        ShardDigest d;
        d.row = sampleRow();
        d.row.outcome = outcome;
        d.row.verdict = verdict;
        ShardDigest back;
        return campaign::digestFromString(campaign::digestToString(d),
                                          &back) &&
               back.row.outcome == outcome && back.row.verdict == verdict;
    };
    // Walk each enum until its name table runs out ("?").
    int outcomes = 0;
    for (int i = 0;; ++i) {
        auto o = static_cast<runtime::RunOutcome>(i);
        const std::string name = runtime::runOutcomeName(o);
        if (name == "?")
            break;
        ++outcomes;
        runtime::RunOutcome back = runtime::RunOutcome::Ok;
        EXPECT_TRUE(runtime::runOutcomeFromName(name, &back)) << name;
        EXPECT_EQ(back, o) << name;
        back = runtime::RunOutcome::Ok;
        EXPECT_TRUE(campaign::rowOutcomeFromName(name, &back)) << name;
        EXPECT_EQ(back, o) << name;
        EXPECT_TRUE(roundTrips(name, "pass")) << name;
    }
    EXPECT_EQ(outcomes, 4);
    int verdicts = 0;
    for (int i = 0;; ++i) {
        auto v = static_cast<analysis::Verdict>(i);
        const std::string name = analysis::verdictName(v);
        if (name == "?")
            break;
        ++verdicts;
        analysis::Verdict back = analysis::Verdict::Pass;
        EXPECT_TRUE(analysis::verdictFromName(name, &back)) << name;
        EXPECT_EQ(back, v) << name;
        EXPECT_TRUE(roundTrips("ok", name)) << name;
    }
    EXPECT_EQ(verdicts, 5);

    // The supervised losses are row outcomes, not runtime outcomes.
    runtime::RunOutcome loss = runtime::RunOutcome::Ok;
    EXPECT_TRUE(campaign::rowOutcomeFromName(campaign::kCrashed, &loss));
    EXPECT_EQ(loss, runtime::RunOutcome::Crash);
    EXPECT_TRUE(campaign::rowOutcomeFromName(campaign::kTimedOut, &loss));
    EXPECT_EQ(loss, runtime::RunOutcome::StepBudget);
    EXPECT_FALSE(runtime::runOutcomeFromName(campaign::kCrashed, &loss));
    EXPECT_TRUE(roundTrips(campaign::kCrashed, "crash"));
    EXPECT_TRUE(roundTrips(campaign::kTimedOut, "timeout"));

    for (const char *bad : {"", "ko", "OK", "pasz", "crashed "}) {
        analysis::Verdict v;
        EXPECT_FALSE(campaign::rowOutcomeFromName(bad, &loss)) << bad;
        EXPECT_FALSE(analysis::verdictFromName(bad, &v)) << bad;
        EXPECT_FALSE(roundTrips(bad, "pass")) << bad;
        EXPECT_FALSE(roundTrips("ok", bad)) << bad;
    }
}

// ---------------------------------------------------------------------
// Checkpoint serializer
// ---------------------------------------------------------------------

TEST(Checkpoint, RoundTripsFullState)
{
    CheckpointData d;
    d.fingerprint = "kernel=x;seed=1;d=2";
    // Rows must be contiguous from 1 through cursor (the parser
    // enforces it), so the single sample row is iteration 1.
    d.cursor = 1;
    d.executed = 131;
    d.respawns = 2;
    d.crashes = 1;
    d.timeouts = 1;
    d.bugIteration = 97;
    d.raceIteration = -1;
    d.stopped = false;
    d.covBitmap = "1 chan:a.cc:10 blocked\n";
    obs::SaturationSample s;
    s.iter = 1;
    s.covered = 41;
    s.total = 96;
    s.blocked = 12;
    s.unblocking = 15;
    s.nop = 11;
    s.blocking = 3;
    d.satSamples.push_back(s);
    d.rows.push_back(sampleRow());
    d.rows.back().iteration = 1;

    CheckpointData back;
    std::string err;
    ASSERT_TRUE(campaign::parseCheckpoint(
        campaign::checkpointToString(d), &back, &err))
        << err;
    EXPECT_EQ(back.fingerprint, d.fingerprint);
    EXPECT_EQ(back.cursor, d.cursor);
    EXPECT_EQ(back.executed, d.executed);
    EXPECT_EQ(back.respawns, d.respawns);
    EXPECT_EQ(back.crashes, d.crashes);
    EXPECT_EQ(back.timeouts, d.timeouts);
    EXPECT_EQ(back.bugIteration, d.bugIteration);
    EXPECT_EQ(back.raceIteration, d.raceIteration);
    EXPECT_EQ(back.stopped, d.stopped);
    EXPECT_EQ(back.covBitmap, d.covBitmap);
    ASSERT_EQ(back.satSamples.size(), 1u);
    EXPECT_EQ(back.satSamples[0].covered, 41u);
    EXPECT_EQ(back.satSamples[0].blocking, 3u);
    ASSERT_EQ(back.rows.size(), 1u);
    EXPECT_EQ(obs::ledgerEntryJson(back.rows[0]),
              obs::ledgerEntryJson(d.rows[0]));
}

TEST(Checkpoint, RejectsBadMagicAndTruncation)
{
    CheckpointData back;
    std::string err;
    EXPECT_FALSE(campaign::parseCheckpoint("bogus\n", &back, &err));
    EXPECT_FALSE(err.empty());

    CheckpointData d;
    d.fingerprint = "f";
    d.cursor = 1;
    d.rows.push_back(sampleRow());
    d.rows.back().iteration = 1;
    std::string text = campaign::checkpointToString(d);
    // Chop inside the row block: the contiguity check must fire.
    text.resize(text.size() / 2);
    EXPECT_FALSE(campaign::parseCheckpoint(text, &back, &err));
}

TEST(Checkpoint, FileRoundTripIsAtomicWrite)
{
    CheckpointData d;
    d.fingerprint = "f";
    d.cursor = 1;
    d.rows.push_back(sampleRow());
    d.rows.back().iteration = 1;
    std::string path = tmpPath("ck_roundtrip");
    ASSERT_TRUE(campaign::writeCheckpointFile(path, d));
    CheckpointData back;
    std::string err;
    ASSERT_TRUE(campaign::readCheckpointFile(path, &back, &err))
        << err;
    EXPECT_EQ(back.cursor, 1);
    // No tmp-file droppings next to the artifact.
    EXPECT_FALSE(std::ifstream(path + ".tmp").good());
    std::remove(path.c_str());
}

TEST(Checkpoint, FingerprintTracksContentKnobsOnly)
{
    CampaignConfig a;
    a.programName = "k";
    a.engine.delayBound = 2;
    a.engine.maxIterations = 100;
    a.jobs = 1;
    CampaignConfig b = a;

    // Placement/budget knobs are excluded: resuming with more
    // iterations or a different worker count is legal.
    b.engine.maxIterations = 100000;
    b.jobs = 8;
    EXPECT_EQ(campaign::configFingerprint(a),
              campaign::configFingerprint(b));

    // Content knobs are included.
    b.engine.delayBound = 3;
    EXPECT_NE(campaign::configFingerprint(a),
              campaign::configFingerprint(b));
}

TEST(Checkpoint, ResumeRefusesMalformedCoverageKey)
{
    // The checkpoint is outside input: a cov_begin line whose
    // requirement key does not parse must refuse the resume (exit 1)
    // rather than resume on a partly restored coverage state.
    const std::string run = "-kernel=etcd_7443 -d=2 -freq=6 -cov "
                            "-keep-going";
    std::string ck = tmpPath("covkey.ck");
    std::string bad = tmpPath("covkey_bad.ck");
    std::remove(ck.c_str());
    ASSERT_EQ(runGoat(run + " -checkpoint=" + ck + " -checkpoint-every=3"),
              0);
    std::string text = readFile(ck);
    size_t at = text.find("cov_begin\n");
    ASSERT_NE(at, std::string::npos);
    size_t key = at + 10 + 2; // past "cov_begin\n" and "0 " / "1 "
    size_t eol = text.find('\n', key);
    ASSERT_NE(eol, std::string::npos);
    text.replace(key, eol - key, "no-such-key");
    {
        std::ofstream out(bad);
        out << text;
    }
    EXPECT_EQ(runGoat(run + " -resume=" + ck), 0);
    EXPECT_EQ(runGoat(run + " -resume=" + bad), 1);
    std::remove(ck.c_str());
    std::remove(bad.c_str());
}

// ---------------------------------------------------------------------
// Checkpoint log (v3): torn appends, truncation, migration, resume
// targets, and refusal of malformed input
// ---------------------------------------------------------------------

namespace {

/**
 * Ledger lines minus the fields a resume legitimately changes: host
 * timing (wall_us), placement (worker/wseq/respawns), and the metrics
 * object, which rows run after a resume render from a fresh registry.
 */
std::vector<std::string>
canonicalLedger(const std::string &path)
{
    std::vector<std::string> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        size_t m = line.find(",\"metrics\":");
        if (m != std::string::npos)
            line.resize(m);
        for (const char *key : {"\"wall_us\":", "\"worker\":", "\"wseq\":",
                                "\"respawns\":"}) {
            size_t at = line.find(key);
            if (at == std::string::npos)
                continue;
            size_t end = line.find_first_of(",}", at);
            line.erase(at, end + 1 - at);
        }
        out.push_back(line);
    }
    return out;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
}

/** End offsets and cursors of the commit lines of a v2/v3 log. */
std::vector<std::pair<size_t, int>>
commitLines(const std::string &text)
{
    std::vector<std::pair<size_t, int>> out;
    for (size_t pos = text.find("\ncommit "); pos != std::string::npos;
         pos = text.find("\ncommit ", pos + 1)) {
        size_t eol = text.find('\n', pos + 1);
        if (eol == std::string::npos)
            break;
        out.emplace_back(eol + 1, std::atoi(text.c_str() + pos + 8));
    }
    return out;
}

const goker::KernelInfo &
smallKernel()
{
    return *goker::KernelRegistry::instance().find("cockroach_1055");
}

/** A small -cov -keep-going campaign (PDL-2 first found at 2). */
CampaignConfig
smallCampaign(int iterations)
{
    CampaignConfig cfg;
    cfg.programName = "cockroach_1055";
    cfg.engine.delayBound = 2;
    cfg.engine.maxIterations = iterations;
    cfg.engine.stopOnBug = false;
    cfg.engine.collectCoverage = true;
    cfg.engine.covThreshold = 200.0;
    cfg.engine.staticModel = goker::kernelCuTable(smallKernel());
    cfg.checkpointEvery = 2;
    return cfg;
}

campaign::CampaignResult
runSmall(const CampaignConfig &cfg)
{
    return campaign::runCampaign(cfg, smallKernel().fn);
}

} // namespace

TEST(CheckpointLog, EveryByteCutResumesAtLastCommitOrIsRefused)
{
    // A kill can tear the log at any byte of an append. Every prefix
    // must either resume from its last complete commit — and then
    // finish with the uninterrupted campaign's ledger — or, with no
    // commit, be refused as unreadable (exit 1), never crash and never
    // resume at another cursor. The resume writes back into the same
    // path, so it also truncates the torn tail before appending.
    const std::string ref = tmpPath("cut_ref.jsonl");
    const std::string log = tmpPath("cut_full.ck");
    const std::string cut = tmpPath("cut.ck");
    const std::string led = tmpPath("cut_res.jsonl");
    std::remove(ref.c_str());
    CampaignConfig cfg = smallCampaign(4);
    CampaignConfig full = cfg;
    full.engine.ledgerPath = ref;
    full.checkpointPath = log;
    ASSERT_TRUE(runSmall(full).checkpointOk);
    const std::vector<std::string> want = canonicalLedger(ref);
    ASSERT_EQ(want.size(), 4u);
    const std::string text = readFile(log);
    const auto commits = commitLines(text);
    ASSERT_EQ(commits.size(), 2u);

    int resumed = 0, refused = 0;
    for (size_t n = 0; n <= text.size(); ++n) {
        writeFile(cut, text.substr(0, n));
        int expect = 0;
        for (const auto &[end, cursor] : commits)
            if (end <= n)
                expect = cursor;
        CampaignConfig r = cfg;
        r.resumePath = cut;
        r.checkpointPath = cut;
        r.engine.ledgerPath = led;
        std::remove(led.c_str());
        campaign::CampaignResult res = runSmall(r);
        if (expect == 0) {
            ASSERT_NE(res.refused.reason, "") << "cut at byte " << n;
            ASSERT_FALSE(res.refused.usage)
                << "cut at byte " << n << ": " << res.refused.reason;
            ASSERT_EQ(res.refused.reason.find("fingerprint"),
                      std::string::npos)
                << "cut at byte " << n;
            ++refused;
            continue;
        }
        ASSERT_EQ(res.refused.reason, "") << "cut at byte " << n;
        ASSERT_EQ(res.resumeFrom, expect) << "cut at byte " << n;
        ASSERT_EQ(canonicalLedger(led), want) << "cut at byte " << n;
        CheckpointData back;
        std::string err;
        ASSERT_TRUE(campaign::readCheckpointFile(cut, &back, &err))
            << "cut at byte " << n << ": " << err;
        ASSERT_EQ(back.cursor, 4) << "cut at byte " << n;
        ++resumed;
    }
    EXPECT_EQ(static_cast<size_t>(refused), commits[0].first);
    EXPECT_GT(resumed, 0);
    for (const std::string &p : {ref, log, cut, led})
        std::remove(p.c_str());
}

TEST(CheckpointLog, StaleFileIsTruncatedNotAppended)
{
    // An earlier, longer campaign left a log at the path: a fresh
    // campaign starts the file over instead of appending to it.
    const std::string log = tmpPath("stale.ck");
    CampaignConfig cfg = smallCampaign(6);
    cfg.checkpointPath = log;
    ASSERT_TRUE(runSmall(cfg).checkpointOk);
    ASSERT_EQ(commitLines(readFile(log)).size(), 3u);

    cfg.engine.maxIterations = 2;
    ASSERT_TRUE(runSmall(cfg).checkpointOk);
    const std::string text = readFile(log);
    EXPECT_EQ(text.rfind("# goat-checkpoint v3\n", 0), 0u);
    EXPECT_EQ(text.find("# goat-checkpoint", 1), std::string::npos);
    ASSERT_EQ(commitLines(text).size(), 1u);
    CheckpointData back;
    std::string err;
    ASSERT_TRUE(campaign::parseCheckpoint(text, &back, &err)) << err;
    EXPECT_EQ(back.cursor, 2);
    EXPECT_EQ(back.committedLog, text);
    std::remove(log.c_str());
}

TEST(CheckpointLog, V1FixtureResumesToCanonicalLedger)
{
    // tests/golden/checkpoint_v1.ck was written by the v1 writer:
    //   goat -kernel=cockroach_1055 -d=2 -freq=6 -keep-going -cov
    //        -checkpoint=checkpoint_v1.ck -checkpoint-every=3
    // Resuming it re-emits its six rows byte for byte, finishes with
    // the uninterrupted campaign's ledger, and continues the checkpoint
    // as a v3 log that resumes in turn (from the resumed ledger).
    const std::string fixture =
        std::string(GOAT_SOURCE_DIR) + "/tests/golden/checkpoint_v1.ck";
    const std::string args = "-kernel=cockroach_1055 -d=2 -keep-going -cov";
    const std::string ck = tmpPath("v1.ck");
    const std::string ref = tmpPath("v1_ref.jsonl");
    const std::string led = tmpPath("v1_res.jsonl");
    const std::string ref2 = tmpPath("v1_ref2.jsonl");
    const std::string led2 = tmpPath("v1_res2.jsonl");
    for (const std::string &p : {ref, led, ref2, led2})
        std::remove(p.c_str());
    CheckpointData v1;
    std::string err;
    ASSERT_TRUE(campaign::readCheckpointFile(fixture, &v1, &err)) << err;
    ASSERT_EQ(v1.cursor, 6);
    EXPECT_TRUE(v1.committedLog.empty());
    writeFile(ck, readFile(fixture));

    ASSERT_EQ(runGoat(args + " -freq=10 -ledger=" + ref), 0);
    ASSERT_EQ(runGoat(args + " -freq=10 -resume=" + ck + " -checkpoint=" +
                      ck + " -checkpoint-every=3 -ledger=" + led),
              0);
    EXPECT_EQ(canonicalLedger(led), canonicalLedger(ref));
    std::ifstream in(led);
    std::string line;
    for (const obs::LedgerEntry &row : v1.rows) {
        ASSERT_TRUE(std::getline(in, line));
        EXPECT_EQ(line, obs::ledgerEntryJson(row));
    }

    CheckpointData v3;
    ASSERT_TRUE(campaign::readCheckpointFile(ck, &v3, &err)) << err;
    EXPECT_EQ(readFile(ck).rfind("# goat-checkpoint v3\n", 0), 0u);
    EXPECT_EQ(v3.cursor, 10);
    EXPECT_EQ(v3.bugIteration, v1.bugIteration);
    ASSERT_EQ(runGoat(args + " -freq=12 -ledger=" + ref2), 0);
    ASSERT_EQ(runGoat(args + " -freq=12 -resume=" + ck + " -ledger=" + led2),
              0);
    EXPECT_EQ(canonicalLedger(led2), canonicalLedger(ref2));
    for (const std::string &p : {ck, ref, led, ref2, led2})
        std::remove(p.c_str());
}

TEST(CheckpointLog, V2FixtureResumesToCanonicalLedger)
{
    // tests/golden/checkpoint_v2.ck was written by the v2 writer:
    //   goat -kernel=cockroach_1055 -d=2 -freq=20 -keep-going -cov
    //        -checkpoint=checkpoint_v2.ck -checkpoint-every=16
    // Resuming it to 40 iterations emits its rows again and gives the
    // uninterrupted campaign's canonical ledger and coverage
    // requirements table.
    const std::string fixture =
        std::string(GOAT_SOURCE_DIR) + "/tests/golden/checkpoint_v2.ck";
    const std::string args =
        "-kernel=cockroach_1055 -d=2 -keep-going -cov -report -freq=40";
    const std::string ref = tmpPath("v2_ref.jsonl");
    const std::string led = tmpPath("v2_res.jsonl");
    for (const std::string &p : {ref, led})
        std::remove(p.c_str());
    CheckpointData v2;
    std::string err;
    ASSERT_TRUE(campaign::readCheckpointFile(fixture, &v2, &err)) << err;
    ASSERT_EQ(v2.version, 2);
    ASSERT_EQ(v2.cursor, 20);
    auto table = [](const std::string &out) {
        const size_t at = out.find("-- coverage requirements --");
        return at == std::string::npos ? std::string() : out.substr(at);
    };
    const std::string whole = goatStdout(args + " -ledger=" + ref);
    const std::string resumed =
        goatStdout(args + " -resume=" + fixture + " -ledger=" + led);
    ASSERT_NE(resumed.find("resumed from"), std::string::npos) << resumed;
    ASSERT_NE(table(whole), "") << whole;
    EXPECT_EQ(table(resumed), table(whole));
    EXPECT_EQ(canonicalLedger(led), canonicalLedger(ref));
    EXPECT_EQ(canonicalLedger(led).size(), 40u);
    for (const std::string &p : {ref, led})
        std::remove(p.c_str());
}

TEST(CheckpointLog, ResumeIntoOwnLedgerWritesEachRowOnce)
{
    // A finished campaign resumed into its own ledger and checkpoint:
    // the ledger is truncated to the committed end, not appended to,
    // so it keeps one copy of each row; a longer resume continues it.
    const std::string args = "-kernel=cockroach_1055 -d=2 -keep-going";
    const std::string ck = tmpPath("own.ck");
    const std::string led = tmpPath("own.jsonl");
    const std::string ref = tmpPath("own_ref.jsonl");
    for (const std::string &p : {ck, led, ref})
        std::remove(p.c_str());
    const std::string files =
        " -ledger=" + led + " -checkpoint-every=30 -checkpoint=" + ck;
    ASSERT_EQ(runGoat(args + " -freq=100" + files), 0);
    const std::string first = readFile(led);
    ASSERT_EQ(countLines(led, "{\"iter\":"), 100);
    // Rows past the last commit (a kill's leftovers) are dropped too.
    writeFile(led, first + first.substr(0, first.find('\n') + 1));
    ASSERT_EQ(runGoat(args + " -freq=100" + files + " -resume=" + ck), 0);
    EXPECT_EQ(readFile(led), first);
    ASSERT_EQ(runGoat(args + " -freq=130" + files + " -resume=" + ck), 0);
    ASSERT_EQ(runGoat(args + " -freq=130 -ledger=" + ref), 0);
    EXPECT_EQ(canonicalLedger(led), canonicalLedger(ref));
    EXPECT_EQ(readFile(led).compare(0, first.size(), first), 0);
    for (const std::string &p : {ck, led, ref})
        std::remove(p.c_str());
}

TEST(CheckpointLog, ResumeRefusesALedgerItCannotContinue)
{
    // With -ledger=, a resume needs the ledger the log recorded, up to
    // its committed end: missing, cut short, never recorded, or
    // rewritten so that other lines sit where rows 1..cursor were, the
    // resume is refused as unreadable (not a usage error) and writes
    // neither the -ledger file nor the checkpoint.
    const std::string log = tmpPath("needs.ck");
    const std::string bare = tmpPath("needs_bare.ck");
    const std::string orig = tmpPath("needs.jsonl");
    const std::string led = tmpPath("needs_res.jsonl");
    for (const std::string &p : {orig, led})
        std::remove(p.c_str());
    CampaignConfig cfg = smallCampaign(6);
    cfg.checkpointPath = bare;
    ASSERT_TRUE(runSmall(cfg).checkpointOk);
    cfg.checkpointPath = log;
    cfg.engine.ledgerPath = orig;
    ASSERT_TRUE(runSmall(cfg).checkpointOk);
    const std::string rows = readFile(orig);

    ASSERT_EQ(rows.rfind("{\"iter\":1,", 0), 0u);
    // Same size, row 1 renumbered; and longer, every row moved up one
    // line (the range now starts at row 2 and ends mid-row).
    std::string renumbered = rows;
    renumbered[8] = '7';
    const std::string shifted = rows.substr(rows.find('\n') + 1) + rows;
    struct Leg {
        const char *name;
        const std::string *ledger; // null = no file
        const std::string &ck;
    };
    const std::string cut = rows.substr(0, rows.size() - 1);
    const Leg legs[] = {{"missing", nullptr, log},
                        {"cut short", &cut, log},
                        {"never recorded", &rows, bare},
                        {"renumbered", &renumbered, log},
                        {"shifted", &shifted, log}};

    CampaignConfig r = smallCampaign(8);
    r.engine.ledgerPath = led;
    for (const Leg &leg : legs) {
        SCOPED_TRACE(leg.name);
        std::remove(orig.c_str());
        if (leg.ledger)
            writeFile(orig, *leg.ledger);
        r.resumePath = leg.ck;
        r.checkpointPath = r.resumePath;
        const std::string before = readFile(r.resumePath);
        campaign::CampaignResult res = runSmall(r);
        EXPECT_NE(res.refused.reason, "");
        EXPECT_FALSE(res.refused.usage) << res.refused.reason;
        EXPECT_FALSE(std::ifstream(led).good()) << "ledger created";
        EXPECT_EQ(readFile(r.resumePath), before);
        if (leg.ledger)
            EXPECT_EQ(readFile(orig), *leg.ledger);
    }
    // The untouched ledger continues; without -ledger= the rows are
    // not needed.
    writeFile(orig, rows);
    r.resumePath = log;
    r.checkpointPath.clear();
    EXPECT_EQ(runSmall(r).refused.reason, "");
    EXPECT_EQ(countLines(led, "{\"iter\":"), 8);
    r.engine.ledgerPath.clear();
    std::remove(orig.c_str());
    EXPECT_EQ(runSmall(r).refused.reason, "");
    for (const std::string &p : {log, bare, orig, led})
        std::remove(p.c_str());
}

TEST(CheckpointLog, ResumeIntoAnotherPathCopiesCommittedPrefix)
{
    // A torn log resumed into a different -checkpoint path: the new
    // log starts with the source's committed prefix verbatim (the torn
    // tail dropped), and the source is left alone.
    const std::string args = "-kernel=cockroach_1055 -d=2 -keep-going -cov";
    const std::string src = tmpPath("copy_src.ck");
    const std::string dst = tmpPath("copy_dst.ck");
    const std::string orig = tmpPath("copy_src.jsonl");
    const std::string ref = tmpPath("copy_ref.jsonl");
    const std::string led = tmpPath("copy_res.jsonl");
    for (const std::string &p : {orig, ref, led})
        std::remove(p.c_str());
    ASSERT_EQ(runGoat(args + " -freq=6 -checkpoint-every=2 -checkpoint=" +
                      src + " -ledger=" + orig),
              0);
    const std::string text = readFile(src);
    const auto commits = commitLines(text);
    ASSERT_EQ(commits.size(), 3u);
    const std::string torn = text.substr(0, commits[1].first + 17);
    writeFile(src, torn);

    ASSERT_EQ(runGoat(args + " -freq=8 -ledger=" + ref), 0);
    ASSERT_EQ(runGoat(args + " -freq=8 -resume=" + src +
                      " -checkpoint-every=2 -checkpoint=" + dst +
                      " -ledger=" + led),
              0);
    EXPECT_EQ(canonicalLedger(led), canonicalLedger(ref));
    EXPECT_EQ(readFile(src), torn);
    const std::string out = readFile(dst);
    EXPECT_EQ(out.compare(0, commits[1].first, text, 0, commits[1].first),
              0);
    CheckpointData back;
    std::string err;
    ASSERT_TRUE(campaign::parseCheckpoint(out, &back, &err)) << err;
    EXPECT_EQ(back.cursor, 8);
    // Every round carries the bitmap lines new in it; the merged
    // bitmap is all of them.
    std::string blocks;
    for (size_t at = out.find("cov_begin\n"); at != std::string::npos;
         at = out.find("cov_begin\n", at + 1))
        blocks += out.substr(at + 10, out.find("cov_end\n", at) - at - 10);
    EXPECT_EQ(back.covBitmap, blocks);
    for (const std::string &p : {src, dst, orig, ref, led})
        std::remove(p.c_str());
}

TEST(CheckpointLog, IsolateResumesFromTornLog)
{
    const std::string args = "-kernel=cockroach_1055 -d=2 -keep-going -cov "
                             "-isolate -jobs=2";
    const std::string ck = tmpPath("iso.ck");
    const std::string orig = tmpPath("iso_orig.jsonl");
    const std::string ref = tmpPath("iso_ref.jsonl");
    const std::string led = tmpPath("iso_res.jsonl");
    for (const std::string &p : {orig, ref, led})
        std::remove(p.c_str());
    ASSERT_EQ(runGoat(args + " -freq=6 -checkpoint-every=2 -checkpoint=" +
                      ck + " -ledger=" + orig),
              0);
    const std::string text = readFile(ck);
    const auto commits = commitLines(text);
    ASSERT_GE(commits.size(), 2u);
    writeFile(ck, text.substr(0, commits[commits.size() - 2].first + 5));

    ASSERT_EQ(runGoat(args + " -freq=8 -ledger=" + ref), 0);
    ASSERT_EQ(runGoat(args + " -freq=8 -resume=" + ck +
                      " -checkpoint-every=2 -checkpoint=" + ck +
                      " -ledger=" + led),
              0);
    EXPECT_EQ(canonicalLedger(led), canonicalLedger(ref));
    CheckpointData back;
    std::string err;
    ASSERT_TRUE(campaign::readCheckpointFile(ck, &back, &err)) << err;
    EXPECT_EQ(back.cursor, 8);
    for (const std::string &p : {ck, orig, ref, led})
        std::remove(p.c_str());
}

namespace {

/**
 * One line per commit of a v3 log: "commit <cursor>" and the round's
 * state line (less its respawn count and ledger end) and coverage
 * block (the byte offsets and rows depend on placement; these do not).
 */
std::vector<std::string>
commitSummaries(const std::string &text)
{
    std::vector<std::string> out;
    std::string round;
    std::istringstream in(text);
    std::string line;
    bool cov = false;
    while (std::getline(in, line)) {
        cov = cov || line == "cov_begin";
        if (line.rfind("state ", 0) == 0) {
            std::istringstream f(line.substr(6));
            std::string executed, respawns, crashes, timeouts, bug, race,
                stopped;
            f >> executed >> respawns >> crashes >> timeouts >> bug >> race >>
                stopped;
            round += "executed " + executed + "\nbug_iteration " + bug +
                     "\nstopped " + stopped + "\n";
        }
        if (cov)
            round += line + "\n";
        cov = cov && line != "cov_end";
        if (line.rfind("commit ", 0) == 0) {
            out.push_back(line.substr(0, line.rfind(' ')) + "\n" + round);
            round.clear();
        }
    }
    return out;
}

} // namespace

TEST(CheckpointLog, IsolateCommitsMatchThreaded)
{
    // Forked shards and worker threads feed the same fold, so both
    // commit the same rounds: same cursors, executed counts, bug
    // watermark, stop flag and coverage bitmap.
    const std::string args = "-kernel=cockroach_1055 -d=2 -keep-going -cov "
                             "-jobs=2 -freq=40 -checkpoint-every=8";
    const std::string threads = tmpPath("commits_threads.ck");
    const std::string shards = tmpPath("commits_shards.ck");
    ASSERT_EQ(runGoat(args + " -checkpoint=" + threads), 0);
    ASSERT_EQ(runGoat(args + " -isolate -checkpoint=" + shards), 0);
    const std::vector<std::string> want = commitSummaries(readFile(threads));
    ASSERT_EQ(want.size(), 5u);
    EXPECT_EQ(want[4].rfind("commit 40\nexecuted 40\nbug_iteration 2\n", 0),
              0u)
        << want[4];
    EXPECT_EQ(commitSummaries(readFile(shards)), want);
    std::remove(threads.c_str());
    std::remove(shards.c_str());
}

TEST(CheckpointLog, IsolateResumeKeepsSupervisedTallies)
{
    // The fold counts crashes and timeouts from the loss rows it folds,
    // so each commit carries its prefix's tallies and a resumed
    // campaign reports what an uninterrupted one does.
    const std::string args = "-kernel=hostile_segfault -isolate -d=2 "
                             "-jobs=2 -keep-going -freq=20";
    const std::string ck = tmpPath("tally.ck");
    auto tallies = [](const std::string &out) {
        size_t at = out.find("supervised: ");
        size_t end = out.find(" timeout(s)", at);
        return end == std::string::npos ? std::string()
                                        : out.substr(at, end - at);
    };
    const std::string whole =
        goatStdout(args + " -checkpoint-every=5 -checkpoint=" + ck);
    ASSERT_NE(tallies(whole), "") << whole;
    const std::string text = readFile(ck);
    size_t cut = 0;
    for (const auto &[end, cursor] : commitLines(text))
        if (cursor == 10)
            cut = end;
    ASSERT_NE(cut, 0u) << "no commit at cursor 10";
    // The cut keeps crashes from the first half (the third field of
    // its last state line).
    const size_t state = text.rfind("\nstate ", cut);
    ASSERT_NE(state, std::string::npos);
    std::istringstream fields(text.substr(state + 7));
    std::string executed, respawns, crashes;
    fields >> executed >> respawns >> crashes;
    EXPECT_NE(crashes, "0") << text.substr(state, 40);
    writeFile(ck, text.substr(0, cut));
    const std::string resumed = goatStdout(args + " -resume=" + ck);
    ASSERT_NE(resumed.find("resumed from"), std::string::npos) << resumed;
    EXPECT_EQ(tallies(resumed), tallies(whole));
    std::remove(ck.c_str());
}

TEST(Checkpoint, ResumeRefusesGarbageNumbers)
{
    // Numbers parse over the whole token: "2x" is not iteration 2, and
    // a resume from such a checkpoint is refused as unreadable (exit 1)
    // instead of restoring a wrong watermark or tally.
    const std::string run = "-kernel=etcd_7443 -d=2 -keep-going -seed=1 "
                            "-jobs=2 -cov";
    const std::string ck = tmpPath("garbage.ck");
    const std::string bad = tmpPath("garbage_bad.ck");
    ASSERT_EQ(runGoat(run + " -freq=200 -checkpoint=" + ck +
                      " -checkpoint-every=100"),
              0);
    EXPECT_EQ(runGoat(run + " -freq=300 -resume=" + ck), 0);

    // Replace the value of every @p key line in @p text by @p val.
    auto edit = [](std::string text, const std::string &key,
                   const std::string &val) {
        for (size_t at = text.find("\n" + key + " ");
             at != std::string::npos;
             at = text.find("\n" + key + " ", at + 1)) {
            size_t from = at + key.size() + 2;
            text.replace(from, text.find('\n', from) - from, val);
        }
        return text;
    };
    // Replace the last character of field @p idx (0-based) of every
    // @p key line by @p c. The length stays, so every commit offset
    // stays valid and only the field itself can refuse the log.
    auto junk = [](std::string text, const std::string &key, int idx,
                   char c = 'x') {
        for (size_t at = text.find("\n" + key + " ");
             at != std::string::npos;
             at = text.find("\n" + key + " ", at + 1)) {
            size_t from = at + key.size() + 2;
            for (int i = 0; i < idx; ++i)
                from = text.find(' ', from) + 1;
            text[text.find_first_of(" \n", from) - 1] = c;
        }
        return text;
    };
    // The row fields: iter, steps, wall_us and the sample's covered
    // count; the state fields: executed, bug_iteration, stopped (2 is
    // no flag) and the ledger end.
    const std::string text = readFile(ck);
    for (const std::string &t :
         {junk(text, "row", 0), junk(text, "row", 4), junk(text, "row", 5),
          junk(text, "row", 6), junk(text, "state", 0),
          junk(text, "state", 4), junk(text, "state", 6, '2'),
          junk(text, "state", 7)}) {
        ASSERT_NE(t, text);
        writeFile(bad, t);
        EXPECT_EQ(runGoat(run + " -freq=300 -resume=" + bad), 1);
    }

    // The v1 fixture has no offsets at all: "bug_iteration 2x" must not
    // read as iteration 2 (a bug row) either.
    const std::string v1 = readFile(std::string(GOAT_SOURCE_DIR) +
                                    "/tests/golden/checkpoint_v1.ck");
    const std::string v1run = "-kernel=cockroach_1055 -d=2 -keep-going -cov";
    writeFile(bad, v1);
    EXPECT_EQ(runGoat(v1run + " -freq=8 -resume=" + bad), 0);
    writeFile(bad, edit(v1, "bug_iteration", "2x"));
    EXPECT_EQ(runGoat(v1run + " -freq=8 -resume=" + bad), 1);

    // The v2 fixture keeps one key per line: junk executed, steps or
    // seed, stopped 2, a short sat sample and bug_iteration 1x each
    // refuse it. Every commit offset is set again after the edit, so
    // the value itself, not a commit line, is what refuses.
    auto recommit = [](std::string text) {
        for (size_t at = text.find("\ncommit "); at != std::string::npos;
             at = text.find("\ncommit ", at + 1)) {
            const size_t off = text.find(' ', at + 8) + 1;
            text.replace(off, text.find('\n', off) - off,
                         std::to_string(at + 1));
        }
        return text;
    };
    const std::string v2 = readFile(std::string(GOAT_SOURCE_DIR) +
                                    "/tests/golden/checkpoint_v2.ck");
    const std::string v2run = v1run + " -freq=24 -resume=" + bad;
    ASSERT_EQ(recommit(v2), v2);
    writeFile(bad, v2);
    EXPECT_EQ(runGoat(v2run), 0);
    for (const std::string &t :
         {junk(v2, "executed", 0), junk(v2, "steps", 0), junk(v2, "seed", 0),
          edit(v2, "stopped", "2"), edit(v2, "sat", "1 2 3"),
          edit(v2, "bug_iteration", "1x")}) {
        ASSERT_NE(t, v2);
        const std::string fixed = recommit(t);
        CheckpointData d;
        std::string err;
        EXPECT_FALSE(campaign::parseCheckpoint(fixed, &d, &err));
        EXPECT_NE(err.rfind("malformed line: commit", 0), 0u) << err;
        writeFile(bad, fixed);
        EXPECT_EQ(runGoat(v2run), 1);
    }
    std::remove(ck.c_str());
    std::remove(bad.c_str());
}

TEST(Checkpoint, ResumeRefusesUnknownOutcomeOrVerdict)
{
    // A row whose outcome or verdict names no value is refused (exit 1)
    // instead of resuming as ok/pass: the resume copies nothing into
    // the ledger.
    const std::string run = "-kernel=cockroach_1055 -d=2 -keep-going";
    const std::string ck = tmpPath("names.ck");
    const std::string bad = tmpPath("names_bad.ck");
    const std::string orig = tmpPath("names_orig.jsonl");
    const std::string led = tmpPath("names.jsonl");
    std::remove(orig.c_str());
    ASSERT_EQ(runGoat(run + " -freq=6 -checkpoint=" + ck +
                      " -checkpoint-every=3 -ledger=" + orig),
              0);
    const std::string text = readFile(ck);
    // Turn the last letter of row 1's field @p idx (1 = outcome, 2 =
    // verdict) into 'z' (no name ends in one). The length stays, so
    // every commit offset holds.
    auto garble = [&text](int idx) {
        std::string t = text;
        size_t at = t.find("\nrow 1 ") + 1;
        for (int i = 0; i <= idx; ++i)
            at = t.find(' ', at) + 1;
        t[t.find(' ', at) - 1] = 'z';
        return t;
    };
    writeFile(bad, text);
    EXPECT_EQ(runGoat(run + " -freq=10 -resume=" + bad), 0);
    std::remove(led.c_str());
    EXPECT_EQ(runGoat(run + " -freq=10 -resume=" + bad + " -ledger=" + led),
              0);
    EXPECT_EQ(countLines(led, "{\"iter\":"), 10);
    for (const std::string &t : {garble(1), garble(2)}) {
        ASSERT_NE(t, text);
        writeFile(bad, t);
        std::remove(led.c_str());
        EXPECT_EQ(runGoat(run + " -freq=10 -resume=" + bad +
                          " -ledger=" + led),
                  1);
        EXPECT_EQ(countLines(led, "{\"iter\":"), 0);
    }

    // A v2 row block names them on outcome/verdict lines, and its
    // resume writes the rows again: a garbled name writes none.
    const std::string v2 = readFile(std::string(GOAT_SOURCE_DIR) +
                                    "/tests/golden/checkpoint_v2.ck");
    auto garbleKey = [&v2](const std::string &key) {
        std::string t = v2;
        const size_t at = t.find("\n" + key + " ");
        EXPECT_NE(at, std::string::npos) << key;
        t[t.find('\n', at + 1) - 1] = 'z';
        return t;
    };
    const std::string v2run = run + " -cov -freq=20 -resume=" + bad +
                              " -ledger=" + led;
    writeFile(bad, v2);
    std::remove(led.c_str());
    EXPECT_EQ(runGoat(v2run), 0);
    EXPECT_EQ(countLines(led, "{\"iter\":"), 20);
    for (const std::string &t : {garbleKey("outcome"), garbleKey("verdict")}) {
        ASSERT_NE(t, v2);
        writeFile(bad, t);
        std::remove(led.c_str());
        EXPECT_EQ(runGoat(v2run), 1);
        EXPECT_EQ(countLines(led, "{\"iter\":"), 0);
    }
    std::remove(orig.c_str());
    std::remove(ck.c_str());
    std::remove(bad.c_str());
    std::remove(led.c_str());
}

TEST(Checkpoint, ResumeRefusesWatermarksOffThePrefix)
{
    // bug_iteration must name a bug row of the committed prefix and
    // race_iteration a row of it; anything else refuses the resume.
    const std::string log = tmpPath("marks.ck");
    const std::string bad = tmpPath("marks_bad.ck");
    CampaignConfig cfg = smallCampaign(6);
    cfg.checkpointPath = log;
    ASSERT_TRUE(runSmall(cfg).checkpointOk);
    CheckpointData d;
    std::string err;
    ASSERT_TRUE(campaign::readCheckpointFile(log, &d, &err)) << err;
    ASSERT_EQ(d.bugIteration, 2);
    ASSERT_FALSE(d.rows[0].bug);

    CampaignConfig r = smallCampaign(8);
    r.resumePath = bad;
    ASSERT_TRUE(campaign::writeCheckpointFile(bad, d));
    EXPECT_EQ(runSmall(r).refused.reason, "");
    for (auto [bug, race] : std::vector<std::pair<int, int>>{
             {1, -1}, {0, -1}, {7, -1}, {-2, -1}, {2, 0}, {2, 7}}) {
        CheckpointData m = d;
        m.bugIteration = bug;
        m.raceIteration = race;
        ASSERT_TRUE(campaign::writeCheckpointFile(bad, m));
        campaign::CampaignResult res = runSmall(r);
        EXPECT_FALSE(res.refused.usage) << bug << "/" << race;
        EXPECT_NE(res.refused.reason.find(bug == 2 ? "race_iteration"
                                                   : "bug_iteration"),
                  std::string::npos)
            << res.refused.reason;
    }
    std::remove(log.c_str());
    std::remove(bad.c_str());
}

// ---------------------------------------------------------------------
// Configuration refusals (campaign::refusal)
// ---------------------------------------------------------------------

namespace {

/** One combination runCampaign refuses. */
struct RefusalCase
{
    const char *name;
    /** Apply the combination; @p log is a committed checkpoint log. */
    void (*set)(CampaignConfig &, const std::string &log);
    /** Both fields the refusal must name. */
    const char *fields[2];
};

void
PrintTo(const RefusalCase &c, std::ostream *os)
{
    *os << c.name;
}

const RefusalCase kRefusals[] = {
    {"isolate_race",
     [](CampaignConfig &c, const std::string &log) {
         c.isolate = true;
         c.engine.raceDetect = true;
         c.checkpointPath = log;
     },
     {"isolate", "raceDetect"}},
    {"isolate_predict",
     [](CampaignConfig &c, const std::string &log) {
         c.isolate = true;
         c.checkpointPath = log;
         c.engine.predict = true;
     },
     {"isolate", "predict"}},
    {"isolate_profile",
     [](CampaignConfig &c, const std::string &log) {
         c.isolate = true;
         c.checkpointPath = log;
         c.engine.profile = true;
     },
     {"isolate", "profile"}},
    {"checkpoint_predict",
     [](CampaignConfig &c, const std::string &log) {
         c.checkpointPath = log;
         c.engine.predict = true;
     },
     {"checkpointPath", "predict"}},
    {"checkpoint_profile",
     [](CampaignConfig &c, const std::string &log) {
         c.checkpointPath = log;
         c.engine.profile = true;
     },
     {"checkpointPath", "profile"}},
    {"resume_predict",
     [](CampaignConfig &c, const std::string &log) {
         c.resumePath = log;
         c.engine.predict = true;
     },
     {"resumePath", "predict"}},
    {"resume_profile",
     [](CampaignConfig &c, const std::string &log) {
         c.resumePath = log;
         c.engine.profile = true;
     },
     {"resumePath", "profile"}},
    {"iter_timeout",
     [](CampaignConfig &c, const std::string &log) {
         c.iterTimeoutSecs = 1;
         c.checkpointPath = log;
     },
     {"iterTimeoutSecs", "isolate"}},
    {"mem_limit",
     [](CampaignConfig &c, const std::string &log) {
         c.memLimitMB = 256;
         c.checkpointPath = log;
     },
     {"memLimitMB", "isolate"}},
    {"max_respawns",
     [](CampaignConfig &c, const std::string &log) {
         c.maxRespawns = 4;
         c.checkpointPath = log;
     },
     {"maxRespawns", "isolate"}},
};

class CampaignRefusal : public testing::TestWithParam<RefusalCase>
{};

} // namespace

// A refused campaign is a usage error that names the fields at fault,
// runs no iteration, creates no ledger and leaves an existing
// checkpoint log byte for byte as it was.
TEST_P(CampaignRefusal, RunsNothingAndTouchesNoFile)
{
    const RefusalCase &c = GetParam();
    const std::string log = tmpPath(std::string("refuse_") + c.name + ".ck");
    const std::string led =
        tmpPath(std::string("refuse_") + c.name + ".jsonl");
    CampaignConfig first = smallCampaign(6);
    first.checkpointPath = log;
    ASSERT_TRUE(runSmall(first).checkpointOk);
    const std::string before = readFile(log);
    std::remove(led.c_str());

    CampaignConfig cfg = smallCampaign(8);
    cfg.engine.ledgerPath = led;
    c.set(cfg, log);
    const std::string why = campaign::refusal(cfg);
    campaign::CampaignResult res = runSmall(cfg);
    EXPECT_EQ(res.refused.reason, why);
    for (const char *field : c.fields)
        EXPECT_NE(why.find(field), std::string::npos) << why;
    EXPECT_TRUE(res.refused.usage);
    EXPECT_EQ(res.executedIterations, 0);
    EXPECT_TRUE(res.merged.iterations.empty());
    EXPECT_FALSE(std::ifstream(led).good()) << "ledger created";
    EXPECT_EQ(readFile(log), before);
    std::remove(log.c_str());
}

INSTANTIATE_TEST_SUITE_P(Config, CampaignRefusal, testing::ValuesIn(kRefusals),
                         [](const testing::TestParamInfo<RefusalCase> &i) {
                             return std::string(i.param.name);
                         });

// The boundary of each rule: the same fields in a combination the
// campaign can honour are not refused.
TEST(Refusal, AcceptsWhatTheCampaignCanHonour)
{
    CampaignConfig c = smallCampaign(8);
    EXPECT_EQ(campaign::refusal(c), "");
    c.isolate = true;
    c.iterTimeoutSecs = 1;
    c.memLimitMB = 256;
    c.maxRespawns = 4;
    c.checkpointPath = "x.ck";
    c.resumePath = "y.ck";
    EXPECT_EQ(campaign::refusal(c), "");
    c = smallCampaign(8);
    c.engine.raceDetect = true;
    c.engine.predict = true;
    c.engine.profile = true;
    EXPECT_EQ(campaign::refusal(c), "");
    c.engine.predict = c.engine.profile = false;
    c.checkpointPath = "x.ck";
    c.resumePath = "y.ck";
    EXPECT_EQ(campaign::refusal(c), "");
}

// ---------------------------------------------------------------------
// Hostile kernels: registry segregation
// ---------------------------------------------------------------------

TEST(HostileKernels, SegregatedFromRegularSweeps)
{
    auto &reg = goker::KernelRegistry::instance();
    auto hostile = reg.allHostile();
    ASSERT_GE(hostile.size(), 3u);
    for (const auto *k : hostile) {
        EXPECT_TRUE(k->hostile);
        // Never in the default sweep…
        for (const auto *r : reg.all())
            EXPECT_NE(r->name, k->name);
        // …but reachable by name.
        EXPECT_EQ(reg.find(k->name), k);
    }
}

// ---------------------------------------------------------------------
// Supervised campaigns over the hostile kernels (subprocess)
// ---------------------------------------------------------------------

TEST(Supervised, SegfaultsBecomeClassifiedRows)
{
    std::string ledger = tmpPath("seg.jsonl");
    std::remove(ledger.c_str());
    EXPECT_EQ(runGoat("-kernel=hostile_segfault -isolate -d=2 "
                      "-freq=12 -jobs=2 -ledger=" +
                      ledger),
              0);
    EXPECT_GE(countLines(ledger, "\"crash_cause\":\"sigsegv\""), 1);
    // Crashes must not stop the campaign: passing rows surround them.
    EXPECT_GE(countLines(ledger, "\"outcome\":\"ok\""), 1);
    std::remove(ledger.c_str());
}

TEST(Supervised, WatchdogConvertsLivelockToTimeout)
{
    std::string ledger = tmpPath("lv.jsonl");
    std::remove(ledger.c_str());
    EXPECT_EQ(runGoat("-kernel=hostile_livelock -isolate "
                      "-iter-timeout=1 -d=2 -freq=6 -jobs=2 -ledger=" +
                      ledger),
              0);
    EXPECT_GE(countLines(ledger, "\"outcome\":\"timeout\""), 1);
    std::remove(ledger.c_str());
}

TEST(Supervised, MemLimitBreachesClassifiedOom)
{
    std::string ledger = tmpPath("oom.jsonl");
    std::remove(ledger.c_str());
    EXPECT_EQ(runGoat("-kernel=hostile_oom -isolate -mem-limit=192 "
                      "-d=2 -freq=6 -jobs=2 -ledger=" +
                      ledger),
              0);
    EXPECT_GE(countLines(ledger, "\"crash_cause\":\"oom\""), 1);
    std::remove(ledger.c_str());
}

namespace {

/**
 * Ledger lines minus what may differ between two processes running the
 * same iterations: wall time (wall_us and the histograms) and the
 * goroutine stack pool counters, which depend on what the running
 * thread did before (the pool is per thread).
 */
std::vector<std::string>
rowsModuloHost(const std::string &path)
{
    static const std::regex wall(R"("wall_us":[0-9]+,)");
    static const std::regex pool(R"(,"sched\.stackpool\.[a-z_]+":[0-9]+)");
    std::vector<std::string> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        line = std::regex_replace(line, wall, "");
        line = std::regex_replace(line, pool, "");
        size_t h = line.find(",\"histograms\":{");
        if (h != std::string::npos) {
            size_t end = h + 15;
            for (int depth = 1; depth > 0 && end < line.size(); ++end)
                depth += line[end] == '{' ? 1 : line[end] == '}' ? -1 : 0;
            line.erase(h, end - h);
        }
        out.push_back(line);
    }
    return out;
}

} // namespace

TEST(Supervised, WellBehavedKernelMatchesThreadedRun)
{
    // Same campaign, in-process vs one supervised shard: the shard runs
    // the worker's iteration code on a worker of its own, so every
    // ledger field agrees — metrics included (engine.bugs_found counts
    // the worker's first bug only, in both) — except host timing and
    // the stack pool.
    const std::string args =
        "-kernel=etcd_7443 -d=2 -keep-going -cov -freq=200 -seed=1 -jobs=1";
    std::string l1 = tmpPath("t1.jsonl");
    std::string l2 = tmpPath("t2.jsonl");
    std::remove(l1.c_str());
    std::remove(l2.c_str());
    ASSERT_EQ(runGoat(args + " -ledger=" + l1), 0);
    ASSERT_EQ(runGoat(args + " -isolate -ledger=" + l2), 0);
    const std::vector<std::string> a = rowsModuloHost(l1);
    const std::vector<std::string> b = rowsModuloHost(l2);
    ASSERT_EQ(a.size(), 200u);
    ASSERT_EQ(b.size(), a.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << "row " << i + 1;
    EXPECT_NE(a[0].find("\"metrics\":{\"counters\":{"), std::string::npos);
    std::remove(l1.c_str());
    std::remove(l2.c_str());
}

// ---------------------------------------------------------------------
// The supervisor in process, through its child-body seam
// ---------------------------------------------------------------------

TEST(SuperviseCampaign, AbortingBodyIsClassifiedAndRespawned)
{
    // Shard 0 owns iterations 1, 3, 5, 7 and shard 1 owns 2, 4, 6, 8;
    // the fake body aborts on iteration 3 and otherwise names what the
    // supervisor asked for.
    CampaignConfig cfg;
    cfg.jobs = 2;
    cfg.engine.maxIterations = 8;
    auto body = [](int iter, int shard, int wseq) {
        if (iter == 3) {
            struct rlimit none = {0, 0};
            ::setrlimit(RLIMIT_CORE, &none);
            std::abort();
        }
        return "body " + std::to_string(iter) + " " +
               std::to_string(shard) + " " + std::to_string(wseq);
    };
    std::map<int, int> seen;
    std::vector<campaign::ShardEvent> events;
    campaign::superviseCampaign(
        cfg, 1, body,
        [&](campaign::ShardEvent &&ev) {
            if (ev.kind != campaign::ShardEvent::Kind::Respawn)
                ++seen[ev.iteration];
            events.push_back(std::move(ev));
        },
        [] { return false; });

    ASSERT_EQ(seen.size(), 8u);
    for (const auto &[iter, n] : seen)
        EXPECT_EQ(n, 1) << "iteration " << iter;
    int crashes = 0;
    int respawn_at = 0;
    bool five_after_respawn = false;
    for (const campaign::ShardEvent &ev : events) {
        switch (ev.kind) {
        case campaign::ShardEvent::Kind::Crash:
            ++crashes;
            EXPECT_EQ(ev.iteration, 3);
            EXPECT_EQ(ev.shard, 0);
            EXPECT_EQ(ev.cause, "sigabrt");
            break;
        case campaign::ShardEvent::Kind::Respawn:
            EXPECT_EQ(ev.shard, 0);
            respawn_at = ev.iteration;
            break;
        case campaign::ShardEvent::Kind::Result:
            // wseq counts the shard's resolved iterations, the crash
            // included: shard 0 resolves 1, 3, 5, 7 as 1, 2, 3, 4.
            EXPECT_EQ(ev.shard, (ev.iteration - 1) % 2);
            EXPECT_EQ(ev.wseq, (ev.iteration + 1) / 2);
            EXPECT_EQ(ev.body, "body " + std::to_string(ev.iteration) +
                                   " " + std::to_string(ev.shard) + " " +
                                   std::to_string(ev.wseq));
            if (ev.iteration == 5 && respawn_at == 5)
                five_after_respawn = true;
            break;
        case campaign::ShardEvent::Kind::Timeout:
            ADD_FAILURE() << "unexpected timeout at " << ev.iteration;
        }
    }
    EXPECT_EQ(crashes, 1);
    EXPECT_EQ(respawn_at, 5);
    EXPECT_TRUE(five_after_respawn);
}

TEST(SuperviseCampaign, SlowFoldDoesNotTimeOutAnsweredShard)
{
    // The fold replays inside onEvent (confirmations, minimization), so
    // one event can outlast another shard's watchdog. Shard 0 takes
    // 600 ms per iteration and shard 1 100 ms; folding iteration 2
    // takes 1.3 s, past the 1 s deadline of iteration 1, whose result
    // shard 0 sent at 600 ms. The watchdog reads that result (and the
    // next ones) instead of killing the shard mid-iteration.
    CampaignConfig cfg;
    cfg.jobs = 2;
    cfg.engine.maxIterations = 8;
    cfg.iterTimeoutSecs = 1;
    auto body = [](int iter, int shard, int) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(shard == 0 ? 600 : 100));
        return "body " + std::to_string(iter);
    };
    std::vector<campaign::ShardEvent> events;
    campaign::superviseCampaign(
        cfg, 1, body,
        [&](campaign::ShardEvent &&ev) {
            if (ev.kind == campaign::ShardEvent::Kind::Result &&
                ev.iteration == 2)
                std::this_thread::sleep_for(std::chrono::milliseconds(1300));
            events.push_back(std::move(ev));
        },
        [] { return false; });

    std::map<int, int> results;
    for (const campaign::ShardEvent &ev : events) {
        EXPECT_EQ(ev.kind, campaign::ShardEvent::Kind::Result)
            << "iteration " << ev.iteration << " cause " << ev.cause;
        if (ev.kind == campaign::ShardEvent::Kind::Result)
            ++results[ev.iteration];
    }
    EXPECT_EQ(results.size(), 8u);
    for (const auto &[iter, n] : results)
        EXPECT_EQ(n, 1) << "iteration " << iter;
}

// ---------------------------------------------------------------------
// Gating matrix (subprocess exit 2)
// ---------------------------------------------------------------------

TEST(SupervisedGating, WatchdogRequiresIsolate)
{
    EXPECT_EQ(runGoat("-kernel=cockroach_1055 -d=2 -freq=5 "
                      "-iter-timeout=1"),
              2);
}

TEST(SupervisedGating, MemLimitRequiresIsolate)
{
    EXPECT_EQ(runGoat("-kernel=cockroach_1055 -d=2 -freq=5 "
                      "-mem-limit=256"),
              2);
}

TEST(SupervisedGating, HostileKernelsRequireIsolate)
{
    EXPECT_EQ(runGoat("-kernel=hostile_segfault -d=2 -freq=5"), 2);
    EXPECT_EQ(runGoat("-kernel=hostile -d=2 -freq=5"), 2);
}

TEST(SupervisedGating, IsolateRejectsInProcessOnlyModes)
{
    EXPECT_EQ(runGoat("-kernel=cockroach_1055 -d=2 -freq=5 -isolate "
                      "-race"),
              2);
    EXPECT_EQ(runGoat("-kernel=cockroach_1055 -d=2 -freq=5 -isolate "
                      "-predict"),
              2);
    EXPECT_EQ(runGoat("-kernel=cockroach_1055 -d=2 -freq=5 -isolate "
                      "-profile"),
              2);
}

TEST(SupervisedGating, CheckpointRejectsSweepsAndPredict)
{
    std::string ck = tmpPath("gate.ck");
    EXPECT_EQ(runGoat("-kernel=all -d=0 -freq=2 -checkpoint=" + ck),
              2);
    EXPECT_EQ(runGoat("-kernel=cockroach_1055 -d=2 -freq=5 -predict "
                      "-checkpoint=" +
                      ck),
              2);
}
