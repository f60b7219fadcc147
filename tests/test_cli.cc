/**
 * @file
 * Tests for the goat CLI: the flag grammar (tools/cli_options.hh) and,
 * via subprocess runs of the real binary, the exit-code contract —
 * 0 completed run, 1 artifact-write failure or replay mismatch,
 * 2 usage error.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <sys/wait.h>
#include <vector>

#include "../tools/cli_options.hh"

using goat::cli::Options;
using goat::cli::parseOptions;

namespace {

bool
parse(std::vector<const char *> args, Options &opt, std::string *err)
{
    args.insert(args.begin(), "goat");
    return parseOptions(static_cast<int>(args.size()),
                        const_cast<char **>(args.data()), opt, err);
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

/** A kernel + flags that find a bug within a couple of iterations. */
const char *const kBugRun = "-kernel=cockroach_1055 -d=2 -freq=50";

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "goat_cli_" + name;
}

} // namespace

TEST(Cli, Defaults)
{
    Options opt;
    std::string err;
    EXPECT_TRUE(parse({}, opt, &err));
    EXPECT_FALSE(opt.list);
    EXPECT_EQ(opt.kernel, "");
    EXPECT_EQ(opt.delay, 0);
    EXPECT_EQ(opt.freq, 1);
    EXPECT_EQ(opt.jobs, 1);
    EXPECT_FALSE(opt.cov);
    EXPECT_FALSE(opt.race);
    EXPECT_EQ(opt.seed, 1u);
}

TEST(Cli, AllFlagsTogether)
{
    Options opt;
    std::string err;
    EXPECT_TRUE(parse({"-kernel=moby_28462", "-d=3", "-freq=500",
                       "-jobs=4", "-cov", "-race", "-stats", "-report",
                       "-trace=/tmp/t.ect", "-html=/tmp/r.html",
                       "-ledger=/tmp/run.jsonl",
                       "-chrome-trace=/tmp/ct.json", "-metrics",
                       "-seed=0x10"},
                      opt, &err));
    EXPECT_EQ(opt.kernel, "moby_28462");
    EXPECT_EQ(opt.delay, 3);
    EXPECT_EQ(opt.freq, 500);
    EXPECT_EQ(opt.jobs, 4);
    EXPECT_TRUE(opt.cov);
    EXPECT_TRUE(opt.race);
    EXPECT_TRUE(opt.stats);
    EXPECT_TRUE(opt.report);
    EXPECT_EQ(opt.trace_out, "/tmp/t.ect");
    EXPECT_EQ(opt.html_out, "/tmp/r.html");
    EXPECT_EQ(opt.ledger_out, "/tmp/run.jsonl");
    EXPECT_EQ(opt.chrome_out, "/tmp/ct.json");
    EXPECT_TRUE(opt.metrics);
    EXPECT_EQ(opt.seed, 16u);
}

TEST(Cli, TelemetryDefaultsOff)
{
    Options opt;
    std::string err;
    EXPECT_TRUE(parse({}, opt, &err));
    EXPECT_EQ(opt.ledger_out, "");
    EXPECT_EQ(opt.chrome_out, "");
    EXPECT_FALSE(opt.metrics);
}

TEST(Cli, ChromeTraceRequiresEqualsForm)
{
    Options opt;
    std::string err;
    EXPECT_FALSE(parse({"-chrome-trace"}, opt, &err));
    EXPECT_EQ(err, "-chrome-trace");
}

TEST(Cli, ListFlag)
{
    Options opt;
    std::string err;
    EXPECT_TRUE(parse({"-list"}, opt, &err));
    EXPECT_TRUE(opt.list);
}

TEST(Cli, UnknownFlagRejectedAndNamed)
{
    Options opt;
    std::string err;
    EXPECT_FALSE(parse({"-bogus"}, opt, &err));
    EXPECT_EQ(err, "-bogus");
}

TEST(Cli, ValueFlagsRequireEqualsForm)
{
    Options opt;
    std::string err;
    // "-d" without '=' is not the value form and must be rejected.
    EXPECT_FALSE(parse({"-d"}, opt, &err));
    EXPECT_EQ(err, "-d");
}

TEST(Cli, DecimalSeed)
{
    Options opt;
    std::string err;
    EXPECT_TRUE(parse({"-seed=12345"}, opt, &err));
    EXPECT_EQ(opt.seed, 12345u);
}

TEST(Cli, ObservabilityFlagsDefaultOff)
{
    Options opt;
    std::string err;
    EXPECT_TRUE(parse({}, opt, &err));
    EXPECT_FALSE(opt.profile);
    EXPECT_EQ(opt.progress, 0);
    EXPECT_EQ(opt.saturation_out, "");
    EXPECT_EQ(opt.status_out, "");
}

TEST(Cli, ObservabilityFlags)
{
    Options opt;
    std::string err;
    EXPECT_TRUE(parse({"-profile", "-progress",
                       "-saturation-out=/tmp/sat.jsonl",
                       "-status-out=/tmp/status.json"},
                      opt, &err));
    EXPECT_TRUE(opt.profile);
    EXPECT_EQ(opt.progress, 1); // bare -progress means 1s interval
    EXPECT_EQ(opt.saturation_out, "/tmp/sat.jsonl");
    EXPECT_EQ(opt.status_out, "/tmp/status.json");

    Options opt2;
    EXPECT_TRUE(parse({"-progress=5"}, opt2, &err));
    EXPECT_EQ(opt2.progress, 5);
}

TEST(Cli, RecordReplayMinimizeFlags)
{
    Options opt;
    std::string err;
    EXPECT_TRUE(parse({"-record=/tmp/bug.recipe",
                       "-replay=/tmp/old.recipe", "-minimize"},
                      opt, &err));
    EXPECT_EQ(opt.record_out, "/tmp/bug.recipe");
    EXPECT_EQ(opt.replay_in, "/tmp/old.recipe");
    EXPECT_TRUE(opt.minimize);
}

TEST(Cli, FaultToleranceFlagsDefaultOff)
{
    Options opt;
    std::string err;
    EXPECT_TRUE(parse({}, opt, &err));
    EXPECT_FALSE(opt.isolate);
    EXPECT_EQ(opt.iter_timeout, 0);
    EXPECT_EQ(opt.mem_limit, 0);
    EXPECT_EQ(opt.max_respawns, 16);
    EXPECT_EQ(opt.checkpoint_out, "");
    EXPECT_EQ(opt.checkpoint_every, 64);
    EXPECT_EQ(opt.resume_in, "");
    EXPECT_FALSE(opt.keep_going);
}

TEST(Cli, FaultToleranceFlags)
{
    Options opt;
    std::string err;
    EXPECT_TRUE(parse({"-isolate", "-iter-timeout=30", "-mem-limit=512",
                       "-max-respawns=4", "-checkpoint=/tmp/c.ck",
                       "-checkpoint-every=128", "-resume=/tmp/old.ck",
                       "-keep-going"},
                      opt, &err));
    EXPECT_TRUE(opt.isolate);
    EXPECT_EQ(opt.iter_timeout, 30);
    EXPECT_EQ(opt.mem_limit, 512);
    EXPECT_EQ(opt.max_respawns, 4);
    EXPECT_EQ(opt.checkpoint_out, "/tmp/c.ck");
    EXPECT_EQ(opt.checkpoint_every, 128);
    EXPECT_EQ(opt.resume_in, "/tmp/old.ck");
    EXPECT_TRUE(opt.keep_going);
}

// ---------------------------------------------------------------------
// Exit-code contract, pinned against the real binary.
// ---------------------------------------------------------------------

TEST(CliExit, CompletedRunIsZero)
{
    EXPECT_EQ(runGoat(std::string(kBugRun)), 0);
}

TEST(CliExit, UsageErrorsAreTwo)
{
    EXPECT_EQ(runGoat("-bogus"), 2);
    EXPECT_EQ(runGoat("-kernel=no_such_kernel"), 2);
    // Replay needs a single kernel to re-execute.
    EXPECT_EQ(runGoat("-kernel=all -replay=/tmp/whatever.recipe"), 2);
}

TEST(CliExit, ArtifactWriteFailureIsOne)
{
    // Every artifact flag pointing at an unwritable path must fail the
    // run even though the campaign itself completed.
    const char *dir = "/nonexistent-goat-dir";
    EXPECT_EQ(runGoat(std::string(kBugRun) + " -ledger=" + dir + "/l.jsonl"),
              1);
    EXPECT_EQ(runGoat(std::string(kBugRun) + " -trace=" + dir + "/t.ect"),
              1);
    EXPECT_EQ(runGoat(std::string(kBugRun) + " -html=" + dir + "/r.html"),
              1);
    EXPECT_EQ(runGoat(std::string(kBugRun) + " -chrome-trace=" + dir +
                      "/ct.json"),
              1);
    EXPECT_EQ(runGoat(std::string(kBugRun) + " -record=" + dir +
                      "/b.recipe"),
              1);
    // The observability artifacts follow the same contract.
    EXPECT_EQ(runGoat(std::string(kBugRun) + " -cov -saturation-out=" +
                      dir + "/sat.jsonl"),
              1);
    EXPECT_EQ(runGoat(std::string(kBugRun) + " -status-out=" + dir +
                      "/status.json"),
              1);
}

TEST(CliExit, ObservabilityArtifactsWrittenOnSuccess)
{
    std::string sat = tmpPath("sat.jsonl");
    std::string status = tmpPath("status.json");
    std::remove(sat.c_str());
    std::remove((sat + ".html").c_str());
    std::remove(status.c_str());
    EXPECT_EQ(runGoat(std::string(kBugRun) +
                      " -cov -profile -saturation-out=" + sat +
                      " -status-out=" + status),
              0);
    // JSONL + HTML report + final status snapshot all exist.
    for (const std::string &p : {sat, sat + ".html", status}) {
        FILE *f = std::fopen(p.c_str(), "r");
        EXPECT_NE(f, nullptr) << p;
        if (f)
            std::fclose(f);
    }
    std::remove(sat.c_str());
    std::remove((sat + ".html").c_str());
    std::remove(status.c_str());
}

// An unrecognized GOAT_LOG_LEVEL value is ignored with exactly one
// stderr warning; the run itself still completes with exit 0.
TEST(CliExit, UnknownLogLevelWarnsOnceAndIsIgnored)
{
    std::string errfile = tmpPath("loglevel.err");
    std::remove(errfile.c_str());
    std::string cmd = std::string("GOAT_LOG_LEVEL=bogus ") + GOAT_CLI_BIN +
                      " " + kBugRun + " >/dev/null 2>" + errfile;
    int rc = std::system(cmd.c_str());
    ASSERT_GE(rc, 0);
    EXPECT_EQ(WIFEXITED(rc) ? WEXITSTATUS(rc) : -1, 0);

    std::ifstream in(errfile);
    std::string line;
    int warnings = 0;
    while (std::getline(in, line))
        if (line.find("unknown GOAT_LOG_LEVEL 'bogus' ignored") !=
            std::string::npos)
            ++warnings;
    EXPECT_EQ(warnings, 1);
    std::remove(errfile.c_str());
}

TEST(CliExit, ReplayOfMissingRecipeIsOne)
{
    EXPECT_EQ(runGoat("-kernel=cockroach_1055 "
                      "-replay=/nonexistent-goat-dir/x.recipe"),
              1);
}

TEST(CliExit, RecordThenReplayRoundTrips)
{
    std::string recipe = tmpPath("roundtrip.recipe");
    std::remove(recipe.c_str());
    ASSERT_EQ(runGoat(std::string(kBugRun) + " -record=" + recipe), 0);
    EXPECT_EQ(runGoat("-kernel=cockroach_1055 -replay=" + recipe), 0);

    // Minimize during replay writes a recipe that replays cleanly too.
    std::string minimized = tmpPath("roundtrip.min.recipe");
    std::remove(minimized.c_str());
    EXPECT_EQ(runGoat("-kernel=cockroach_1055 -replay=" + recipe +
                      " -minimize -record=" + minimized),
              0);
    EXPECT_EQ(runGoat("-kernel=cockroach_1055 -replay=" + minimized), 0);
    std::remove(recipe.c_str());
    std::remove(minimized.c_str());
}

TEST(CliExit, CheckpointArtifactContract)
{
    // A checkpoint pointing at an unwritable path fails the run (1);
    // a writable one leaves a parseable v2 checkpoint log behind.
    EXPECT_EQ(runGoat(std::string(kBugRun) +
                      " -checkpoint=/nonexistent-goat-dir/c.ck"),
              1);
    std::string ck = tmpPath("exit.ck");
    std::remove(ck.c_str());
    EXPECT_EQ(runGoat(std::string(kBugRun) + " -checkpoint=" + ck +
                      " -checkpoint-every=1"),
              0);
    std::ifstream in(ck);
    std::string magic;
    std::getline(in, magic);
    EXPECT_EQ(magic, "# goat-checkpoint v2");
    std::remove(ck.c_str());
}

TEST(CliExit, ResumeErrorsFollowExitContract)
{
    // Unreadable checkpoint: I/O error (1). Mismatched fingerprint
    // (different campaign flags): usage error (2).
    EXPECT_EQ(runGoat("-kernel=cockroach_1055 -d=2 -freq=5 "
                      "-resume=/nonexistent-goat-dir/x.ck"),
              1);
    std::string ck = tmpPath("mismatch.ck");
    std::remove(ck.c_str());
    ASSERT_EQ(runGoat(std::string(kBugRun) + " -checkpoint=" + ck +
                      " -checkpoint-every=1"),
              0);
    EXPECT_EQ(runGoat("-kernel=cockroach_1055 -d=3 -freq=50 -resume=" +
                      ck),
              2);
    std::remove(ck.c_str());
}

// ---------------------------------------------------------------------
// Static-tier flags: -lint-fail-on=, -mhp-out=, -mhp-prune.
// ---------------------------------------------------------------------

TEST(Cli, StaticTierFlagsDefaultOff)
{
    Options opt;
    std::string err;
    EXPECT_TRUE(parse({}, opt, &err));
    EXPECT_EQ(opt.lint_fail_on, "none");
    EXPECT_FALSE(opt.mhp_prune);
    EXPECT_EQ(opt.mhp_out, "");
}

TEST(Cli, StaticTierFlagsParse)
{
    Options opt;
    std::string err;
    EXPECT_TRUE(parse({"-lint", "-lint-fail-on=warn", "-mhp-prune",
                       "-mhp-out=/tmp/pairs.txt"},
                      opt, &err));
    EXPECT_EQ(opt.lint_fail_on, "warn");
    EXPECT_TRUE(opt.mhp_prune);
    EXPECT_EQ(opt.mhp_out, "/tmp/pairs.txt");
}

TEST(CliExit, LintFailOnWarnExitsThreeOnFindings)
{
    // etcd_7492 carries static findings (GL003 + the demoted GL002).
    EXPECT_EQ(runGoat("-lint -kernel=etcd_7492 -lint-fail-on=warn"), 3);
    // The default policy always exits 0 on a successful lint.
    EXPECT_EQ(runGoat("-lint -kernel=etcd_7492"), 0);
    EXPECT_EQ(runGoat("-lint -kernel=etcd_7492 -lint-fail-on=none"), 0);
}

TEST(CliExit, LintFailOnWarnIsZeroWhenClean)
{
    // The examples lint clean (race_hunt's seeded race is nolint'ed),
    // so the strict policy still exits 0.
    EXPECT_EQ(runGoat("-lint -lint-path=examples -lint-fail-on=warn"),
              0);
}

TEST(CliExit, UnknownLintFailOnPolicyIsUsageError)
{
    EXPECT_EQ(runGoat("-lint -kernel=etcd_7492 -lint-fail-on=bogus"),
              2);
}

TEST(CliExit, MhpOutWritesThePairDump)
{
    std::string out = tmpPath("pairs.txt");
    std::remove(out.c_str());
    ASSERT_EQ(runGoat("-kernel=cockroach_7504 -mhp-out=" + out), 0);
    std::FILE *f = std::fopen(out.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[256];
    ASSERT_NE(std::fgets(buf, sizeof buf, f), nullptr);
    EXPECT_NE(std::string(buf).find(" <-> "), std::string::npos);
    std::fclose(f);
    std::remove(out.c_str());
}

TEST(CliExit, MhpOutUsageErrors)
{
    // The dump is per-kernel static mode: it needs one named kernel.
    EXPECT_EQ(runGoat("-mhp-out=/tmp/p.txt"), 2);
    EXPECT_EQ(runGoat("-kernel=all -mhp-out=/tmp/p.txt"), 2);
    EXPECT_EQ(runGoat("-kernel=no_such -mhp-out=/tmp/p.txt"), 2);
}

TEST(CliExit, MhpOutWriteFailureIsOne)
{
    EXPECT_EQ(runGoat("-kernel=cockroach_7504 "
                      "-mhp-out=/nonexistent-dir/p.txt"),
              1);
}

TEST(CliExit, MhpPruneCampaignCompletes)
{
    EXPECT_EQ(runGoat(std::string(kBugRun) + " -mhp-prune"), 0);
}
