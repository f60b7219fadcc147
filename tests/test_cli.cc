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
#include <iterator>
#include <string>
#include <sys/wait.h>
#include <type_traits>
#include <variant>
#include <vector>

#include "../tools/cli_options.hh"

using goat::cli::Flag;
using goat::cli::kFlags;
using goat::cli::OptionalInt;
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

/** Run the real goat binary; return its stdout (exit status in @p rc). */
std::string
goatStdout(const std::string &args, int *rc)
{
    std::string cmd = std::string(GOAT_CLI_BIN) + " " + args + " 2>/dev/null";
    std::FILE *p = popen(cmd.c_str(), "r");
    std::string out;
    char buf[4096];
    size_t n;
    while (p && (n = std::fread(buf, 1, sizeof buf, p)) > 0)
        out.append(buf, n);
    int status = p ? pclose(p) : -1;
    *rc = status < 0 ? -1 : (WIFEXITED(status) ? WEXITSTATUS(status) : -1);
    return out;
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

    // Every table entry at once: each sets its own field.
    std::vector<std::string> args;
    for (const Flag &f : kFlags) {
        std::string arg = f.name;
        if (std::holds_alternative<std::string Options::*>(f.field))
            arg += std::string("=/tmp/") + (f.name + 1);
        else if (!std::holds_alternative<bool Options::*>(f.field))
            arg += "=7";
        args.push_back(arg);
    }
    std::vector<const char *> argv;
    for (const std::string &a : args)
        argv.push_back(a.c_str());
    opt = Options{};
    ASSERT_TRUE(parse(argv, opt, &err)) << err;
    ASSERT_EQ(opt.given.size(), std::size(kFlags));
    const Options defaults;
    for (size_t i = 0; i < std::size(kFlags); ++i) {
        const Flag &f = kFlags[i];
        EXPECT_EQ(opt.given[i], &f);
        std::visit(
            [&](auto field) {
                using F = decltype(field);
                if constexpr (std::is_same_v<F, bool Options::*>) {
                    EXPECT_TRUE(opt.*field) << f.name;
                    EXPECT_FALSE(defaults.*field) << f.name;
                } else if constexpr (std::is_same_v<F, OptionalInt>) {
                    EXPECT_EQ(opt.*field.field, 7) << f.name;
                } else if constexpr (std::is_same_v<F,
                                                    std::string Options::*>) {
                    EXPECT_EQ(opt.*field, std::string("/tmp/") + (f.name + 1))
                        << f.name;
                } else {
                    EXPECT_EQ(static_cast<uint64_t>(opt.*field), 7u)
                        << f.name;
                }
            },
            f.field);
    }
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

TEST(Cli, MalformedNumbersAreUsageErrors)
{
    // A number is one whole token; the refusal names the argument.
    for (const char *bad : {"-d=abc", "-freq=1e3", "-jobs=", "-seed=12x",
                            "-progress=2s", "-seed=0x", "-mem-limit= 5"}) {
        Options opt;
        std::string err;
        EXPECT_FALSE(parse({bad}, opt, &err)) << bad;
        EXPECT_EQ(err, bad);
    }
    // -seed= keeps strtoull's base-0 forms: 0x hex and 0 octal.
    Options opt;
    std::string err;
    EXPECT_TRUE(parse({"-seed=0x10"}, opt, &err));
    EXPECT_EQ(opt.seed, 16u);
    EXPECT_TRUE(parse({"-seed=010"}, opt, &err));
    EXPECT_EQ(opt.seed, 8u);
    EXPECT_TRUE(parse({"-seed=0"}, opt, &err));
    EXPECT_EQ(opt.seed, 0u);
    // The binary names it and exits 2 before running anything.
    int rc = 0;
    std::string out = goatStdout("-kernel=cockroach_1055 -d=abc", &rc);
    EXPECT_EQ(rc, 2);
    EXPECT_EQ(out.rfind("bad value: -d=abc\n", 0), 0u) << out;
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

TEST(CliExit, UsageMatchesGolden)
{
    std::ifstream in(std::string(GOAT_SOURCE_DIR) +
                     "/tests/golden/cli_usage.txt");
    ASSERT_TRUE(in);
    std::string golden((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
    // No kernel: the usage text alone. An unknown flag: named first.
    int rc = 0;
    EXPECT_EQ(goatStdout("", &rc), golden);
    EXPECT_EQ(rc, 2);
    EXPECT_EQ(goatStdout("-bogus", &rc), "unknown flag: -bogus\n\n" + golden);
    EXPECT_EQ(rc, 2);
}

// A flag the selected mode does not read is a usage error, refused
// before the mode writes anything.
TEST(CliExit, ModeRefusesFlagsItDoesNotRead)
{
    std::string recipe = tmpPath("mode.recipe");
    std::string ck = tmpPath("mode.ck");
    std::string pairs = tmpPath("mode.pairs");
    std::string ledger = tmpPath("mode.jsonl");
    std::string sat = tmpPath("mode_sat.jsonl");
    std::string min = tmpPath("mode_min.recipe");
    for (const std::string &p : {recipe, ck, pairs, ledger, sat, min})
        std::remove(p.c_str());
    ASSERT_EQ(runGoat(std::string(kBugRun) + " -record=" + recipe), 0);

    int rc = 0;
    std::string out = goatStdout("-kernel=cockroach_1055 -replay=" + recipe +
                                     " -iter-timeout=5 -checkpoint=" + ck +
                                     " -predict",
                                 &rc);
    EXPECT_EQ(rc, 2);
    EXPECT_EQ(out, "-iter-timeout does not apply to -replay\n");
    EXPECT_EQ(runGoat("-list -isolate -race"), 2);
    EXPECT_EQ(runGoat("-lint -kernel=etcd_7492 -cov"), 2);
    EXPECT_EQ(runGoat("-kernel=cockroach_7504 -mhp-out=" + pairs +
                      " -ledger=" + ledger),
              2);
    EXPECT_EQ(runGoat("-kernel=all -checkpoint=" + ck), 2);
    EXPECT_EQ(runGoat("-kernel=cockroach_1055 -lint-format=json"), 2);
    // A flag the mode reads only beside a companion flag.
    out = goatStdout(std::string(kBugRun) + " -saturation-out=" + sat, &rc);
    EXPECT_EQ(rc, 2);
    EXPECT_EQ(out, "-saturation-out requires -cov\n");
    EXPECT_EQ(runGoat("-kernel=cockroach_1055 -replay=" + recipe +
                      " -record=" + min),
              2);
    EXPECT_EQ(runGoat(std::string(kBugRun) + " -checkpoint-every=1"), 2);
    EXPECT_EQ(runGoat("-kernel=cockroach_1055 -d=2 -freq=5 -resume=" + ck +
                      " -checkpoint-every=1"),
              2);
    for (const std::string &p : {ck, pairs, ledger, sat, sat + ".html", min})
        EXPECT_FALSE(std::ifstream(p).good()) << p;

    // What each mode does read still runs.
    EXPECT_EQ(runGoat("-kernel=cockroach_1055 -replay=" + recipe +
                      " -report -predict"),
              0);
    EXPECT_EQ(runGoat("-lint -kernel=etcd_7492 -lint-format=json"), 0);
    std::remove(recipe.c_str());
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
    // a writable one leaves a parseable v3 checkpoint log behind.
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
    EXPECT_EQ(magic, "# goat-checkpoint v3");
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
