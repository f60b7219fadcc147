/**
 * @file
 * The `goat` command line. One table, kFlags, declares every flag: the
 * parser, the usage text, main()'s check that the selected mode reads
 * each given flag, and tools/check_cli_docs.py all read it. Header-only
 * so the grammar is unit-testable without spawning the binary.
 */

#ifndef GOAT_TOOLS_CLI_OPTIONS_HH
#define GOAT_TOOLS_CLI_OPTIONS_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "base/fmt.hh"

namespace goat::cli {

struct Flag;

/**
 * Parsed command line of the goat tool, grouped by type; kFlags says
 * which flag sets each field and what it means.
 */
struct Options
{
    bool list = false, cov = false, race = false, stats = false;
    bool report = false, minimize = false, predict = false, lint = false;
    bool lint_guided = false, mhp_prune = false, metrics = false;
    bool profile = false, isolate = false, keep_going = false;
    int delay = 0, freq = 1, jobs = 1, progress = 0, iter_timeout = 0;
    int mem_limit = 0, max_respawns = 16, checkpoint_every = 64;
    uint64_t seed = 1;
    std::string kernel, trace_out, html_out, ledger_out, chrome_out;
    std::string record_out, replay_in, predict_out, lint_out, lint_path;
    std::string lint_format = "text", lint_fail_on = "none", mhp_out;
    std::string saturation_out, status_out, checkpoint_out, resume_in;
    /** The flags given, in command-line order. */
    std::vector<const Flag *> given;
};

/** The modes main() selects, one bit each (modeOf() picks one). */
enum Mode : unsigned
{
    kList = 1 << 0,     ///< -list
    kLint = 1 << 1,     ///< -lint
    kMhpOut = 1 << 2,   ///< -mhp-out=PATH
    kReplay = 1 << 3,   ///< -replay=PATH
    kCampaign = 1 << 4, ///< a campaign on one -kernel=NAME
    kSweep = 1 << 5,    ///< a campaign per kernel of -kernel=all|hostile
};

/** Both campaign modes. */
constexpr unsigned kRuns = kCampaign | kSweep;

/** How a refusal names each Mode, by bit: "-cov does not apply to -lint". */
inline constexpr const char *kModeNames[] = {
    "-list", "-lint", "-mhp-out", "-replay", "a single-kernel campaign",
    "a -kernel=all|hostile sweep"};

/** An int flag whose value may be left off: bare `-progress` is 1. */
struct OptionalInt
{
    int Options::*field;
};

/** One goat flag. */
struct Flag
{
    const char *name;    ///< "-kernel"; a valued flag takes "=VALUE"
    const char *metavar; ///< the value in the usage text; "" for a bool
    /** The Options field it sets; a uint64 takes 0x hex and 0 octal too. */
    std::variant<bool Options::*, int Options::*, uint64_t Options::*,
                 std::string Options::*, OptionalInt>
        field;
    unsigned modes;   ///< the Mode bits whose code reads the flag
    const char *help; ///< the usage help, '\n' between lines
};

/** Every flag, in usage order. */
inline constexpr Flag kFlags[] = {
    {"-list", "", &Options::list, kList, "list the available bug kernels"},
    {"-kernel", "NAME", &Options::kernel, kLint | kMhpOut | kReplay | kRuns,
     "target kernel name, or 'all'"},
    {"-d", "N", &Options::delay, kRuns,
     "number of delays (yield bound D, default 0)"},
    {"-freq", "N", &Options::freq, kRuns,
     "frequency of executions (default 1)"},
    {"-jobs", "N", &Options::jobs, kRuns,
     "parallel campaign workers (default 1);\n"
     "merged results are identical for any N"},
    {"-cov", "", &Options::cov, kRuns, "include coverage report in evaluation"},
    {"-race", "", &Options::race, kRuns,
     "enable happens-before race detection"},
    {"-stats", "", &Options::stats, kRuns,
     "print the buggy trace's blocking profile"},
    {"-report", "", &Options::report, kReplay | kRuns,
     "print the full deadlock report on detection"},
    {"-trace", "PATH", &Options::trace_out, kRuns,
     "write the first buggy ECT to PATH"},
    {"-html", "PATH", &Options::html_out, kRuns,
     "write a self-contained HTML report to PATH"},
    {"-ledger", "PATH", &Options::ledger_out, kRuns,
     "append one JSON line per iteration to PATH"},
    {"-chrome-trace", "PATH", &Options::chrome_out, kRuns,
     "write the buggy ECT as a Chrome/Perfetto\n"
     "trace-event file to PATH"},
    {"-record", "PATH", &Options::record_out, kReplay | kRuns,
     "write the first bug's repro recipe to PATH\n"
     "(with -replay -minimize: the minimized recipe)"},
    {"-replay", "PATH", &Options::replay_in, kReplay,
     "re-execute a recorded recipe exactly and\n"
     "assert the identical trace and verdict"},
    {"-minimize", "", &Options::minimize, kReplay | kRuns,
     "ddmin the recorded/replayed recipe down to a\n"
     "locally minimal yield set"},
    {"-predict", "", &Options::predict, kReplay | kRuns,
     "infer blocking bugs the schedule did not\n"
     "take from every iteration's trace (or a\n"
     "-replay= trace) via predictive happens-\n"
     "before, and auto-confirm them by\n"
     "synthesized-recipe replay"},
    {"-predict-out", "PATH", &Options::predict_out, kReplay | kRuns,
     "write the prediction findings as a JSON\n"
     "document to PATH (implies -predict)"},
    {"-lint", "", &Options::lint, kLint,
     "run the static concurrency lint pass and\n"
     "exit (no execution)"},
    {"-lint-format", "F", &Options::lint_format, kLint,
     "lint output format: text (default), json,\n"
     "or sarif"},
    {"-lint-out", "PATH", &Options::lint_out, kLint,
     "write the lint report to PATH (stdout\n"
     "when omitted)"},
    {"-lint-path", "P", &Options::lint_path, kLint,
     "comma-separated files/directories to lint\n"
     "(default: the -kernel span, or all kernels)"},
    {"-lint-guided", "", &Options::lint_guided, kRuns,
     "seed the campaign's priority yield sites\n"
     "from the lint findings and cross-check them\n"
     "against the first bug trace"},
    {"-lint-fail-on", "P", &Options::lint_fail_on, kLint,
     "exit policy for -lint: none (default;\n"
     "always exit 0) or warn (exit 3 when any\n"
     "finding survives suppression)"},
    {"-mhp-prune", "", &Options::mhp_prune, kRuns,
     "seed the campaign's priority yield sites\n"
     "from the static may-happen-in-parallel\n"
     "pair set (flow-aware fork-join analysis)"},
    {"-mhp-out", "PATH", &Options::mhp_out, kMhpOut,
     "write the kernel's MHP pair dump to PATH\n"
     "and exit (static mode, like -lint)"},
    {"-metrics", "", &Options::metrics, kRuns,
     "print the final metrics snapshot as JSON"},
    {"-profile", "", &Options::profile, kRuns,
     "profile the runtime's hot-path stages and\n"
     "print per-stage latency totals"},
    {"-progress", "N", OptionalInt{&Options::progress}, kRuns,
     "print a campaign heartbeat to stderr every\n"
     "N seconds (default 1)"},
    {"-saturation-out", "PATH", &Options::saturation_out, kRuns,
     "write the coverage-saturation series as\n"
     "JSONL to PATH and HTML to PATH.html"},
    {"-status-out", "PATH", &Options::status_out, kRuns,
     "atomically rewrite a JSON status snapshot\n"
     "at PATH while the campaign runs"},
    {"-seed", "N", &Options::seed, kRuns, "seed base (default 1)"},
    {"-isolate", "", &Options::isolate, kRuns,
     "run campaign shards in forked child\n"
     "processes; crashes become classified\n"
     "ledger rows and the campaign continues\n"
     "(also unlocks -kernel=hostile)"},
    {"-iter-timeout", "N", &Options::iter_timeout, kRuns,
     "kill a shard stuck on one iteration for N\n"
     "seconds and record a timeout verdict\n"
     "(requires -isolate)"},
    {"-mem-limit", "N", &Options::mem_limit, kRuns,
     "per-shard address-space ceiling in MiB;\n"
     "breaching it is recorded as an 'oom' crash\n"
     "(requires -isolate)"},
    {"-max-respawns", "N", &Options::max_respawns, kRuns,
     "respawn budget per shard (default 16,\n"
     "requires -isolate)"},
    {"-checkpoint", "PATH", &Options::checkpoint_out, kCampaign,
     "log the merged campaign state to PATH\n"
     "periodically (append-only, one commit\n"
     "line per round)"},
    {"-checkpoint-every", "N", &Options::checkpoint_every, kCampaign,
     "iterations per checkpoint round (default 64)"},
    {"-resume", "PATH", &Options::resume_in, kCampaign,
     "restore a checkpoint and continue; merged\n"
     "results are identical to an uninterrupted\n"
     "run (with -ledger=, the ledger the\n"
     "checkpoint recorded must still hold its rows)"},
    {"-keep-going", "", &Options::keep_going, kRuns,
     "run every iteration instead of stopping\n"
     "at the first bug (soak campaigns)"},
};

/** The flag named @p name ("-d", not "-d=3"), or nullptr. */
inline const Flag *
findFlag(std::string_view name)
{
    for (const Flag &f : kFlags)
        if (name == f.name)
            return &f;
    return nullptr;
}

/**
 * Parse argv into @p opt.
 *
 * @param[out] error The offending argument on failure.
 * @retval false on an unknown flag, a bool given a value, a valued flag
 *         given none, or a number that is not one whole token.
 */
inline bool
parseOptions(int argc, char **argv, Options &opt, std::string *error)
{
    for (int i = 1; i < argc; ++i) {
        std::string_view arg = argv[i];
        size_t eq = arg.find('=');
        const Flag *flag = findFlag(arg.substr(0, eq));
        const char *val = eq == arg.npos ? nullptr : argv[i] + eq + 1;
        auto set = [&](auto field) -> bool {
            using F = decltype(field);
            if constexpr (std::is_same_v<F, bool Options::*>)
                return !val && (opt.*field = true);
            else if constexpr (std::is_same_v<F, OptionalInt>)
                return val ? parseNum(val, &(opt.*field.field))
                           : (opt.*field.field = 1);
            else if constexpr (std::is_same_v<F, std::string Options::*>)
                return val && (opt.*field = val, true);
            else // an int, or a uint64 in any of strtoull's bases
                return val && parseNum(val, &(opt.*field),
                                       std::is_same_v<F, int Options::*> ? 10
                                                                         : 0);
        };
        if (!flag || !std::visit(set, flag->field)) {
            if (error)
                *error = arg;
            return false;
        }
        opt.given.push_back(flag);
    }
    return true;
}

/** The usage text: every flag with its help, in table order. */
inline std::string
usageText()
{
    const std::string pad(18, ' ');
    std::string out = "Usage of goat:\n";
    for (const Flag &f : kFlags) {
        std::string lead = std::string("  ") + f.name;
        if (std::holds_alternative<OptionalInt>(f.field))
            lead = lead + "[=" + f.metavar + "]";
        else if (*f.metavar)
            lead = lead + "=" + f.metavar;
        // A label wider than the column gets a line of its own.
        out += lead.size() < pad.size() ? lead + pad.substr(lead.size())
                                        : lead + "\n" + pad;
        for (const char *c = f.help; *c; ++c)
            out += *c == '\n' ? "\n" + pad : std::string(1, *c);
        out += '\n';
    }
    return out;
}

/**
 * The mode @p opt selects, in precedence order: -list, -lint,
 * -mhp-out=, then, given a -kernel=, -replay=, a sweep or a campaign.
 * @retval 0 when nothing is selected (no kernel).
 */
inline unsigned
modeOf(const Options &opt)
{
    if (opt.list || opt.lint || !opt.mhp_out.empty())
        return opt.list ? kList : opt.lint ? kLint : kMhpOut;
    if (opt.kernel.empty())
        return 0;
    if (!opt.replay_in.empty())
        return kReplay;
    return opt.kernel == "all" || opt.kernel == "hostile" ? kSweep : kCampaign;
}

} // namespace goat::cli

#endif // GOAT_TOOLS_CLI_OPTIONS_HH
