/**
 * @file
 * Option parsing for the `goat` CLI, kept header-only so the flag
 * grammar is unit-testable without spawning the binary.
 */

#ifndef GOAT_TOOLS_CLI_OPTIONS_HH
#define GOAT_TOOLS_CLI_OPTIONS_HH

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

namespace goat::cli {

/**
 * Parsed command line of the goat tool.
 */
struct Options
{
    bool list = false;
    std::string kernel;
    int delay = 0;
    int freq = 1;
    int jobs = 1;
    bool cov = false;
    bool race = false;
    bool report = false;
    bool stats = false;
    std::string trace_out;
    std::string html_out;
    std::string ledger_out;
    std::string chrome_out;
    /** Write the first bug's repro recipe to this path. */
    std::string record_out;
    /** Replay a previously recorded recipe instead of campaigning. */
    std::string replay_in;
    /** Minimize the recorded/replayed recipe's yield set. */
    bool minimize = false;
    bool metrics = false;
    uint64_t seed = 1;
    /** Static lint mode: report findings instead of campaigning. */
    bool lint = false;
    /** Lint output format: "text", "json", or "sarif". */
    std::string lint_format = "text";
    /** Lint output file ("" = stdout). */
    std::string lint_out;
    /** Comma-separated files/directories to lint (else kernels). */
    std::string lint_path;
    /** Seed the campaign's priority yield sites from the lint pass. */
    bool lint_guided = false;
    /** Exit policy for -lint: "none" (always 0) or "warn" (exit 3 on
     *  any finding). */
    std::string lint_fail_on = "none";
    /** Seed priority yield sites from the static MHP pair set. */
    bool mhp_prune = false;
    /** Write the kernel's MHP pair dump here and exit (static mode). */
    std::string mhp_out;
    /** Enable the hot-path stage profiler and print its table. */
    bool profile = false;
    /**
     * Predictive happens-before analysis: infer blocking bugs from
     * every iteration's trace (or a replayed one) and cross-check
     * them by synthesized-recipe replay.
     */
    bool predict = false;
    /** Write the prediction findings as a JSON document here. */
    std::string predict_out;
    /**
     * Progress-heartbeat interval in seconds (0 = off). `-progress`
     * alone means 1; `-progress=N` sets N.
     */
    int progress = 0;
    /** Write the coverage-saturation JSONL here (+ ".html" report). */
    std::string saturation_out;
    /** Atomically rewrite a JSON status snapshot here each interval. */
    std::string status_out;
    /**
     * Run campaign shards in forked child processes under a
     * supervisor that classifies crashes and respawns shards
     * (src/campaign/supervisor.hh).
     */
    bool isolate = false;
    /** Per-iteration wall-clock watchdog, seconds (requires -isolate). */
    int iter_timeout = 0;
    /** Per-shard address-space ceiling, MiB (requires -isolate). */
    int mem_limit = 0;
    /** Respawn budget per shard (requires -isolate). */
    int max_respawns = 16;
    /** Periodic campaign checkpoint path ("" = off). */
    std::string checkpoint_out;
    /** Iterations per checkpoint round (with -checkpoint). */
    int checkpoint_every = 64;
    /** Resume from a checkpoint written by a compatible config. */
    std::string resume_in;
    /** Run every iteration instead of stopping at the first bug. */
    bool keep_going = false;
};

/**
 * Parse argv into @p opt.
 *
 * @param[out] error The offending argument on failure.
 * @retval false on an unknown flag.
 */
inline bool
parseOptions(int argc, char **argv, Options &opt, std::string *error)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto val = [&](const char *prefix) -> const char * {
            size_t n = std::strlen(prefix);
            return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n
                                                  : nullptr;
        };
        if (arg == "-list") {
            opt.list = true;
        } else if (arg == "-cov") {
            opt.cov = true;
        } else if (arg == "-race") {
            opt.race = true;
        } else if (arg == "-stats") {
            opt.stats = true;
        } else if (arg == "-report") {
            opt.report = true;
        } else if (const char *v = val("-kernel=")) {
            opt.kernel = v;
        } else if (const char *v = val("-d=")) {
            opt.delay = std::atoi(v);
        } else if (const char *v = val("-freq=")) {
            opt.freq = std::atoi(v);
        } else if (const char *v = val("-jobs=")) {
            opt.jobs = std::atoi(v);
        } else if (const char *v = val("-trace=")) {
            opt.trace_out = v;
        } else if (const char *v = val("-html=")) {
            opt.html_out = v;
        } else if (const char *v = val("-ledger=")) {
            opt.ledger_out = v;
        } else if (const char *v = val("-chrome-trace=")) {
            opt.chrome_out = v;
        } else if (const char *v = val("-record=")) {
            opt.record_out = v;
        } else if (const char *v = val("-replay=")) {
            opt.replay_in = v;
        } else if (arg == "-minimize") {
            opt.minimize = true;
        } else if (arg == "-lint") {
            opt.lint = true;
        } else if (const char *v = val("-lint-format=")) {
            opt.lint_format = v;
        } else if (const char *v = val("-lint-out=")) {
            opt.lint_out = v;
        } else if (const char *v = val("-lint-path=")) {
            opt.lint_path = v;
        } else if (arg == "-lint-guided") {
            opt.lint_guided = true;
        } else if (const char *v = val("-lint-fail-on=")) {
            opt.lint_fail_on = v;
        } else if (arg == "-mhp-prune") {
            opt.mhp_prune = true;
        } else if (const char *v = val("-mhp-out=")) {
            opt.mhp_out = v;
        } else if (arg == "-predict") {
            opt.predict = true;
        } else if (const char *v = val("-predict-out=")) {
            opt.predict_out = v;
        } else if (arg == "-metrics") {
            opt.metrics = true;
        } else if (arg == "-profile") {
            opt.profile = true;
        } else if (arg == "-progress") {
            opt.progress = 1;
        } else if (const char *v = val("-progress=")) {
            opt.progress = std::atoi(v);
        } else if (const char *v = val("-saturation-out=")) {
            opt.saturation_out = v;
        } else if (const char *v = val("-status-out=")) {
            opt.status_out = v;
        } else if (const char *v = val("-seed=")) {
            opt.seed = std::strtoull(v, nullptr, 0);
        } else if (arg == "-isolate") {
            opt.isolate = true;
        } else if (const char *v = val("-iter-timeout=")) {
            opt.iter_timeout = std::atoi(v);
        } else if (const char *v = val("-mem-limit=")) {
            opt.mem_limit = std::atoi(v);
        } else if (const char *v = val("-max-respawns=")) {
            opt.max_respawns = std::atoi(v);
        } else if (const char *v = val("-checkpoint=")) {
            opt.checkpoint_out = v;
        } else if (const char *v = val("-checkpoint-every=")) {
            opt.checkpoint_every = std::atoi(v);
        } else if (const char *v = val("-resume=")) {
            opt.resume_in = v;
        } else if (arg == "-keep-going") {
            opt.keep_going = true;
        } else {
            if (error)
                *error = arg;
            return false;
        }
    }
    return true;
}

} // namespace goat::cli

#endif // GOAT_TOOLS_CLI_OPTIONS_HH
