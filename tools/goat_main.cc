/**
 * @file
 * The `goat` command-line tool, mirroring the paper's artifact
 * workflow (appendix listing 3): pick a target bug kernel (the stand-
 * in for `-path`, since C++ programs are compiled in rather than
 * instrumented on disk), choose the delay bound and iteration budget,
 * and optionally measure coverage, dump the buggy trace, and print the
 * full report.
 *
 *   goat -list
 *   goat -kernel=moby_28462 -d=2 -freq=1000 -cov -report
 *   goat -kernel=all -d=3 -freq=200
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "base/fileio.hh"
#include "base/interrupt.hh"
#include "base/logging.hh"
#include "analysis/goroutine_tree.hh"
#include "analysis/html_report.hh"
#include "analysis/report.hh"
#include "analysis/stats.hh"
#include "campaign/campaign.hh"
#include "goat/engine.hh"
#include "goker/registry.hh"
#include "obs/chrome_trace.hh"
#include "obs/metrics.hh"
#include "obs/progress.hh"
#include "staticmodel/lint.hh"
#include "trace/recipe.hh"
#include "trace/serialize.hh"

#include "cli_options.hh"

using namespace goat;
using namespace goat::engine;

namespace {

using goat::cli::Options;

void
usage()
{
    std::printf(
        "Usage of goat:\n"
        "  -list           list the available bug kernels\n"
        "  -kernel=NAME    target kernel name, or 'all'\n"
        "  -d=N            number of delays (yield bound D, default 0)\n"
        "  -freq=N         frequency of executions (default 1)\n"
        "  -jobs=N         parallel campaign workers (default 1);\n"
        "                  merged results are identical for any N\n"
        "  -cov            include coverage report in evaluation\n"
        "  -race           enable happens-before race detection\n"
        "  -stats          print the buggy trace's blocking profile\n"
        "  -report         print the full deadlock report on detection\n"
        "  -trace=PATH     write the first buggy ECT to PATH\n"
        "  -html=PATH      write a self-contained HTML report to PATH\n"
        "  -ledger=PATH    append one JSON line per iteration to PATH\n"
        "  -chrome-trace=PATH\n"
        "                  write the buggy ECT as a Chrome/Perfetto\n"
        "                  trace-event file to PATH\n"
        "  -record=PATH    write the first bug's repro recipe to PATH\n"
        "                  (with -replay -minimize: the minimized recipe)\n"
        "  -replay=PATH    re-execute a recorded recipe exactly and\n"
        "                  assert the identical trace and verdict\n"
        "  -minimize       ddmin the recorded/replayed recipe down to a\n"
        "                  locally minimal yield set\n"
        "  -predict        infer blocking bugs the schedule did not\n"
        "                  take from every iteration's trace (or a\n"
        "                  -replay= trace) via predictive happens-\n"
        "                  before, and auto-confirm them by\n"
        "                  synthesized-recipe replay\n"
        "  -predict-out=PATH\n"
        "                  write the prediction findings as a JSON\n"
        "                  document to PATH (implies -predict)\n"
        "  -lint           run the static concurrency lint pass and\n"
        "                  exit (no execution)\n"
        "  -lint-format=F  lint output format: text (default), json,\n"
        "                  or sarif\n"
        "  -lint-out=PATH  write the lint report to PATH (stdout\n"
        "                  when omitted)\n"
        "  -lint-path=P    comma-separated files/directories to lint\n"
        "                  (default: the -kernel span, or all kernels)\n"
        "  -lint-guided    seed the campaign's priority yield sites\n"
        "                  from the lint findings and cross-check them\n"
        "                  against the first bug trace\n"
        "  -lint-fail-on=P exit policy for -lint: none (default;\n"
        "                  always exit 0) or warn (exit 3 when any\n"
        "                  finding survives suppression)\n"
        "  -mhp-prune      seed the campaign's priority yield sites\n"
        "                  from the static may-happen-in-parallel\n"
        "                  pair set (flow-aware fork-join analysis)\n"
        "  -mhp-out=PATH   write the kernel's MHP pair dump to PATH\n"
        "                  and exit (static mode, like -lint)\n"
        "  -metrics        print the final metrics snapshot as JSON\n"
        "  -profile        profile the runtime's hot-path stages and\n"
        "                  print per-stage latency totals\n"
        "  -progress[=N]   print a campaign heartbeat to stderr every\n"
        "                  N seconds (default 1)\n"
        "  -saturation-out=PATH\n"
        "                  write the coverage-saturation series as\n"
        "                  JSONL to PATH and HTML to PATH.html\n"
        "  -status-out=PATH\n"
        "                  atomically rewrite a JSON status snapshot\n"
        "                  at PATH while the campaign runs\n"
        "  -seed=N         seed base (default 1)\n"
        "  -isolate        run campaign shards in forked child\n"
        "                  processes; crashes become classified\n"
        "                  ledger rows and the campaign continues\n"
        "                  (also unlocks -kernel=hostile)\n"
        "  -iter-timeout=N kill a shard stuck on one iteration for N\n"
        "                  seconds and record a timeout verdict\n"
        "                  (requires -isolate)\n"
        "  -mem-limit=N    per-shard address-space ceiling in MiB;\n"
        "                  breaching it is recorded as an 'oom' crash\n"
        "                  (requires -isolate)\n"
        "  -max-respawns=N respawn budget per shard (default 16,\n"
        "                  requires -isolate)\n"
        "  -checkpoint=PATH\n"
        "                  snapshot the merged campaign state to PATH\n"
        "                  periodically (atomic tmp+rename)\n"
        "  -checkpoint-every=N\n"
        "                  iterations per checkpoint round (default 64)\n"
        "  -resume=PATH    restore a checkpoint and continue; merged\n"
        "                  results are identical to an uninterrupted\n"
        "                  run\n"
        "  -keep-going     run every iteration instead of stopping\n"
        "                  at the first bug (soak campaigns)\n");
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    std::string bad;
    if (!goat::cli::parseOptions(argc, argv, opt, &bad)) {
        std::printf("unknown flag: %s\n\n", bad.c_str());
        return false;
    }
    return true;
}

/**
 * Expand a comma-separated -lint-path= spec: directories are walked
 * recursively for C++ sources/headers; files are taken verbatim. The
 * result is sorted so the merged report is input-order independent.
 */
std::vector<std::string>
collectLintPaths(const std::string &spec)
{
    namespace fs = std::filesystem;
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= spec.size()) {
        size_t comma = spec.find(',', start);
        std::string item =
            comma == std::string::npos
                ? spec.substr(start)
                : spec.substr(start, comma - start);
        if (!item.empty()) {
            std::error_code ec;
            if (fs::is_directory(item, ec)) {
                for (const auto &entry :
                     fs::recursive_directory_iterator(item, ec)) {
                    if (!entry.is_regular_file())
                        continue;
                    std::string ext =
                        entry.path().extension().string();
                    if (ext == ".cc" || ext == ".cpp" ||
                        ext == ".hh" || ext == ".hpp")
                        out.push_back(entry.path().string());
                }
            } else {
                out.push_back(item);
            }
        }
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    std::sort(out.begin(), out.end());
    return out;
}

/**
 * -lint mode: run the static pass over -lint-path= files or kernel
 * spans and render per -lint-format=.
 * @return the process exit code (0 ok, 1 write failure, 2 usage).
 */
int
runLint(const Options &opt)
{
    if (opt.lint_fail_on != "none" && opt.lint_fail_on != "warn") {
        std::printf("unknown -lint-fail-on '%s' (none or warn)\n",
                    opt.lint_fail_on.c_str());
        return 2;
    }
    staticmodel::LintReport report;
    if (!opt.lint_path.empty()) {
        report =
            staticmodel::lintFiles(collectLintPaths(opt.lint_path));
    } else {
        auto &registry = goker::KernelRegistry::instance();
        if (opt.kernel.empty() || opt.kernel == "all") {
            for (const auto *k : registry.all())
                report.merge(goker::kernelLintReport(*k));
            report.rank();
            // Kernels sharing a source span can report the same
            // (rule, file, line) twice; keep the first.
            report.dedupe();
        } else {
            const goker::KernelInfo *k = registry.find(opt.kernel);
            if (!k) {
                std::printf("unknown kernel '%s' (try -list)\n",
                            opt.kernel.c_str());
                return 2;
            }
            report = goker::kernelLintReport(*k);
        }
    }
    std::string doc;
    if (opt.lint_format == "text")
        doc = report.textStr();
    else if (opt.lint_format == "json")
        doc = report.jsonStr();
    else if (opt.lint_format == "sarif")
        doc = report.sarifStr();
    else {
        std::printf(
            "unknown -lint-format '%s' (text, json, or sarif)\n",
            opt.lint_format.c_str());
        return 2;
    }
    // `warn` makes findings CI-visible: exit 3 when any survive
    // suppression (write failures below still win with exit 1).
    const int fail_rc =
        opt.lint_fail_on == "warn" && !report.empty() ? 3 : 0;
    if (opt.lint_out.empty()) {
        std::fwrite(doc.data(), 1, doc.size(), stdout);
        if (opt.lint_format == "text") {
            std::printf("%zu finding(s)", report.size());
            if (report.suppressed)
                std::printf(", %zu suppressed", report.suppressed);
            std::printf("\n");
        }
        return fail_rc;
    }
    if (!atomicWriteFile(opt.lint_out, doc)) {
        std::fprintf(stderr, "goat: cannot write %s\n",
                     opt.lint_out.c_str());
        return 1;
    }
    std::printf("%zu finding(s) written to %s (%s)\n", report.size(),
                opt.lint_out.c_str(), opt.lint_format.c_str());
    return fail_rc;
}

/**
 * -mhp-out= mode: dump the flow-aware MHP pair set of one kernel.
 * @return the process exit code (0 ok, 1 write failure, 2 usage).
 */
int
runMhpOut(const Options &opt)
{
    if (opt.kernel.empty() || opt.kernel == "all" ||
        opt.kernel == "hostile") {
        std::printf("-mhp-out needs a single -kernel=NAME\n");
        return 2;
    }
    const goker::KernelInfo *k =
        goker::KernelRegistry::instance().find(opt.kernel);
    if (!k) {
        std::printf("unknown kernel '%s' (try -list)\n",
                    opt.kernel.c_str());
        return 2;
    }
    std::string doc = goker::kernelMhpPairsStr(*k);
    if (!atomicWriteFile(opt.mhp_out, doc)) {
        std::fprintf(stderr, "goat: cannot write %s\n",
                     opt.mhp_out.c_str());
        return 1;
    }
    std::printf("%zu MHP pair(s) written to %s\n",
                static_cast<size_t>(
                    std::count(doc.begin(), doc.end(), '\n')),
                opt.mhp_out.c_str());
    return 0;
}

/** Print a minimized recipe's culprit sites (the debugging headline). */
void
printCulprits(const trace::Recipe &r)
{
    if (r.yields.empty()) {
        std::printf("  no injected yields needed: the seed's native "
                    "schedule noise reproduces the bug\n");
        return;
    }
    for (const trace::RecipeYield &y : r.yields)
        std::printf("  culprit yield #%llu at %s %s:%u\n",
                    static_cast<unsigned long long>(y.call),
                    y.kind.c_str(), y.file.c_str(), y.line);
}

int
runKernel(const goker::KernelInfo &kernel, const Options &opt,
          bool &artifact_fail, int &special_exit)
{
    campaign::CampaignConfig ccfg;
    GoatConfig &cfg = ccfg.engine;
    cfg.delayBound = opt.delay;
    cfg.maxIterations = opt.freq;
    cfg.collectCoverage = opt.cov;
    cfg.raceDetect = opt.race;
    cfg.covThreshold = 200.0;
    cfg.stopOnBug = !opt.keep_going;
    cfg.seedBase = opt.seed;
    cfg.ledgerPath = opt.ledger_out;
    cfg.profile = opt.profile;
    cfg.predict = opt.predict || !opt.predict_out.empty();
    cfg.staticModel = goker::kernelCuTable(kernel);
    ccfg.jobs = opt.jobs;
    ccfg.programName = kernel.name;
    ccfg.recordPath = opt.record_out;
    ccfg.minimize = opt.minimize;
    ccfg.isolate = opt.isolate;
    ccfg.iterTimeoutSecs = opt.iter_timeout;
    ccfg.memLimitMB = opt.mem_limit;
    ccfg.maxRespawns = opt.max_respawns;
    ccfg.checkpointPath = opt.checkpoint_out;
    ccfg.checkpointEvery = opt.checkpoint_every;
    ccfg.resumePath = opt.resume_in;
    if (opt.lint_guided) {
        ccfg.lint = goker::kernelLintReport(kernel);
        ccfg.lintBridge = true;
        cfg.prioritySites = ccfg.lint.sites();
    }
    if (opt.mhp_prune) {
        // Static fork-join MHP pairs: perturbation is only worth
        // spending at sites that can actually interleave. The pair
        // set is computed from source, so every worker sees the same
        // priority sites and jobs-merge identity is preserved.
        for (const SourceLoc &s : goker::kernelMhpSites(kernel))
            cfg.prioritySites.push_back(s);
    }

    // The campaign refuses what it cannot honour; ask before the
    // reporter starts, so a refused run writes no status file.
    if (std::string why = campaign::refusal(ccfg); !why.empty()) {
        std::printf("%s\n", why.c_str());
        special_exit = 2;
        return 0;
    }

    // Live progress: workers bump the counters; the reporter thread
    // prints heartbeats and rewrites the status snapshot until the
    // campaign returns.
    obs::ProgressCounters progress_counters;
    std::unique_ptr<obs::ProgressReporter> progress;
    if (opt.progress > 0 || !opt.status_out.empty()) {
        obs::ProgressConfig pcfg;
        pcfg.intervalSeconds = opt.progress;
        pcfg.totalIterations = cfg.maxIterations;
        pcfg.label = kernel.name;
        pcfg.statusPath = opt.status_out;
        pcfg.haveCoverage = cfg.collectCoverage;
        progress = std::make_unique<obs::ProgressReporter>(
            pcfg, progress_counters);
        ccfg.progress = &progress_counters;
    }

    campaign::CampaignResult cres =
        campaign::runCampaign(ccfg, kernel.fn);
    GoatResult &result = cres.merged;

    if (progress) {
        progress->stop();
        if (!opt.status_out.empty() && !progress->statusOk()) {
            std::fprintf(stderr, "goat: cannot write %s\n",
                         opt.status_out.c_str());
            artifact_fail = true;
        }
    }

    if (!cres.refused.reason.empty()) {
        // Past refusal(), only the -resume checkpoint can be refused:
        // one written under other flags is a usage error, an
        // unreadable one an I/O failure.
        std::fprintf(stderr, "goat: cannot resume from %s: %s\n",
                     opt.resume_in.c_str(), cres.refused.reason.c_str());
        special_exit = cres.refused.usage ? 2 : 1;
        return 0;
    }
    if (cres.resumed)
        std::printf("%-22s resumed from %s (%d merged iteration(s))\n",
                    "", opt.resume_in.c_str(), cres.resumeFrom);

    std::printf("%-22s ", kernel.name.c_str());
    if (result.bugFound) {
        std::printf("%s at iteration %d/%zu",
                    result.firstBug.shortStr().c_str(),
                    result.bugIteration, result.iterations.size());
    } else {
        std::printf("no bug in %zu iterations",
                    result.iterations.size());
    }
    if (opt.cov)
        std::printf(", coverage %.1f%%", result.finalCoverage);
    std::printf("\n");

    if (opt.isolate)
        std::printf("%-22s supervised: %d crash(es), %d timeout(s), "
                    "%d respawn(s)\n",
                    "", cres.crashes, cres.timeouts, cres.respawns);
    if (result.bugFound && result.firstBugRecipe.seededPolicy &&
        !result.firstBug.panicMsg.empty())
        std::printf("%-22s crash cause: %s\n", "",
                    result.firstBug.panicMsg.c_str());

    if (result.raceIteration > 0) {
        std::printf("%-22s %zu data race(s) at iteration %d\n", "",
                    result.firstRaces.races.size(),
                    result.raceIteration);
        if (opt.report)
            std::printf("%s", result.firstRaces.str().c_str());
    }
    if (opt.mhp_prune)
        std::printf("%-22s mhp-prune: %zu statically-interleavable "
                    "priority site(s)\n",
                    "", cfg.prioritySites.size());
    if (opt.lint_guided) {
        std::printf("%-22s lint-guided: %zu static warning(s)", "",
                    cres.lint.size());
        if (result.bugFound && cres.confirmedWarnings >= 0)
            std::printf(", %d confirmed by the bug trace",
                        cres.confirmedWarnings);
        std::printf("\n");
        if (opt.report && result.bugFound) {
            for (const auto &finding : cres.lint.findings)
                if (finding.confirmed)
                    std::printf("  confirmed: %s\n",
                                finding.str().c_str());
        }
    }
    if (cfg.predict) {
        const engine::PredictOutcome &po = cres.predict;
        std::printf("%-22s predicted %zu blocking bug(s), %d "
                    "confirmed by synthesized replay\n",
                    "", po.report.predictions.size(),
                    po.confirmedCount);
        if (opt.report && po.report.any())
            std::printf("%s", po.report.str().c_str());
        if (!opt.predict_out.empty()) {
            std::string doc = po.report.jsonDocStr(kernel.name);
            doc += '\n';
            if (atomicWriteFile(opt.predict_out, doc)) {
                std::printf("prediction findings written to %s\n",
                            opt.predict_out.c_str());
            } else {
                std::fprintf(stderr, "goat: cannot write %s\n",
                             opt.predict_out.c_str());
                artifact_fail = true;
            }
        }
    }
    // A supervised crash/timeout bug has no trace: the child died (or
    // was killed) before one could be shipped. Trace-derived artifacts
    // are skipped; the seeded-policy recipe (-record) still replays it.
    const bool traceless =
        result.bugFound && result.firstBugRecipe.seededPolicy;
    if (traceless &&
        (opt.stats || !opt.html_out.empty() || !opt.trace_out.empty() ||
         !opt.chrome_out.empty()))
        std::fprintf(stderr,
                     "goat: first bug is a supervised %s; skipping "
                     "trace-derived outputs (-stats/-trace/-html/"
                     "-chrome-trace)\n",
                     result.firstBugRecipe.verdict.c_str());

    if (result.bugFound && opt.report && !result.report.empty())
        std::printf("\n%s\n", result.report.c_str());
    if (result.bugFound && opt.stats && !traceless) {
        std::printf("\n-- trace statistics --\n%s",
                    analysis::computeStats(result.firstBugEct)
                        .str()
                        .c_str());
    }
    if (result.bugFound && !opt.html_out.empty() && !traceless) {
        analysis::GoroutineTree tree(result.firstBugEct);
        std::string html = analysis::htmlReportStr(
            kernel.name, result.firstBugEct, tree, result.firstBug,
            opt.cov ? &cres.coverage : nullptr);
        if (atomicWriteFile(opt.html_out, html)) {
            std::printf("HTML report written to %s\n",
                        opt.html_out.c_str());
        } else {
            std::fprintf(stderr, "goat: cannot write %s\n",
                         opt.html_out.c_str());
            artifact_fail = true;
        }
    }
    if (result.bugFound && !opt.trace_out.empty() && !traceless) {
        if (trace::writeEctFile(result.firstBugEct, opt.trace_out)) {
            std::printf("buggy ECT written to %s\n",
                        opt.trace_out.c_str());
        } else {
            std::fprintf(stderr, "goat: cannot write %s\n",
                         opt.trace_out.c_str());
            artifact_fail = true;
        }
    }
    if (result.bugFound && !opt.chrome_out.empty() && !traceless) {
        if (obs::writeChromeTraceFile(result.firstBugEct,
                                      opt.chrome_out)) {
            std::printf("chrome trace written to %s\n",
                        opt.chrome_out.c_str());
        } else {
            std::fprintf(stderr, "goat: cannot write %s\n",
                         opt.chrome_out.c_str());
            artifact_fail = true;
        }
    }
    if (result.bugFound && !opt.record_out.empty()) {
        if (cres.recordOk) {
            std::printf("repro recipe written to %s (%zu yields)\n",
                        cres.recipePath.c_str(),
                        result.firstBugRecipe.yields.size());
        } else {
            std::fprintf(stderr, "goat: cannot write %s\n",
                         opt.record_out.c_str());
            artifact_fail = true;
        }
    }
    if (result.bugFound && opt.minimize && traceless) {
        std::printf("minimize skipped: supervised %s bugs replay via "
                    "their seeded-policy recipe\n",
                    result.firstBugRecipe.verdict.c_str());
    } else if (result.bugFound && opt.minimize) {
        const engine::MinimizeResult &mr = cres.minimize;
        if (mr.reproduced) {
            std::printf(
                "minimized schedule: %d -> %zu yield(s) in %d "
                "replay(s)\n",
                mr.originalYields, mr.minimized.yields.size(),
                mr.replays);
            printCulprits(mr.minimized);
            if (!cres.minimizedRecipePath.empty())
                std::printf("minimized recipe written to %s\n",
                            cres.minimizedRecipePath.c_str());
        } else {
            std::fprintf(stderr,
                         "goat: minimize: recorded recipe did not "
                         "reproduce deterministically\n");
            artifact_fail = true;
        }
    }
    if (!opt.ledger_out.empty() && !cres.ledgerOk) {
        std::fprintf(stderr, "goat: cannot write %s\n",
                     opt.ledger_out.c_str());
        artifact_fail = true;
    }
    if (!opt.checkpoint_out.empty() && !cres.checkpointOk) {
        std::fprintf(stderr, "goat: cannot write %s\n",
                     opt.checkpoint_out.c_str());
        artifact_fail = true;
    }
    if (cres.interrupted) {
        std::fprintf(stderr,
                     "goat: interrupted by signal %d; merged %d "
                     "finished iteration(s)\n",
                     cres.interruptSig, cres.cutoffIteration);
        special_exit = 128 + cres.interruptSig;
    }
    if (!opt.saturation_out.empty()) {
        if (cres.merged.saturation.writeFiles(opt.saturation_out,
                                              kernel.name)) {
            std::printf("saturation series written to %s (+ .html)\n",
                        opt.saturation_out.c_str());
        } else {
            std::fprintf(stderr, "goat: cannot write %s\n",
                         opt.saturation_out.c_str());
            artifact_fail = true;
        }
    }
    if (opt.profile) {
        std::printf("\n-- stage profile (canonical fold, %d merged "
                    "iteration(s)) --\n%s",
                    cres.cutoffIteration,
                    cres.merged.profile.tableStr().c_str());
    }
    if (opt.cov && opt.report) {
        std::printf("\n-- coverage requirements --\n%s",
                    cres.coverage.tableStr().c_str());
    }
    return result.bugFound ? 1 : 0;
}

/**
 * Replay (and optionally minimize) a recorded recipe on one kernel.
 * @return the process exit code.
 */
int
runReplay(const goker::KernelInfo &kernel, const Options &opt)
{
    trace::Recipe recipe;
    if (!trace::readRecipeFile(opt.replay_in, recipe)) {
        std::fprintf(stderr, "goat: cannot read recipe %s\n",
                     opt.replay_in.c_str());
        return 1;
    }
    engine::ReplayResult rr = replayRecipe(kernel.fn, recipe);
    std::printf("%-22s replay %s: outcome=%s verdict=%s events=%llu "
                "yields=%zu\n",
                kernel.name.c_str(),
                rr.matched ? "OK" : "MISMATCH",
                rr.sr.recipe.outcome.c_str(),
                rr.sr.recipe.verdict.c_str(),
                static_cast<unsigned long long>(rr.sr.recipe.ectEvents),
                rr.sr.recipe.yields.size());
    if (!rr.matched)
        std::fprintf(stderr, "goat: replay mismatch: %s\n",
                     rr.mismatch.c_str());
    if (opt.report && rr.sr.buggy()) {
        analysis::GoroutineTree tree(rr.sr.ect);
        std::printf("\n%s\n",
                    analysis::deadlockReportStr(rr.sr.ect, tree,
                                                rr.sr.dl)
                        .c_str());
    }
    int rc = rr.matched ? 0 : 1;

    if (opt.predict || !opt.predict_out.empty()) {
        // Predict over the replayed trace; the replay's own recipe is
        // the confirmation base, so confirming schedules are
        // synthesized relative to the recorded interleaving.
        analysis::PredictionReport pr =
            analysis::predictBlockingBugs(rr.sr.ect);
        engine::PredictOutcome po =
            engine::confirmPredictions(kernel.fn, rr.sr.recipe,
                                       std::move(pr));
        std::printf("predicted %zu blocking bug(s), %d confirmed by "
                    "synthesized replay\n",
                    po.report.predictions.size(), po.confirmedCount);
        if (po.report.any())
            std::printf("%s", po.report.str().c_str());
        if (!opt.predict_out.empty()) {
            std::string doc = po.report.jsonDocStr(kernel.name);
            doc += '\n';
            if (atomicWriteFile(opt.predict_out, doc)) {
                std::printf("prediction findings written to %s\n",
                            opt.predict_out.c_str());
            } else {
                std::fprintf(stderr, "goat: cannot write %s\n",
                             opt.predict_out.c_str());
                rc = 1;
            }
        }
    }

    if (opt.minimize) {
        engine::MinimizeResult mr = minimizeRecipe(kernel.fn, recipe);
        if (!mr.reproduced) {
            std::fprintf(stderr,
                         "goat: minimize: recipe is not buggy or does "
                         "not reproduce\n");
            rc = 1;
        } else {
            std::printf(
                "minimized schedule: %d -> %zu yield(s) in %d "
                "replay(s)\n",
                mr.originalYields, mr.minimized.yields.size(),
                mr.replays);
            printCulprits(mr.minimized);
            if (!opt.record_out.empty()) {
                if (trace::writeRecipeFile(mr.minimized,
                                           opt.record_out)) {
                    std::printf("minimized recipe written to %s\n",
                                opt.record_out.c_str());
                } else {
                    std::fprintf(stderr, "goat: cannot write %s\n",
                                 opt.record_out.c_str());
                    rc = 1;
                }
            }
        }
    }
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        usage();
        return 2;
    }

    // Only the checks about CLI modes live here; which campaign
    // configurations can run is campaign::refusal()'s to say (runKernel).
    // A replay never reaches a campaign, so it cannot be isolated.
    if (opt.isolate && !opt.replay_in.empty()) {
        std::printf("-isolate is incompatible with -replay\n");
        return 2;
    }
    if ((!opt.checkpoint_out.empty() || !opt.resume_in.empty()) &&
        (opt.kernel == "all" || opt.kernel == "hostile")) {
        std::printf("-checkpoint/-resume need a single kernel, not a "
                    "sweep\n");
        return 2;
    }

    auto &registry = goker::KernelRegistry::instance();

    if (opt.list) {
        std::printf("%-22s %-12s %-14s %s\n", "kernel", "project",
                    "class", "description");
        for (const auto *k : registry.all())
            std::printf("%-22s %-12s %-14s %s\n", k->name.c_str(),
                        k->project.c_str(), bugClassName(k->bugClass),
                        k->description.substr(0, 60).c_str());
        for (const auto *k : registry.allHostile())
            std::printf("%-22s %-12s %-14s %s\n", k->name.c_str(),
                        k->project.c_str(), "hostile",
                        k->description.substr(0, 60).c_str());
        return 0;
    }
    if (opt.lint) {
        // Pure static mode: no kernel execution at all.
        return runLint(opt);
    }
    if (!opt.mhp_out.empty()) {
        // Also static: dump the MHP pair set and exit.
        return runMhpOut(opt);
    }
    if (opt.kernel.empty()) {
        usage();
        return 2;
    }
    setQuiet(true);
    installInterruptHandlers();

    if (!opt.replay_in.empty()) {
        // Replay mode: re-execute one recorded recipe on one kernel.
        if (opt.kernel == "all") {
            std::printf("-replay needs a single kernel, not 'all'\n");
            return 2;
        }
        const goker::KernelInfo *k = registry.find(opt.kernel);
        if (!k) {
            std::printf("unknown kernel '%s' (try -list)\n",
                        opt.kernel.c_str());
            return 2;
        }
        return runReplay(*k, opt);
    }

    // The kernels to run: a sweep (all, or the hostile
    // fault-injection set) or one kernel.
    std::vector<const goker::KernelInfo *> targets;
    if (opt.kernel == "all") {
        targets = registry.all();
    } else if (opt.kernel == "hostile") {
        targets = registry.allHostile();
    } else if (const goker::KernelInfo *k = registry.find(opt.kernel)) {
        targets.push_back(k);
    } else {
        std::printf("unknown kernel '%s' (try -list)\n",
                    opt.kernel.c_str());
        return 2;
    }
    if (!opt.isolate &&
        std::any_of(targets.begin(), targets.end(),
                    [](const goker::KernelInfo *k) { return k->hostile; })) {
        std::printf("-kernel=%s requires -isolate (hostile kernels crash "
                    "the process on purpose)\n",
                    opt.kernel.c_str());
        return 2;
    }

    bool artifact_fail = false;
    int special_exit = 0;
    int found = 0;
    for (const goker::KernelInfo *k : targets) {
        found += runKernel(*k, opt, artifact_fail, special_exit);
        if (special_exit)
            return special_exit;
    }
    if (opt.kernel == "all")
        std::printf("\n%d of %zu kernels exposed their bug\n", found,
                    targets.size());
    else if (opt.kernel == "hostile")
        std::printf("\n%d of %zu hostile kernels exposed a failure\n",
                    found, targets.size());
    if (opt.metrics)
        std::printf("%s\n",
                    obs::Registry::global().snapshot().jsonStr().c_str());
    return artifact_fail ? 1 : 0;
}
