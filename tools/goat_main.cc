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
#include <bit>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
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

namespace cli = goat::cli;
using cli::Options;

/** Parse argv into @p opt, or name the argument that is not a flag. */
bool
parseArgs(int argc, char **argv, Options &opt)
{
    std::string bad;
    if (cli::parseOptions(argc, argv, opt, &bad))
        return true;
    // A known name in the wrong form ("-d", "-cov=1", "-d=abc").
    bool known = cli::findFlag(bad.substr(0, bad.find('=')));
    std::printf("%s: %s\n\n", known ? "bad value" : "unknown flag",
                bad.c_str());
    return false;
}

/** Report an artifact: @p written if @p ok, else "cannot write PATH". */
bool
wroteArtifact(bool ok, const std::string &path,
              const std::string &written = "")
{
    if (!ok)
        std::fprintf(stderr, "goat: cannot write %s\n", path.c_str());
    else if (!written.empty())
        std::printf("%s\n", written.c_str());
    return ok;
}

/** The kernel named @p name, or nullptr after saying it is unknown. */
const goker::KernelInfo *
findKernel(const std::string &name)
{
    const goker::KernelInfo *k = goker::KernelRegistry::instance().find(name);
    if (!k)
        std::printf("unknown kernel '%s' (try -list)\n", name.c_str());
    return k;
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
    for (const std::string &item : strSplit(spec, ',')) {
        std::error_code ec;
        if (!fs::is_directory(item, ec)) {
            if (!item.empty())
                out.push_back(item);
            continue;
        }
        for (const auto &entry : fs::recursive_directory_iterator(item, ec)) {
            std::string ext = entry.path().extension().string();
            if (entry.is_regular_file() && (ext == ".cc" || ext == ".cpp" ||
                                            ext == ".hh" || ext == ".hpp"))
                out.push_back(entry.path().string());
        }
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
        } else if (const goker::KernelInfo *k = findKernel(opt.kernel)) {
            report = goker::kernelLintReport(*k);
        } else {
            return 2;
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
    return wroteArtifact(atomicWriteFile(opt.lint_out, doc), opt.lint_out,
                         strFormat("%zu finding(s) written to %s (%s)",
                                   report.size(), opt.lint_out.c_str(),
                                   opt.lint_format.c_str()))
               ? fail_rc
               : 1;
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
    const goker::KernelInfo *k = findKernel(opt.kernel);
    if (!k)
        return 2;
    std::string doc = goker::kernelMhpPairsStr(*k);
    size_t pairs = std::count(doc.begin(), doc.end(), '\n');
    return wroteArtifact(atomicWriteFile(opt.mhp_out, doc), opt.mhp_out,
                         strFormat("%zu MHP pair(s) written to %s", pairs,
                                   opt.mhp_out.c_str()))
               ? 0
               : 1;
}

/**
 * Report a minimization: the schedule and its culprit sites (the
 * debugging headline). @return false, with @p failure, if it failed.
 */
bool
reportMinimized(const engine::MinimizeResult &mr, const char *failure)
{
    if (!mr.reproduced) {
        std::fprintf(stderr, "goat: minimize: %s\n", failure);
        return false;
    }
    std::printf("minimized schedule: %d -> %zu yield(s) in %d replay(s)\n",
                mr.originalYields, mr.minimized.yields.size(), mr.replays);
    if (mr.minimized.yields.empty())
        std::printf("  no injected yields needed: the seed's native "
                    "schedule noise reproduces the bug\n");
    for (const trace::RecipeYield &y : mr.minimized.yields)
        std::printf("  culprit yield #%llu at %s %s:%u\n",
                    static_cast<unsigned long long>(y.call),
                    y.kind.c_str(), y.file.c_str(), y.line);
    return true;
}

/**
 * Report a prediction outcome after @p lead (its findings too when
 * @p details). @return false if -predict-out= could not be written.
 */
bool
reportPredictions(const engine::PredictOutcome &po, const Options &opt,
                  const std::string &kernel, const std::string &lead,
                  bool details)
{
    std::printf("%spredicted %zu blocking bug(s), %d confirmed by "
                "synthesized replay\n", lead.c_str(),
                po.report.predictions.size(), po.confirmedCount);
    if (details && po.report.any())
        std::printf("%s", po.report.str().c_str());
    return opt.predict_out.empty() ||
           wroteArtifact(atomicWriteFile(opt.predict_out,
                                         po.report.jsonDocStr(kernel) + '\n'),
                         opt.predict_out,
                         "prediction findings written to " + opt.predict_out);
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
        if (!opt.status_out.empty())
            artifact_fail |= !wroteArtifact(progress->statusOk(),
                                            opt.status_out);
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
    // A supervised crash/timeout bug has no trace: the child died (or
    // was killed) before one could be shipped. Trace-derived artifacts
    // are skipped; the seeded-policy recipe (-record) still replays it.
    const bool traceless =
        result.bugFound && result.firstBugRecipe.seededPolicy;
    if (traceless && !result.firstBug.panicMsg.empty())
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
        for (const auto &finding : cres.lint.findings)
            if (opt.report && result.bugFound && finding.confirmed)
                std::printf("  confirmed: %s\n", finding.str().c_str());
    }
    if (cfg.predict)
        artifact_fail |= !reportPredictions(cres.predict, opt, kernel.name,
                                            strFormat("%-22s ", ""),
                                            opt.report);
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
    if (result.bugFound && opt.stats && !traceless)
        std::printf("\n-- trace statistics --\n%s",
                    analysis::computeStats(result.firstBugEct).str().c_str());
    if (result.bugFound && !opt.html_out.empty() && !traceless) {
        analysis::GoroutineTree tree(result.firstBugEct);
        std::string html = analysis::htmlReportStr(
            kernel.name, result.firstBugEct, tree, result.firstBug,
            opt.cov ? &cres.coverage : nullptr);
        artifact_fail |= !wroteArtifact(
            atomicWriteFile(opt.html_out, html), opt.html_out,
            "HTML report written to " + opt.html_out);
    }
    if (result.bugFound && !opt.trace_out.empty() && !traceless)
        artifact_fail |= !wroteArtifact(
            trace::writeEctFile(result.firstBugEct, opt.trace_out),
            opt.trace_out, "buggy ECT written to " + opt.trace_out);
    if (result.bugFound && !opt.chrome_out.empty() && !traceless)
        artifact_fail |= !wroteArtifact(
            obs::writeChromeTraceFile(result.firstBugEct, opt.chrome_out),
            opt.chrome_out, "chrome trace written to " + opt.chrome_out);
    if (result.bugFound && !opt.record_out.empty())
        artifact_fail |= !wroteArtifact(
            cres.recordOk, opt.record_out,
            strFormat("repro recipe written to %s (%zu yields)",
                      cres.recipePath.c_str(),
                      result.firstBugRecipe.yields.size()));
    if (result.bugFound && opt.minimize && traceless) {
        std::printf("minimize skipped: supervised %s bugs replay via "
                    "their seeded-policy recipe\n",
                    result.firstBugRecipe.verdict.c_str());
    } else if (result.bugFound && opt.minimize) {
        if (!reportMinimized(cres.minimize, "recorded recipe did not "
                                            "reproduce deterministically"))
            artifact_fail = true;
        else if (!cres.minimizedRecipePath.empty())
            std::printf("minimized recipe written to %s\n",
                        cres.minimizedRecipePath.c_str());
    }
    if (!opt.ledger_out.empty())
        artifact_fail |= !wroteArtifact(cres.ledgerOk, opt.ledger_out);
    if (!opt.checkpoint_out.empty())
        artifact_fail |= !wroteArtifact(cres.checkpointOk,
                                        opt.checkpoint_out);
    if (cres.interrupted) {
        std::fprintf(stderr,
                     "goat: interrupted by signal %d; merged %d "
                     "finished iteration(s)\n",
                     cres.interruptSig, cres.cutoffIteration);
        special_exit = 128 + cres.interruptSig;
    }
    if (!opt.saturation_out.empty())
        artifact_fail |= !wroteArtifact(
            cres.merged.saturation.writeFiles(opt.saturation_out,
                                              kernel.name),
            opt.saturation_out,
            "saturation series written to " + opt.saturation_out +
                " (+ .html)");
    if (opt.profile)
        std::printf("\n-- stage profile (canonical fold, %d merged "
                    "iteration(s)) --\n%s",
                    cres.cutoffIteration,
                    cres.merged.profile.tableStr().c_str());
    if (opt.cov && opt.report)
        std::printf("\n-- coverage requirements --\n%s",
                    cres.coverage.tableStr().c_str());
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
        engine::PredictOutcome po = engine::confirmPredictions(
            kernel.fn, rr.sr.recipe, analysis::predictBlockingBugs(rr.sr.ect));
        if (!reportPredictions(po, opt, kernel.name, "", true))
            rc = 1;
    }

    if (opt.minimize) {
        engine::MinimizeResult mr = minimizeRecipe(kernel.fn, recipe);
        if (!reportMinimized(mr, "recipe is not buggy or does not "
                                 "reproduce") ||
            (!opt.record_out.empty() &&
             !wroteArtifact(trace::writeRecipeFile(mr.minimized,
                                                   opt.record_out),
                            opt.record_out,
                            "minimized recipe written to " +
                                opt.record_out)))
            rc = 1;
    }
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt) || !cli::modeOf(opt)) {
        std::fputs(cli::usageText().c_str(), stdout);
        return 2;
    }
    const unsigned mode = cli::modeOf(opt);
    // Every given flag must be one the mode reads (cli::kFlags); which
    // campaign configurations can run is campaign::refusal()'s to say.
    for (const cli::Flag *f : opt.given) {
        if (!(f->modes & mode)) {
            std::printf("%s does not apply to %s\n", f->name,
                        cli::kModeNames[std::countr_zero(mode)]);
            return 2;
        }
    }
    // A flag some modes read only beside another one, which the
    // per-mode table cannot say: refused here rather than ignored.
    static constexpr struct
    {
        const char *flag, *needs;
        unsigned modes;
    } kCompanions[] = {
        {"-saturation-out", "-cov", cli::kRuns},
        {"-record", "-minimize", cli::kReplay},
        {"-checkpoint-every", "-checkpoint", cli::kCampaign},
    };
    auto given = [&](std::string_view name) {
        return std::any_of(opt.given.begin(), opt.given.end(),
                           [&](const cli::Flag *f) { return f->name == name; });
    };
    for (const auto &c : kCompanions) {
        if ((c.modes & mode) && given(c.flag) && !given(c.needs)) {
            std::printf("%s requires %s\n", c.flag, c.needs);
            return 2;
        }
    }

    auto &registry = goker::KernelRegistry::instance();

    if (mode == cli::kList) {
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
    // The static modes execute no kernel at all.
    if (mode == cli::kLint)
        return runLint(opt);
    if (mode == cli::kMhpOut)
        return runMhpOut(opt);
    setQuiet(true);
    installInterruptHandlers();

    if (mode == cli::kReplay) {
        // Replay mode: re-execute one recorded recipe on one kernel.
        if (opt.kernel == "all") {
            std::printf("-replay needs a single kernel, not 'all'\n");
            return 2;
        }
        const goker::KernelInfo *k = findKernel(opt.kernel);
        return k ? runReplay(*k, opt) : 2;
    }

    // The kernels to run: a sweep (all, or the hostile
    // fault-injection set) or one kernel.
    std::vector<const goker::KernelInfo *> targets;
    if (opt.kernel == "all")
        targets = registry.all();
    else if (opt.kernel == "hostile")
        targets = registry.allHostile();
    else if (const goker::KernelInfo *k = findKernel(opt.kernel))
        targets.push_back(k);
    else
        return 2;
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
