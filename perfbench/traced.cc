/**
 * @file
 * The traced run: rebuild a workload's campaigns iteration by iteration
 * from each layer's public calls, with a span around every call, and
 * turn the spans' self times into per-layer metrics.
 *
 * The rebuild follows campaign.cc's worker loop and canonical fold at
 * one worker: Scheduler::run with an EctRing bound, EctRing::finish,
 * GoroutineTree, deadlockCheck, predictBlockingBugs, the coverage fold
 * (CoverageState::addEct) and merge (mergeFrom), detectRaces, the
 * registry snapshot delta of a ledger row, first-bug finalization,
 * checkpoint rounds (checkpointToString + atomicWriteFile), the ledger
 * write (ledgerEntryJson via RunLedger) and confirmPredictions. Every
 * rebuilt iteration is checked against engine::runCampaignIteration
 * (ECT fingerprint, verdict, outcome, hook calls, yields), and every
 * rebuilt campaign's digest against the real campaign's.
 *
 * Spans (name, start, end, parent) are kept in memory and written as
 * Chrome trace-event JSON at the end. A span's self time is its
 * duration minus the time its child spans cover.
 */

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>

#include "analysis/goroutine_tree.hh"
#include "analysis/happens_before.hh"
#include "analysis/hb_predict.hh"
#include "analysis/report.hh"
#include "base/fileio.hh"
#include "base/fmt.hh"
#include "campaign/checkpoint.hh"
#include "harness.hh"
#include "obs/ledger.hh"
#include "obs/saturation.hh"
#include "perturb/guided.hh"
#include "perturb/perturb.hh"
#include "perturb/replay.hh"
#include "staticmodel/lint.hh"
#include "trace/ect_ring.hh"
#include "trace/recipe.hh"

namespace perfbench {

using namespace goat;

namespace {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Spans kept for the trace file; aggregation covers all of them. */
constexpr size_t kMaxStoredSpans = 200'000;

/**
 * In-memory span recorder. Span names are string literals, so their
 * addresses identify them on the hot path.
 */
class Tracer
{
  public:
    struct Agg
    {
        int64_t selfNs = 0;
        int64_t durNs = 0;
        uint64_t count = 0;
    };

    void
    open(const char *name)
    {
        stack_.push_back({name, nowNs(), 0});
    }

    void
    close()
    {
        const int64_t end = nowNs();
        Open o = stack_.back();
        stack_.pop_back();
        const int64_t dur = end - o.start;
        Agg &a = agg_[o.name];
        a.selfNs += dur - o.childNs;
        a.durNs += dur;
        ++a.count;
        if (!stack_.empty())
            stack_.back().childNs += dur;
        if (spans_.size() < kMaxStoredSpans) {
            // Children close before their parent, so a parent's stored
            // index is only known afterwards; record depth-first order
            // and resolve parents when writing (see writeChrome).
            spans_.push_back({o.name, o.start, end,
                              static_cast<int>(stack_.size())});
        } else {
            ++dropped_;
        }
    }

    /**
     * Totals of the spans named @p name (summed by content: equal
     * literals need not share an address).
     */
    Agg
    get(const char *name) const
    {
        Agg sum;
        for (const auto &[n, a] : agg_) {
            if (std::strcmp(n, name) == 0) {
                sum.selfNs += a.selfNs;
                sum.durNs += a.durNs;
                sum.count += a.count;
            }
        }
        return sum;
    }

    /** Summed self time of every span whose name satisfies @p pred. */
    template <typename Pred>
    int64_t
    selfSum(Pred pred) const
    {
        int64_t s = 0;
        for (const auto &[name, a] : agg_)
            if (pred(std::string(name)))
                s += a.selfNs;
        return s;
    }

    /**
     * Chrome trace-event JSON ("X" complete events, microseconds), each
     * event carrying its span id and its parent's id.
     */
    bool
    writeChrome(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        const int64_t t0 = spans_.empty() ? 0 : minStart();
        // Parent of a span = the nearest later-closing span at depth-1
        // that encloses it; spans close in post-order, so scan forward.
        std::vector<int> parent(spans_.size(), -1);
        std::vector<int> pending; // indices waiting for a parent
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            while (!pending.empty() &&
                   spans_[static_cast<size_t>(pending.back())].depth >
                       s.depth) {
                parent[static_cast<size_t>(pending.back())] =
                    static_cast<int>(i);
                pending.pop_back();
            }
            pending.push_back(static_cast<int>(i));
        }
        std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"otherData\":"
                        "{\"dropped_spans\":%zu},\"traceEvents\":[",
                     dropped_);
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"id\":%zu,\"parent\":%d}}",
                         i ? "," : "", s.name, (s.start - t0) / 1e3,
                         (s.end - s.start) / 1e3, i, parent[i]);
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    struct Open
    {
        const char *name;
        int64_t start;
        int64_t childNs;
    };
    struct Span
    {
        const char *name;
        int64_t start;
        int64_t end;
        int depth;
    };

    int64_t
    minStart() const
    {
        int64_t m = spans_.front().start;
        for (const Span &s : spans_)
            m = std::min(m, s.start);
        return m;
    }

    std::vector<Open> stack_;
    std::vector<Span> spans_;
    size_t dropped_ = 0;
    std::unordered_map<const char *, Agg> agg_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name) : t_(t) { t_.open(name); }
    ~Scope() { t_.close(); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
};

/** Counts gathered alongside the spans. */
struct Tally
{
    double iterations = 0, campaigns = 0, events = 0;
    double hookCalls = 0, yields = 0;
    double dispatches = 0, poolHits = 0, poolMisses = 0;
    double rawPredictions = 0, mergedPredictions = 0, confirmed = 0;
    double confirmReplays = 0, covRequirements = 0;
    double checkpointRounds = 0, checkpointBytes = 0;
    double ledgerRows = 0, ledgerBytes = 0;
};

uint64_t
fileSize(const std::string &path)
{
    struct stat st{};
    return stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

/**
 * Peak-RSS sampler for one campaign: polls the resident set every
 * millisecond on its own thread for as long as the object lives.
 */
class RssSampler
{
  public:
    RssSampler() : peak_(currentRssKb())
    {
        thread_ = std::thread([this] {
            while (!stop_.load(std::memory_order_relaxed)) {
                uint64_t kb = currentRssKb();
                if (kb > peak_.load(std::memory_order_relaxed))
                    peak_.store(kb, std::memory_order_relaxed);
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        });
    }

    ~RssSampler()
    {
        stop_.store(true);
        thread_.join();
    }

    RssSampler(const RssSampler &) = delete;
    RssSampler &operator=(const RssSampler &) = delete;

    uint64_t peakKb() const { return peak_.load(); }

  private:
    std::atomic<bool> stop_{false};
    std::atomic<uint64_t> peak_;
    std::thread thread_; // last: starts after the members it uses
};

/** What a worker keeps per iteration until the merge (campaign.cc). */
struct Record
{
    int iter = 0;
    uint64_t seed = 0;
    runtime::ExecResult exec;
    analysis::DeadlockReport dl;
    bool coreBug = false;
    uint64_t wallMicros = 0;
    std::unique_ptr<analysis::CoverageState> cov;
    obs::Snapshot metricsDelta;
    analysis::PredictionReport predictions;
    trace::Recipe recipe;
};

/**
 * Rebuild one campaign at one worker: per checkpoint round (one round
 * without checkpoints) a worker phase that runs and analyses the
 * iterations, then the canonical merge of the round's records, as
 * campaign.cc's runThreadedCampaign does. Returns the rebuilt campaign's
 * facts; per-iteration divergences from runCampaignIteration are
 * counted in @p faithful / @p divergent.
 */
CampaignFacts
rebuildCampaign(const campaign::CampaignConfig &cc,
                const std::function<void()> &fn, Tracer &tr, Tally &tally,
                int *faithful, int *divergent)
{
    const engine::GoatConfig &cfg = cc.engine;
    const bool measure_cov = cfg.collectCoverage;
    const bool checkpointing = !cc.checkpointPath.empty();
    const bool want_rows = !cfg.ledgerPath.empty() || checkpointing;
    const std::string ledger_path =
        cfg.ledgerPath.empty() ? "" : cfg.ledgerPath + ".rebuild";
    const std::string ckpt_path =
        checkpointing ? cc.checkpointPath + ".rebuild" : "";
    if (!ledger_path.empty())
        std::remove(ledger_path.c_str());

    Scope camp_span(tr, "campaign.rebuild");
    obs::Registry registry;
    obs::ScopedRegistry registry_scope(registry);
    const obs::Counter &dispatches = registry.counter("sched.dispatches");
    const obs::Counter &pool_hits = registry.counter("sched.stackpool.hits");
    const obs::Counter &pool_misses =
        registry.counter("sched.stackpool.misses");
    obs::Snapshot prev_snap;
    if (want_rows)
        prev_snap = registry.snapshot();

    analysis::CoverageState local, merged;
    {
        Scope s(tr, "analysis.cov_template");
        local = analysis::CoverageState(cfg.staticModel);
        merged = analysis::CoverageState(cfg.staticModel);
    }

    thread_local trace::EctRing ring(trace::defaultEctRingCapacity());
    CampaignFacts facts;
    engine::SingleRun first_bug;
    int first_bug_iter = -1;
    int stop_at = cfg.maxIterations;
    obs::SaturationSeries saturation;
    std::vector<Record> records;
    std::vector<engine::IterationOutcome> iterations;
    std::vector<obs::LedgerEntry> rows;
    analysis::PredictionReport predicted;
    std::set<std::string> seen_pred;
    bool stopped = false;
    int cursor = 0;

    // One worker iteration: runCampaignIteration (runOnceHooked inside)
    // followed by workerLoop's per-iteration analysis and record.
    auto work = [&](const analysis::CoverageState &tmpl, int iter) {
        Scope iter_span(tr, "iteration");
        const int64_t t0 = nowNs();
        const uint64_t seed =
            engine::campaignIterationSeed(cfg.seedBase, iter);
        std::optional<perturb::ScheduleRecorder> recorder;
        std::optional<perturb::YieldPerturber> uniform;
        std::optional<perturb::GuidedPerturber> guided;
        runtime::SchedConfig sc;
        {
            // runCampaignIteration builds the guided policy on every
            // iteration, whether or not it installs it.
            Scope s(tr, "perturb.setup");
            recorder.emplace();
            uniform.emplace(cfg.delayBound, seed);
            guided.emplace(nullptr, cfg.delayBound, seed);
            runtime::PerturbHook inner;
            if (cfg.delayBound > 0)
                inner = uniform->hook();
            sc.seed = seed;
            sc.noiseProb = cfg.noiseProb;
            sc.stepBudget = cfg.stepBudget;
            sc.perturb = recorder->wrap(std::move(inner));
        }

        engine::SingleRun sr;
        const uint64_t d0 = dispatches.value(), h0 = pool_hits.value(),
                       m0 = pool_misses.value();
        std::optional<runtime::Scheduler> sched;
        {
            Scope s(tr, "runtime.run");
            sched.emplace(sc);
            ring.bind(&sr.ect);
            sched->setRing(&ring);
            sr.exec = sched->run(fn);
        }
        {
            Scope s(tr, "trace.flush");
            ring.finish();
        }
        {
            Scope s(tr, "runtime.run");
            sched.reset();
        }
        tally.dispatches += static_cast<double>(dispatches.value() - d0);
        tally.poolHits += static_cast<double>(pool_hits.value() - h0);
        tally.poolMisses += static_cast<double>(pool_misses.value() - m0);
        {
            Scope s(tr, "trace.ect");
            sr.ect.setMeta("seed", std::to_string(seed));
            sr.ect.setMeta("outcome", runtime::runOutcomeName(sr.exec.outcome));
            sr.ect.setMeta("delay_bound", std::to_string(cfg.delayBound));
        }
        {
            Scope s(tr, "analysis.tree");
            sr.tree = std::make_shared<analysis::GoroutineTree>(sr.ect);
        }
        {
            Scope s(tr, "analysis.deadlock");
            sr.dl = analysis::deadlockCheck(*sr.tree);
        }
        {
            Scope s(tr, "goat.iteration");
            trace::Recipe &r = sr.recipe;
            r.seed = seed;
            r.delayBound = cfg.delayBound;
            r.noiseProb = cfg.noiseProb;
            r.stepBudget = cfg.stepBudget;
            r.iteration = iter;
            r.hookCalls = recorder->calls();
            r.yields = recorder->yields();
            r.outcome = runtime::runOutcomeName(sr.exec.outcome);
            r.verdict = analysis::verdictName(sr.dl.verdict);
        }
        tally.iterations += 1;
        tally.events += static_cast<double>(sr.ect.size());
        tally.hookCalls += static_cast<double>(recorder->calls());
        tally.yields += static_cast<double>(recorder->yields().size());

        Record rec;
        {
            Scope s(tr, "campaign.record");
            rec.iter = iter;
            rec.seed = seed;
            rec.exec = sr.exec;
            rec.dl = sr.dl;
            rec.coreBug = sr.dl.buggy() ||
                          sr.exec.outcome == runtime::RunOutcome::StepBudget;
        }
        if (cfg.predict) {
            {
                Scope s(tr, "analysis.predict");
                rec.predictions = analysis::predictBlockingBugs(sr.ect);
            }
            Scope s(tr, "campaign.record");
            rec.recipe = sr.recipe;
        }
        tally.rawPredictions +=
            static_cast<double>(rec.predictions.predictions.size());
        if (measure_cov) {
            Scope s(tr, "analysis.cov_fold");
            rec.cov = std::make_unique<analysis::CoverageState>(tmpl);
            rec.cov->addEct(sr.ect, *sr.tree);
            local.addEct(sr.ect, *sr.tree);
        }
        if (cfg.raceDetect && facts.raceIteration < 0) {
            Scope s(tr, "analysis.race");
            if (analysis::detectRaces(sr.ect).any())
                facts.raceIteration = iter;
        }
        const bool local_bug =
            rec.coreBug || (cfg.raceDetect && facts.raceIteration == iter);
        if (local_bug && first_bug_iter < 0) {
            Scope s(tr, "campaign.record");
            first_bug_iter = iter;
            first_bug = sr;
            if (cfg.stopOnBug)
                stop_at = iter;
        }
        rec.wallMicros = static_cast<uint64_t>(nowNs() - t0) / 1000;
        if (want_rows) {
            Scope s(tr, "obs.snapshot");
            obs::Snapshot snap = registry.snapshot();
            rec.metricsDelta = snap.deltaFrom(prev_snap);
            prev_snap = std::move(snap);
        }
        {
            Scope s(tr, "campaign.record");
            records.push_back(std::move(rec));
        }

        // Faithfulness: the engine's own iteration function must give
        // the same trace, verdict and schedule decisions.
        {
            Scope s(tr, "bench.check");
            engine::SingleRun ref =
                engine::runCampaignIteration(cfg, fn, iter, nullptr);
            const bool same =
                ref.dl.verdict == sr.dl.verdict &&
                ref.exec.outcome == sr.exec.outcome &&
                ref.recipe.hookCalls == sr.recipe.hookCalls &&
                ref.recipe.yields.size() == sr.recipe.yields.size() &&
                trace::ectFingerprint(ref.ect) ==
                    trace::ectFingerprint(sr.ect);
            ++*(same ? faithful : divergent);
        }
        {
            Scope s(tr, "analysis.tree");
            sr.tree.reset();
        }
        {
            Scope s(tr, "trace.ect");
            sr = engine::SingleRun();
        }
    };

    // The canonical fold of iteration @p i (runThreadedCampaign's merge).
    auto fold = [&](int i) {
        Record &rec = records[static_cast<size_t>(i) - 1];
        Scope s(tr, "campaign.merge");
        cursor = i;
        engine::IterationOutcome io;
        io.exec = rec.exec;
        io.dl = rec.dl;
        io.wallMicros = rec.wallMicros;
        if (measure_cov && rec.cov) {
            Scope c(tr, "analysis.cov_merge");
            merged.mergeFrom(*rec.cov);
            rec.cov.reset();
            io.coveragePct = merged.percent();
            facts.coveragePct = io.coveragePct;
            saturation.sample(i, merged);
        }
        if (cfg.predict) {
            for (const analysis::Prediction &p : rec.predictions.predictions) {
                if (!seen_pred.insert(p.key()).second)
                    continue;
                analysis::Prediction q = p;
                q.iteration = i;
                predicted.predictions.push_back(std::move(q));
            }
        }
        const bool buggy = rec.coreBug || i == facts.raceIteration;
        if (buggy && !facts.bugFound) {
            // The merge's copies of the first bug and its report, which
            // the result carries (runThreadedCampaign).
            Scope f(tr, "goat.finalize");
            facts.bugFound = true;
            facts.bugIteration = i;
            facts.verdict = analysis::verdictName(first_bug.dl.verdict);
            facts.outcome = runtime::runOutcomeName(first_bug.exec.outcome);
            trace::Ect first_bug_ect = first_bug.ect;
            {
                Scope fp(tr, "trace.fingerprint");
                engine::finalizeRecipe(first_bug);
            }
            first_bug.recipe.kernel = cc.programName;
            trace::Recipe first_bug_recipe = first_bug.recipe;
            std::string report = analysis::deadlockReportStr(
                first_bug.ect, *first_bug.tree, first_bug.dl);
        }
        if (want_rows) {
            obs::LedgerEntry e;
            e.iteration = i;
            e.seed = rec.seed;
            e.delayBound = cfg.delayBound;
            e.outcome = runtime::runOutcomeName(rec.exec.outcome);
            e.verdict = analysis::verdictName(rec.dl.verdict);
            e.bug = buggy;
            e.steps = rec.exec.steps;
            e.coveragePct = io.coveragePct;
            if (measure_cov && io.coveragePct >= 0) {
                e.satCovered = static_cast<int64_t>(merged.coveredCount());
                e.satTotal = static_cast<int64_t>(merged.totalRequirements());
            }
            e.wallMicros = rec.wallMicros;
            e.worker = 0;
            e.workerSeq = i;
            if (cfg.predict)
                e.predicted =
                    static_cast<int>(rec.predictions.predictions.size());
            e.metricsDelta = rec.metricsDelta;
            rows.push_back(std::move(e));
        }
        iterations.push_back(std::move(io));
        stopped = buggy && cfg.stopOnBug;
    };

    while (!stopped && cursor < cfg.maxIterations) {
        const int round_end =
            checkpointing ? std::min(cfg.maxIterations,
                                     cursor + cc.checkpointEvery)
                          : cfg.maxIterations;
        analysis::CoverageState tmpl;
        {
            // Each worker round instantiates its coverage template.
            Scope s(tr, "analysis.cov_template");
            tmpl = analysis::CoverageState(cfg.staticModel);
        }
        for (int iter = cursor + 1; iter <= round_end && iter <= stop_at;
             ++iter)
            work(tmpl, iter);
        for (int i = cursor + 1;
             i <= round_end && i <= static_cast<int>(records.size()) &&
             !stopped;
             ++i)
            fold(i);

        if (checkpointing) {
            Scope s(tr, "campaign.checkpoint");
            campaign::CheckpointData d;
            d.fingerprint = campaign::configFingerprint(cc);
            d.cursor = cursor;
            d.executed = static_cast<int>(records.size());
            d.bugIteration = facts.bugFound ? facts.bugIteration : -1;
            d.raceIteration = facts.raceIteration;
            d.stopped = stopped;
            if (measure_cov)
                d.covBitmap = merged.bitmapStr();
            d.satSamples = saturation.samples();
            d.rows = rows;
            std::string text = campaign::checkpointToString(d);
            atomicWriteFile(ckpt_path, text);
            tally.checkpointRounds += 1;
            tally.checkpointBytes += static_cast<double>(text.size());
        }
        if (cursor < round_end && !stopped)
            break; // nothing left to fold
    }

    if (cfg.predict && !predicted.predictions.empty()) {
        Scope s(tr, "goat.confirm");
        auto &preds = predicted.predictions;
        size_t idx = 0;
        while (idx < preds.size()) {
            const int src = preds[idx].iteration;
            size_t end = idx;
            while (end < preds.size() && preds[end].iteration == src)
                ++end;
            analysis::PredictionReport sub;
            sub.predictions.assign(preds.begin() +
                                       static_cast<ptrdiff_t>(idx),
                                   preds.begin() +
                                       static_cast<ptrdiff_t>(end));
            trace::Recipe base =
                records[static_cast<size_t>(src) - 1].recipe;
            base.kernel = cc.programName;
            engine::PredictOutcome po =
                engine::confirmPredictions(fn, base, std::move(sub));
            tally.confirmReplays += po.replays;
            for (size_t j = 0; j < po.report.predictions.size(); ++j)
                preds[idx + j] = std::move(po.report.predictions[j]);
            idx = end;
        }
        facts.confirmed = predicted.confirmedCount();
        tally.mergedPredictions += static_cast<double>(preds.size());
        tally.confirmed += facts.confirmed;
    }

    if (!ledger_path.empty()) {
        {
            Scope s(tr, "obs.ledger_row");
            obs::RunLedger ledger(ledger_path);
            for (const obs::LedgerEntry &e : rows)
                ledger.append(e);
        }
        tally.ledgerRows += static_cast<double>(rows.size());
        tally.ledgerBytes += static_cast<double>(fileSize(ledger_path));
        std::remove(ledger_path.c_str());
    }
    if (checkpointing)
        std::remove(ckpt_path.c_str());
    {
        // The campaign folds its worker registry into the caller's.
        Scope s(tr, "campaign.finalize");
        obs::Snapshot snap = registry.snapshot();
        obs::Snapshot folded;
        folded.mergeFrom(snap);
        obs::Registry::global().absorb(snap);
    }

    {
        Scope s(tr, "bench.check");
        facts.cutoff = cursor;
        facts.merged = static_cast<int>(iterations.size());
        if (measure_cov)
            facts.covHash = fnv1a(merged.bitmapStr());
        if (cfg.predict)
            facts.predHash = fnv1a(predicted.jsonDocStr(cc.programName));
    }
    tally.campaigns += 1;
    tally.covRequirements += static_cast<double>(merged.totalRequirements());
    return facts;
}

} // namespace

TracedOutcome
runTraced(const Workload &w, const StaticsMap &statics,
          const TracedOptions &opt)
{
    TracedOutcome out;
    Tracer tr;
    Tally tally;
    Metrics &m = out.metrics;

    // Static tiers, one call per kernel and tier.
    double findings = 0, mhp_pairs = 0, kernels = 0;
    for (const auto &[kernel, ks] : statics) {
        {
            Scope s(tr, "staticmodel.scan");
            goker::kernelCuTable(*kernel);
        }
        {
            Scope s(tr, "staticmodel.lint");
            findings += static_cast<double>(
                goker::kernelLintReport(*kernel).size());
        }
        {
            Scope s(tr, "staticmodel.mhp");
            goker::kernelMhpSites(*kernel);
        }
        std::string pairs = goker::kernelMhpPairsStr(*kernel);
        mhp_pairs += static_cast<double>(
            std::count(pairs.begin(), pairs.end(), '\n'));
        kernels += 1;
    }

    double untraced_wall = 0, untraced_iters = 0;
    double discarded = 0, executed = 0;
    double rss_growth_kb = 0, rss_kiters = 0;
    double rebuild_ns = 0;
    const double deadline = nowSeconds() + opt.seconds;

    for (size_t b = 0; b == 0 || nowSeconds() < deadline; ++b) {
        const size_t j = (opt.poolOffset + b) % w.pool.size();
        const uint64_t base = w.pool[j];

        // Untraced campaigns at the workload's worker count: the digests
        // the rebuild must reproduce, the overshoot, and memory growth.
        std::map<std::string, std::string> digests;
        for (const CampaignSpec &spec : w.campaigns) {
            const KernelStatics &ks = statics.at(spec.kernel);
            campaign::CampaignConfig cfg =
                makeConfig(w, ks, spec, base, w.jobs, opt.workDir);
            clearCampaignFiles(cfg);
            campaign::CampaignResult r;
            uint64_t before = currentRssKb(), peak = 0;
            {
                RssSampler sampler;
                r = campaign::runCampaign(cfg, spec.kernel->fn);
                peak = sampler.peakKb();
            }
            rss_growth_kb += static_cast<double>(peak > before ? peak - before
                                                               : 0);
            rss_kiters += r.executedIterations / 1000.0;
            discarded += r.discardedIterations;
            executed += r.executedIterations;
            std::string d = digestStr(factsOf(r, w, spec.kernel->name), w, ks);
            out.digests.push_back({j, spec.label, d});
            digests[spec.label] = d;
        }

        // The untraced cost per iteration at one worker, which the
        // layers' self times should add up to.
        for (const CampaignSpec &spec : w.campaigns) {
            campaign::CampaignConfig cfg = makeConfig(
                w, statics.at(spec.kernel), spec, base, 1, opt.workDir);
            clearCampaignFiles(cfg);
            const double t0 = nowSeconds();
            campaign::CampaignResult r =
                campaign::runCampaign(cfg, spec.kernel->fn);
            untraced_wall += nowSeconds() - t0;
            untraced_iters += static_cast<double>(r.merged.iterations.size());
        }

        // The traced rebuild.
        for (const CampaignSpec &spec : w.campaigns) {
            const KernelStatics &ks = statics.at(spec.kernel);
            campaign::CampaignConfig cfg =
                makeConfig(w, ks, spec, base, w.jobs, opt.workDir);
            {
                campaign::CampaignConfig one = cfg;
                one.engine.maxIterations = 1;
                clearCampaignFiles(one);
                Scope s(tr, "campaign.fixed");
                campaign::runCampaign(one, spec.kernel->fn);
            }
            clearCampaignFiles(cfg);
            const int64_t check0 = tr.get("bench.check").durNs;
            const int64_t t0 = nowNs();
            CampaignFacts f =
                rebuildCampaign(cfg, spec.kernel->fn, tr, tally,
                                &out.faithfulIterations,
                                &out.divergentIterations);
            rebuild_ns += static_cast<double>(
                nowNs() - t0 - (tr.get("bench.check").durNs - check0));
            clearCampaignFiles(cfg);
            if (digestStr(f, w, ks) == digests[spec.label]) {
                ++out.faithfulCampaigns;
            } else {
                ++out.divergentCampaigns;
                out.notes.push_back(strFormat(
                    "seed base %llu %s: rebuilt %s vs campaign %s",
                    static_cast<unsigned long long>(base),
                    spec.label.c_str(), digestStr(f, w, ks).c_str(),
                    digests[spec.label].c_str()));
            }
        }
    }

    auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    auto self_us = [&](const char *name) {
        return tr.get(name).selfNs / 1e3;
    };
    const double n = tally.iterations;
    const double camps = tally.campaigns;

    m["runtime.run_us"] = {per(self_us("runtime.run"), n), "us"};
    m["runtime.events_per_iter"] = {per(tally.events, n), "count"};
    m["runtime.ns_per_event"] = {
        per(static_cast<double>(tr.get("runtime.run").selfNs), tally.events),
        "ns"};
    m["runtime.dispatches_per_iter"] = {per(tally.dispatches, n), "count"};
    m["runtime.stack_pool_hit_ratio"] = {
        per(tally.poolHits, tally.poolHits + tally.poolMisses), "ratio"};
    m["trace.flush_us"] = {per(self_us("trace.flush"), n), "us"};
    m["trace.fingerprint_us"] = {
        per(tr.get("trace.fingerprint").durNs / 1e3,
            static_cast<double>(tr.get("trace.fingerprint").count)),
        "us"};
    m["perturb.hook_calls_per_iter"] = {per(tally.hookCalls, n), "count"};
    m["perturb.yields_per_iter"] = {per(tally.yields, n), "count"};
    m["perturb.yield_ratio"] = {per(tally.yields, tally.hookCalls), "ratio"};
    m["analysis.tree_us"] = {per(self_us("analysis.tree"), n), "us"};
    m["analysis.deadlock_us"] = {per(self_us("analysis.deadlock"), n), "us"};
    m["analysis.cov_fold_us"] = {per(self_us("analysis.cov_fold"), n), "us"};
    m["analysis.cov_merge_us"] = {per(self_us("analysis.cov_merge"), n),
                                  "us"};
    m["analysis.cov_requirements"] = {per(tally.covRequirements, camps),
                                      "count"};
    m["analysis.cov_template_us"] = {
        per(self_us("analysis.cov_template"), camps), "us"};
    m["analysis.predict_us"] = {per(self_us("analysis.predict"), n), "us"};
    m["analysis.predictions_per_iter"] = {per(tally.rawPredictions, n),
                                          "count"};
    m["analysis.race_us"] = {per(self_us("analysis.race"), n), "us"};
    m["goat.confirm_ms"] = {per(self_us("goat.confirm") / 1e3, camps), "ms"};
    m["goat.confirm_replays"] = {per(tally.confirmReplays, camps), "count"};
    m["goat.confirm_hit_ratio"] = {
        per(tally.confirmed, tally.mergedPredictions), "ratio"};
    m["goat.finalize_us"] = {
        per(self_us("goat.finalize"),
            static_cast<double>(tr.get("goat.finalize").count)),
        "us"};
    m["campaign.fixed_us"] = {
        per(tr.get("campaign.fixed").durNs / 1e3,
            static_cast<double>(tr.get("campaign.fixed").count)),
        "us"};
    m["campaign.discarded_ratio"] = {per(discarded, executed), "ratio"};
    m["campaign.merge_us"] = {per(self_us("campaign.merge"), n), "us"};
    m["campaign.record_us"] = {per(self_us("campaign.record"), n), "us"};
    m["campaign.finalize_us"] = {per(self_us("campaign.finalize"), camps),
                                 "us"};
    m["perturb.setup_us"] = {per(self_us("perturb.setup"), n), "us"};
    m["trace.ect_us"] = {per(self_us("trace.ect"), n), "us"};
    m["goat.iteration_us"] = {per(self_us("goat.iteration"), n), "us"};
    m["campaign.checkpoint_ms_per_round"] = {
        per(self_us("campaign.checkpoint") / 1e3, tally.checkpointRounds),
        "ms"};
    m["campaign.checkpoint_bytes_total"] = {
        per(tally.checkpointBytes, camps), "bytes"};
    m["campaign.rss_kb_per_kiter"] = {per(rss_growth_kb, rss_kiters), "KB"};
    m["obs.snapshot_us"] = {per(self_us("obs.snapshot"), n), "us"};
    m["obs.ledger_row_us"] = {per(self_us("obs.ledger_row"), tally.ledgerRows),
                              "us"};
    m["obs.ledger_bytes_per_iter"] = {per(tally.ledgerBytes, tally.ledgerRows),
                                      "bytes"};
    m["staticmodel.scan_ms"] = {per(self_us("staticmodel.scan") / 1e3,
                                    kernels),
                                "ms"};
    m["staticmodel.lint_ms"] = {per(self_us("staticmodel.lint") / 1e3,
                                    kernels),
                                "ms"};
    m["staticmodel.mhp_ms"] = {per(self_us("staticmodel.mhp") / 1e3, kernels),
                               "ms"};
    m["staticmodel.findings"] = {findings, "count"};
    m["staticmodel.mhp_pairs"] = {mhp_pairs, "count"};

    // Breakdown: the layers' self times against the untraced wall time
    // per iteration at one worker; what they leave is the residual.
    const double layers_ns = static_cast<double>(tr.selfSum(
        [](const std::string &s) {
            return s != "iteration" && s != "campaign.rebuild" &&
                   s != "campaign.fixed" && s.rfind("bench.", 0) != 0 &&
                   s.rfind("staticmodel.", 0) != 0;
        }));
    const double untraced_us = per(untraced_wall * 1e6, untraced_iters);
    const double layers_us = per(layers_ns / 1e3, n);
    const double traced_us = per(rebuild_ns / 1e3, n);
    m["campaign.residual_us_per_iter"] = {untraced_us - layers_us, "us"};
    m["bench.breakdown_pct"] = {per(100.0 * layers_us, untraced_us), "%"};
    m["bench.trace_overhead_pct"] = {
        per(100.0 * (traced_us - untraced_us), untraced_us), "%"};
    m["bench.untraced_us_per_iter"] = {untraced_us, "us"};

    if (!opt.tracePath.empty() && !tr.writeChrome(opt.tracePath))
        out.notes.push_back("cannot write " + opt.tracePath);
    return out;
}

} // namespace perfbench
