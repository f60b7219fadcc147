/**
 * @file
 * goat_perfbench: runs one named workload of the end-to-end benchmark
 * and writes its metrics and campaign digests to a JSON result file.
 *
 *   goat_perfbench --workload=core_j1 --seed=3 --seconds=20 --trace=0 \
 *                  --result=out.json --work-dir=DIR
 *
 * --trace=0 measures the end-to-end metrics with no tracing at all;
 * --trace=1 runs the traced rebuild instead (harness.hh runTraced) and
 * reports per-layer metrics. --full-pool runs exactly one pass over the
 * workload's seed pool (reference generation, smoke tests), --jobs=N
 * overrides the workload's worker count, and --smoke selects tiny
 * budgets. perfbench/run.py builds this binary, drives it, and checks
 * the digests against the committed reference.
 */

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "base/fmt.hh"
#include "base/logging.hh"
#include "harness.hh"

using namespace goat;
using namespace perfbench;

namespace {

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    bool fullPool = false;
    int jobs = 0;
    std::string resultPath;
    std::string workDir = ".";
    std::string traceOut;
};

bool
parseArgs(int argc, char **argv, Options *o)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto val = [&](const char *flag, std::string *out) {
            std::string prefix = std::string(flag) + "=";
            if (a.rfind(prefix, 0) != 0)
                return false;
            *out = a.substr(prefix.size());
            return true;
        };
        std::string v;
        if (val("--workload", &v))
            o->workload = v;
        else if (val("--seed", &v))
            o->seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (val("--seconds", &v))
            o->seconds = std::atof(v.c_str());
        else if (val("--trace", &v))
            o->trace = v == "1";
        else if (val("--jobs", &v))
            o->jobs = std::atoi(v.c_str());
        else if (val("--result", &v))
            o->resultPath = v;
        else if (val("--work-dir", &v))
            o->workDir = v;
        else if (val("--trace-out", &v))
            o->traceOut = v;
        else if (a == "--smoke")
            o->smoke = true;
        else if (a == "--full-pool")
            o->fullPool = true;
        else {
            std::fprintf(stderr, "goat_perfbench: unknown argument %s\n",
                         a.c_str());
            return false;
        }
    }
    return !o->workload.empty() && !o->resultPath.empty();
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
    if (max_ext >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        return strTrim(brand);
    }
#endif
    return "unknown";
}

int
hostCores()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return CPU_COUNT(&set);
    return 1;
}

/** End-to-end measurement: untraced campaigns, timed from outside. */
struct UntracedRun
{
    Metrics metrics;
    std::vector<DigestRecord> digests;
    /** Complete passes over the seed pool. */
    int passes = 0;
};

/** The best repeat of one campaign of the pool. */
struct BestRepeat
{
    double wallMs = std::numeric_limits<double>::infinity();
    /** CPU time and executed iterations of the least-CPU repeat. */
    double cpuS = std::numeric_limits<double>::infinity();
    double executed = 0.0;
    double merged = 0.0;
};

/**
 * Run complete passes over the seed pool until --seconds have passed
 * (at least one; exactly one with --full-pool), so every campaign of
 * the pool repeats once per pass. The timing metrics take every
 * campaign at its best repeat, over the whole pool: they describe the
 * same inputs for any --seed and shed the slowdowns other tenants of
 * the machine impose on some repeats. The quality metrics come from
 * the first pass.
 */
UntracedRun
runUntraced(const Workload &w, const StaticsMap &statics, const Options &o,
            int jobs)
{
    UntracedRun out;
    const size_t pool = w.pool.size();
    const size_t start = static_cast<size_t>(o.seed % pool);
    const double deadline = nowSeconds() + o.seconds;

    std::vector<std::vector<BestRepeat>> best(
        pool, std::vector<BestRepeat>(w.campaigns.size()));
    int quality_campaigns = 0, bugs = 0, confirmed = 0;
    double bug_iters = 0.0, coverage = 0.0;

    for (int pass = 0; pass == 0 || (!o.fullPool && nowSeconds() < deadline);
         ++pass) {
        for (size_t b = 0; b < pool; ++b) {
            const size_t j = (start + b) % pool;
            for (size_t c = 0; c < w.campaigns.size(); ++c) {
                const CampaignSpec &spec = w.campaigns[c];
                const KernelStatics &ks = statics.at(spec.kernel);
                campaign::CampaignConfig cfg =
                    makeConfig(w, ks, spec, w.pool[j], jobs, o.workDir);
                clearCampaignFiles(cfg);

                const double c0 = processCpuSeconds();
                const double t0 = nowSeconds();
                campaign::CampaignResult r =
                    campaign::runCampaign(cfg, spec.kernel->fn);
                const double t1 = nowSeconds();
                const double c1 = processCpuSeconds();

                BestRepeat &br = best[j][c];
                br.wallMs = std::min(br.wallMs, (t1 - t0) * 1e3);
                br.merged = static_cast<double>(r.merged.iterations.size());
                if (c1 - c0 < br.cpuS) {
                    br.cpuS = c1 - c0;
                    br.executed = static_cast<double>(r.executedIterations);
                }

                CampaignFacts f = factsOf(r, w, spec.kernel->name);
                out.digests.push_back({j, spec.label, digestStr(f, w, ks)});
                if (pass == 0) {
                    ++quality_campaigns;
                    if (f.bugFound) {
                        ++bugs;
                        bug_iters += f.bugIteration;
                    }
                    coverage += f.coveragePct;
                    confirmed += f.confirmed;
                }
            }
        }
        // Peak memory over the first pass, not the whole run: resident
        // memory creeps up with every campaign a process runs, so a
        // time-bounded total would rise with machine speed.
        if (pass == 0)
            out.metrics["peak_rss_mb"] = {peakRssMb(), "MB"};
        ++out.passes;
    }

    std::vector<double> verdict_ms;
    double wall_s = 0.0, merged = 0.0, cpu_s = 0.0, executed = 0.0;
    for (const std::vector<BestRepeat> &batch : best) {
        for (const BestRepeat &br : batch) {
            verdict_ms.push_back(br.wallMs);
            wall_s += br.wallMs / 1e3;
            merged += br.merged;
            cpu_s += br.cpuS;
            executed += br.executed;
        }
    }
    Metrics &m = out.metrics;
    m["iters_per_s"] = {merged / wall_s, "1/s"};
    m["cpu_us_per_iter"] = {cpu_s * 1e6 / executed, "us"};
    m["verdict_ms_p50"] = {percentile(verdict_ms, 50), "ms"};
    m["verdict_ms_p90"] = {percentile(verdict_ms, 90), "ms"};
    m["iters_to_bug_mean"] = {bugs ? bug_iters / bugs : 0.0, "iterations"};
    m["detect_ratio"] = {static_cast<double>(bugs) / quality_campaigns,
                         "ratio"};
    if (w.cov)
        m["coverage_pct"] = {coverage / quality_campaigns, "%"};
    if (w.predict)
        m["predictions_confirmed"] = {static_cast<double>(confirmed),
                                      "count"};
    return out;
}

/**
 * Set up several times; the median is the set-up time. The speed of a
 * single thread on a shared machine shifts by up to 40% from one second
 * to the next, so the repetitions span a few seconds.
 */
double
timedSetup(const Workload &w, StaticsMap *statics)
{
    std::vector<double> reps;
    double total = 0.0;
    while (reps.size() < 5 || (total < 3.0 && reps.size() < 20000)) {
        const double t0 = nowSeconds();
        *statics = buildStatics(w);
        const double dt = nowSeconds() - t0;
        reps.push_back(dt);
        total += dt;
    }
    return median(reps);
}

std::string
num(double v)
{
    return strFormat("%.17g", v);
}

bool
writeResult(const std::string &path, const Options &o, const Workload &w,
            int jobs, const UntracedRun &u, const TracedOutcome *traced)
{
    const Metrics &metrics = traced ? traced->metrics : u.metrics;
    const std::vector<DigestRecord> &digests =
        traced ? traced->digests : u.digests;
    std::string s = "{\n";
    s += strFormat("\"workload\": \"%s\",\n", w.name.c_str());
    s += strFormat("\"seed\": %llu,\n",
                   static_cast<unsigned long long>(o.seed));
    s += strFormat("\"jobs\": %d,\n\"trace\": %s,\n\"smoke\": %s,\n", jobs,
                   o.trace ? "true" : "false", o.smoke ? "true" : "false");
    s += strFormat("\"passes\": %d,\n", u.passes);
    s += strFormat("\"config\": \"%s\",\n", workloadConfigStr(w).c_str());
    s += strFormat("\"stamp\": {\"nproc\": %d, \"cpu\": \"%s\", "
                   "\"compiler\": \"%s\", \"build_type\": \"%s\"},\n",
                   hostCores(), jsonEscape(cpuModel()).c_str(),
                   jsonEscape(GOAT_PERFBENCH_COMPILER).c_str(),
                   GOAT_PERFBENCH_BUILD_TYPE);
    s += "\"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : metrics) {
        s += strFormat("%s\n  \"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                       first ? "" : ",", name.c_str(),
                       num(m.value).c_str(), m.unit.c_str());
        first = false;
    }
    s += "\n},\n";
    if (traced) {
        s += strFormat("\"faithful_iterations\": %d,\n"
                       "\"divergent_iterations\": %d,\n"
                       "\"faithful_campaigns\": %d,\n"
                       "\"divergent_campaigns\": %d,\n",
                       traced->faithfulIterations,
                       traced->divergentIterations,
                       traced->faithfulCampaigns,
                       traced->divergentCampaigns);
        s += "\"notes\": [";
        for (size_t i = 0; i < traced->notes.size(); ++i)
            s += strFormat("%s\n  \"%s\"", i ? "," : "",
                           jsonEscape(traced->notes[i]).c_str());
        s += "],\n";
    }
    s += "\"digests\": [";
    for (size_t i = 0; i < digests.size(); ++i) {
        const DigestRecord &d = digests[i];
        s += strFormat("%s\n  [%zu, \"%s\", \"%s\"]", i ? "," : "",
                       d.poolIndex, d.label.c_str(), d.digest.c_str());
    }
    s += "\n]\n}\n";
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    bool ok = std::fwrite(s.data(), 1, s.size(), f) == s.size();
    return std::fclose(f) == 0 && ok;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    Options o;
    if (!parseArgs(argc, argv, &o)) {
        std::fprintf(stderr,
                     "usage: goat_perfbench --workload=NAME --result=PATH "
                     "[--seed=N] [--seconds=S] [--trace=0|1] [--jobs=N] "
                     "[--work-dir=DIR] [--trace-out=PATH] [--smoke] "
                     "[--full-pool]\n");
        return 2;
    }
    if (std::string(GOAT_PERFBENCH_BUILD_TYPE) != "Release") {
        std::fprintf(stderr,
                     "goat_perfbench: built as '%s'; timings are only "
                     "reported from a Release build\n",
                     GOAT_PERFBENCH_BUILD_TYPE);
        return 3;
    }
    Workload w;
    if (!makeWorkload(o.workload, o.smoke, &w)) {
        std::fprintf(stderr, "goat_perfbench: unknown workload %s\n",
                     o.workload.c_str());
        return 2;
    }
    const int jobs = o.jobs > 0 ? o.jobs : w.jobs;

    StaticsMap statics;
    const double setup_s = timedSetup(w, &statics);
    addDigestStatics(w, statics);

    if (o.trace) {
        TracedOptions to;
        to.seconds = o.seconds;
        to.poolOffset = static_cast<size_t>(o.seed % w.pool.size());
        to.workDir = o.workDir;
        to.tracePath = o.traceOut;
        TracedOutcome t = runTraced(w, statics, to);
        return writeResult(o.resultPath, o, w, jobs, UntracedRun(), &t) ? 0
                                                                        : 1;
    }

    UntracedRun u = runUntraced(w, statics, o, jobs);
    u.metrics["setup_s"] = {setup_s, "s"};
    return writeResult(o.resultPath, o, w, jobs, u, nullptr) ? 0 : 1;
}
