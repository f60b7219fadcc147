/**
 * @file
 * Workload table, set-up of the static inputs, CLI-equivalent campaign
 * configurations, and campaign digests.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>

#include "analysis/deadlock.hh"
#include "base/fmt.hh"
#include "harness.hh"

namespace perfbench {

using namespace goat;

namespace {

/** The two Fig. 6 coverage kernels the soak runs. */
const char *kSoakKernels[] = {"etcd_7443", "kubernetes_11298"};

/** Campaign seed bases 1..n, so any batch reproduces with goat -seed=N. */
std::vector<uint64_t>
seedPool(size_t n)
{
    std::vector<uint64_t> pool;
    for (size_t i = 1; i <= n; ++i)
        pool.push_back(i);
    return pool;
}

void
addSpecs(Workload &w, const std::vector<const goker::KernelInfo *> &kernels,
         const std::vector<int> &delays)
{
    for (const goker::KernelInfo *k : kernels) {
        for (int d : delays) {
            CampaignSpec s;
            s.kernel = k;
            s.delayBound = d;
            s.label = k->name + "/d" + std::to_string(d);
            w.campaigns.push_back(std::move(s));
        }
    }
}

} // namespace

bool
makeWorkload(const std::string &name, bool smoke, Workload *out)
{
    goker::KernelRegistry &reg = goker::KernelRegistry::instance();
    Workload w;
    w.name = name;
    if (name == "core_j1") {
        // Runtime, ring flush and Procedure 1 only: the fixed budget
        // and -keep-going give every batch the same iteration count.
        w.jobs = 1;
        w.budget = smoke ? 5 : 200;
        w.stopOnBug = false;
        addSpecs(w, reg.all(), {2});
        w.pool = seedPool(smoke ? 2 : 8);
    } else if (name == "soak_j4") {
        // Long -cov -race campaigns with a ledger and checkpoint rounds:
        // the coverage fold, row retention and checkpoint rewrites
        // dominate, and memory grows with the iteration count.
        w.jobs = 4;
        w.budget = smoke ? 64 : 4000;
        w.stopOnBug = false;
        w.cov = true;
        w.race = true;
        w.ledger = true;
        w.checkpointEvery = smoke ? 16 : 1000;
        std::vector<const goker::KernelInfo *> kernels;
        for (const char *k : kSoakKernels) {
            const goker::KernelInfo *info = reg.find(k);
            if (!info)
                return false;
            kernels.push_back(info);
        }
        addSpecs(w, kernels, {2});
        w.pool = seedPool(2);
    } else if (name == "sweep_j4") {
        // The Table IV shape: every kernel at D = 0..4 until the first
        // bug; most campaigns end within a few iterations, so per-
        // campaign fixed costs dominate the time to a verdict.
        w.jobs = 4;
        w.budget = smoke ? 20 : 1000;
        w.stopOnBug = true;
        w.cov = true;
        w.race = true;
        w.predict = true;
        w.fullStatics = true;
        addSpecs(w, reg.all(), {0, 1, 2, 3, 4});
        w.pool = seedPool(smoke ? 2 : 4);
    } else {
        return false;
    }
    *out = std::move(w);
    return true;
}

std::string
workloadConfigStr(const Workload &w)
{
    return strFormat("budget=%d stop_on_bug=%d cov=%d race=%d predict=%d "
                     "ledger=%d checkpoint_every=%d full_statics=%d "
                     "campaigns=%zu pool=%zu",
                     w.budget, w.stopOnBug, w.cov, w.race, w.predict,
                     w.ledger, w.checkpointEvery, w.fullStatics,
                     w.campaigns.size(), w.pool.size());
}

StaticsMap
buildStatics(const Workload &w)
{
    StaticsMap out;
    for (const CampaignSpec &s : w.campaigns) {
        if (out.count(s.kernel))
            continue;
        KernelStatics &ks = out[s.kernel];
        ks.cus = goker::kernelCuTable(*s.kernel);
        if (w.fullStatics) {
            ks.lint = goker::kernelLintReport(*s.kernel);
            ks.mhpSites = goker::kernelMhpSites(*s.kernel);
        }
    }
    return out;
}

void
addDigestStatics(const Workload &w, StaticsMap &statics)
{
    if (!w.fullStatics)
        return;
    for (auto &[kernel, ks] : statics)
        ks.mhpPairsHash = fnv1a(goker::kernelMhpPairsStr(*kernel));
}

campaign::CampaignConfig
makeConfig(const Workload &w, const KernelStatics &statics,
           const CampaignSpec &spec, uint64_t seedBase, int jobs,
           const std::string &workDir)
{
    // Mirrors tools/goat_main.cc runKernel() for the flags the workload
    // sets; the coverage threshold is the CLI's (never reached).
    campaign::CampaignConfig c;
    engine::GoatConfig &e = c.engine;
    e.delayBound = spec.delayBound;
    e.seedBase = seedBase;
    e.maxIterations = w.budget;
    e.collectCoverage = w.cov;
    e.raceDetect = w.race;
    e.covThreshold = 200.0;
    e.stopOnBug = w.stopOnBug;
    e.predict = w.predict;
    e.staticModel = statics.cus;
    c.jobs = jobs;
    c.programName = spec.kernel->name;
    std::string stem = workDir + "/" + spec.kernel->name;
    if (w.ledger)
        e.ledgerPath = stem + ".ledger.jsonl";
    if (w.checkpointEvery > 0) {
        c.checkpointPath = stem + ".checkpoint";
        c.checkpointEvery = w.checkpointEvery;
    }
    return c;
}

void
clearCampaignFiles(const campaign::CampaignConfig &cfg)
{
    if (!cfg.engine.ledgerPath.empty())
        std::remove(cfg.engine.ledgerPath.c_str());
    if (!cfg.checkpointPath.empty())
        std::remove(cfg.checkpointPath.c_str());
}

CampaignFacts
factsOf(const campaign::CampaignResult &r, const Workload &w,
        const std::string &kernel)
{
    CampaignFacts f;
    const engine::GoatResult &m = r.merged;
    f.bugFound = m.bugFound;
    f.bugIteration = m.bugIteration;
    if (m.bugFound) {
        f.verdict = analysis::verdictName(m.firstBug.verdict);
        f.outcome = runtime::runOutcomeName(m.firstBugExec.outcome);
    }
    f.cutoff = r.cutoffIteration;
    f.merged = static_cast<int>(m.iterations.size());
    if (w.cov)
        f.covHash = fnv1a(r.coverage.bitmapStr());
    if (w.predict)
        f.predHash = fnv1a(r.predict.report.jsonDocStr(kernel));
    f.raceIteration = m.raceIteration;
    f.confirmed = r.predict.confirmedCount;
    f.coveragePct = m.finalCoverage;
    return f;
}

std::string
digestStr(const CampaignFacts &f, const Workload &w,
          const KernelStatics &statics)
{
    std::string s = strFormat(
        "v=%s o=%s bug=%d cut=%d n=%d race=%d", f.verdict.c_str(),
        f.outcome.c_str(), f.bugIteration, f.cutoff, f.merged,
        f.raceIteration);
    if (w.cov)
        s += strFormat(" cov=%016llx",
                       static_cast<unsigned long long>(f.covHash));
    if (w.predict)
        s += strFormat(" pred=%016llx conf=%d",
                       static_cast<unsigned long long>(f.predHash),
                       f.confirmed);
    if (w.fullStatics)
        s += strFormat(" lint=%zu mhp=%016llx", statics.lint.size(),
                       static_cast<unsigned long long>(
                           statics.mhpPairsHash));
    return s;
}

uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

uint64_t
currentRssKb()
{
    std::ifstream in("/proc/self/statm");
    uint64_t size = 0, resident = 0;
    if (!(in >> size >> resident))
        return 0;
    return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE)) / 1024;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

} // namespace perfbench
