/**
 * @file
 * Shared declarations of the end-to-end benchmark harness: workload
 * definitions, the static inputs a workload builds in set-up, campaign
 * digests checked against the committed reference, and the metric sink
 * the result file is rendered from.
 *
 * The harness drives the goat libraries only through their public
 * headers (campaign::runCampaign, the goker registry, and each layer's
 * public calls in the traced rebuild); nothing under src/ is
 * instrumented for it.
 */

#ifndef GOAT_PERFBENCH_HARNESS_HH
#define GOAT_PERFBENCH_HARNESS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "goker/registry.hh"

namespace perfbench {

/** One campaign of a batch: a kernel at a delay bound. */
struct CampaignSpec
{
    const goat::goker::KernelInfo *kernel = nullptr;
    int delayBound = 0;
    /** "kernel/dN": stable identity inside a batch. */
    std::string label;
};

/**
 * A named workload. A batch is every CampaignSpec run under one seed
 * base of the pool; a run cycles through the pool from an offset the
 * --seed argument picks.
 */
struct Workload
{
    std::string name;
    int jobs = 1;
    /** Iteration budget per campaign (-freq). */
    int budget = 0;
    bool stopOnBug = true;
    bool cov = false;
    bool race = false;
    bool predict = false;
    /** Write a ledger per campaign (-ledger=). */
    bool ledger = false;
    /** Checkpoint round size (-checkpoint-every=; 0 = no checkpoint). */
    int checkpointEvery = 0;
    /** Set-up also builds lint reports and MHP site sets. */
    bool fullStatics = false;
    std::vector<CampaignSpec> campaigns;
    /** Campaign seed bases, one batch each. */
    std::vector<uint64_t> pool;
};

/**
 * Build workload @p name ("core_j1", "soak_j4" or "sweep_j4"); smoke
 * selects tiny budgets and a two-entry pool. Returns false for an
 * unknown name.
 */
bool makeWorkload(const std::string &name, bool smoke, Workload *out);

/**
 * Everything about @p w that changes campaign results except the
 * worker count; the reference is only valid for an equal string.
 */
std::string workloadConfigStr(const Workload &w);

/** The static inputs of one kernel, built in set-up. */
struct KernelStatics
{
    goat::staticmodel::CuTable cus;
    goat::staticmodel::LintReport lint;
    std::vector<goat::SourceLoc> mhpSites;
    /** FNV-1a of the kernel's MHP pair dump (full statics only). */
    uint64_t mhpPairsHash = 0;
};

using StaticsMap = std::map<const goat::goker::KernelInfo *, KernelStatics>;

/**
 * Build the static inputs of every kernel of @p w once: the CU table,
 * plus the lint report and MHP site set with fullStatics.
 */
StaticsMap buildStatics(const Workload &w);

/**
 * Digest-only static data (MHP pair hashes), computed outside the
 * timed set-up.
 */
void addDigestStatics(const Workload &w, StaticsMap &statics);

/**
 * The CLI-equivalent campaign configuration of @p spec under
 * @p seedBase. Ledger and checkpoint files go to @p workDir.
 */
goat::campaign::CampaignConfig
makeConfig(const Workload &w, const KernelStatics &statics,
           const CampaignSpec &spec, uint64_t seedBase, int jobs,
           const std::string &workDir);

/** Remove the ledger/checkpoint files a campaign appends to. */
void clearCampaignFiles(const goat::campaign::CampaignConfig &cfg);

/**
 * The canonical facts of a finished campaign that must not depend on
 * -jobs: verdict, first-bug and cutoff iteration, coverage bitmap and
 * prediction document hashes, and the race iteration.
 */
struct CampaignFacts
{
    bool bugFound = false;
    int bugIteration = -1;
    std::string verdict = "none";
    std::string outcome = "none";
    int cutoff = 0;
    int merged = 0;
    uint64_t covHash = 0;
    uint64_t predHash = 0;
    int raceIteration = -1;
    int confirmed = 0;
    double coveragePct = -1.0;
};

CampaignFacts factsOf(const goat::campaign::CampaignResult &r,
                      const Workload &w, const std::string &kernel);

/** One-line digest of @p f (plus static facts in full-statics mode). */
std::string digestStr(const CampaignFacts &f, const Workload &w,
                      const KernelStatics &statics);

/** 64-bit FNV-1a. */
uint64_t fnv1a(const std::string &s);

/** One reported metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/** Campaign digest record for the result file. */
struct DigestRecord
{
    size_t poolIndex = 0;
    std::string label;
    std::string digest;
};

/** Seconds on the steady clock. */
double nowSeconds();

/** User+system CPU time of the whole process, seconds. */
double processCpuSeconds();

/** Peak resident set size of the process so far, MiB. */
double peakRssMb();

/** Current resident set size, KiB (0 when unknowable). */
uint64_t currentRssKb();

/** Median (0 for an empty input). */
double median(std::vector<double> v);

/** Nearest-rank percentile @p p in [0, 100]. */
double percentile(std::vector<double> v, double p);

/** Inputs of a traced run. */
struct TracedOptions
{
    double seconds = 10.0;
    size_t poolOffset = 0;
    std::string workDir;
    /** Chrome trace-event output ("" = none). */
    std::string tracePath;
};

/** Outputs of a traced run. */
struct TracedOutcome
{
    Metrics metrics;
    /** Digests of the untraced campaigns the rebuild is checked against. */
    std::vector<DigestRecord> digests;
    /** Rebuilt iterations whose fingerprint/verdict matched. */
    int faithfulIterations = 0;
    /** Rebuilt iterations that diverged from runCampaignIteration. */
    int divergentIterations = 0;
    /** Rebuilt campaigns whose digest matched the real campaign's. */
    int faithfulCampaigns = 0;
    int divergentCampaigns = 0;
    std::vector<std::string> notes;
};

/**
 * The traced run: per-layer self times from a span-recorded rebuild of
 * the workload's iterations out of each layer's public calls, checked
 * against engine::runCampaignIteration and the real campaign digests.
 */
TracedOutcome runTraced(const Workload &w, const StaticsMap &statics,
                        const TracedOptions &opt);

} // namespace perfbench

#endif // GOAT_PERFBENCH_HARNESS_HH
