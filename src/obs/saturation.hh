/**
 * @file
 * Coverage-saturation timeline: the per-iteration cumulative
 * coverage-requirement counts (the paper's Fig. 6 / Table I feedback
 * signal), sampled into a compact series as the campaign merge folds
 * coverage in canonical iteration order.
 *
 * Because every sample is derived from the *merged* coverage fold —
 * which is a set union folded in iteration order, independent of the
 * worker count — the series is byte-identical for -jobs=1 and
 * -jobs=N, and check_ledger.py holds it to that.
 *
 * Emission formats:
 *   - JSONL (`-saturation-out=PATH`): one object per sample,
 *       {"iter":3,"covered":41,"total":96,"pct":42.708,
 *        "blocked":12,"unblocking":15,"nop":11,"blocking":3}
 *   - standalone HTML (`PATH + ".html"`): a dependency-free inline-SVG
 *     chart of covered/total over iterations, answering "did the
 *     priority-site policy beat uniform" from any campaign run.
 */

#ifndef GOAT_OBS_SATURATION_HH
#define GOAT_OBS_SATURATION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/coverage.hh"

namespace goat::obs {

/** One cumulative coverage observation after a given iteration. */
struct SaturationSample
{
    /** 1-based campaign iteration the sample follows. */
    int iter = 0;
    uint64_t covered = 0;
    uint64_t total = 0;
    /** Covered instances per behaviour class (Table I columns). */
    uint64_t blocked = 0;
    uint64_t unblocking = 0;
    uint64_t nop = 0;
    uint64_t blocking = 0;

    double
    pct() const
    {
        return total ? 100.0 * static_cast<double>(covered) /
                           static_cast<double>(total)
                     : 100.0;
    }
};

/**
 * The saturation series of one campaign. Samples are appended in
 * iteration order by the (single-threaded) campaign merge; rendering
 * and file emission happen after the campaign completes.
 */
class SaturationSeries
{
  public:
    /** Sample @p cov as the cumulative state after iteration @p iter. */
    void sample(int iter, const analysis::CoverageState &cov);

    /** Re-append a previously taken sample (checkpoint restore). */
    void appendSample(const SaturationSample &s) { samples_.push_back(s); }

    const std::vector<SaturationSample> &samples() const { return samples_; }

    bool empty() const { return samples_.empty(); }

    /** Canonical JSONL encoding (one line per sample, trailing \n). */
    std::string jsonlStr() const;

    /** Standalone HTML report (inline SVG, no external assets). */
    std::string htmlStr(const std::string &title) const;

    /**
     * Write the JSONL series to @p path and the HTML report to
     * @p path + ".html". Returns false when either file cannot be
     * written (the caller owns the exit-1 + stderr contract).
     */
    bool writeFiles(const std::string &path,
                    const std::string &title) const;

  private:
    std::vector<SaturationSample> samples_;
};

} // namespace goat::obs

#endif // GOAT_OBS_SATURATION_HH
