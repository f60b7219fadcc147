/**
 * @file
 * JSONL run ledger: one JSON object per testing iteration, appended to
 * a file as the campaign runs. The ledger makes every campaign
 * reproducible (seed + delay bound per line) and diffable across
 * builds, and is the substrate for offline trajectory analysis: each
 * line carries the iteration outcome, the offline verdict, step and
 * wall-clock costs, cumulative coverage, and the per-iteration delta
 * of every metrics-registry counter.
 *
 * Line schema (stable keys; validators live in tools/check_ledger.py
 * and tests/test_obs.cc):
 *
 *   {"iter":1,"seed":123,"delay_bound":2,"outcome":"ok",
 *    "verdict":"pass","bug":false,"steps":412,"coverage_pct":63.1,
 *    "wall_us":184,"metrics":{"counters":{...},...}}
 *
 * Campaigns (src/campaign, any `-jobs=N`) additionally tag every line
 * with the worker that executed the iteration:
 *
 *   ...,"worker":3,"wseq":17,...
 *
 * where `worker` is the 0-based worker id and `wseq` the 1-based
 * sequence number of the iteration within that worker. `iter` stays
 * the campaign-global iteration id: the campaign's merge writes rows
 * in its order as it folds them, so `iter` is contiguous from 1 while
 * each worker's `wseq` values appear in increasing order.
 *
 * Lint-guided campaigns (`-lint-guided`, src/staticmodel/lint.hh)
 * stamp `static_warnings` (the finding count seeding the priority
 * sites) on every row and `confirmed_warnings` (findings the dynamic
 * cross-check confirmed) on the bug row. Both are computed from
 * campaign-deterministic inputs, so they survive the jobs=1 vs jobs=N
 * byte-identity guarantee.
 *
 * Predicting campaigns (`-predict`, src/analysis/hb_predict.hh) stamp
 * `predicted` (the iteration trace's prediction count, zero included)
 * on every row and `predicted_confirmed` (predictions from this
 * iteration that a synthesized replay reproduced) on the rows that
 * contributed confirmed predictions to the merged report. Both are
 * pure functions of the iteration, preserving byte-identity.
 *
 * Coverage-measured rows additionally carry the cumulative
 * saturation counts `covered`/`req_total` (obs/saturation.hh), and
 * `-profile` campaigns a per-row `profile` object with per-stage
 * total/count/sum_ns from the stage profiler (obs/profile.hh). The
 * saturation counts and the profile `total`/`count` fields are
 * deterministic; `sum_ns` is host timing noise, which
 * tools/check_ledger.py strips (like `wall_us`) before comparing
 * ledgers across -jobs values.
 */

#ifndef GOAT_OBS_LEDGER_HH
#define GOAT_OBS_LEDGER_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/metrics.hh"

namespace goat::obs {

/**
 * One ledger line's worth of data.
 */
struct LedgerEntry
{
    /** 1-based iteration index within the campaign. */
    int iteration = 0;
    uint64_t seed = 0;
    int delayBound = 0;
    /** Runtime outcome name ("ok", "global_deadlock", ...). */
    std::string outcome;
    /** Offline verdict name ("pass", "partial_deadlock", ...). */
    std::string verdict;
    bool bug = false;
    uint64_t steps = 0;
    /** Cumulative coverage after this iteration (-1 = not measured). */
    double coveragePct = -1.0;
    /** Host wall-clock cost of the execution + analysis, microseconds. */
    uint64_t wallMicros = 0;
    /** Campaign worker that ran the iteration (-1 = untagged row). */
    int worker = -1;
    /** 1-based iteration sequence within the worker (with worker). */
    int workerSeq = 0;
    /**
     * Repro recipe written for this (bug) iteration ("" = none).
     * Emitted as "recipe"; only ever set on bug rows.
     */
    std::string recipePath;
    /**
     * Yield count of the minimized recipe (-1 = not minimized).
     * Emitted as "min_yields"; only ever set on bug rows.
     */
    int minimizedYields = -1;
    /**
     * Static lint findings feeding the campaign (-1 = lint bridge
     * off). Emitted as "static_warnings" on every row of a
     * lint-guided campaign.
     */
    int staticWarnings = -1;
    /**
     * Findings confirmed by the dynamic cross-check (-1 = not
     * computed). Emitted as "confirmed_warnings"; only ever set on
     * bug rows.
     */
    int confirmedWarnings = -1;
    /**
     * Predictive-analysis finding count over this iteration's trace
     * (-1 = -predict off). Emitted as "predicted" on every row of a
     * predicting campaign, including zero counts.
     */
    int predicted = -1;
    /**
     * Predictions from this iteration that a synthesized-recipe
     * replay confirmed (-1 = not computed). Emitted as
     * "predicted_confirmed"; only ever set on rows whose iteration
     * contributed confirmed predictions to the merged report.
     */
    int predictedConfirmed = -1;
    /**
     * Cumulative covered / total coverage-requirement counts after
     * this iteration (-1 = coverage not measured). Emitted as
     * "covered"/"req_total"; both are derived from the canonical
     * merged coverage fold, so they are worker-count independent.
     */
    int64_t satCovered = -1;
    int64_t satTotal = -1;
    /**
     * Stage-profiler delta over this iteration, rendered once by
     * ProfileSnapshot::jsonRowStr ("" = no -profile). Emitted as
     * "profile" with per-stage total/count/sum_ns (no buckets).
     * `total` and `count` are deterministic; `sum_ns` is host noise,
     * stripped by check_ledger.py's canonical view.
     */
    std::string profileJson;
    /**
     * Supervised-exit classification ("" = not a supervised crash).
     * Emitted as "crash_cause" ("sigsegv", "sigabrt", "oom",
     * "exit_N", ...); only ever set on crash-verdict rows produced by
     * the campaign supervisor (src/campaign/supervisor.hh).
     */
    std::string crashCause;
    /**
     * Shard respawns charged to this iteration (-1 = not supervised).
     * Emitted as "respawns". The value depends on shard placement, so
     * check_ledger.py strips it from the canonical cross-jobs view.
     */
    int respawns = -1;
    /**
     * Pre-rendered metrics JSON ("" = render metricsDelta). Rows
     * rehydrated from a checkpoint or received from a supervised
     * shard carry the metrics object as the string it was originally
     * rendered to, so the emitted line stays byte-identical.
     */
    std::string metricsJson;
    /** Metrics-registry delta over this iteration. */
    Snapshot metricsDelta;
};

/** Render one entry as a single-line JSON object (no newline). */
std::string ledgerEntryJson(const LedgerEntry &e);

/**
 * Append-only JSONL writer. append() writes and flushes every line as
 * it is appended, so the file is complete up to the last appended row
 * even if the process crashes or is killed. A campaign's fold stages
 * its rows instead: stage() renders a row straight into the write
 * buffer, which is written with one write and one flush every
 * kStagedRows rows and on flush(). The fold flushes before a
 * checkpoint commit records bytes(), and before it sleeps, so the rows
 * on disk never lag a commit and keep streaming while the campaign
 * runs.
 */
class RunLedger
{
  public:
    /** Rows the write buffer holds before stage() writes them. */
    static constexpr size_t kStagedRows = 256;

    /** Open @p path for appending ("" = disabled, every call no-ops). */
    explicit RunLedger(const std::string &path);
    /** Writes the staged rows. */
    ~RunLedger();

    RunLedger(const RunLedger &) = delete;
    RunLedger &operator=(const RunLedger &) = delete;

    /** False when a path was given but could not be opened. */
    bool ok() const { return path_.empty() || f_ != nullptr; }

    /** True when lines are actually being written. */
    bool enabled() const { return f_ != nullptr; }

    /** Write one entry as one line (after any staged rows). */
    void append(const LedgerEntry &e);

    /**
     * Render @p e as one line at the end of the write buffer; write the
     * buffer once it holds kStagedRows rows.
     */
    void stage(const LedgerEntry &e);

    /** Write the staged rows with one write and one flush. */
    void flush();

    /**
     * Copy bytes [@p from, @p to) of the file at @p path to the end of
     * this one, after any staged rows, and flush (a resumed campaign's
     * committed rows, from the ledger its checkpoint recorded). False
     * on a short read or a failed write.
     */
    bool appendRange(const std::string &path, uint64_t from, uint64_t to);

    /** Lines written to the file (staged rows count once flushed). */
    size_t linesWritten() const { return lines_; }

    /** Bytes in the file: where the next written line starts. */
    uint64_t bytes() const { return bytes_; }

  private:
    /** Write @p n bytes of @p data and flush; false on a short write. */
    bool write(const char *data, size_t n);

    std::string path_;
    std::FILE *f_ = nullptr;
    size_t lines_ = 0;
    uint64_t bytes_ = 0;
    /** Staged rows, rendered; the buffer keeps its capacity. */
    std::string buf_;
    size_t staged_ = 0;
};

} // namespace goat::obs

#endif // GOAT_OBS_LEDGER_HH
