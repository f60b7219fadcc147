/**
 * @file
 * Campaign checkpoint/resume: an append-only log of the merged
 * campaign state, so a campaign killed mid-flight resumes losing at
 * most one round of work, and the resumed run's merged output is
 * canonically identical to a never-killed run.
 *
 * What a checkpoint stores is deliberately cheap: the contiguous
 * merged ledger-row prefix (with each row's metrics object pre-
 * rendered to its original JSON string, so re-emitted lines stay
 * byte-identical), the merged coverage bitmap, the saturation series,
 * and the campaign tallies. Heavy state — the first bug's trace,
 * recipe, and report — is *not* stored: every iteration is a pure
 * function of (config, iteration index), so the resume rehydrates it
 * by re-running the bug iteration. Rows whose verdict is
 * a supervised crash/timeout cannot be re-run in-process; their
 * recipes are synthesized as seeded-policy recipes instead
 * (trace::Recipe::seededPolicy).
 *
 * Format (v2), line-oriented like the recipe serializer. A header,
 * then one block per checkpoint round holding only what the round
 * added:
 *
 *   # goat-checkpoint v2
 *   fingerprint <config fingerprint>
 *   row_begin              \
 *   iter 1                  | the round's new rows
 *   ...                     |
 *   metrics {"counters":{...},...}
 *   row_end                /
 *   sat 1 41 96 12 15 11 3   the round's new saturation samples
 *   executed 131           \
 *   respawns 0              |
 *   crashes 0               | O(1) summary; the last round's wins
 *   timeouts 0              |
 *   bug_iteration -1        |
 *   race_iteration -1       |
 *   stopped 0              /
 *   cov_begin                the whole merged bitmap; the last wins
 *   1 <requirement key>
 *   ...
 *   cov_end
 *   commit 64 18234          <cursor> <byte offset of this line>
 *
 * A round is appended with one write and becomes visible only through
 * its commit line. A reader takes the state as of the last complete
 * (newline-terminated) commit line and ignores the rest, a torn
 * append; a log without one is refused. Everything before that line
 * must parse, and every commit line must carry its own byte offset
 * and the row count so far, so an edited or spliced log is refused
 * rather than read at a shifted position. A fresh campaign
 * truncates the file. A resume into the same path truncates it back
 * to the last commit and appends from there; a resume into another
 * path starts it with the committed prefix, verbatim. Bytes written
 * per round are O(rows in the round + coverage universe).
 *
 * v1 files (written whole on every round: the summary with a
 * `cursor` line, the sat lines, one coverage block, then every row)
 * still parse and resume; continuing one writes the restored state as
 * the first round of a v2 log.
 *
 * Numbers parse strictly, over the whole token, and a row's outcome
 * and verdict must name a known value. The config
 * fingerprint covers every knob that changes what an iteration *is*
 * (kernel, seed base, delay bound, noise, step budget,
 * coverage/race/lint switches) but deliberately excludes the iteration
 * budget and the worker count: resuming with a larger -freq extends
 * the campaign deterministically, and jobs only affects placement,
 * never content.
 */

#ifndef GOAT_CAMPAIGN_CHECKPOINT_HH
#define GOAT_CAMPAIGN_CHECKPOINT_HH

#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "obs/ledger.hh"
#include "obs/saturation.hh"
#include "runtime/scheduler.hh"

namespace goat::campaign {

/** Row outcomes of the supervised losses (-isolate). */
inline constexpr char kCrashed[] = "crashed";
inline constexpr char kTimedOut[] = "timeout";

/**
 * Inverse of a row's outcome name: runtime::runOutcomeName, extended
 * with the supervised losses (kCrashed → Crash, kTimedOut →
 * StepBudget).
 *
 * @retval false when @p name names no outcome (@p out untouched).
 */
bool rowOutcomeFromName(const std::string &name, runtime::RunOutcome *out);

/**
 * Everything a campaign needs to continue where a checkpoint left off.
 */
struct CheckpointData
{
    /** Config fingerprint the snapshot was taken under. */
    std::string fingerprint;
    /** Last merged iteration (rows are contiguous from 1 to here). */
    int cursor = 0;
    /** Iterations executed across all workers (incl. overshoot). */
    int executed = 0;
    /** Supervisor tallies at snapshot time. */
    int respawns = 0;
    int crashes = 0;
    int timeouts = 0;
    /** First bug row (-1 = none yet). */
    int bugIteration = -1;
    /** First race row (-1 = none yet). */
    int raceIteration = -1;
    /** A canonical stop condition was hit before the snapshot. */
    bool stopped = false;
    /** Merged coverage bitmap (CoverageState::bitmapStr; "" = no -cov). */
    std::string covBitmap;
    /** Saturation series samples in iteration order. */
    std::vector<obs::SaturationSample> satSamples;
    /** The merged ledger-row prefix, iterations 1..cursor. */
    std::vector<obs::LedgerEntry> rows;
    /**
     * The committed prefix of a v2 log, byte for byte (filled by
     * parseCheckpoint; "" for a v1 file). A resume continues from it.
     */
    std::string committedLog;
};

/**
 * Fingerprint of the campaign knobs that define iteration content.
 * Excludes engine.maxIterations and jobs (see file comment).
 */
std::string configFingerprint(const CampaignConfig &cfg);

/**
 * One iteration's result as shipped over an -isolate shard pipe
 * (supervisor.hh): the ledger row (metrics pre-rendered to JSON) plus
 * the keys of the iteration's coverage delta (analysis::deltaBitmap),
 * which the parent parses back into a CoverageDelta
 * (analysis::parseBitmap). It is encoded with the checkpoint's row and
 * coverage blocks, so a row round-trips identically whether it crossed
 * a pipe or a file.
 */
struct ShardDigest
{
    obs::LedgerEntry row;
    std::string covBitmap;
};

std::string digestToString(const ShardDigest &d);
bool digestFromString(const std::string &text, ShardDigest *out);

/** Serialize a full checkpoint as a one-round v2 log. */
std::string checkpointToString(const CheckpointData &d);

/**
 * Parse a checkpoint (v1, or the committed prefix of a v2 log);
 * *err names the first problem on failure.
 */
bool parseCheckpoint(const std::string &text, CheckpointData *out,
                     std::string *err);

/** Write a one-round log atomically (base/fileio.hh). */
bool writeCheckpointFile(const std::string &path,
                         const CheckpointData &d);

/** Read and parse; *err names the problem on failure. */
bool readCheckpointFile(const std::string &path, CheckpointData *out,
                        std::string *err);

/**
 * Writer of one campaign's v2 checkpoint log. Every method returns
 * false on an I/O error; after one, the log stays closed and later
 * commits fail too (its file still ends at a readable commit, or has
 * none).
 */
class CheckpointLog
{
  public:
    CheckpointLog() = default;
    ~CheckpointLog();

    CheckpointLog(const CheckpointLog &) = delete;
    CheckpointLog &operator=(const CheckpointLog &) = delete;

    /** Start a fresh log at @p path: truncate, write the header. */
    bool create(const std::string &path, const std::string &fingerprint);

    /**
     * Continue the checkpoint @p ck, read from @p from, at @p path;
     * @p rows and @p sat are its restored rows and samples (the log
     * treats them as written). See the file comment for the cases.
     */
    bool resume(const std::string &path, const std::string &from,
                const CheckpointData &ck,
                const std::vector<obs::LedgerEntry> &rows,
                const std::vector<obs::SaturationSample> &sat);

    /** Add one folded row to the round commit() appends next. */
    void addRow(const obs::LedgerEntry &e);

    /**
     * Append one round: the rows added since the last commit, the
     * samples past what the log holds, the summary and coverage block
     * of @p d (d.rows is ignored), and the commit line.
     */
    bool commit(const CheckpointData &d,
                const std::vector<obs::SaturationSample> &sat);

  private:
    bool append(const std::string &bytes);

    int fd_ = -1;
    /** Bytes in the file (the next commit line's offset base). */
    uint64_t bytes_ = 0;
    /** Rows in the log and the open round / samples in the log. */
    size_t rows_ = 0;
    size_t sat_ = 0;
    /** The open round's serialized rows. */
    std::string round_;
};

} // namespace goat::campaign

#endif // GOAT_CAMPAIGN_CHECKPOINT_HH
