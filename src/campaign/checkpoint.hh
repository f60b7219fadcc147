/**
 * @file
 * Campaign checkpoint/resume: an append-only log of the merged
 * campaign state, so a campaign killed mid-flight resumes losing at
 * most one round of work, and the resumed run's merged output is
 * canonically identical to a never-killed run.
 *
 * The ledger holds the rows; the checkpoint holds only fold state.
 * Each folded row is written once, as its ledger line, and the log
 * records where in the ledger the campaign's rows are, plus one
 * compact line per row with what a resume reads back: the iteration
 * summary, the progress tallies, the saturation sample, and what a
 * supervised loss needs to rebuild its report. Heavy state (the first
 * bug's trace, recipe and report) is not stored: every iteration is a
 * pure function of (config, iteration index), so the resume
 * rehydrates it by re-running the bug iteration. Rows whose verdict
 * is a supervised crash/timeout cannot be re-run in-process; their
 * recipes are synthesized as seeded-policy recipes instead
 * (trace::Recipe::seededPolicy).
 *
 * Format (v3), line-oriented like the recipe serializer. A header,
 * then one block per checkpoint round holding only what the round
 * added:
 *
 *   # goat-checkpoint v3
 *   fingerprint <config fingerprint>
 *   ledger 0 /abs/run.jsonl   the ledger and the offset of the
 *                             campaign's first row (no line: none)
 *   row 1 ok pass 0 412 184 41 96 12 15 11 3
 *   ...                       the round's rows, one line each
 *   state 64 0 0 0 2 -1 0 91233
 *   cov_begin                 requirement lines new since the last
 *   1 <requirement key>       commit (none new: no block)
 *   cov_end
 *   commit 64 18234           <cursor> <byte offset of this line>
 *
 * A row line is `row <iter> <outcome> <verdict> <bug 0|1> <steps>
 * <wall_us>`, then, when coverage is measured, the row's saturation
 * sample `<covered> <total> <blocked> <unblocking> <nop> <blocking>`
 * (coverage_pct is rebuilt as 100*covered/total, like
 * CoverageState::percent), then, on a supervised loss, `<respawns>
 * <crash cause, - for none>`. The state line is `state <executed>
 * <respawns> <crashes> <timeouts> <bug_iteration> <race_iteration>
 * <stopped 0|1> <ledger end, -1 without a ledger>`: the tallies as of
 * the commit, and the ledger's size after the round's rows, which the
 * fold flushes before it commits. The coverage blocks of all rounds
 * together are the merged bitmap.
 *
 * A resume writes no row again. With -ledger= naming the recorded
 * file it truncates that file to the committed end and appends from
 * there; with another path it copies the recorded [start, end) bytes
 * into it first. Either way the ledger then holds the campaign's rows
 * from 1, once. A resume that writes another ledger, or none, rebinds
 * the log in its first round (`ledger <start> <path>`, or `ledger
 * none`); the last binding before a commit holds. A resume is refused
 * before it writes any file when the recorded ledger is missing,
 * shorter than the committed end, or does not hold rows 1..cursor in
 * [start, end) (its line at start is not row 1's, or its last line
 * before end not row cursor's), or when -ledger= is given and the log
 * recorded none: a resume with -ledger= needs the original ledger.
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
 * per round are O(rows in the round + coverage lines new in it).
 *
 * v2 logs (each round's rows as row_begin/row_end blocks carrying the
 * whole ledger row, metrics object included, a summary line per key
 * and the whole bitmap) and v1 files (one round rewritten whole, with
 * a `cursor` line) still parse and resume: their rows are written to
 * the ledger again, and continuing one writes the restored state as
 * the first round of a v3 log. checkpointToString still renders the
 * v2 format (the shard digest uses its row block).
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

#include <cstdint>
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

/** Where a campaign's rows are in its ledger file. */
struct LedgerSpan
{
    /** Absolute path of the ledger ("" = the campaign writes none). */
    std::string path;
    /** Offset of the campaign's first row (earlier content precedes
     *  it: the ledger appends across invocations). */
    uint64_t start = 0;
    /** End of the last committed row. */
    uint64_t end = 0;
};

/**
 * Everything a campaign needs to continue where a checkpoint left off.
 */
struct CheckpointData
{
    /** Format of the log it was read from (1, 2 or 3). */
    int version = 3;
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
    /**
     * The merged row prefix, iterations 1..cursor: whole ledger rows
     * from a v1/v2 log, the row lines' fields from a v3 log.
     */
    std::vector<obs::LedgerEntry> rows;
    /** The ledger holding the rows (v3; path "" = none). */
    LedgerSpan ledger;
    /**
     * The committed prefix of a v2/v3 log, byte for byte (filled by
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

/**
 * Serialize a full checkpoint as a one-round v2 log (whole rows, read
 * back by parseCheckpoint like any v2 log).
 */
std::string checkpointToString(const CheckpointData &d);

/**
 * Parse a checkpoint (v1, or the committed prefix of a v2/v3 log);
 * *err names the first problem on failure.
 */
bool parseCheckpoint(const std::string &text, CheckpointData *out,
                     std::string *err);

/** Write a one-round v2 log atomically (base/fileio.hh). */
bool writeCheckpointFile(const std::string &path,
                         const CheckpointData &d);

/** Read and parse; *err names the problem on failure. */
bool readCheckpointFile(const std::string &path, CheckpointData *out,
                        std::string *err);

/**
 * Writer of one campaign's v3 checkpoint log. Every method returns
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

    /**
     * Start a fresh log at @p path, bound to @p ledger (its path and
     * start): truncate, write the header.
     */
    bool create(const std::string &path, const std::string &fingerprint,
                const LedgerSpan &ledger);

    /**
     * Continue the v3 checkpoint @p ck, read from @p from, at @p path:
     * in place (truncated to its last commit) or as a copy of its
     * committed prefix.
     */
    bool resume(const std::string &path, const std::string &from,
                const CheckpointData &ck);

    /**
     * Start @p path as a one-round v3 log of the restored v1/v2 state
     * @p ck, its rows in @p ck.ledger, written atomically.
     */
    bool migrate(const std::string &path, const CheckpointData &ck);

    /**
     * Add one folded row, with its saturation sample @p sat (null
     * without coverage), to the round commit() appends next.
     */
    void addRow(const obs::LedgerEntry &e,
                const obs::SaturationSample *sat);

    /**
     * Append one round: a new binding when d.ledger names another
     * ledger than the log's, the rows added since the last commit, the
     * state line and the coverage lines of @p d new since the last
     * commit (d.rows and d.satSamples are ignored), and the commit
     * line.
     */
    bool commit(const CheckpointData &d);

  private:
    bool append(const std::string &bytes);
    /** Open @p path for appending, @p size bytes long. */
    bool reopen(const std::string &path, uint64_t size);

    int fd_ = -1;
    /** Bytes in the file (the next commit line's offset base). */
    uint64_t bytes_ = 0;
    /** Rows in the log and the open round. */
    size_t rows_ = 0;
    /** The ledger the log is bound to (path and start). */
    LedgerSpan ledger_;
    /** The bitmap as of the last commit. */
    std::string bitmap_;
    /** The open round's row lines. */
    std::string round_;
};

} // namespace goat::campaign

#endif // GOAT_CAMPAIGN_CHECKPOINT_HH
