/**
 * @file
 * Campaign checkpoint/resume: periodic snapshots of the merged
 * campaign state, written atomically (tmp+rename) so a campaign killed
 * mid-flight resumes losing at most one round of work, and the resumed
 * run's merged output is canonically identical to a never-killed run.
 *
 * What a checkpoint stores is deliberately cheap: the contiguous
 * merged ledger-row prefix (with each row's metrics object pre-
 * rendered to its original JSON string, so re-emitted lines stay
 * byte-identical), the merged coverage bitmap, the saturation series,
 * and the campaign tallies. Heavy state — the first bug's trace,
 * recipe, and report — is *not* stored: every iteration is a pure
 * function of (config, iteration index), so the finalize step
 * rehydrates it by re-running the bug iteration. Rows whose verdict is
 * a supervised crash/timeout cannot be re-run in-process; their
 * recipes are synthesized as seeded-policy recipes instead
 * (trace::Recipe::seededPolicy).
 *
 * Format, line-oriented like the recipe serializer:
 *
 *   # goat-checkpoint v1
 *   fingerprint <config fingerprint>
 *   cursor 128
 *   executed 131
 *   respawns 0
 *   crashes 0
 *   timeouts 0
 *   bug_iteration -1
 *   race_iteration -1
 *   stopped 0
 *   sat 3 41 96 12 15 11 3
 *   cov_begin
 *   1 <requirement key>
 *   ...
 *   cov_end
 *   row_begin
 *   iter 1
 *   ...
 *   metrics {"counters":{...},...}
 *   row_end
 *
 * The config fingerprint covers every knob that changes what an
 * iteration *is* (kernel, seed base, delay bound, noise, step budget,
 * coverage/race/lint switches) but deliberately excludes the iteration
 * budget and the worker count: resuming with a larger -freq extends
 * the campaign deterministically, and jobs only affects placement,
 * never content.
 */

#ifndef GOAT_CAMPAIGN_CHECKPOINT_HH
#define GOAT_CAMPAIGN_CHECKPOINT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "obs/ledger.hh"
#include "obs/saturation.hh"

namespace goat::campaign {

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
};

/**
 * Fingerprint of the campaign knobs that define iteration content.
 * Excludes engine.maxIterations and jobs (see file comment).
 */
std::string configFingerprint(const CampaignConfig &cfg);

/** Split @p text into lines (trailing newlines stripped). */
std::vector<std::string> splitLines(const std::string &text);

/**
 * Serialize one ledger row as a row_begin/row_end block. Shared with
 * the supervisor's shard-digest wire protocol (supervisor.hh), so a
 * row round-trips identically whether it crossed a pipe or a file.
 */
void serializeRow(std::ostream &os, const obs::LedgerEntry &e);

/**
 * Parse one row block from @p lines starting at *idx (which must point
 * at the "row_begin" line); *idx is advanced past "row_end".
 * @retval false on malformed input.
 */
bool parseRowLines(const std::vector<std::string> &lines, size_t *idx,
                   obs::LedgerEntry *out);

/** Serialize a full checkpoint. */
std::string checkpointToString(const CheckpointData &d);

/**
 * Serialize a checkpoint whose row prefix is @p rows (d.rows is
 * ignored): the campaign passes its live row vector by reference
 * instead of copying it into @p d every round.
 */
std::string checkpointToString(const CheckpointData &d,
                               const std::vector<obs::LedgerEntry> &rows);

/** Parse a full checkpoint; *err names the first problem on failure. */
bool parseCheckpoint(const std::string &text, CheckpointData *out,
                     std::string *err);

/** Write atomically (base/fileio.hh). @return false on I/O error. */
bool writeCheckpointFile(const std::string &path,
                         const CheckpointData &d);

/** Write atomically with the row prefix @p rows (d.rows is ignored). */
bool writeCheckpointFile(const std::string &path, const CheckpointData &d,
                         const std::vector<obs::LedgerEntry> &rows);

/** Read and parse; *err names the problem on failure. */
bool readCheckpointFile(const std::string &path, CheckpointData *out,
                        std::string *err);

} // namespace goat::campaign

#endif // GOAT_CAMPAIGN_CHECKPOINT_HH
