/**
 * @file
 * Atomic artifact writes, and file identity (sameFile).
 *
 * Every whole-file artifact the toolchain produces (-trace/-html/
 * -record/-chrome-trace/-saturation-out/-predict-out/-lint-out/
 * -status-out, and the first block of a resumed -checkpoint log) goes
 * through atomicWriteFile: the content is written to
 * a sibling `.tmp` file and renamed over the target, so readers (and
 * resumed campaigns) never observe a torn file. One bounded retry
 * absorbs a transient EINTR/ENOSPC; persistent failure returns false
 * and the callers keep the exit-1 + stderr contract.
 */

#ifndef GOAT_BASE_FILEIO_HH
#define GOAT_BASE_FILEIO_HH

#include <string>

namespace goat {

/**
 * Atomically replace @p path with @p content (tmp file + rename).
 * Retries the write once on EINTR/ENOSPC before giving up. Returns
 * false on any persistent I/O failure (tmp unlinked best-effort).
 */
bool atomicWriteFile(const std::string &path, const std::string &content);

/** True when @p a and @p b name the same existing file (device and
 *  inode). */
bool sameFile(const std::string &a, const std::string &b);

} // namespace goat

#endif // GOAT_BASE_FILEIO_HH
