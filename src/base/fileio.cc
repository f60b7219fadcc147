#include "base/fileio.hh"

#include <cerrno>
#include <cstdio>

#include <sys/stat.h>

namespace goat {

namespace {

/** One write-and-close attempt of @p content into the open file. */
bool
writeAll(std::FILE *f, const std::string &content)
{
    size_t n = std::fwrite(content.data(), 1, content.size(), f);
    bool ok = n == content.size();
    return std::fclose(f) == 0 && ok;
}

} // namespace

bool
atomicWriteFile(const std::string &path, const std::string &content)
{
    std::string tmp = path + ".tmp";
    bool ok = false;
    // A transient EINTR (signal during write) or ENOSPC (a reaper may
    // have freed space) gets exactly one more attempt.
    for (int attempt = 0; attempt < 2 && !ok; ++attempt) {
        errno = 0;
        std::FILE *f = std::fopen(tmp.c_str(), "w");
        if (!f) {
            if (errno == EINTR || errno == ENOSPC)
                continue;
            return false;
        }
        ok = writeAll(f, content);
        if (!ok && errno != EINTR && errno != ENOSPC)
            break;
    }
    if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
sameFile(const std::string &a, const std::string &b)
{
    struct stat x, y;
    return ::stat(a.c_str(), &x) == 0 && ::stat(b.c_str(), &y) == 0 &&
           x.st_dev == y.st_dev && x.st_ino == y.st_ino;
}

} // namespace goat
