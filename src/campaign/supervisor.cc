#include "campaign/supervisor.hh"

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>
#include <vector>

#include "base/fmt.hh"
#include "base/interrupt.hh"
#include "base/logging.hh"

namespace goat::campaign {

namespace {

/** Shard exit code meaning "allocation limit hit" (see mem limit). */
constexpr int kOomExitCode = 77;

/** Frames larger than this mean a corrupt stream, not a real result. */
constexpr uint32_t kMaxFrameLen = 64u << 20;

using std::chrono::steady_clock;

// ---------------------------------------------------------------- wire

/** write() the whole buffer, riding out EINTR/short writes. */
bool
writeAll(int fd, const void *data, size_t n)
{
    const char *p = static_cast<const char *>(data);
    while (n > 0) {
        ssize_t w = ::write(fd, p, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += w;
        n -= static_cast<size_t>(w);
    }
    return true;
}

/** Send one frame, with one write: 4-byte LE payload length, then
 *  type + body. */
bool
sendFrame(int fd, char type, const std::string &body)
{
    const uint32_t len = static_cast<uint32_t>(body.size() + 1);
    std::string frame = {static_cast<char>(len & 0xff),
                         static_cast<char>((len >> 8) & 0xff),
                         static_cast<char>((len >> 16) & 0xff),
                         static_cast<char>((len >> 24) & 0xff), type};
    frame += body;
    return writeAll(fd, frame.data(), frame.size());
}

struct Frame
{
    char type = 0;
    std::string body;
};

/**
 * Pop every complete frame off the front of @p buf.
 * @retval false on a corrupt stream (absurd length); buf is cleared.
 */
bool
parseFrames(std::string &buf, std::vector<Frame> *out)
{
    for (;;) {
        if (buf.size() < 4)
            return true;
        const unsigned char *h =
            reinterpret_cast<const unsigned char *>(buf.data());
        uint32_t len = static_cast<uint32_t>(h[0]) |
                       static_cast<uint32_t>(h[1]) << 8 |
                       static_cast<uint32_t>(h[2]) << 16 |
                       static_cast<uint32_t>(h[3]) << 24;
        if (len == 0 || len > kMaxFrameLen) {
            buf.clear();
            return false;
        }
        if (buf.size() < 4 + static_cast<size_t>(len))
            return true;
        Frame f;
        f.type = buf[4];
        f.body.assign(buf, 5, len - 1);
        out->push_back(std::move(f));
        buf.erase(0, 4 + static_cast<size_t>(len));
    }
}

// --------------------------------------------------------------- child

/**
 * The shard process: run @p body on the owed iterations ((i - start) %
 * jobs == id) and ship one 'R' frame per result, each announced by a
 * 'B' frame (the parent's watchdog anchor). Runs post-fork; exits,
 * never returns.
 */
[[noreturn]] void
runShardChild(const CampaignConfig &cfg, const ShardBody &body,
              int shard_id, int start_iter, int stride, int start_wseq,
              int wr, int ctl)
{
    // The parent's pending SIGINT (if any) predates the fork; children
    // get their own flag, set fresh if the process group is signalled.
    clearInterrupt();
    ::signal(SIGPIPE, SIG_IGN);
    int fl = ::fcntl(ctl, F_GETFL, 0);
    ::fcntl(ctl, F_SETFL, fl | O_NONBLOCK);

    if (cfg.memLimitMB > 0) {
        struct rlimit rl;
        rl.rlim_cur = rl.rlim_max =
            static_cast<rlim_t>(cfg.memLimitMB) << 20;
        ::setrlimit(RLIMIT_AS, &rl);
        // operator new failing under the limit exits with the OOM
        // marker instead of throwing into arbitrary kernel code.
        std::set_new_handler([] { _exit(kOomExitCode); });
    }

    int wseq = start_wseq;
    for (int iter = start_iter; iter <= cfg.engine.maxIterations;
         iter += stride) {
        char b;
        ssize_t n = ::read(ctl, &b, 1);
        if (n >= 0)
            break; // stop byte, or EOF: the parent is gone
        if (interruptRequested())
            break;
        if (!sendFrame(wr, 'B', strFormat("%d", iter)))
            break;
        std::string result = body(iter, shard_id, wseq++);
        if (result.empty() || !sendFrame(wr, 'R', result))
            break;
    }
    sendFrame(wr, 'D', "");
    _exit(0);
}

// -------------------------------------------------------------- parent

/** Parent-side state of one shard. */
struct ShardProc
{
    int id = 0;
    pid_t pid = -1;
    /** Result pipe, read end (O_NONBLOCK) / control pipe, write end. */
    int rd = -1;
    int wr = -1;
    /** Partial-frame accumulation buffer. */
    std::string buf;
    /** Iteration announced by the last 'B' frame (0 = none). */
    int inFlight = 0;
    /** Watchdog armed for inFlight. */
    bool armed = false;
    steady_clock::time_point deadline{};
    /** The watchdog killed this incarnation. */
    bool timedOut = false;
    /** Next iteration this shard owes. */
    int nextIter = 0;
    /** wseq the next iteration gets (survives respawns: the ledger
     * validator holds per-worker wseq to be monotone). */
    int nextWseq = 1;
    int respawnsUsed = 0;
    bool done = false;
    /** read() hit EOF on the result pipe. */
    bool rdEof = false;
};

void
closeShardFds(ShardProc &sp)
{
    if (sp.rd >= 0)
        ::close(sp.rd);
    if (sp.wr >= 0)
        ::close(sp.wr);
    sp.rd = -1;
    sp.wr = -1;
}

/**
 * Fork one shard continuing at sp.nextIter/sp.nextWseq. The child
 * closes every other shard's pipe ends so each pipe's EOF tracks its
 * own shard's lifetime.
 */
bool
spawnShard(const CampaignConfig &cfg, const ShardBody &body,
           std::vector<ShardProc> &shards, ShardProc &sp)
{
    int data[2] = {-1, -1};
    int ctl[2] = {-1, -1};
    pid_t pid = -1;
    if (::pipe(data) != 0 || ::pipe(ctl) != 0 || (pid = ::fork()) < 0) {
        for (int fd : {data[0], data[1], ctl[0], ctl[1]})
            if (fd >= 0)
                ::close(fd);
        return false;
    }
    if (pid == 0) {
        ::close(data[0]);
        ::close(ctl[1]);
        for (ShardProc &other : shards)
            if (other.id != sp.id)
                closeShardFds(other);
        runShardChild(cfg, body, sp.id, sp.nextIter,
                      static_cast<int>(shards.size()),
                      sp.nextWseq, data[1], ctl[0]);
        // not reached
    }
    ::close(data[1]);
    ::close(ctl[0]);
    sp.pid = pid;
    sp.rd = data[0];
    sp.wr = ctl[1];
    int fl = ::fcntl(sp.rd, F_GETFL, 0);
    ::fcntl(sp.rd, F_SETFL, fl | O_NONBLOCK);
    sp.buf.clear();
    sp.inFlight = 0;
    sp.armed = false;
    sp.timedOut = false;
    sp.rdEof = false;
    return true;
}

} // namespace

std::string
classifyExitStatus(int wait_status)
{
    if (WIFSIGNALED(wait_status)) {
        switch (WTERMSIG(wait_status)) {
        case SIGSEGV:
            return "sigsegv";
        case SIGABRT:
            return "sigabrt";
        case SIGBUS:
            return "sigbus";
        case SIGILL:
            return "sigill";
        case SIGFPE:
            return "sigfpe";
        case SIGKILL:
            return "sigkill";
        case SIGTERM:
            return "sigterm";
        default:
            return strFormat("signal_%d", WTERMSIG(wait_status));
        }
    }
    if (WIFEXITED(wait_status)) {
        int code = WEXITSTATUS(wait_status);
        if (code == 0)
            return "";
        if (code == kOomExitCode)
            return "oom";
        return strFormat("exit_%d", code);
    }
    return "unknown";
}

void
superviseCampaign(const CampaignConfig &cfg, int startIteration,
                  const ShardBody &body,
                  const std::function<void(ShardEvent &&)> &onEvent,
                  const std::function<bool()> &stopRequested)
{
    const int last = cfg.engine.maxIterations;

    // A shard dying mid-write must not take the supervisor with it.
    using SigHandler = void (*)(int);
    SigHandler old_pipe = ::signal(SIGPIPE, SIG_IGN);

    int jobs = cfg.jobs < 1 ? 1 : cfg.jobs;
    int remaining = last - startIteration + 1;
    if (remaining < 1)
        remaining = 1;
    if (jobs > remaining)
        jobs = remaining;

    std::vector<ShardProc> shards(static_cast<size_t>(jobs));
    for (int c = 0; c < jobs; ++c) {
        ShardProc &sp = shards[static_cast<size_t>(c)];
        sp.id = c;
        sp.nextIter = startIteration + c;
        if (sp.nextIter > last) {
            sp.done = true;
            continue;
        }
        if (!spawnShard(cfg, body, shards, sp)) {
            warn("cannot fork campaign shard");
            sp.done = true;
        }
    }

    bool draining = false;
    auto broadcastStop = [&] {
        if (draining)
            return;
        draining = true;
        char stop = 's';
        for (ShardProc &sp : shards)
            if (!sp.done && sp.wr >= 0)
                writeAll(sp.wr, &stop, 1);
    };

    // Deliver one event on @p sp's behalf; a result or a loss
    // resolves its iteration @p iter. @p text is a result's body or a
    // loss's cause.
    auto emit = [&](ShardProc &sp, ShardEvent::Kind kind, int iter,
                    std::string text = "") {
        ShardEvent ev;
        ev.kind = kind;
        ev.iteration = iter;
        ev.shard = sp.id;
        ev.wseq = sp.nextWseq;
        ev.respawns = sp.respawnsUsed;
        (kind == ShardEvent::Kind::Result ? ev.body : ev.cause) =
            std::move(text);
        if (kind != ShardEvent::Kind::Respawn) {
            sp.nextIter = iter + jobs;
            ++sp.nextWseq;
        }
        onEvent(std::move(ev));
    };

    auto handleFrame = [&](ShardProc &sp, Frame &f) {
        switch (f.type) {
        case 'B': {
            sp.inFlight = std::atoi(f.body.c_str());
            if (cfg.iterTimeoutSecs > 0) {
                sp.armed = true;
                sp.deadline = steady_clock::now() +
                              std::chrono::seconds(cfg.iterTimeoutSecs);
            }
            break;
        }
        case 'R': {
            if (sp.inFlight == 0) {
                warn(strFormat("shard %d sent an unannounced result",
                               sp.id));
                break;
            }
            emit(sp, ShardEvent::Kind::Result, sp.inFlight,
                 std::move(f.body));
            sp.inFlight = 0;
            sp.armed = false;
            break;
        }
        case 'D':
            sp.inFlight = 0;
            sp.armed = false;
            break;
        default:
            warn(strFormat("shard %d sent unknown frame type %d",
                           sp.id, f.type));
        }
    };

    auto pumpShard = [&](ShardProc &sp) {
        if (sp.rd < 0 || sp.rdEof)
            return;
        char buf[1 << 16];
        for (;;) {
            ssize_t n = ::read(sp.rd, buf, sizeof buf);
            if (n > 0) {
                sp.buf.append(buf, static_cast<size_t>(n));
                continue;
            }
            if (n == 0)
                sp.rdEof = true;
            else if (errno == EINTR)
                continue;
            break; // EAGAIN, EOF, or error: parsed below
        }
        std::vector<Frame> frames;
        if (!parseFrames(sp.buf, &frames))
            warn(strFormat("shard %d result stream corrupt", sp.id));
        for (Frame &f : frames)
            handleFrame(sp, f);
    };

    auto anyLive = [&] {
        for (const ShardProc &sp : shards)
            if (!sp.done)
                return true;
        return false;
    };

    while (anyLive()) {
        if (stopRequested() || interruptRequested())
            broadcastStop();

        // Poll timeout: the nearest watchdog deadline, else a coarse
        // tick (also the reap/interrupt poll cadence).
        int timeout_ms = 200;
        auto now = steady_clock::now();
        for (const ShardProc &sp : shards) {
            if (sp.done || !sp.armed)
                continue;
            auto left = std::chrono::duration_cast<
                            std::chrono::milliseconds>(sp.deadline - now)
                            .count();
            timeout_ms = static_cast<int>(
                std::clamp<decltype(left)>(left, 0, timeout_ms));
        }

        std::vector<struct pollfd> pfds;
        std::vector<ShardProc *> pfd_owner;
        for (ShardProc &sp : shards) {
            if (sp.done || sp.rd < 0 || sp.rdEof)
                continue;
            pfds.push_back({sp.rd, POLLIN, 0});
            pfd_owner.push_back(&sp);
        }
        if (!pfds.empty()) {
            int pr = ::poll(pfds.data(),
                            static_cast<nfds_t>(pfds.size()),
                            timeout_ms);
            if (pr > 0) {
                for (size_t i = 0; i < pfds.size(); ++i)
                    if (pfds[i].revents &
                        (POLLIN | POLLHUP | POLLERR))
                        pumpShard(*pfd_owner[i]);
            }
        } else {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(timeout_ms));
        }

        // Watchdogs: a shard past its per-iteration deadline is gone
        // as far as the campaign is concerned — SIGKILL it and let the
        // reap sweep below classify the loss. The fold may have spent
        // the deadline replaying inside onEvent since the poll, so read
        // what the shard has sent first: a result already in the pipe
        // is no hang.
        for (ShardProc &sp : shards) {
            if (sp.done || !sp.armed || sp.pid < 0)
                continue;
            if (steady_clock::now() >= sp.deadline)
                pumpShard(sp);
            if (sp.armed && steady_clock::now() >= sp.deadline) {
                sp.timedOut = true;
                sp.armed = false;
                ::kill(sp.pid, SIGKILL);
            }
        }

        // Reap sweep.
        for (ShardProc &sp : shards) {
            if (sp.done || sp.pid < 0)
                continue;
            int st = 0;
            pid_t r = ::waitpid(sp.pid, &st, WNOHANG);
            if (r != sp.pid)
                continue;
            sp.pid = -1;
            // Everything the child managed to write is still in the
            // pipe; a final 'R' there resolves the "in-flight"
            // iteration as a result, not a loss.
            pumpShard(sp);
            closeShardFds(sp);

            std::string cause = classifyExitStatus(st);
            if (cause.empty() && sp.inFlight == 0) { // a clean finish
                sp.done = true;
                continue;
            }
            if (cause.empty())
                cause = "early_exit";

            if (sp.inFlight > 0) {
                emit(sp,
                     sp.timedOut ? ShardEvent::Kind::Timeout
                                 : ShardEvent::Kind::Crash,
                     sp.inFlight, sp.timedOut ? "watchdog" : cause);
                sp.inFlight = 0;
            }

            if (draining || sp.nextIter > last) {
                sp.done = true;
                continue;
            }

            // Respawn (bounded): the shard continues at the next owed
            // iteration with a fresh process.
            ++sp.respawnsUsed;
            emit(sp, ShardEvent::Kind::Respawn, sp.nextIter);
            if (sp.respawnsUsed <= cfg.maxRespawns) {
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    50LL << std::min(sp.respawnsUsed - 1, 5)));
                if (logEnabled(LogLevel::Debug))
                    debugLog(strFormat(
                        "supervisor: respawning shard %d at iteration %d "
                        "(respawn %d, cause %s)",
                        sp.id, sp.nextIter, sp.respawnsUsed,
                        cause.c_str()));
                if (spawnShard(cfg, body, shards, sp))
                    continue;
                warn("cannot respawn campaign shard");
            } else {
                warn(strFormat(
                    "shard %d exhausted its respawn budget (%d); "
                    "recording its remaining iterations as crashes",
                    sp.id, cfg.maxRespawns));
            }
            while (sp.nextIter <= last && !stopRequested())
                emit(sp, ShardEvent::Kind::Crash, sp.nextIter,
                     "respawn_budget");
            sp.done = true;
        }
    }

    for (ShardProc &sp : shards)
        closeShardFds(sp);
    ::signal(SIGPIPE, old_pipe);
}

} // namespace goat::campaign
