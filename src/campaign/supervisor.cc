#include "campaign/supervisor.hh"

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

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
#include "campaign/checkpoint.hh"
#include "goat/engine.hh"
#include "obs/metrics.hh"

namespace goat::campaign {

namespace {

/** Shard exit code meaning "allocation limit hit" (see mem limit). */
constexpr int kOomExitCode = 77;

/** Frames larger than this mean a corrupt stream, not a real digest. */
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

/** Send one frame: 4-byte LE payload length, then type + body. */
bool
sendFrame(int fd, char type, const std::string &body)
{
    uint32_t len = static_cast<uint32_t>(body.size() + 1);
    unsigned char hdr[4] = {
        static_cast<unsigned char>(len & 0xff),
        static_cast<unsigned char>((len >> 8) & 0xff),
        static_cast<unsigned char>((len >> 16) & 0xff),
        static_cast<unsigned char>((len >> 24) & 0xff),
    };
    if (!writeAll(fd, hdr, 4))
        return false;
    if (!writeAll(fd, &type, 1))
        return false;
    return body.empty() || writeAll(fd, body.data(), body.size());
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
 * The shard body: run the owed iterations ((i - start) % jobs == id)
 * and ship one 'R' digest per iteration, bracketed by 'B' announcements
 * (the parent's watchdog anchor). Runs post-fork; exits, never returns.
 */
[[noreturn]] void
runShardChild(const CampaignConfig &cfg,
              const std::function<void()> &program, int shard_id,
              int start_iter, int stride, int start_wseq, int wr,
              int ctl)
{
    // The parent's pending SIGINT (if any) predates the fork; children
    // get their own flag, set fresh if the process group is signalled.
    clearInterrupt();
    ::signal(SIGPIPE, SIG_IGN);
    int fl = ::fcntl(ctl, F_GETFL, 0);
    ::fcntl(ctl, F_SETFL, fl | O_NONBLOCK);

    const engine::GoatConfig &ecfg = cfg.engine;
    if (cfg.memLimitMB > 0) {
        struct rlimit rl;
        rl.rlim_cur = rl.rlim_max =
            static_cast<rlim_t>(cfg.memLimitMB) << 20;
        ::setrlimit(RLIMIT_AS, &rl);
        // operator new failing under the limit exits with the OOM
        // marker instead of throwing into arbitrary kernel code.
        std::set_new_handler([] { _exit(kOomExitCode); });
    }

    // A fresh registry: the parent's instruments stay untouched, and
    // per-iteration deltas ride the digest as pre-rendered JSON.
    obs::Registry reg;
    obs::ScopedRegistry scoped(reg);
    obs::Counter &iterations_total = reg.counter("engine.iterations");
    obs::Counter &bugs_total = reg.counter("engine.bugs_found");
    obs::Histogram &iter_wall = reg.histogram(
        "engine.iter_wall_us",
        {100, 1'000, 10'000, 100'000, 1'000'000, 10'000'000});

    const bool measure_cov =
        ecfg.collectCoverage || ecfg.coverageGuided;
    const auto universe =
        std::make_shared<const analysis::CoverageUniverse>(
            ecfg.staticModel);
    analysis::CoverageScratch scratch(universe);
    analysis::CoverageDelta delta;
    analysis::CoverageState localCov(universe);

    int wseq = start_wseq;
    for (int iter = start_iter; iter <= ecfg.maxIterations;
         iter += stride) {
        char b;
        ssize_t n = ::read(ctl, &b, 1);
        if (n >= 0)
            break; // stop byte, or EOF: the parent is gone
        if (interruptRequested())
            break;

        if (!sendFrame(wr, 'B', strFormat("%d", iter)))
            break;

        auto t0 = steady_clock::now();
        engine::SingleRun sr = engine::runCampaignIteration(
            ecfg, program, iter, &localCov);
        if (sr.exec.interrupted)
            break;
        iterations_total.inc();

        ShardDigest d;
        obs::LedgerEntry &e = d.row;
        e.iteration = iter;
        e.seed = engine::campaignIterationSeed(ecfg.seedBase, iter);
        e.delayBound = ecfg.delayBound;
        e.outcome = runtime::runOutcomeName(sr.exec.outcome);
        e.verdict = analysis::verdictName(sr.dl.verdict);
        e.bug = sr.dl.buggy() ||
                sr.exec.outcome == runtime::RunOutcome::StepBudget;
        e.steps = sr.exec.steps;
        e.wallMicros = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                steady_clock::now() - t0)
                .count());
        e.worker = shard_id;
        e.workerSeq = wseq++;
        if (e.bug)
            bugs_total.inc();
        iter_wall.observe(e.wallMicros);
        e.metricsJson = reg.deltaJson();

        if (measure_cov) {
            // The wire carries the iteration's standalone bitmap.
            scratch.compute(sr.ect, *sr.tree, &delta);
            analysis::CoverageState cov(universe);
            cov.applyDelta(delta);
            d.covBitmap = cov.bitmapStr();
        }

        if (!sendFrame(wr, 'R', digestToString(d)))
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
    /** Digest pipe, read end (O_NONBLOCK) / control pipe, write end. */
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
    int stride = 1;
    /** wseq the next iteration gets (survives respawns: the ledger
     * validator holds per-worker wseq to be monotone). */
    int nextWseq = 1;
    int respawnsUsed = 0;
    bool done = false;
    /** The child announced a graceful finish. */
    bool doneFrame = false;
    /** read() hit EOF on the digest pipe. */
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
spawnShard(const CampaignConfig &cfg,
           const std::function<void()> &program,
           std::vector<ShardProc> &shards, ShardProc &sp)
{
    int data[2];
    int ctl[2];
    if (::pipe(data) != 0)
        return false;
    if (::pipe(ctl) != 0) {
        ::close(data[0]);
        ::close(data[1]);
        return false;
    }
    pid_t pid = ::fork();
    if (pid < 0) {
        ::close(data[0]);
        ::close(data[1]);
        ::close(ctl[0]);
        ::close(ctl[1]);
        return false;
    }
    if (pid == 0) {
        ::close(data[0]);
        ::close(ctl[1]);
        for (ShardProc &other : shards)
            if (other.id != sp.id)
                closeShardFds(other);
        runShardChild(cfg, program, sp.id, sp.nextIter, sp.stride,
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
    sp.doneFrame = false;
    sp.rdEof = false;
    return true;
}

/** Synthesize the loss row for a crashed/timed-out iteration. */
ShardDigest
lossDigest(const engine::GoatConfig &ecfg, const ShardProc &sp,
           int iter, bool timeout, const std::string &cause)
{
    ShardDigest d;
    obs::LedgerEntry &e = d.row;
    e.iteration = iter;
    e.seed = engine::campaignIterationSeed(ecfg.seedBase, iter);
    e.delayBound = ecfg.delayBound;
    e.outcome = timeout ? "timeout" : "crashed";
    e.verdict = timeout ? "timeout" : "crash";
    e.bug = true;
    e.worker = sp.id;
    e.workerSeq = sp.nextWseq;
    if (!timeout)
        e.crashCause = cause;
    e.respawns = sp.respawnsUsed;
    return d;
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

std::string
digestToString(const ShardDigest &d)
{
    std::string out;
    serializeRow(out, d.row);
    appendCovBlock(out, d.covBitmap);
    return out;
}

bool
digestFromString(const std::string &text, ShardDigest *out)
{
    *out = ShardDigest{};
    std::vector<std::string> lines = splitLines(text);
    size_t i = 0;
    if (!parseRowLines(lines, &i, &out->row))
        return false;
    if (i < lines.size() && lines[i] == "cov_begin") {
        ++i;
        while (i < lines.size() && lines[i] != "cov_end") {
            out->covBitmap += lines[i];
            out->covBitmap += '\n';
            ++i;
        }
        if (i >= lines.size())
            return false;
    }
    return true;
}

SuperviseOutcome
superviseCampaign(const CampaignConfig &cfg,
                  const std::function<void()> &program,
                  int startIteration,
                  const std::function<void(ShardEvent &&)> &onEvent,
                  const std::function<bool()> &stopRequested)
{
    const engine::GoatConfig &ecfg = cfg.engine;
    SuperviseOutcome out;

    // A shard dying mid-write must not take the supervisor with it.
    using SigHandler = void (*)(int);
    SigHandler old_pipe = ::signal(SIGPIPE, SIG_IGN);

    int jobs = cfg.jobs < 1 ? 1 : cfg.jobs;
    int remaining = ecfg.maxIterations - startIteration + 1;
    if (remaining < 1)
        remaining = 1;
    if (jobs > remaining)
        jobs = remaining;

    std::vector<ShardProc> shards(static_cast<size_t>(jobs));
    for (int c = 0; c < jobs; ++c) {
        ShardProc &sp = shards[static_cast<size_t>(c)];
        sp.id = c;
        sp.stride = jobs;
        sp.nextIter = startIteration + c;
        if (sp.nextIter > ecfg.maxIterations) {
            sp.done = true;
            continue;
        }
        if (!spawnShard(cfg, program, shards, sp)) {
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

    auto emitLoss = [&](ShardProc &sp, int iter, bool timeout,
                        const std::string &cause) {
        ShardEvent ev;
        ev.kind =
            timeout ? ShardEvent::Kind::Timeout : ShardEvent::Kind::Crash;
        ev.iteration = iter;
        ev.shard = sp.id;
        ev.cause = cause;
        ev.digest = lossDigest(ecfg, sp, iter, timeout, cause);
        ++out.executed;
        if (timeout)
            ++out.timeouts;
        else
            ++out.crashes;
        onEvent(std::move(ev));
        sp.nextIter = iter + sp.stride;
        ++sp.nextWseq;
    };

    auto handleFrame = [&](ShardProc &sp, const Frame &f) {
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
            ShardEvent ev;
            ev.kind = ShardEvent::Kind::Result;
            ev.shard = sp.id;
            if (!digestFromString(f.body, &ev.digest)) {
                warn(strFormat("shard %d sent a malformed digest",
                               sp.id));
                break;
            }
            ev.iteration = ev.digest.row.iteration;
            sp.inFlight = 0;
            sp.armed = false;
            sp.nextIter = ev.iteration + sp.stride;
            sp.nextWseq = ev.digest.row.workerSeq + 1;
            ++out.executed;
            onEvent(std::move(ev));
            break;
        }
        case 'D':
            sp.doneFrame = true;
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
            warn(strFormat("shard %d digest stream corrupt", sp.id));
        for (const Frame &f : frames)
            handleFrame(sp, f);
    };

    auto anyLive = [&] {
        for (const ShardProc &sp : shards)
            if (!sp.done)
                return true;
        return false;
    };

    while (anyLive()) {
        if (stopRequested())
            broadcastStop();
        if (interruptRequested()) {
            out.interrupted = true;
            broadcastStop();
        }

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
            if (left < 0)
                left = 0;
            if (left < timeout_ms)
                timeout_ms = static_cast<int>(left);
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
        // reap sweep below classify the loss.
        now = steady_clock::now();
        for (ShardProc &sp : shards) {
            if (sp.done || !sp.armed || sp.pid < 0)
                continue;
            if (now >= sp.deadline) {
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
            const bool clean_finish = cause.empty() && sp.inFlight == 0;
            if (clean_finish) {
                sp.done = true;
                continue;
            }
            if (cause.empty())
                cause = "early_exit";

            if (sp.inFlight > 0) {
                emitLoss(sp, sp.inFlight, sp.timedOut,
                         sp.timedOut ? "watchdog" : cause);
                sp.inFlight = 0;
            }

            if (draining || sp.nextIter > ecfg.maxIterations) {
                sp.done = true;
                continue;
            }

            // Respawn (bounded): the shard continues at the next owed
            // iteration with a fresh process.
            ++sp.respawnsUsed;
            ++out.respawns;
            if (cfg.progress)
                cfg.progress->respawns.fetch_add(
                    1, std::memory_order_relaxed);
            if (sp.respawnsUsed > cfg.maxRespawns) {
                warn(strFormat(
                    "shard %d exhausted its respawn budget (%d); "
                    "recording its remaining iterations as crashes",
                    sp.id, cfg.maxRespawns));
                while (sp.nextIter <= ecfg.maxIterations &&
                       !stopRequested())
                    emitLoss(sp, sp.nextIter, false, "respawn_budget");
                sp.done = true;
                continue;
            }
            int shift = sp.respawnsUsed - 1;
            if (shift > 5)
                shift = 5;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50LL << shift));
            if (logEnabled(LogLevel::Debug))
                debugLog(strFormat(
                    "supervisor: respawning shard %d at iteration %d "
                    "(respawn %d, cause %s)",
                    sp.id, sp.nextIter, sp.respawnsUsed,
                    cause.c_str()));
            if (!spawnShard(cfg, program, shards, sp)) {
                warn("cannot respawn campaign shard");
                while (sp.nextIter <= ecfg.maxIterations &&
                       !stopRequested())
                    emitLoss(sp, sp.nextIter, false, "respawn_budget");
                sp.done = true;
            }
        }
    }

    for (ShardProc &sp : shards)
        closeShardFds(sp);
    ::signal(SIGPIPE, old_pipe);
    return out;
}

} // namespace goat::campaign
