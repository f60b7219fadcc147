/**
 * @file
 * Hostile fault-injection kernels: supervisor (-isolate) test
 * fixtures that do what no well-behaved GoKer kernel may — crash the
 * process, livelock the scheduler thread, or allocate without bound.
 *
 * Failure mechanics: each kernel is a two-goroutine flag handoff. The
 * first goroutine takes a mutex (a concurrency-usage point the
 * perturbation policy may delay) before publishing its flag; the
 * second goroutine reads the flag immediately, with no CU point of
 * its own first. Under the FIFO baseline the publisher always wins
 * and every iteration passes; when the perturber spends a delay on
 * the publisher's lock or unlock, the reader runs first, sees the
 * stale flag, and takes the hostile path. The failures are therefore
 * schedule-dependent (surface only at -d >= 1), so an isolated
 * campaign produces a mix of passing rows and classified
 * crash/timeout rows — exactly the triage surface the supervisor
 * exists for.
 *
 * Registered with GOKER_HOSTILE_KERNEL: excluded from registry all(),
 * reachable only by name or by the -isolate -kernel=hostile sweep.
 */

#include "goker/kernels_common.hh"

#include <csignal>
#include <cstdint>
#include <vector>

namespace goat::goker {

GOKER_HOSTILE_KERNEL(hostile_segfault,
                     "null deref when the reader wins a racy handoff")
{
    struct St
    {
        Mutex mu;
        int *p = nullptr;
        bool ready = false;
        Chan<Unit> done;
        St() : done(2) {}
    };
    static int cell = 7;
    auto st = std::make_shared<St>();
    goNamed("publisher", [st] {
        st->mu.lock();
        st->mu.unlock();
        st->p = &cell;
        st->ready = true;
        st->done.send(Unit{});
    });
    goNamed("reader", [st]() __attribute__((no_sanitize("null"))) {
        if (!st->ready) {
            // Publisher was delayed mid-handoff: p is still null. A
            // real crash, on purpose, that dies by SIGSEGV in any build
            // (no UBSan null check, no sanitizer's own SEGV handler).
            std::signal(SIGSEGV, SIG_DFL);
            volatile int *vp = st->p;
            (void)*vp;
        }
        st->done.send(Unit{});
    });
    st->done.recv();
    st->done.recv();
}

GOKER_HOSTILE_KERNEL(hostile_livelock,
                     "spins forever off-runtime when it wins the race")
{
    struct St
    {
        Mutex mu;
        bool armed = true;
        Chan<Unit> done;
        St() : done(2) {}
    };
    auto st = std::make_shared<St>();
    goNamed("disarmer", [st] {
        st->mu.lock();
        st->mu.unlock();
        st->armed = false;
        st->done.send(Unit{});
    });
    goNamed("spinner", [st] {
        if (st->armed) {
            // Busy-wait with no scheduler interaction: the step budget
            // never ticks, so in-process campaigns hang here. Only the
            // supervisor's wall-clock watchdog (-iter-timeout) can
            // classify it.
            for (volatile uint64_t spin = 0;; ++spin) {
            }
        }
        st->done.send(Unit{});
    });
    st->done.recv();
    st->done.recv();
}

GOKER_HOSTILE_KERNEL(hostile_oom,
                     "allocates unboundedly when it wins the race")
{
    struct St
    {
        Mutex mu;
        bool armed = true;
        std::vector<std::vector<char>> hoard;
        Chan<Unit> done;
        St() : done(2) {}
    };
    auto st = std::make_shared<St>();
    goNamed("disarmer", [st] {
        st->mu.lock();
        st->mu.unlock();
        st->armed = false;
        st->done.send(Unit{});
    });
    goNamed("hoarder", [st] {
        if (st->armed) {
            // Retain 1 MiB chunks until operator new fails — under
            // -mem-limit the new-handler exits with the OOM marker and
            // the supervisor records an "oom" crash. A hard cap keeps
            // an unsupervised run from hurting the host.
            constexpr size_t kChunk = 1u << 20;
            constexpr size_t kMaxChunks = 512; // 512 MiB ceiling
            while (st->hoard.size() < kMaxChunks)
                st->hoard.emplace_back(kChunk, 'x');
            st->hoard.clear();
        }
        st->done.send(Unit{});
    });
    st->done.recv();
    st->done.recv();
}

} // namespace goat::goker
