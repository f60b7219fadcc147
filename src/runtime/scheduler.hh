/**
 * @file
 * The cooperative goroutine scheduler: GoAT-CPP's stand-in for the Go
 * runtime (substitution documented in DESIGN.md §2).
 *
 * One Scheduler executes one program run: it owns a FIFO global run
 * queue of goroutines (as Go's global queue), a virtual clock with a
 * timer heap servicing sleeps, the seeded PRNG that feeds every
 * nondeterministic decision, trace capture into an ECT ring, and the
 * detection of global deadlocks (run queue empty while the main
 * goroutine is alive — exactly Go's built-in detector condition).
 *
 * Nondeterminism model: native Go scheduling noise is approximated by a
 * low-probability preemption before every concurrency-usage point
 * (cuHook); GoAT's schedule perturbation (the injected goat.handler()
 * yields, bounded by D) is an optional hook invoked at the same points.
 */

#ifndef GOAT_RUNTIME_SCHEDULER_HH
#define GOAT_RUNTIME_SCHEDULER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "base/arena.hh"
#include "base/rng.hh"
#include "base/source_loc.hh"
#include "runtime/goroutine.hh"
#include "staticmodel/cu.hh"
#include "trace/ect_ring.hh"

namespace goat::runtime {

/**
 * Outcome of one complete execution.
 */
enum class RunOutcome : uint8_t
{
    Ok,             ///< Main returned (leaks may still exist — offline).
    GlobalDeadlock, ///< Run queue drained while main was blocked.
    Crash,          ///< A goroutine panicked (e.g. send on closed chan).
    StepBudget,     ///< Logical-step budget exhausted (models HANG).
};

const char *runOutcomeName(RunOutcome o);

/**
 * Inverse of runOutcomeName.
 *
 * @retval false when @p name names no outcome (@p out untouched).
 */
bool runOutcomeFromName(const std::string &name, RunOutcome *out);

/**
 * A goroutine still alive when the execution terminated (leak
 * candidate; the authoritative leak verdict is the offline
 * DeadlockCheck over the ECT).
 */
struct LeakInfo
{
    uint32_t gid = 0;
    std::string name;
    SourceLoc creationLoc;
    GoStatus status = GoStatus::New;
    BlockReason reason = BlockReason::None;
    SourceLoc blockLoc;
};

/**
 * Result of Scheduler::run().
 */
struct ExecResult
{
    RunOutcome outcome = RunOutcome::Ok;
    std::string panicMsg;
    uint32_t panicGid = 0;
    /** Live application goroutines at termination. */
    std::vector<LeakInfo> leaked;
    uint64_t steps = 0;
    uint64_t seed = 0;
    /**
     * The run was cut short by a SIGINT/SIGTERM (base/interrupt.hh):
     * the dispatch loop noticed the flag and ended the run through the
     * step-budget path so the ring flushes normally. The outcome
     * is not meaningful evidence about the program under test.
     */
    bool interrupted = false;

    bool
    anyLeak() const
    {
        return !leaked.empty();
    }
};

/**
 * Perturbation hook: called before every concurrency usage; returning
 * true yields the current goroutine (the paper's goat.handler()).
 */
using PerturbHook =
    std::function<bool(staticmodel::CuKind, const SourceLoc &)>;

/**
 * Scheduler configuration: one per execution.
 */
struct SchedConfig
{
    uint64_t seed = 1;
    /** Total logical-step budget; exceeding it models a HANG. */
    uint64_t stepBudget = 2'000'000;
    /** Steps granted to drain runnable goroutines after main returns. */
    uint64_t postMainBudget = 200'000;
    /** Probability of a noise preemption before a CU (native model). */
    double noiseProb = 0.02;
    size_t stackSize = 256 * 1024;
    PerturbHook perturb;
};

/**
 * Per-run telemetry tallies: plain words on the scheduler object,
 * incremented inline by the scheduler, channels, sync primitives, and
 * the perturbation layer, and flushed into the thread's current
 * metrics registry (obs::Registry::current()) once at the end of
 * run(). Keeping the hot path to a
 * single indexed increment on an already-hot cache line — no atomics,
 * no guard checks, no pointer chases — is what keeps instrumentation
 * overhead in the noise; see bench_obs / bench_primitives.
 */
struct SchedTallies
{
    uint64_t event[static_cast<size_t>(trace::EventType::NumEventTypes)] = {};
    uint64_t park[9] = {}; // indexed by BlockReason
    uint64_t dispatches = 0;
    uint64_t spawns = 0;
    uint64_t wakes = 0;
    uint64_t yields = 0;
    uint64_t preemptNoise = 0;
    uint64_t preemptPerturb = 0;
    uint64_t timerFires = 0;
    uint64_t stackPoolHits = 0;
    uint64_t stackPoolMisses = 0;
    uint64_t chanMakes = 0;
    uint64_t chanSendImmediate = 0;
    uint64_t chanSendParked = 0;
    uint64_t chanRecvImmediate = 0;
    uint64_t chanRecvParked = 0;
    uint64_t chanCloses = 0;
    uint64_t mutexFast = 0;
    uint64_t mutexContended = 0;
    uint64_t rwFast = 0;
    uint64_t rwContended = 0;
    uint64_t wgWaitFast = 0;
    uint64_t wgWaitParked = 0;
    uint64_t condWaits = 0;
    uint64_t condSignals = 0;
    uint64_t perturbInjected = 0;
    uint64_t perturbSkipped = 0;
    uint64_t guidedHot = 0;
    uint64_t guidedCold = 0;
};

/**
 * Cooperative scheduler executing goroutines on the host thread.
 */
class Scheduler
{
  public:
    explicit Scheduler(SchedConfig cfg = {});
    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /**
     * Record events into a binary ring buffer (see trace/ect_ring.hh).
     * The caller binds the ring to an output Ect and flushes it after
     * run(); the scheduler folds the ring's batched event-type counts
     * into its tallies at run() end. Without a ring a run records
     * nothing and only counts its events.
     */
    void setRing(trace::EctRing *ring) { ring_ = ring; }

    /**
     * Execute @p main_fn as the main goroutine until the program
     * terminates (main returns and runnables drain), deadlocks
     * globally, crashes, or exhausts its step budget.
     */
    ExecResult run(std::function<void()> main_fn);

    // ------------------------------------------------------------------
    // Services for concurrency primitives (called from inside
    // goroutines while run() is live).
    // ------------------------------------------------------------------

    /** Currently running goroutine (nullptr in scheduler context). */
    Goroutine *current() { return current_; }

    /** Gid of the current goroutine (0 in scheduler context). */
    uint32_t currentGid() { return current_ ? current_->id() : 0; }

    /**
     * Create a goroutine running @p fn; it is appended to the run
     * queue. Emits GoCreate attributed to @p loc (the go statement).
     */
    uint32_t spawn(std::function<void()> fn, const SourceLoc &loc,
                   bool system = false, std::string name = "");

    /** Voluntarily yield the processor (emits GoSched). */
    void yieldNow(const SourceLoc &loc, int64_t tag = trace::SchedTagYield);

    /**
     * Concurrency-usage hook: invoked by every primitive operation
     * before acting. Applies scheduler noise and the perturbation
     * hook (both may preempt the current goroutine).
     */
    void cuHook(staticmodel::CuKind kind, const SourceLoc &loc);

    /**
     * Park the current goroutine. Emits @p block_ev and switches to
     * the scheduler; returns when some other goroutine (or a timer)
     * calls ready() on it.
     */
    void park(trace::EventType block_ev, BlockReason reason, uint64_t obj,
              const SourceLoc &loc);

    /** Make a parked goroutine runnable (emits GoUnblock). */
    void ready(Goroutine *g, const SourceLoc &loc);

    /** Sleep on the virtual clock for @p ns nanoseconds. */
    void sleepNs(uint64_t ns, const SourceLoc &loc);

    /** Virtual-clock time in nanoseconds since run start. */
    uint64_t now() const { return clock_; }

    /**
     * Register a timer firing at absolute virtual time @p deadline.
     * The callback runs in scheduler context (it must not park).
     */
    void addTimer(uint64_t deadline, std::function<void()> fn);

    /** The execution's deterministic random source. */
    Rng &rng() { return rng_; }

    /** Allocate an id for a channel / mutex / waitgroup / cond. */
    uint64_t newObjId() { return nextObjId_++; }

    /** This run's telemetry tallies (flushed to obs at run() end). */
    SchedTallies &tallies() { return tallies_; }

    /**
     * Record a trace event into the bound ring (ts and gid are stamped
     * here), or only count it when no ring is bound.
     */
    void emit(trace::EventType type, const SourceLoc &loc, int64_t a0 = 0,
              int64_t a1 = 0, int64_t a2 = 0, int64_t a3 = 0,
              const std::string &str = "");

    /** Raise a Go panic in the current goroutine (never returns). */
    [[noreturn]] void gopanic(const std::string &msg, const SourceLoc &loc);

    /** Look up a goroutine by id (nullptr when unknown). */
    Goroutine *goroutine(uint32_t gid);

    /** All goroutines created during this run (arena-owned). */
    const std::vector<Goroutine *> &
    goroutines() const
    {
        return goroutines_;
    }

    /** Logical steps executed so far. */
    uint64_t steps() const { return steps_; }

    const SchedConfig &config() const { return cfg_; }

    /**
     * The scheduler the calling code is executing under.
     *
     * @retval nullptr outside of Scheduler::run().
     */
    static Scheduler *cur();

    /** Like cur(), but fatal() when no scheduler is live. */
    static Scheduler &require();

  private:
    friend void fiberMainTrampoline(void *arg);

    /** Body executed on the goroutine's own fiber stack. */
    void fiberMain(Goroutine *g);

    /** Switch from the current goroutine back to the scheduler. */
    void switchToScheduler();

    /** Dispatch one runnable goroutine. */
    void dispatch(Goroutine *g);

    /** Requeue the current goroutine at the back and reschedule. */
    void preemptCurrent(int64_t tag, const SourceLoc &loc);

    /** Advance the virtual clock to the next timer deadline. */
    void advanceClock();

    char *allocStack();
    void releaseStack(Goroutine *g);

    struct Timer
    {
        uint64_t deadline;
        uint64_t seq;
        std::function<void()> fn;

        bool
        operator>(const Timer &o) const
        {
            return deadline != o.deadline ? deadline > o.deadline
                                          : seq > o.seq;
        }
    };

    SchedConfig cfg_;
    Rng rng_;

    /** Goroutine records live in the arena (destroyed explicitly). */
    Arena arena_;
    std::vector<Goroutine *> goroutines_;
    std::deque<Goroutine *> runq_;
    std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>>
        timers_;

    trace::EctRing *ring_ = nullptr;

    FiberContext schedCtx_;
    Goroutine *current_ = nullptr;
    Goroutine *mainG_ = nullptr;

    uint64_t clock_ = 0;
    uint64_t steps_ = 0;
    uint64_t timerSeq_ = 0;
    uint64_t nextObjId_ = 1;

    bool mainEnded_ = false;
    bool panicked_ = false;
    std::string pendingPanicMsg_;
    SourceLoc pendingPanicLoc_;
    uint32_t panicGid_ = 0;
    bool running_ = false;

    // Last: keeps the hot members above on adjacent cache lines.
    SchedTallies tallies_;
};

} // namespace goat::runtime

#endif // GOAT_RUNTIME_SCHEDULER_HH
