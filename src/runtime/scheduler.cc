#include "runtime/scheduler.hh"

#include <iterator>
#include <utility>

#include "base/fmt.hh"
#include "base/interrupt.hh"
#include "base/logging.hh"
#include "obs/builtin_metrics.hh"
#include "obs/profile.hh"

namespace goat::runtime {

namespace {

thread_local Scheduler *tlsSched = nullptr;

static_assert(static_cast<size_t>(BlockReason::Sleep) + 1 ==
              std::size(SchedTallies{}.park));
static_assert(std::size(SchedTallies{}.park) ==
              std::size(obs::SchedMetricIds{}.park));
static_assert(static_cast<size_t>(RunOutcome::StepBudget) + 1 ==
              std::size(obs::SchedMetricIds{}.outcome));

/**
 * Fold one run's tallies into the calling thread's current registry.
 * The execution hot paths never touch a registry: they bump the plain
 * per-run SchedTallies on the Scheduler object, and this writes a
 * whole run's worth into the registry's id-indexed slots in one
 * locked pass at the end of Scheduler::run(). The ids are interned
 * once per process (obs/builtin_metrics.hh), so a fresh registry (a
 * campaign worker's) costs nothing extra on its first run.
 */
void
flushMetrics(const SchedTallies &t, RunOutcome outcome, int64_t pooled,
             int64_t goroutines, uint64_t steps)
{
    const obs::SchedMetricIds &ids = obs::builtinMetrics().sched;
    obs::Registry::Batch m(obs::Registry::current(), ids.all);
    for (size_t i = 0;
         i < static_cast<size_t>(trace::EventType::NumEventTypes); ++i)
        m[ids.event[i]].inc(t.event[i]);
    for (size_t i = 0; i < std::size(t.park); ++i)
        m[ids.park[i]].inc(t.park[i]);
    m[ids.dispatches].inc(t.dispatches);
    // One swap in plus one swap back out per dispatch.
    m[ids.ctxSwitches].inc(t.dispatches * 2);
    m[ids.spawns].inc(t.spawns);
    m[ids.wakes].inc(t.wakes);
    m[ids.yields].inc(t.yields);
    m[ids.preemptNoise].inc(t.preemptNoise);
    m[ids.preemptPerturb].inc(t.preemptPerturb);
    m[ids.timerFires].inc(t.timerFires);
    m[ids.stackPoolHits].inc(t.stackPoolHits);
    m[ids.stackPoolMisses].inc(t.stackPoolMisses);
    m[ids.chanMakes].inc(t.chanMakes);
    m[ids.chanSendImmediate].inc(t.chanSendImmediate);
    m[ids.chanSendParked].inc(t.chanSendParked);
    m[ids.chanRecvImmediate].inc(t.chanRecvImmediate);
    m[ids.chanRecvParked].inc(t.chanRecvParked);
    m[ids.chanCloses].inc(t.chanCloses);
    m[ids.mutexFast].inc(t.mutexFast);
    m[ids.mutexContended].inc(t.mutexContended);
    m[ids.rwFast].inc(t.rwFast);
    m[ids.rwContended].inc(t.rwContended);
    m[ids.wgWaitFast].inc(t.wgWaitFast);
    m[ids.wgWaitParked].inc(t.wgWaitParked);
    m[ids.condWaits].inc(t.condWaits);
    m[ids.condSignals].inc(t.condSignals);
    m[ids.perturbInjected].inc(t.perturbInjected);
    m[ids.perturbSkipped].inc(t.perturbSkipped);
    m[ids.guidedHot].inc(t.guidedHot);
    m[ids.guidedCold].inc(t.guidedCold);
    m[ids.runs].inc();
    m[ids.outcome[static_cast<size_t>(outcome)]].inc();
    m[ids.stackPoolSize].set(pooled);
    m[ids.goroutinesPeak].setMax(goroutines);
    m[ids.stepsPerRun].observe(steps);
}

} // namespace

const char *
goStatusName(GoStatus s)
{
    switch (s) {
      case GoStatus::New: return "new";
      case GoStatus::Runnable: return "runnable";
      case GoStatus::Running: return "running";
      case GoStatus::Blocked: return "blocked";
      case GoStatus::Dead: return "dead";
    }
    return "?";
}

const char *
blockReasonName(BlockReason r)
{
    switch (r) {
      case BlockReason::None: return "none";
      case BlockReason::Send: return "chan send";
      case BlockReason::Recv: return "chan recv";
      case BlockReason::Select: return "select";
      case BlockReason::Mutex: return "mutex";
      case BlockReason::RWMutex: return "rwmutex";
      case BlockReason::WaitGroup: return "waitgroup";
      case BlockReason::Cond: return "cond";
      case BlockReason::Sleep: return "sleep";
    }
    return "?";
}

const char *
runOutcomeName(RunOutcome o)
{
    switch (o) {
      case RunOutcome::Ok: return "ok";
      case RunOutcome::GlobalDeadlock: return "global_deadlock";
      case RunOutcome::Crash: return "crash";
      case RunOutcome::StepBudget: return "step_budget";
    }
    return "?";
}

bool
runOutcomeFromName(const std::string &name, RunOutcome *out)
{
    for (RunOutcome o : {RunOutcome::Ok, RunOutcome::GlobalDeadlock,
                         RunOutcome::Crash, RunOutcome::StepBudget}) {
        if (name == runOutcomeName(o)) {
            *out = o;
            return true;
        }
    }
    return false;
}

Scheduler::Scheduler(SchedConfig cfg)
    : cfg_(std::move(cfg)), rng_(cfg_.seed)
{
}

Scheduler::~Scheduler()
{
    // Stacks still attached (leaked/blocked goroutines) go back to the
    // thread's pool; the records themselves are arena storage, so only
    // their non-trivial members need destroying.
    StackPool &pool = StackPool::forThread();
    for (Goroutine *g : goroutines_) {
        if (g->stack)
            pool.release(g->stack, g->stackSize);
        g->~Goroutine();
    }
}

Scheduler *
Scheduler::cur()
{
    return tlsSched;
}

Scheduler &
Scheduler::require()
{
    if (!tlsSched)
        fatal("goat primitive used outside of a running Scheduler");
    return *tlsSched;
}

void
Scheduler::emit(trace::EventType type, const SourceLoc &loc, int64_t a0,
                int64_t a1, int64_t a2, int64_t a3, const std::string &str)
{
    obs::ProfileScope prof(obs::Stage::TraceAppend);
    ++steps_;
    if (!ring_) {
        ++tallies_.event[static_cast<size_t>(type)];
        return;
    }
    // One POD row and no per-event tally: the ring's batched type
    // counts are folded into tallies_ once, at run() end.
    trace::Event *r = ring_->push();
    *r = trace::Event(steps_, currentGid(), type, loc, a0, a1, a2, a3);
    if (!str.empty())
        ring_->setStr(r, str);
}

uint32_t
Scheduler::spawn(std::function<void()> fn, const SourceLoc &loc, bool system,
                 std::string name)
{
    auto gid = static_cast<uint32_t>(goroutines_.size() + 1);
    Goroutine *g = arena_.make<Goroutine>(gid, currentGid(), std::move(fn),
                                          loc, system, std::move(name));
    g->status = GoStatus::Runnable;
    runq_.push_back(g);
    goroutines_.push_back(g);
    ++tallies_.spawns;
    emit(trace::EventType::GoCreate, loc, gid, system ? 1 : 0);
    return gid;
}

void
Scheduler::yieldNow(const SourceLoc &loc, int64_t tag)
{
    Goroutine *g = current_;
    if (!g)
        panic("yieldNow outside goroutine context");
    ++tallies_.yields;
    emit(trace::EventType::GoSched, loc, tag);
    g->status = GoStatus::Runnable;
    runq_.push_back(g);
    switchToScheduler();
}

void
Scheduler::cuHook(staticmodel::CuKind kind, const SourceLoc &loc)
{
    Goroutine *g = current_;
    if (!g || g->system())
        return;
    if (cfg_.noiseProb > 0 && rng_.chance(cfg_.noiseProb))
        preemptCurrent(trace::PreemptTagNoise, loc);
    // The profiled stage is the policy *decision* only; the preemption
    // it may trigger (a context switch plus an arbitrary run segment
    // of other goroutines) is deliberately outside the scope.
    bool want_yield;
    {
        obs::ProfileScope prof(obs::Stage::PerturbDecision);
        want_yield = cfg_.perturb && cfg_.perturb(kind, loc);
    }
    if (want_yield)
        preemptCurrent(trace::PreemptTagPerturb, loc);
}

void
Scheduler::preemptCurrent(int64_t tag, const SourceLoc &loc)
{
    Goroutine *g = current_;
    ++(tag == trace::PreemptTagPerturb ? tallies_.preemptPerturb
                                       : tallies_.preemptNoise);
    emit(trace::EventType::GoPreempt, loc, tag);
    g->status = GoStatus::Runnable;
    runq_.push_back(g);
    switchToScheduler();
}

void
Scheduler::park(trace::EventType block_ev, BlockReason reason, uint64_t obj,
                const SourceLoc &loc)
{
    Goroutine *g = current_;
    if (!g)
        panic("park outside goroutine context");
    g->status = GoStatus::Blocked;
    g->blockReason = reason;
    g->blockObj = obj;
    g->blockLoc = loc;
    ++tallies_.park[static_cast<size_t>(reason)];
    emit(block_ev, loc, static_cast<int64_t>(obj),
         static_cast<int64_t>(reason));
    switchToScheduler();
    // Resumed by ready(); dispatch() has restored Running status.
    g->blockReason = BlockReason::None;
    g->blockObj = 0;
}

void
Scheduler::ready(Goroutine *g, const SourceLoc &loc)
{
    if (g->status != GoStatus::Blocked) {
        panic(strFormat("ready() on goroutine %u in state %s", g->id(),
                        goStatusName(g->status)));
    }
    ++tallies_.wakes;
    emit(trace::EventType::GoUnblock, loc, g->id());
    g->status = GoStatus::Runnable;
    runq_.push_back(g);
}

void
Scheduler::sleepNs(uint64_t ns, const SourceLoc &loc)
{
    Goroutine *g = current_;
    if (!g)
        panic("sleepNs outside goroutine context");
    emit(trace::EventType::GoSleep, loc, static_cast<int64_t>(ns));
    addTimer(clock_ + ns, [this, g, loc] { ready(g, loc); });
    g->status = GoStatus::Blocked;
    g->blockReason = BlockReason::Sleep;
    g->blockLoc = loc;
    switchToScheduler();
    g->blockReason = BlockReason::None;
}

void
Scheduler::addTimer(uint64_t deadline, std::function<void()> fn)
{
    timers_.push(Timer{deadline, timerSeq_++, std::move(fn)});
}

void
Scheduler::gopanic(const std::string &msg, const SourceLoc &loc)
{
    pendingPanicLoc_ = loc;
    throw GoPanic(msg);
}

Goroutine *
Scheduler::goroutine(uint32_t gid)
{
    if (gid == 0 || gid > goroutines_.size())
        return nullptr;
    return goroutines_[gid - 1];
}

char *
Scheduler::allocStack()
{
    bool pooled = false;
    char *s = StackPool::forThread().acquire(cfg_.stackSize, &pooled);
    ++(pooled ? tallies_.stackPoolHits : tallies_.stackPoolMisses);
    return s;
}

void
Scheduler::releaseStack(Goroutine *g)
{
    if (g->stack) {
        StackPool::forThread().release(g->stack, g->stackSize);
        g->stack = nullptr;
    }
}

/**
 * Fiber entry trampoline: runs the goroutine body, converts Go panics
 * into the Crash outcome, and hands control back to the scheduler.
 * Never returns.
 */
void
fiberMainTrampoline(void *arg)
{
    auto *g = static_cast<Goroutine *>(arg);
    Scheduler::require().fiberMain(g);
    panic("fiberMain returned");
}

void
Scheduler::fiberMain(Goroutine *g)
{
    try {
        g->runBody();
        if (g == mainG_) {
            // Main hands off to the root goroutine at trace stop; in a
            // successful run this GoSched is main's final event
            // (Procedure 1's root condition).
            emit(trace::EventType::GoSched, SourceLoc("main", 0),
                 trace::SchedTagTraceStop);
            mainEnded_ = true;
        } else {
            emit(trace::EventType::GoEnd, g->creationLoc());
        }
    } catch (const GoPanic &p) {
        emit(trace::EventType::GoPanic, pendingPanicLoc_, 0, 0, 0, 0,
             p.what());
        g->panicked = true;
        panicked_ = true;
        pendingPanicMsg_ = p.what();
        panicGid_ = g->id();
        if (g == mainG_)
            mainEnded_ = true;
    }
    g->status = GoStatus::Dead;
    g->dropBody();
    switchToScheduler();
    panic("dead goroutine rescheduled");
}

void
Scheduler::switchToScheduler()
{
    Goroutine *g = current_;
    FiberContext::swap(g->ctx, schedCtx_);
}

void
Scheduler::dispatch(Goroutine *g)
{
    ++tallies_.dispatches;
    current_ = g;
    g->status = GoStatus::Running;
    if (!g->started) {
        g->started = true;
        g->stack = allocStack();
        g->stackSize = cfg_.stackSize;
        g->ctx.prepare(g->stack, g->stackSize, &fiberMainTrampoline, g);
        emit(trace::EventType::GoStart, g->creationLoc());
    }
    // One fiber_switch sample is the full dispatch round trip: swap
    // in, the goroutine's run segment, swap back out. `total` is the
    // (deterministic) dispatch count; the latency distribution is the
    // timeslice length.
    obs::ProfileScope prof(obs::Stage::FiberSwitch);
    FiberContext::swap(schedCtx_, g->ctx);
    current_ = nullptr;
    if (g->status == GoStatus::Dead)
        releaseStack(g);
}

void
Scheduler::advanceClock()
{
    if (timers_.empty())
        panic("advanceClock with no timers");
    uint64_t deadline = timers_.top().deadline;
    clock_ = deadline;
    while (!timers_.empty() && timers_.top().deadline <= clock_) {
        // The callback may add timers; copy it out before popping.
        auto fn = timers_.top().fn;
        timers_.pop();
        // Timer fires count as steps so a re-arming timer that makes no
        // progress (e.g. a dropped-tick Ticker) trips the step budget
        // instead of spinning the clock forever.
        ++steps_;
        ++tallies_.timerFires;
        fn();
    }
}

ExecResult
Scheduler::run(std::function<void()> main_fn)
{
    if (running_)
        panic("Scheduler::run is not reentrant");
    running_ = true;
    Scheduler *prev = tlsSched;
    tlsSched = this;

    ExecResult res;
    res.seed = cfg_.seed;

    emit(trace::EventType::TraceStart, SourceLoc("main", 0));
    uint32_t main_gid =
        spawn(std::move(main_fn), SourceLoc("main", 0), false, "main");
    mainG_ = goroutine(main_gid);

    bool draining = false;
    uint64_t drain_start = 0;
    bool budget_hit = false;

    uint64_t interrupt_check = 0;
    while (true) {
        if (panicked_)
            break;
        if (steps_ > cfg_.stepBudget) {
            budget_hit = true;
            break;
        }
        // Poll the operator-interrupt flag every 256 dispatches: cheap
        // enough for the hot loop, prompt enough that a SIGINT/SIGTERM
        // ends the run within microseconds. The run winds down through
        // the step-budget path so teardown (ring flush, tallies) is
        // the normal one.
        if ((++interrupt_check & 0xff) == 0 && interruptRequested()) {
            budget_hit = true;
            res.interrupted = true;
            break;
        }
        if (runq_.empty()) {
            // Nothing runnable: service the virtual clock unless main
            // already returned (a terminated program fires no timers).
            if (!draining && !timers_.empty()) {
                advanceClock();
                continue;
            }
            break;
        }
        if (draining && steps_ - drain_start > cfg_.postMainBudget)
            break;
        Goroutine *g = runq_.front();
        runq_.pop_front();
        dispatch(g);
        if (mainEnded_ && !draining) {
            draining = true;
            drain_start = steps_;
        }
    }

    // Classify the outcome.
    if (panicked_) {
        res.outcome = RunOutcome::Crash;
        res.panicMsg = pendingPanicMsg_;
        res.panicGid = panicGid_;
    } else if (budget_hit) {
        res.outcome = RunOutcome::StepBudget;
    } else if (!mainEnded_) {
        // Run queue and timers drained with main still alive: Go's
        // built-in "all goroutines are asleep - deadlock!" condition.
        res.outcome = RunOutcome::GlobalDeadlock;
    } else {
        res.outcome = RunOutcome::Ok;
    }

    // Collect still-live application goroutines (leak candidates).
    for (const auto &g : goroutines_) {
        if (g->system() || g->status == GoStatus::Dead)
            continue;
        LeakInfo li;
        li.gid = g->id();
        li.name = g->name();
        li.creationLoc = g->creationLoc();
        li.status = g->status;
        li.reason = g->blockReason;
        li.blockLoc = g->blockLoc;
        res.leaked.push_back(li);
    }

    emit(trace::EventType::TraceStop, SourceLoc("main", 0));
    res.steps = steps_;

    // Batched tallies: in ring mode no per-event counter was touched
    // during the run; fold the ring's type counts in one pass now,
    // before the registry flush.
    if (ring_)
        ring_->foldTypeCounts(tallies_.event);

    flushMetrics(tallies_, res.outcome,
                 static_cast<int64_t>(StackPool::forThread().pooled()),
                 static_cast<int64_t>(goroutines_.size()), steps_);
    tallies_ = SchedTallies{}; // run() may be called again on this object

    tlsSched = prev;
    running_ = false;
    return res;
}

} // namespace goat::runtime
