#include "runtime/context.hh"

#include <cstring>

#include "base/logging.hh"

#if defined(__unix__) || defined(__APPLE__)
#define GOAT_MMAP_STACKS 1
#include <sys/mman.h>
#include <unistd.h>
#endif

#ifdef GOAT_ASAN_FIBERS
#include <pthread.h>
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

#ifdef GOAT_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

namespace goat::runtime {

StackPool &
StackPool::forThread()
{
    thread_local StackPool pool;
    return pool;
}

StackPool::Entry
StackPool::mapStack(size_t size)
{
#ifdef GOAT_MMAP_STACKS
    static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    // Round the usable range up to whole pages and prepend one guard
    // page; release() and unmapStack() recompute the same geometry.
    size_t usable = (size + page - 1) & ~(page - 1);
    int flags = MAP_PRIVATE | MAP_ANONYMOUS;
#ifdef MAP_STACK
    flags |= MAP_STACK;
#endif
    void *base = mmap(nullptr, usable + page, PROT_READ | PROT_WRITE,
                      flags, -1, 0);
    if (base == MAP_FAILED)
        panic("mmap of fiber stack failed");
    if (mprotect(base, page, PROT_NONE) != 0)
        panic("mprotect of fiber guard page failed");
    return Entry{static_cast<char *>(base) + page, size};
#else
    return Entry{new char[size], size};
#endif
}

void
StackPool::unmapStack(const Entry &e)
{
#ifdef GOAT_MMAP_STACKS
#ifdef GOAT_ASAN_FIBERS
    // The departing tenant's frame redzones must not outlive the
    // mapping: a later unrelated mmap can land on the same pages.
    __asan_unpoison_memory_region(e.stack, e.size);
#endif
    static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    size_t usable = (e.size + page - 1) & ~(page - 1);
    munmap(e.stack - page, usable + page);
#else
    delete[] e.stack;
#endif
}

char *
StackPool::acquire(size_t size, bool *pooled)
{
    // Sizes are uniform in practice (SchedConfig::stackSize); scan from
    // the back so a mixed-size workload still hits quickly.
    for (size_t i = free_.size(); i > 0; --i) {
        if (free_[i - 1].size == size) {
            char *s = free_[i - 1].stack;
            free_.erase(free_.begin() + static_cast<ptrdiff_t>(i - 1));
            if (pooled)
                *pooled = true;
            return s;
        }
    }
    if (pooled)
        *pooled = false;
    return mapStack(size).stack;
}

void
StackPool::release(char *stack, size_t size)
{
    if (free_.size() >= kMaxRetained) {
        unmapStack(Entry{stack, size});
        return;
    }
    free_.push_back(Entry{stack, size});
}

StackPool::~StackPool()
{
    for (const Entry &e : free_)
        unmapStack(e);
}

namespace {

#ifdef GOAT_ASAN_FIBERS

/** The calling thread's stack bounds (for the scheduler's context). */
void
currentThreadStack(const void **bottom, size_t *size)
{
    pthread_attr_t attr;
    if (pthread_getattr_np(pthread_self(), &attr) != 0)
        panic("pthread_getattr_np failed");
    void *base = nullptr;
    size_t sz = 0;
    if (pthread_attr_getstack(&attr, &base, &sz) != 0)
        panic("pthread_attr_getstack failed");
    pthread_attr_destroy(&attr);
    *bottom = base;
    *size = sz;
}

#endif // GOAT_ASAN_FIBERS

/**
 * Tell the sanitizers a fresh fiber stack is about to be (re)used. For
 * ASan: record its bounds for switch-time adoption and clear any poison
 * left by the previous tenant of a recycled stack. For TSan: give the
 * context a fiber of its own.
 */
void
sanitizerPrepareStack([[maybe_unused]] FiberContext *ctx,
                      [[maybe_unused]] void *stack_base,
                      [[maybe_unused]] size_t stack_size)
{
#ifdef GOAT_ASAN_FIBERS
    ctx->asanSetStack(stack_base, stack_size);
    __asan_unpoison_memory_region(stack_base, stack_size);
#endif
#ifdef GOAT_TSAN_FIBERS
    ctx->tsanPrepare();
#endif
}

} // namespace

#ifdef GOAT_ASAN_FIBERS

void
FiberContext::asanSetStack(const void *bottom, size_t size)
{
    asanBottom_ = bottom;
    asanSize_ = size;
}

void
FiberContext::asanBeginSwitch(FiberContext &from, FiberContext &to)
{
    // The scheduler's own context never passes through prepare(): it
    // lives on the OS thread stack, whose bounds are self-detected the
    // first time the scheduler suspends itself.
    if (from.asanBottom_ == nullptr)
        currentThreadStack(&from.asanBottom_, &from.asanSize_);
    // &from.asanFake_ (rather than nullptr) keeps from's fake-stack
    // frames alive across the suspension; dying fibers leak their fake
    // stack, which only matters under detect_stack_use_after_return.
    __sanitizer_start_switch_fiber(&from.asanFake_, to.asanBottom_,
                                   to.asanSize_);
}

void
FiberContext::asanEndSwitch(FiberContext &from)
{
    // Runs on arrival back in `from`, completing the switch its
    // suspension started.
    __sanitizer_finish_switch_fiber(from.asanFake_, nullptr, nullptr);
}

/** First-entry half of the protocol for a brand-new fiber. */
extern "C" void
goat_asan_fiber_entered()
{
    __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
}

#endif // GOAT_ASAN_FIBERS

#ifdef GOAT_TSAN_FIBERS

FiberContext::~FiberContext()
{
    // Contexts die on the thread's own stack (~Scheduler), never while
    // their fiber runs.
    if (tsanOwned_)
        __tsan_destroy_fiber(tsanFiber_);
}

void
FiberContext::tsanPrepare()
{
    if (tsanOwned_)
        __tsan_destroy_fiber(tsanFiber_);
    tsanFiber_ = __tsan_create_fiber(0);
    tsanOwned_ = true;
}

void
FiberContext::tsanSwitch(FiberContext &from, FiberContext &to)
{
    // The scheduler's context never passes through prepare(): it runs
    // on the thread's own fiber, adopted the first time it switches
    // away.
    if (from.tsanFiber_ == nullptr)
        from.tsanFiber_ = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(to.tsanFiber_, 0);
}

#endif // GOAT_TSAN_FIBERS

} // namespace goat::runtime

#ifdef GOAT_USE_UCONTEXT

namespace goat::runtime {

namespace {

/** Trampoline splitting a pointer across makecontext's int arguments. */
void
ucontextTrampoline(unsigned hi_entry, unsigned lo_entry, unsigned hi_arg,
                   unsigned lo_arg)
{
#ifdef GOAT_ASAN_FIBERS
    goat_asan_fiber_entered();
#endif
    auto join = [](unsigned hi, unsigned lo) {
        return (static_cast<uintptr_t>(hi) << 32) | lo;
    };
    auto entry = reinterpret_cast<FiberEntry>(join(hi_entry, lo_entry));
    entry(reinterpret_cast<void *>(join(hi_arg, lo_arg)));
    panic("fiber entry returned");
}

} // namespace

void
FiberContext::prepare(void *stack_base, size_t stack_size, FiberEntry entry,
                      void *arg)
{
    // Unpoison first: a recycled stack still carries the previous
    // fiber's frame redzones, and both makecontext and the priming
    // writes below land inside them.
    sanitizerPrepareStack(this, stack_base, stack_size);
    if (getcontext(&uctx_) != 0)
        panic("getcontext failed");
    uctx_.uc_stack.ss_sp = stack_base;
    uctx_.uc_stack.ss_size = stack_size;
    uctx_.uc_link = nullptr;
    auto ep = reinterpret_cast<uintptr_t>(entry);
    auto ap = reinterpret_cast<uintptr_t>(arg);
    makecontext(&uctx_, reinterpret_cast<void (*)()>(ucontextTrampoline), 4,
                static_cast<unsigned>(ep >> 32),
                static_cast<unsigned>(ep & 0xffffffffu),
                static_cast<unsigned>(ap >> 32),
                static_cast<unsigned>(ap & 0xffffffffu));
}

void
FiberContext::swap(FiberContext &from, FiberContext &to)
{
#ifdef GOAT_ASAN_FIBERS
    asanBeginSwitch(from, to);
#endif
#ifdef GOAT_TSAN_FIBERS
    tsanSwitch(from, to);
#endif
    if (swapcontext(&from.uctx_, &to.uctx_) != 0)
        panic("swapcontext failed");
#ifdef GOAT_ASAN_FIBERS
    asanEndSwitch(from);
#endif
}

} // namespace goat::runtime

#else // hand-written x86-64 switch

extern "C" {
void goat_ctx_swap(void **save_sp, void *load_sp);
void goat_ctx_entry_thunk();
}

namespace goat::runtime {

void
FiberContext::prepare(void *stack_base, size_t stack_size, FiberEntry entry,
                      void *arg)
{
    // The assembly thunk moves the r15 slot into rdi and calls
    // goat_fiber_entry; the scheduler routes that to the real entry. We
    // support arbitrary entry functions by storing the entry pointer in
    // the r14 slot, which goat_fiber_entry retrieves via its argument
    // block. To keep the asm trivial the (entry, arg) pair is boxed here.
    struct EntryBox
    {
        FiberEntry entry;
        void *arg;
    };

    // Unpoison first: a recycled stack still carries the previous
    // fiber's frame redzones, and the priming writes below land
    // inside them.
    sanitizerPrepareStack(this, stack_base, stack_size);

    auto top =
        reinterpret_cast<uintptr_t>(stack_base) + stack_size;
    top &= ~static_cast<uintptr_t>(15);

    // Reserve space for the entry box at the top of the stack.
    top -= sizeof(EntryBox);
    top &= ~static_cast<uintptr_t>(15);
    auto *box = reinterpret_cast<EntryBox *>(top);
    box->entry = entry;
    box->arg = arg;

    // Stack layout consumed by goat_ctx_swap's epilogue, low → high:
    //   [r15 r14 r13 r12 rbx rbp] [ret=thunk] [0 guard]
    // The thunk is entered with rsp = sp + 56; it calls
    // goat_fiber_entry, so sp + 56 must be 16-byte aligned.
    uintptr_t sp = top - 64;
    if ((sp + 56) & 15)
        sp -= 8;

    auto *slots = reinterpret_cast<uintptr_t *>(sp);
    slots[0] = reinterpret_cast<uintptr_t>(box); // r15 -> rdi at entry
    slots[1] = 0;                                // r14
    slots[2] = 0;                                // r13
    slots[3] = 0;                                // r12
    slots[4] = 0;                                // rbx
    slots[5] = 0;                                // rbp
    slots[6] = reinterpret_cast<uintptr_t>(&goat_ctx_entry_thunk);
    slots[7] = 0;                                // backtrace terminator

    sp_ = reinterpret_cast<void *>(sp);
}

void
FiberContext::swap(FiberContext &from, FiberContext &to)
{
#ifdef GOAT_ASAN_FIBERS
    asanBeginSwitch(from, to);
#endif
#ifdef GOAT_TSAN_FIBERS
    tsanSwitch(from, to);
#endif
    goat_ctx_swap(&from.sp_, to.sp_);
#ifdef GOAT_ASAN_FIBERS
    asanEndSwitch(from);
#endif
}

} // namespace goat::runtime

/**
 * C entry invoked by the assembly thunk on a fresh fiber: unbox the
 * (entry, arg) pair and tail into the real fiber entry.
 */
extern "C" void
goat_fiber_entry(void *boxed)
{
#ifdef GOAT_ASAN_FIBERS
    goat::runtime::goat_asan_fiber_entered();
#endif
    struct EntryBox
    {
        goat::runtime::FiberEntry entry;
        void *arg;
    };
    auto *box = static_cast<EntryBox *>(boxed);
    box->entry(box->arg);
    goat::panic("fiber entry returned");
}

#endif // GOAT_USE_UCONTEXT
