/**
 * @file
 * Fiber context-switch abstraction.
 *
 * Goroutines are user-level fibers multiplexed on one OS thread. The
 * default implementation is a minimal hand-written x86-64 SysV context
 * switch (callee-saved registers + stack pointer, no signal mask — the
 * sigprocmask syscall makes ucontext an order of magnitude slower).
 * Building with GOAT_USE_UCONTEXT selects the portable POSIX ucontext
 * implementation instead.
 */

#ifndef GOAT_RUNTIME_CONTEXT_HH
#define GOAT_RUNTIME_CONTEXT_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#ifdef GOAT_USE_UCONTEXT
#include <ucontext.h>
#endif

/**
 * AddressSanitizer cannot follow a user-level stack switch on its own:
 * it tracks one stack region per thread and poisons/unpoisons frames
 * against it. Without help, the first fiber switch makes every stack
 * access look wild and panic unwinding (__asan_handle_no_return) stops
 * working. When ASan is enabled the context layer therefore brackets
 * every switch with __sanitizer_start_switch_fiber /
 * __sanitizer_finish_switch_fiber and unpoisons recycled stacks, which
 * makes both the assembly switch and the ucontext fallback clean under
 * -fsanitize=address.
 */
#if defined(__SANITIZE_ADDRESS__)
#define GOAT_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GOAT_ASAN_FIBERS 1
#endif
#endif

/**
 * ThreadSanitizer keeps one shadow call stack and one vector clock per
 * thread, so it too must be told about every fiber: under
 * -fsanitize=thread each prepared context owns a TSan fiber
 * (__tsan_create_fiber, destroyed with the context), the scheduler's
 * context adopts the thread's own, and every switch is announced with
 * __tsan_switch_to_fiber. The switch synchronizes, which matches the
 * cooperative runtime: fibers of one thread never overlap.
 */
#if defined(__SANITIZE_THREAD__)
#define GOAT_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GOAT_TSAN_FIBERS 1
#endif
#endif

namespace goat::runtime {

/** Entry function type for a fresh fiber. Must never return. */
using FiberEntry = void (*)(void *arg);

/**
 * Thread-local pool of fiber stacks, recycled across Scheduler
 * instances: a campaign worker tears its scheduler down after every
 * iteration, and without pooling each iteration re-allocates (and
 * re-faults) every goroutine stack. Stacks are mmap'd with a PROT_NONE
 * guard page below the usable range, so a fiber overflow faults
 * instead of silently corrupting a neighbouring allocation.
 *
 * Not thread-safe by design — each worker thread has its own pool via
 * forThread(); a stack must be released on the thread that acquired
 * it (true for the cooperative scheduler, which never migrates).
 */
class StackPool
{
  public:
    /** The calling thread's pool (created on first use). */
    static StackPool &forThread();

    /**
     * Acquire a stack of @p size usable bytes.
     *
     * @param[out] pooled True when the stack was recycled (telemetry).
     * @return Lowest usable address (guard page excluded).
     */
    char *acquire(size_t size, bool *pooled);

    /** Return a stack for reuse (frees it past the retention cap). */
    void release(char *stack, size_t size);

    /** Currently pooled (idle) stacks. */
    size_t pooled() const { return free_.size(); }

    ~StackPool();

    StackPool(const StackPool &) = delete;
    StackPool &operator=(const StackPool &) = delete;

  private:
    StackPool() = default;

    struct Entry
    {
        char *stack; ///< Usable base (guard page below).
        size_t size; ///< Usable bytes.
    };

    static Entry mapStack(size_t size);
    static void unmapStack(const Entry &e);

    /** Retention cap: 64 × 256 KiB ≈ 16 MiB per worker thread. */
    static constexpr size_t kMaxRetained = 64;

    std::vector<Entry> free_;
};

/**
 * Saved execution context of one fiber (or of the scheduler itself).
 */
class FiberContext
{
  public:
    FiberContext() = default;
    FiberContext(const FiberContext &) = delete;
    FiberContext &operator=(const FiberContext &) = delete;
#ifdef GOAT_TSAN_FIBERS
    ~FiberContext();
#endif

    /**
     * Prepare a fresh context so the first swap() into it enters
     * @p entry(@p arg) on the given stack.
     *
     * @param stack_base Lowest address of the fiber stack.
     * @param stack_size Stack size in bytes.
     * @param entry Fiber entry point (must never return).
     * @param arg Opaque argument passed to @p entry.
     */
    void prepare(void *stack_base, size_t stack_size, FiberEntry entry,
                 void *arg);

    /**
     * Save the current context into @p from and resume @p to.
     * Returns when something later swaps back into @p from.
     */
    static void swap(FiberContext &from, FiberContext &to);

#ifdef GOAT_ASAN_FIBERS
    /** Record the stack ASan should adopt when entering this context. */
    void asanSetStack(const void *bottom, size_t size);
    /** First half of the ASan switch protocol (before the real swap). */
    static void asanBeginSwitch(FiberContext &from, FiberContext &to);
    /** Second half, on arrival back in @p from. */
    static void asanEndSwitch(FiberContext &from);
#endif
#ifdef GOAT_TSAN_FIBERS
    /** Give this (fresh) context a TSan fiber of its own. */
    void tsanPrepare();
    /** Announce the switch to TSan (before the real swap). */
    static void tsanSwitch(FiberContext &from, FiberContext &to);
#endif

  private:
#ifdef GOAT_USE_UCONTEXT
    ucontext_t uctx_;
#else
    void *sp_ = nullptr;
#endif
#ifdef GOAT_ASAN_FIBERS
    /** ASan fake-stack handle saved while this context is suspended. */
    void *asanFake_ = nullptr;
    /** Stack bounds ASan should adopt when switching into this context
        (filled by prepare(); lazily self-detected for the scheduler's
        own thread-stack context). */
    const void *asanBottom_ = nullptr;
    size_t asanSize_ = 0;
#endif
#ifdef GOAT_TSAN_FIBERS
    /** TSan fiber entered by switching here (prepare() creates one;
        the scheduler's context adopts the thread's own). */
    void *tsanFiber_ = nullptr;
    /** tsanFiber_ was created by prepare() and dies with the context. */
    bool tsanOwned_ = false;
#endif
};

} // namespace goat::runtime

#endif // GOAT_RUNTIME_CONTEXT_HH
