/**
 * @file
 * GoKer bug-kernel registry.
 *
 * The GoBench GoKer suite contains 68 blocking bug kernels extracted
 * from the top nine open-source Go projects. This module re-implements
 * those kernels in C++ against the GoAT-CPP runtime, preserving each
 * bug's cause class (resource / communication / mixed deadlock), its
 * symptom (leak, global deadlock, crash under some schedules), and its
 * rarity structure (most manifest on the first run; a tail requires
 * many schedules). Kernels register themselves via GOKER_KERNEL and
 * are discovered through the registry by name or project.
 */

#ifndef GOAT_GOKER_REGISTRY_HH
#define GOAT_GOKER_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "staticmodel/cutable.hh"
#include "staticmodel/lint.hh"

namespace goat::goker {

/** GoBench cause taxonomy for blocking bugs. */
enum class BugClass : uint8_t
{
    ResourceDeadlock,      ///< Circular wait on locks.
    CommunicationDeadlock, ///< Channel misuse.
    MixedDeadlock,         ///< Locks and channels entangled.
};

const char *bugClassName(BugClass c);

/**
 * One registered bug kernel.
 */
struct KernelInfo
{
    std::string name;        ///< e.g. "moby_28462"
    std::string project;     ///< e.g. "moby"
    BugClass bugClass;
    std::string description; ///< What the original bug was.
    std::function<void()> fn;
    std::string sourceFile;  ///< __FILE__ of the kernel.
    int line = 0;            ///< Registration line (kernel start).
    /**
     * Hostile fault-injection kernel (GOKER_HOSTILE_KERNEL): crashes
     * the process, livelocks the scheduler thread, or allocates
     * unboundedly under some schedules. Exercises the campaign
     * supervisor (-isolate); excluded from all() so plain sweeps and
     * representative suites never run one in-process by accident.
     */
    bool hostile = false;
};

/**
 * Process-wide kernel registry (populated by static registration).
 */
class KernelRegistry
{
  public:
    static KernelRegistry &instance();

    void add(KernelInfo info);

    /** Kernel by exact name (nullptr when unknown). */
    const KernelInfo *find(const std::string &name) const;

    /** All non-hostile kernels, sorted by (project, name). */
    std::vector<const KernelInfo *> all() const;

    /** All hostile kernels (see KernelInfo::hostile), sorted by name. */
    std::vector<const KernelInfo *> allHostile() const;

    /** Kernels of one project, sorted by name. */
    std::vector<const KernelInfo *>
    byProject(const std::string &project) const;

    /** Distinct project names, sorted. */
    std::vector<std::string> projects() const;

    size_t size() const { return kernels_.size(); }

  private:
    friend std::pair<uint32_t, uint32_t> kernelSpan(const KernelInfo &);

    std::vector<KernelInfo> kernels_;
    /** Registration lines per source file, sorted (kernelSpan). */
    std::map<std::string, std::vector<int>> lines_;
};

/** Static registration helper used by GOKER_KERNEL. */
struct KernelAutoReg
{
    KernelAutoReg(const char *name, const char *project, BugClass cls,
                  const char *desc, std::function<void()> fn,
                  const char *file, int line, bool hostile = false);
};

/**
 * Build the static CU model of one kernel: the CUs of its source
 * file that lie inside the kernel's line span (bounded by the next
 * kernel registration in the same file). The file is scanned once per
 * process, on the first call for any of its kernels, and every later
 * call (from any thread) slices that shared scan. The region scan
 * behind kernelLintReport, kernelMhpPairsStr and kernelMhpSites is
 * shared the same way. A missing file gives empty results.
 */
staticmodel::CuTable kernelCuTable(const KernelInfo &kernel);

/**
 * Line span [begin, end) of @p kernel in its source file: from its
 * registration line to the next registration in the same file (end =
 * 1<<30 when none follows). A lookup in the file's sorted
 * registration lines, which the registry keeps as kernels register.
 */
std::pair<uint32_t, uint32_t> kernelSpan(const KernelInfo &kernel);

/**
 * Run the static lint pass (staticmodel/lint.hh) over one kernel's
 * line span. The seeded GoKer bugs are designed to be reachable by
 * schedule perturbation, and most carry a static signature the pass
 * recognizes (double-lock, lock-order cycle, send-under-lock, ...).
 */
staticmodel::LintReport kernelLintReport(const KernelInfo &kernel);

/**
 * Flow-aware MHP pair dump of one kernel's span (the `-mhp-out=`
 * format, staticmodel/mhp.hh mhpPairsStr): one sorted line per site
 * pair the fork-join analysis cannot order.
 */
std::string kernelMhpPairsStr(const KernelInfo &kernel);

/**
 * Unique source sites on at least one MHP pair of @p kernel — the
 * priority seed set a `-mhp-prune` campaign feeds to the priority-site
 * perturber. Static input, so identical across workers and runs.
 */
std::vector<SourceLoc> kernelMhpSites(const KernelInfo &kernel);

/**
 * Define and register a bug kernel:
 *
 * @code
 *   GOKER_KERNEL(moby_28462, "moby", BugClass::MixedDeadlock,
 *                "monitor leaks on mutex/channel circular wait")
 *   {
 *       ... kernel body using the goat API ...
 *   }
 * @endcode
 */
#define GOKER_KERNEL(kname, kproject, kclass, kdesc)                       \
    static void goker_body_##kname();                                      \
    static const ::goat::goker::KernelAutoReg goker_reg_##kname(           \
        #kname, kproject, kclass, kdesc, &goker_body_##kname, __FILE__,    \
        __LINE__);                                                         \
    static void goker_body_##kname()

/**
 * Define and register a *hostile* fault-injection kernel (project
 * "hostile"): one that crashes, livelocks, or exhausts memory under
 * some schedules. Hostile kernels are supervisor test fixtures — they
 * are excluded from all() and only run via -kernel=<name> or the
 * -kernel=hostile sweep, which require -isolate.
 */
#define GOKER_HOSTILE_KERNEL(kname, kdesc)                                 \
    static void goker_body_##kname();                                      \
    static const ::goat::goker::KernelAutoReg goker_reg_##kname(           \
        #kname, "hostile", ::goat::goker::BugClass::MixedDeadlock,         \
        kdesc, &goker_body_##kname, __FILE__, __LINE__, true);             \
    static void goker_body_##kname()

} // namespace goat::goker

#endif // GOAT_GOKER_REGISTRY_HH
