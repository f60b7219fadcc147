/**
 * @file
 * Concurrency coverage requirements and measurement (paper §III-C,
 * Table I):
 *
 *  - Req1 Send/Recv: {blocked, unblocking, NOP} per channel send or
 *    receive CU;
 *  - Req2 Select-Case: {blocked, unblocking, NOP} per runtime-
 *    discovered case of each default-less select CU;
 *  - Req3 Lock: {blocked, blocking} per lock CU;
 *  - Req4 Unblocking: {unblocking, NOP} per close / unlock / signal /
 *    broadcast / waitgroup-done CU and per non-blocking (default-
 *    carrying) select CU;
 *  - Req5 Go: {NOP} per goroutine-creation CU.
 *
 * Requirement instances exist at two granularities: program level (one
 * instance per CU, created from the static model), and goroutine-node
 * level (instances materialize when a node of the *global* goroutine
 * tree first executes the CU). Node identity across executions uses
 * the paper's equivalence: equal parents and equal creation CU. A
 * node's scope is interned as the pair (parent scope, creation
 * location), with main's scope fixed, and is rendered as the chain
 * "main>loc>...>loc" of creation locations. Because select cases and
 * goroutine nodes are discovered at run time, the requirement universe
 * grows during testing — coverage percentage can therefore drop when
 * an execution uncovers new behaviour (the paper's fig. 6b, D1).
 *
 * Representation: requirements are interned process-wide as dense
 * integer ids (see ReqId); a state is two bit sets over those ids plus
 * counters, which every report reads back. Key strings ("<file>:<line>
 * <kind>[/case<i>] <type>", node-level ones prefixed "<scope>|") are
 * rendered only by the report calls (bitmapStr, uncovered, tableStr,
 * deltaBitmap) and parsed only by parseBitmap.
 *
 * One execution's contribution is computed by a CoverageScratch as a
 * small CoverageDelta — exactly what a fresh state on the static
 * universe would gain from that trace alone — and folded with
 * CoverageState::applyDelta. addEct is that pair of steps, so folding
 * per-execution deltas in any grouping gives the same state.
 */

#ifndef GOAT_ANALYSIS_COVERAGE_HH
#define GOAT_ANALYSIS_COVERAGE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "staticmodel/cutable.hh"
#include "trace/ect.hh"

namespace goat::analysis {

class GoroutineTree;

/** Behaviour classes a requirement can demand (Table I columns). */
enum class ReqType : uint8_t
{
    Blocked,    ///< The operation parked its goroutine.
    Unblocking, ///< The operation made ≥1 parked goroutine runnable.
    Nop,        ///< Neither blocked nor unblocking.
    Blocking,   ///< Lock-specific: held while another goroutine waited.
};

const char *reqTypeName(ReqType t);

/**
 * Dense requirement id. A requirement group — (scope, CU location, CU
 * kind, select case), where the scope is the program or one node of
 * the global goroutine tree — is interned once per process; its ids
 * are group * 4 + ReqType, so an id's two low bits name its type. Ids
 * are stable for the life of the process but depend on interning
 * order, so nothing that leaves the process carries them: reports
 * render key strings.
 */
using ReqId = uint32_t;

/** Growable bit set over ReqIds. */
class ReqBits
{
  public:
    bool
    test(ReqId id) const
    {
        size_t w = id >> 6;
        return w < words_.size() && ((words_[w] >> (id & 63)) & 1) != 0;
    }

    /** Set @p id; true when it was clear. */
    bool set(ReqId id);

    /**
     * this |= @p o. Returns the number of newly set bits and adds the
     * per-ReqType split of them to @p new_by_type (may be null).
     */
    size_t unite(const ReqBits &o, size_t *new_by_type);

    /** Call @p f(id) for every set id, ascending. */
    template <class F>
    void
    forEach(F f) const
    {
        for (size_t w = 0; w < words_.size(); ++w) {
            for (uint64_t bits = words_[w]; bits; bits &= bits - 1)
                f(static_cast<ReqId>(w * 64 + __builtin_ctzll(bits)));
        }
    }

  private:
    std::vector<uint64_t> words_;
};

namespace detail {
struct ScratchImpl;
}

/**
 * The static requirement universe of one CU table: the program-level
 * requirement ids of every static CU, interned once. Built once per
 * campaign and shared read-only (through shared_ptr) by the merged
 * state, every worker's scratch and every per-worker state.
 */
class CoverageUniverse
{
  public:
    explicit CoverageUniverse(staticmodel::CuTable statics);

    CoverageUniverse(const CoverageUniverse &) = delete;
    CoverageUniverse &operator=(const CoverageUniverse &) = delete;

    const staticmodel::CuTable &statics() const { return statics_; }

    /** The static requirement ids. */
    const ReqBits &required() const { return required_; }

    /** Number of static requirement ids. */
    size_t size() const { return count_; }

  private:
    staticmodel::CuTable statics_;
    ReqBits required_;
    size_t count_ = 0;
};

/**
 * One execution's coverage contribution relative to the static
 * universe it was computed on: exactly what a fresh state on that
 * universe gains from the trace: a few hundred bytes on the GoKer
 * kernels, which is what a campaign keeps per iteration until its merge.
 */
struct CoverageDelta
{
    /** Requirement ids the execution added beyond the universe. */
    std::vector<ReqId> required;
    /** Requirement ids the execution covered. */
    std::vector<ReqId> covered;

    void clear();
};

/**
 * Parse a CoverageState::bitmapStr() serialization into the delta that
 * restores it: the uncovered requirements in `required`, the covered
 * ones in `covered`. ReqIds are process-local, so key strings are what
 * crosses a process boundary (a checkpoint, a shard digest); this turns
 * them back into ids of this process. Returns false on a malformed line
 * or requirement key.
 */
bool parseBitmap(const std::string &bitmap, CoverageDelta *out);

/**
 * @p d's keys as parseBitmap reads them: "0 <key>" per required id,
 * "1 <key>" per covered one. What a shard ships for its iteration.
 */
std::string deltaBitmap(const CoverageDelta &d);

/**
 * Computes CoverageDeltas on one universe. Owns lookup caches that
 * persist across executions and per-execution flags reset through a
 * touched list, so once warm a delta costs no interning, string
 * building or state copy. Not thread-safe: one per worker.
 */
class CoverageScratch
{
  public:
    explicit CoverageScratch(std::shared_ptr<const CoverageUniverse> u);
    ~CoverageScratch();

    CoverageScratch(const CoverageScratch &) = delete;
    CoverageScratch &operator=(const CoverageScratch &) = delete;

    /**
     * Overwrite @p out with @p ect's contribution. @p tree is the
     * goroutine tree of the same trace.
     */
    void compute(const trace::Ect &ect, const GoroutineTree &tree,
                 CoverageDelta *out);

  private:
    std::shared_ptr<const CoverageUniverse> universe_;
    std::unique_ptr<detail::ScratchImpl> impl_;
};

/**
 * Cumulative coverage state across testing iterations.
 *
 * Construct with the static model (scanner output) so uncovered static
 * requirements are visible from iteration zero; CUs observed only
 * dynamically are added on the fly.
 */
class CoverageState
{
  public:
    explicit CoverageState(staticmodel::CuTable statics = {});

    /** A state on a shared universe (no interning work). */
    explicit CoverageState(std::shared_ptr<const CoverageUniverse> u);

    /** Fold one execution's trace into the coverage state. */
    void addEct(const trace::Ect &ect);

    /**
     * Like addEct(ect), but reusing a goroutine tree the caller already
     * built for the same trace.
     */
    void addEct(const trace::Ect &ect, const GoroutineTree &tree);

    /**
     * Fold one execution's contribution, computed by a CoverageScratch
     * on this state's universe. Set unions only, so folding deltas in
     * any grouping yields the same state.
     */
    void applyDelta(const CoverageDelta &d);

    /**
     * Union @p other into this state (the campaign merge step): the
     * required and covered sets union. Set union is commutative and
     * associative, so folding per-iteration states in any grouping
     * yields the same final state, which is what makes merged campaign
     * coverage independent of the worker count.
     */
    void mergeFrom(const CoverageState &other);

    /**
     * Canonical byte-exact serialization of the coverage bitmap: one
     * "0|1 <requirement key>" line per known requirement, sorted by
     * key. Equal strings ⇔ identical requirement universe and covered
     * set (campaign determinism tests compare these).
     */
    std::string bitmapStr() const;

    /**
     * Union a bitmapStr() serialization into this state (checkpoint
     * restore): parseBitmap, then applyDelta. The required and covered
     * sets are the whole state, so every report (tableStr included)
     * reads the same as on the state that wrote the bitmap. Returns
     * false, changing nothing, on a malformed line or requirement key.
     */
    bool restoreBitmap(const std::string &bitmap);

    /** Number of requirement instances known so far. */
    size_t totalRequirements() const { return nRequired_; }

    /** Number of requirement instances covered so far. */
    size_t coveredCount() const { return nCovered_; }

    /**
     * Covered requirement instances demanding behaviour @p t, at both
     * granularities. Kept incrementally, so O(1): the coverage-
     * saturation timeline (obs/saturation.hh) samples it every
     * merged iteration.
     */
    size_t
    coveredCountOfType(ReqType t) const
    {
        return coveredOfType_[static_cast<size_t>(t)];
    }

    /** Coverage percentage in [0, 100]; 100 for an empty universe. */
    double percent() const;

    /** All uncovered requirement keys (sorted). */
    std::vector<std::string> uncovered() const;

    /** True when the given requirement key is covered. */
    bool isCovered(const std::string &key) const;

    /** True when the given requirement key exists. */
    bool isRequired(const std::string &key) const;

    /**
     * Requirement key syntax (program level):
     *   "<file>:<line> <kind>[/case<i>] <type>"
     * Node-level instances are prefixed "<scope>|", where the scope is
     * "main" followed by one ">"-separated creation location per level.
     */
    static std::string key(const staticmodel::Cu &cu, ReqType type,
                           int case_idx = -1);

    /**
     * The universe's static CUs plus those of the program-level
     * requirements. Returned by value: hold it before iterating.
     */
    staticmodel::CuTable cuTable() const;

    /**
     * Printable per-CU coverage table in the style of the paper's
     * Table III: a row per program-level requirement and its status.
     */
    std::string tableStr() const;

  private:
    /** Mark @p id required (and covered) with the counters in step. */
    void require(ReqId id);
    void cover(ReqId id);

    /** The id a key string names (false: malformed or never seen). */
    bool findKey(const std::string &key, ReqId *id) const;

    std::shared_ptr<const CoverageUniverse> universe_;
    ReqBits required_;
    ReqBits covered_;
    size_t nRequired_ = 0;
    size_t nCovered_ = 0;
    size_t coveredOfType_[4] = {};
};

} // namespace goat::analysis

#endif // GOAT_ANALYSIS_COVERAGE_HH
