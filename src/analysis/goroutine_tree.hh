/**
 * @file
 * Goroutine tree reconstruction from an ECT (paper §III-E, fig. 3).
 *
 * Nodes are goroutines; a directed edge parent→child records that the
 * child was created by a go statement the parent executed. Each node
 * carries the goroutine's creation site and its final event: what the
 * deadlock check and the reports need. The tree holds no coverage
 * identity; the coverage walk derives a node's scope from its parent's
 * scope and its creation site (analysis/coverage.hh).
 *
 * Application-level filtering: a goroutine is application-level when it
 * is the main goroutine, or its ancestry reaches main and it is not a
 * runtime-system goroutine (watchdog/tracer), mirroring the paper's
 * call-stack-based classification.
 */

#ifndef GOAT_ANALYSIS_GOROUTINE_TREE_HH
#define GOAT_ANALYSIS_GOROUTINE_TREE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/slot_map.hh"
#include "trace/ect.hh"

namespace goat::analysis {

/**
 * One node of the goroutine tree.
 */
struct GoroutineNode
{
    uint32_t gid = 0;
    SourceLoc creationLoc;
    bool system = false;
    bool appLevel = false;
    /**
     * The goroutine's final event (valid when hasLast). Only the last
     * event is kept — every analysis consumer reads lastEvent(), and
     * copying each node's full event sequence dominated tree
     * construction on the campaign hot path. The full sequence remains
     * available by filtering the source Ect's events() on gid.
     */
    trace::Event last;
    bool hasLast = false;
    /** String payload of the final event (a panic message), or "". */
    std::string lastStr;
    std::vector<GoroutineNode *> children;

    /** Final event executed by this goroutine (nullptr when none). */
    const trace::Event *
    lastEvent() const
    {
        return hasLast ? &last : nullptr;
    }
};

/**
 * The goroutine tree of one execution.
 */
class GoroutineTree
{
  public:
    /** Build the tree from an execution concurrency trace. */
    explicit GoroutineTree(const trace::Ect &ect);

    /** Nodes point at each other: a copy would point into its source. */
    GoroutineTree(const GoroutineTree &) = delete;
    GoroutineTree &operator=(const GoroutineTree &) = delete;
    GoroutineTree(GoroutineTree &&) = default;
    GoroutineTree &operator=(GoroutineTree &&) = default;

    /**
     * The main goroutine's node.
     *
     * @retval nullptr for an empty trace.
     */
    const GoroutineNode *root() const { return root_; }

    /** Node by gid (nullptr when unknown). */
    const GoroutineNode *node(uint32_t gid) const;

    /**
     * Index of @p gid's node in nodes(), or nodes().size() when the
     * trace has no such goroutine.
     */
    size_t
    slot(uint32_t gid) const
    {
        uint32_t s = slots_.slot(gid);
        return s == SlotMap<uint32_t>::kNone ? nodes_.size() : s;
    }

    /**
     * Application-level nodes in BFS order from main (main first),
     * recorded while the constructor classifies them.
     */
    const std::vector<const GoroutineNode *> &
    appNodes() const
    {
        return appNodes_;
    }

    /**
     * All nodes (including system goroutines) in gid order: every gid
     * that acts in the trace or is created there. The scheduler
     * context (gid 0) has a node only if it created a goroutine.
     */
    const std::vector<GoroutineNode> &nodes() const { return nodes_; }

    /**
     * Call @p visit(node, depth) on every node reachable from main,
     * depth first with children in creation order (main at depth 0).
     * Each node is visited once: a parsed trace may name a creation
     * cycle (a goroutine that creates itself or an ancestor).
     */
    void walkDepthFirst(
        const std::function<void(const GoroutineNode &, int)> &visit) const;

  private:
    /** gid → index in nodes_. */
    SlotMap<uint32_t> slots_;
    std::vector<GoroutineNode> nodes_;
    GoroutineNode *root_ = nullptr;
    std::vector<const GoroutineNode *> appNodes_;
};

} // namespace goat::analysis

#endif // GOAT_ANALYSIS_GOROUTINE_TREE_HH
