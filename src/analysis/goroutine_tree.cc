#include "analysis/goroutine_tree.hh"

#include <deque>

namespace goat::analysis {

using trace::Event;
using trace::EventType;

GoroutineTree::GoroutineTree(const trace::Ect &ect)
{
    auto ensure = [&](uint32_t gid) -> GoroutineNode * {
        auto it = nodes_.find(gid);
        if (it != nodes_.end())
            return it->second.get();
        auto node = std::make_unique<GoroutineNode>();
        node->gid = gid;
        GoroutineNode *p = node.get();
        nodes_[gid] = std::move(node);
        return p;
    };

    for (const Event &ev : ect.events()) {
        if (ev.type == EventType::GoCreate) {
            auto child_gid = static_cast<uint32_t>(ev.args[0]);
            GoroutineNode *child = ensure(child_gid);
            child->parentGid = ev.gid;
            child->creationLoc = ev.loc;
            child->system = ev.args[1] != 0;
            GoroutineNode *parent = ensure(ev.gid);
            parent->children.push_back(child);
            parent->last = ev;
            parent->hasLast = true;
            continue;
        }
        if (ev.gid == 0)
            continue; // scheduler/tracer context
        GoroutineNode *n = ensure(ev.gid);
        n->last = ev;
        n->hasLast = true;
    }
    for (auto &[gid, n] : nodes_)
        if (n->hasLast && n->last.strIdx)
            n->lastStr = ect.str(n->last);

    // Main is the goroutine created by the scheduler (gid 1 by
    // construction; be robust and look for a gid-0-parented non-system
    // node).
    auto it = nodes_.find(1);
    if (it != nodes_.end() && !it->second->system)
        root_ = it->second.get();

    // Application-level classification and equivalence keys, top-down.
    if (root_) {
        root_->appLevel = true;
        root_->key = "main";
        std::deque<GoroutineNode *> work{root_};
        while (!work.empty()) {
            GoroutineNode *cur = work.front();
            work.pop_front();
            for (GoroutineNode *child : cur->children) {
                if (!child->system) {
                    child->appLevel = cur->appLevel;
                    child->key =
                        cur->key + ">" + child->creationLoc.str();
                }
                work.push_back(child);
            }
        }
    }
}

const GoroutineNode *
GoroutineTree::node(uint32_t gid) const
{
    auto it = nodes_.find(gid);
    return it == nodes_.end() ? nullptr : it->second.get();
}

std::vector<const GoroutineNode *>
GoroutineTree::appNodes() const
{
    std::vector<const GoroutineNode *> out;
    if (!root_)
        return out;
    std::deque<const GoroutineNode *> work{root_};
    while (!work.empty()) {
        const GoroutineNode *cur = work.front();
        work.pop_front();
        if (cur->appLevel)
            out.push_back(cur);
        for (const GoroutineNode *child : cur->children)
            work.push_back(child);
    }
    return out;
}

} // namespace goat::analysis
