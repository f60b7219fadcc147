#include "analysis/goroutine_tree.hh"

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

    // Main is the goroutine the scheduler creates first (gid 1).
    auto it = nodes_.find(1);
    if (it == nodes_.end() || it->second->system)
        return;
    root_ = it->second.get();

    // Application-level classification, top-down: a BFS from main that
    // queues on appNodes_ itself and stops at system goroutines (their
    // descendants are not application-level). A node already queued is
    // skipped, so a malformed trace that repeats a gid cannot loop.
    root_->appLevel = true;
    appNodes_.push_back(root_);
    for (size_t i = 0; i < appNodes_.size(); ++i) {
        for (GoroutineNode *child : appNodes_[i]->children) {
            if (child->system || child->appLevel)
                continue;
            child->appLevel = true;
            appNodes_.push_back(child);
        }
    }
}

const GoroutineNode *
GoroutineTree::node(uint32_t gid) const
{
    auto it = nodes_.find(gid);
    return it == nodes_.end() ? nullptr : it->second.get();
}

} // namespace goat::analysis
