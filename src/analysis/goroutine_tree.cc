#include "analysis/goroutine_tree.hh"

namespace goat::analysis {

using trace::Event;
using trace::EventType;

GoroutineTree::GoroutineTree(const trace::Ect &ect)
{
    const std::vector<Event> &events = ect.events();

    // One node per gid, in gid order: a pre-scan collects the gids,
    // then the walk below fills the nodes in.
    std::vector<uint32_t> gids;
    gids.reserve(2 * events.size());
    for (const Event &ev : events) {
        if (ev.type == EventType::GoCreate) {
            gids.push_back(static_cast<uint32_t>(ev.args[0]));
            gids.push_back(ev.gid);
        } else if (ev.gid != 0 && (gids.empty() || gids.back() != ev.gid)) {
            gids.push_back(ev.gid); // gid 0: scheduler/tracer context
        }
    }
    slots_.build(gids, 2 * events.size() + 64);
    nodes_.resize(slots_.size());
    for (uint32_t i = 0; i < nodes_.size(); ++i)
        nodes_[i].gid = slots_.id(i);

    auto at = [&](uint32_t gid) { return &nodes_[slot(gid)]; };
    for (const Event &ev : events) {
        if (ev.type == EventType::GoCreate) {
            GoroutineNode *child = at(static_cast<uint32_t>(ev.args[0]));
            child->creationLoc = ev.loc;
            child->system = ev.args[1] != 0;
            GoroutineNode *parent = at(ev.gid);
            parent->children.push_back(child);
            parent->last = ev;
            parent->hasLast = true;
            continue;
        }
        if (ev.gid == 0)
            continue;
        GoroutineNode *n = at(ev.gid);
        n->last = ev;
        n->hasLast = true;
    }
    for (GoroutineNode &n : nodes_)
        if (n.hasLast && n.last.strIdx)
            n.lastStr = ect.str(n.last);

    // Main is the goroutine the scheduler creates first (gid 1).
    const size_t main = slot(1);
    if (main == nodes_.size() || nodes_[main].system)
        return;
    root_ = &nodes_[main];

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

void
GoroutineTree::walkDepthFirst(
    const std::function<void(const GoroutineNode &, int)> &visit) const
{
    if (!root_)
        return;
    std::vector<bool> seen(nodes_.size());
    std::vector<std::pair<const GoroutineNode *, int>> stack{{root_, 0}};
    while (!stack.empty()) {
        auto [node, depth] = stack.back();
        stack.pop_back();
        const size_t s = slot(node->gid);
        if (seen[s])
            continue;
        seen[s] = true;
        visit(*node, depth);
        for (auto it = node->children.rbegin(); it != node->children.rend();
             ++it)
            stack.emplace_back(*it, depth + 1);
    }
}

const GoroutineNode *
GoroutineTree::node(uint32_t gid) const
{
    size_t i = slot(gid);
    return i == nodes_.size() ? nullptr : &nodes_[i];
}

} // namespace goat::analysis
