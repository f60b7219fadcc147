#include "analysis/report.hh"

#include <map>

#include "analysis/waitgraph.hh"
#include "base/fmt.hh"

namespace goat::analysis {

using trace::Event;
using trace::EventType;

std::string
goroutineTreeStr(const GoroutineTree &tree)
{
    if (!tree.root())
        return "(empty goroutine tree)\n";
    std::string out;
    tree.walkDepthFirst([&](const GoroutineNode &node, int depth) {
        const Event *last = node.lastEvent();
        std::string status;
        if (!last) {
            status = "never ran";
        } else if (last->type == EventType::GoEnd ||
                   (last->type == EventType::GoSched &&
                    last->args[0] == trace::SchedTagTraceStop)) {
            status = "finished";
        } else if (last->type == EventType::GoPanic) {
            status = "panicked: " + node.lastStr;
        } else {
            status = strFormat("LEAKED at %s (%s)", last->loc.str().c_str(),
                               eventTypeName(last->type));
        }
        out += strFormat("%*sG%u [%s] created at %s -- %s\n", depth * 2, "",
                         node.gid, node.system ? "sys" : "app",
                         node.creationLoc.str().c_str(), status.c_str());
    });
    return out;
}

std::string
interleavingStr(const trace::Ect &ect, size_t max_events)
{
    // Column per application goroutine, in order of first appearance.
    GoroutineTree tree(ect);
    std::map<uint32_t, int> column;
    std::vector<uint32_t> gids;
    for (const auto *node : tree.appNodes()) {
        column[node->gid] = static_cast<int>(gids.size());
        gids.push_back(node->gid);
    }

    std::string out = "  ";
    for (uint32_t g : gids)
        out += strFormat("%-26s", strFormat("G%u", g).c_str());
    out += '\n';

    size_t shown = 0;
    for (const Event &ev : ect.events()) {
        if (!column.count(ev.gid))
            continue;
        // Show only the events a developer reads an interleaving by.
        switch (ev.type) {
          case EventType::ChSend:
          case EventType::ChRecv:
          case EventType::ChClose:
          case EventType::SelectBegin:
          case EventType::SelectEnd:
          case EventType::MuLock:
          case EventType::MuUnlock:
          case EventType::RWLock:
          case EventType::RWUnlock:
          case EventType::RWRLock:
          case EventType::RWRUnlock:
          case EventType::WgAdd:
          case EventType::WgWait:
          case EventType::CvWait:
          case EventType::CvSignal:
          case EventType::CvBroadcast:
          case EventType::GoBlockSend:
          case EventType::GoBlockRecv:
          case EventType::GoBlockSelect:
          case EventType::GoBlockSync:
          case EventType::GoBlockCond:
          case EventType::GoCreate:
          case EventType::GoEnd:
          case EventType::GoPanic:
            break;
          default:
            continue;
        }
        if (max_events && shown >= max_events) {
            out += "  ... (truncated)\n";
            break;
        }
        ++shown;
        int col = column[ev.gid];
        std::string cell = strFormat("%s @%s", eventTypeName(ev.type),
                                     ev.loc.str().c_str());
        out += "  ";
        for (int i = 0; i < col; ++i)
            out += std::string(26, ' ');
        out += cell;
        out += '\n';
    }
    return out;
}

std::string
goroutineTreeDot(const GoroutineTree &tree)
{
    std::string out = "digraph goroutines {\n"
                      "  node [shape=box, fontname=\"monospace\"];\n";
    for (const GoroutineNode &node : tree.nodes()) {
        const uint32_t gid = node.gid;
        const Event *last = node.lastEvent();
        bool finished =
            last && (last->type == EventType::GoEnd ||
                     (last->type == EventType::GoSched &&
                      last->args[0] == trace::SchedTagTraceStop));
        bool panicked = last && last->type == EventType::GoPanic;
        const char *color = finished ? "palegreen"
                            : panicked ? "orange"
                                       : "lightcoral";
        if (gid == 0)
            continue;
        std::string label =
            strFormat("G%u\\n%s\\n%s", gid,
                      node.creationLoc.str().c_str(),
                      finished  ? "finished"
                      : panicked ? "panicked"
                                 : strFormat("leaked @ %s",
                                             last ? last->loc.str().c_str()
                                                  : "?")
                                       .c_str());
        out += strFormat("  g%u [label=\"%s\", style=filled, "
                         "fillcolor=%s];\n",
                         gid, label.c_str(), color);
    }
    for (const GoroutineNode &node : tree.nodes()) {
        if (node.gid == 0)
            continue;
        for (const GoroutineNode *child : node.children)
            out += strFormat("  g%u -> g%u;\n", node.gid, child->gid);
    }
    out += "}\n";
    return out;
}

std::string
deadlockReportStr(const trace::Ect &ect, const GoroutineTree &tree,
                  const DeadlockReport &report)
{
    std::string out;
    out += "==== GoAT deadlock report ====\n";
    out += strFormat("verdict: %s (%s)\n", verdictName(report.verdict),
                     report.shortStr().c_str());
    if (report.verdict == Verdict::Crash) {
        out += strFormat("panic in G%u: %s\n", report.panicGid,
                         report.panicMsg.c_str());
    }
    for (uint32_t gid : report.leaked) {
        const GoroutineNode *node = tree.node(gid);
        const Event *last = node ? node->lastEvent() : nullptr;
        out += strFormat(
            "leaked: G%u created at %s, stuck at %s (%s)\n", gid,
            node ? node->creationLoc.str().c_str() : "?",
            last ? last->loc.str().c_str() : "?",
            last ? eventTypeName(last->type) : "no event");
    }
    if (!report.leaked.empty()) {
        WaitGraph graph = buildWaitGraph(ect);
        out += "\n-- root-cause wait chains --\n";
        out += graph.str(report.leaked);
    }
    out += "\n-- goroutine tree --\n";
    out += goroutineTreeStr(tree);
    out += "\n-- executed interleaving (concurrency events) --\n";
    out += interleavingStr(ect, 120);
    return out;
}

} // namespace goat::analysis
