#include "analysis/html_report.hh"

#include <map>

#include "analysis/stats.hh"
#include "base/fmt.hh"

namespace goat::analysis {

using trace::Event;
using trace::EventType;

std::string
htmlEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '&': out += "&amp;"; break;
          case '<': out += "&lt;"; break;
          case '>': out += "&gt;"; break;
          case '"': out += "&quot;"; break;
          default: out += c;
        }
    }
    return out;
}

namespace {

const char *pageStyle = R"(
  body { font-family: sans-serif; margin: 2em; color: #222; }
  h1 { border-bottom: 2px solid #444; padding-bottom: .2em; }
  .verdict { font-size: 1.2em; padding: .4em .8em; display: inline-block;
             border-radius: 6px; color: #fff; }
  .verdict.pass { background: #2e7d32; }
  .verdict.bug { background: #c62828; }
  table { border-collapse: collapse; margin: 1em 0; }
  th, td { border: 1px solid #bbb; padding: .25em .6em;
           font-family: monospace; font-size: .85em; }
  th { background: #eee; }
  .leaked { background: #ffcdd2; }
  .finished { background: #c8e6c9; }
  .panicked { background: #ffe0b2; }
  .tree { font-family: monospace; white-space: pre; background: #f7f7f7;
          padding: 1em; border-radius: 6px; }
  .covered { color: #2e7d32; font-weight: bold; }
  .uncovered { color: #c62828; }
)";

/** Interleaving row filter: same set the text report shows. */
bool
showInInterleaving(EventType t)
{
    switch (t) {
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
        return true;
      default:
        return false;
    }
}

} // namespace

std::string
htmlReportStr(const std::string &title, const trace::Ect &ect,
              const GoroutineTree &tree, const DeadlockReport &dl,
              const CoverageState *cov, size_t max_events)
{
    std::string out;
    out += "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">";
    out += "<title>" + htmlEscape(title) + " — GoAT report</title>";
    out += "<style>";
    out += pageStyle;
    out += "</style></head><body>\n";
    out += "<h1>GoAT report: " + htmlEscape(title) + "</h1>\n";

    // Verdict banner.
    bool buggy = dl.buggy();
    out += strFormat("<p><span class=\"verdict %s\">%s</span></p>\n",
                     buggy ? "bug" : "pass",
                     htmlEscape(dl.shortStr()).c_str());
    if (dl.verdict == Verdict::Crash) {
        out += "<p>panic: <code>" + htmlEscape(dl.panicMsg) +
               "</code></p>\n";
    }

    // Goroutine tree.
    out += "<h2>Goroutine tree</h2>\n<div class=\"tree\">";
    tree.walkDepthFirst([&](const GoroutineNode &node, int depth) {
        const Event *last = node.lastEvent();
        bool finished =
            last && (last->type == EventType::GoEnd ||
                     (last->type == EventType::GoSched &&
                      last->args[0] == trace::SchedTagTraceStop));
        bool panicked = last && last->type == EventType::GoPanic;
        const char *cls = finished  ? "finished"
                          : panicked ? "panicked"
                                     : "leaked";
        out += strFormat(
            "%*s<span class=\"%s\">G%u</span> created at %s — %s\n",
            depth * 2, "", cls, node.gid,
            htmlEscape(node.creationLoc.str()).c_str(),
            finished  ? "finished"
            : panicked ? "panicked"
                       : htmlEscape(last ? "leaked at " + last->loc.str()
                                         : "never ran")
                             .c_str());
    });
    out += "</div>\n";

    // Interleaving table: one column per application goroutine.
    std::map<uint32_t, size_t> column;
    std::vector<uint32_t> gids;
    for (const auto *node : tree.appNodes()) {
        column[node->gid] = gids.size();
        gids.push_back(node->gid);
    }
    out += "<h2>Executed interleaving</h2>\n<table><tr><th>ts</th>";
    for (uint32_t g : gids)
        out += strFormat("<th>G%u</th>", g);
    out += "</tr>\n";
    size_t shown = 0;
    for (const Event &ev : ect.events()) {
        if (!column.count(ev.gid) || !showInInterleaving(ev.type))
            continue;
        if (max_events && shown >= max_events) {
            out += "<tr><td colspan=\"99\">… truncated …</td></tr>\n";
            break;
        }
        ++shown;
        out += strFormat("<tr><td>%lu</td>",
                         static_cast<unsigned long>(ev.ts));
        for (size_t c = 0; c < gids.size(); ++c) {
            if (c == column[ev.gid]) {
                out += "<td>" +
                       htmlEscape(strFormat("%s @%s",
                                            eventTypeName(ev.type),
                                            ev.loc.str().c_str())) +
                       "</td>";
            } else {
                out += "<td></td>";
            }
        }
        out += "</tr>\n";
    }
    out += "</table>\n";

    // Trace statistics.
    TraceStats stats = computeStats(ect);
    out += "<h2>Trace statistics</h2>\n<table><tr><th>gid</th>"
           "<th>events</th><th>chan ops</th><th>lock ops</th>"
           "<th>selects</th><th>blocks</th><th>parked steps</th>"
           "<th>preemptions</th></tr>\n";
    for (const auto &[gid, g] : stats.goroutines) {
        out += strFormat("<tr><td>g%u</td><td>%zu</td><td>%zu</td>"
                         "<td>%zu</td><td>%zu</td><td>%zu</td>"
                         "<td>%lu</td><td>%zu</td></tr>\n",
                         gid, g.events, g.chanOps, g.lockOps, g.selects,
                         g.blocks,
                         static_cast<unsigned long>(g.parkedSteps),
                         g.preemptions);
    }
    out += "</table>\n";

    // Coverage table.
    if (cov) {
        out += strFormat("<h2>Coverage: %.1f%% (%zu / %zu)</h2>\n",
                         cov->percent(), cov->coveredCount(),
                         cov->totalRequirements());
        out += "<table><tr><th>requirement</th><th>status</th></tr>\n";
        for (const auto &key : cov->uncovered()) {
            if (key.find('|') != std::string::npos)
                continue; // program-level rows only
            out += "<tr><td>" + htmlEscape(key) +
                   "</td><td class=\"uncovered\">uncovered</td></tr>\n";
        }
        out += "</table>\n";
    }

    out += "</body></html>\n";
    return out;
}

} // namespace goat::analysis
