#include "staticmodel/flowgraph.hh"

#include <algorithm>
#include <cctype>
#include <map>

namespace goat::staticmodel {

std::string
flowObjName(const std::string &object)
{
    size_t best = 0;
    for (size_t i = 0; i + 1 < object.size(); ++i) {
        if (object[i] == '.')
            best = i + 1;
        else if ((object[i] == '-' && object[i + 1] == '>') ||
                 (object[i] == ':' && object[i + 1] == ':'))
            best = i + 2;
    }
    if (best == 0 && !object.empty() && object.back() == '.')
        best = object.size();
    return object.substr(best);
}

std::string
flowOpName(const SrcOp &op)
{
    return op.method.empty() ? "?" : op.method;
}

int
FlowGraph::nodeAt(const SourceLoc &loc) const
{
    for (size_t i = 0; i < nodes.size(); ++i)
        if (nodes[i].op.loc == loc)
            return static_cast<int>(i);
    return -1;
}

std::vector<int>
FlowGraph::nodesAt(const SourceLoc &loc) const
{
    std::vector<int> out;
    for (size_t i = 0; i < nodes.size(); ++i)
        if (nodes[i].op.loc == loc)
            out.push_back(static_cast<int>(i));
    return out;
}

namespace {

/** Append @p v to @p vec unless present. */
void
addUnique(std::vector<int> &vec, int v)
{
    if (std::find(vec.begin(), vec.end(), v) == vec.end())
        vec.push_back(v);
}

/** Whole-word identifiers of @p text, in order. */
std::vector<std::string>
identifiersOf(const std::string &text)
{
    std::vector<std::string> out;
    size_t i = 0;
    auto ident = [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    };
    while (i < text.size()) {
        if (!ident(text[i])) {
            ++i;
            continue;
        }
        size_t j = i;
        while (j < text.size() && ident(text[j]))
            ++j;
        out.push_back(text.substr(i, j - i));
        i = j;
    }
    return out;
}

} // namespace

FlowGraph
buildFlowGraph(const SrcScan &scan, uint32_t beginLine, uint32_t endLine)
{
    FlowGraph g;
    g.file = scan.file;
    if (scan.scopes.empty()) // missing file: no scope, no unit
        return g;
    const int nScopes = static_cast<int>(scan.scopes.size());

    auto scopeInRange = [&](int s) {
        if (s == 0)
            return true;
        uint32_t b = scan.scopes[s].beginLine;
        return b >= beginLine && b < endLine;
    };

    // Operations in range, scan (textual) order.
    std::vector<int> opIdx;
    for (size_t i = 0; i < scan.ops.size(); ++i) {
        uint32_t l = scan.ops[i].loc.line;
        if (l >= beginLine && l < endLine)
            opIdx.push_back(static_cast<int>(i));
    }

    // ----- Spawn matching: go() op -> task-root scope it spawns -----
    // Pass 1, positional: a task-root scope opening on the go() call's
    // own line inside the same enclosing scope is an inline lambda
    // argument. Scope ids grow textually, so two go() calls on one
    // line claim their lambdas left to right.
    std::map<int, std::vector<int>> spawnersOf; // scope -> go scan idxs
    std::vector<char> claimed(nScopes, 0);
    std::vector<int> unmatched;
    for (int si : opIdx) {
        const SrcOp &op = scan.ops[si];
        if (op.kind != CuKind::Go)
            continue;
        int hit = -1;
        for (int t = 1; t < nScopes; ++t) {
            const SrcScope &sc = scan.scopes[t];
            if (!sc.taskRoot || claimed[t] || sc.parent != op.scope ||
                sc.beginLine != op.loc.line || !scopeInRange(t))
                continue;
            hit = t;
            break;
        }
        if (hit >= 0) {
            claimed[hit] = 1;
            spawnersOf[hit].push_back(si);
        } else {
            unmatched.push_back(si);
        }
    }
    // Pass 2, by name: resolve `go(f)` / `goNamed("w", f)` against the
    // declName recorded on task-root scopes (first declaration wins).
    std::map<std::string, int> declScope;
    for (int t = 1; t < nScopes; ++t) {
        const SrcScope &sc = scan.scopes[t];
        if (sc.taskRoot && !sc.declName.empty() && scopeInRange(t) &&
            declScope.find(sc.declName) == declScope.end())
            declScope[sc.declName] = t;
    }
    for (int si : unmatched) {
        for (const std::string &w : identifiersOf(scan.ops[si].object)) {
            auto it = declScope.find(w);
            if (it != declScope.end()) {
                spawnersOf[it->second].push_back(si);
                break;
            }
        }
    }

    // ----- Flow units: file scope, top-level bodies, spawn targets --
    std::vector<int> unitOfScope(nScopes, -1);
    auto addUnit = [&](int scope) {
        FlowUnit u;
        u.scope = scope;
        u.name = scope == 0 ? "" : scan.scopes[scope].declName;
        unitOfScope[scope] = static_cast<int>(g.units.size());
        g.units.push_back(std::move(u));
    };
    addUnit(0);
    for (int t = 1; t < nScopes; ++t) {
        const SrcScope &sc = scan.scopes[t];
        if (!sc.taskRoot || !scopeInRange(t))
            continue;
        bool topLevel = scan.taskRootOf(sc.parent) == 0;
        if (topLevel || spawnersOf.count(t))
            addUnit(t);
    }
    // Ops in a nested unspawned lambda merge into the enclosing unit.
    std::vector<int> flowUnitMemo(nScopes, -1);
    auto flowUnitOf = [&](int scope) {
        int s = scope;
        while (s >= 0 && unitOfScope[s] < 0 && flowUnitMemo[s] < 0)
            s = scan.scopes[s].parent;
        int u = s < 0 ? 0 : (unitOfScope[s] >= 0 ? unitOfScope[s]
                                                 : flowUnitMemo[s]);
        for (s = scope; s >= 0 && flowUnitMemo[s] < 0;
             s = scan.scopes[s].parent)
            flowUnitMemo[s] = u;
        return u;
    };

    // ----- Nodes --------------------------------------------------
    std::map<int, int> nodeOfOp; // scan op index -> node id
    for (int si : opIdx) {
        FlowNode n;
        n.op = scan.ops[si];
        n.unit = flowUnitOf(n.op.scope);
        nodeOfOp[si] = static_cast<int>(g.nodes.size());
        g.units[n.unit].nodes.push_back(static_cast<int>(g.nodes.size()));
        g.nodes.push_back(std::move(n));
    }
    g.succ.assign(g.nodes.size(), {});

    // ----- Sequential edges ---------------------------------------
    for (const FlowUnit &u : g.units)
        for (size_t k = 1; k < u.nodes.size(); ++k)
            g.succ[u.nodes[k - 1]].push_back(u.nodes[k]);

    // ----- Fork edges + unit spawn metadata -----------------------
    for (const auto &[scope, gos] : spawnersOf) {
        int cu = unitOfScope[scope];
        if (cu < 0)
            continue;
        FlowUnit &child = g.units[cu];
        child.spawned = true;
        child.spawnSites = static_cast<int>(gos.size());
        if (gos.size() >= 2)
            child.multiInstance = true;
        for (int si : gos) {
            int gn = nodeOfOp.at(si);
            int su = g.nodes[gn].unit;
            addUnique(g.units[su].spawns, cu);
            addUnique(child.spawnedBy, su);
            if (!child.nodes.empty())
                g.succ[gn].push_back(child.nodes.front());
            // A spawn site inside a loop (relative to its own unit)
            // forks one instance per iteration.
            if (scan.inLoop(scan.ops[si].scope, g.units[su].scope))
                child.multiInstance = true;
        }
    }
    // Children of a multi-instance unit run once per instance.
    for (bool changed = true; changed;) {
        changed = false;
        for (const FlowUnit &u : g.units)
            if (u.multiInstance)
                for (int c : u.spawns)
                    if (!g.units[c].multiInstance) {
                        g.units[c].multiInstance = true;
                        changed = true;
                    }
    }

    // ----- Spawn-tree roots ---------------------------------------
    for (size_t r = 0; r < g.units.size(); ++r) {
        if (g.units[r].spawned)
            continue;
        std::vector<int> todo{static_cast<int>(r)};
        std::vector<char> seen(g.units.size(), 0);
        while (!todo.empty()) {
            int u = todo.back();
            todo.pop_back();
            if (seen[u])
                continue;
            seen[u] = 1;
            g.units[u].roots.push_back(static_cast<int>(r));
            for (int c : g.units[u].spawns)
                todo.push_back(c);
        }
    }

    // ----- Join edges ---------------------------------------------
    // wg.done() happens before every wg.wait() return on the same
    // object; a send on a known-unbuffered channel happens before the
    // completion of a cross-unit recv/range on it (rendezvous).
    for (size_t a = 0; a < g.nodes.size(); ++a) {
        const SrcOp &oa = g.nodes[a].op;
        if (oa.kind != CuKind::Done && oa.kind != CuKind::Send)
            continue;
        std::string name = flowObjName(oa.object);
        if (name.empty())
            continue;
        bool rendezvous = false;
        if (oa.kind == CuKind::Send) {
            auto cap = scan.chanCap.find(name);
            rendezvous = cap != scan.chanCap.end() && cap->second == 0;
            if (!rendezvous)
                continue;
        }
        for (size_t b = 0; b < g.nodes.size(); ++b) {
            if (a == b)
                continue;
            const SrcOp &ob = g.nodes[b].op;
            bool match =
                oa.kind == CuKind::Done
                    ? ob.kind == CuKind::Wait
                    : (ob.kind == CuKind::Recv || ob.kind == CuKind::Range) &&
                          g.nodes[b].unit != g.nodes[a].unit;
            if (match && flowObjName(ob.object) == name)
                g.succ[a].push_back(static_cast<int>(b));
        }
    }

    return g;
}

} // namespace goat::staticmodel
