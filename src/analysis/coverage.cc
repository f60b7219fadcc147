#include "analysis/coverage.hh"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string_view>
#include <tuple>
#include <unordered_map>

#include "analysis/goroutine_tree.hh"
#include "base/fmt.hh"
#include "runtime/goroutine.hh"

namespace goat::analysis {

using staticmodel::Cu;
using staticmodel::CuKind;
using trace::Event;
using trace::EventType;

const char *
reqTypeName(ReqType t)
{
    switch (t) {
      case ReqType::Blocked: return "blocked";
      case ReqType::Unblocking: return "unblocking";
      case ReqType::Nop: return "nop";
      case ReqType::Blocking: return "blocking";
    }
    return "?";
}

namespace {

constexpr ReqType kAllTypes[] = {ReqType::Blocked, ReqType::Unblocking,
                                 ReqType::Nop, ReqType::Blocking};

ReqId
reqId(uint32_t group, ReqType t)
{
    return group * 4 + static_cast<uint32_t>(t);
}

/** Template requirement types per CU kind (Table I rows). */
struct ReqTemplates
{
    const ReqType *data = nullptr;
    size_t n = 0;

    const ReqType *begin() const { return data; }
    const ReqType *end() const { return data + n; }
    bool empty() const { return n == 0; }
};

ReqTemplates
templatesFor(CuKind kind)
{
    static constexpr ReqType kChanOp[] = {ReqType::Blocked,
                                          ReqType::Unblocking, ReqType::Nop};
    static constexpr ReqType kLock[] = {ReqType::Blocked, ReqType::Blocking};
    static constexpr ReqType kUnblock[] = {ReqType::Unblocking,
                                           ReqType::Nop};
    static constexpr ReqType kGo[] = {ReqType::Nop};
    switch (kind) {
      case CuKind::Send:
      case CuKind::Recv:
      case CuKind::Range:
        return {kChanOp, 3};
      case CuKind::Lock:
        return {kLock, 2};
      case CuKind::Unlock:
      case CuKind::Close:
      case CuKind::Signal:
      case CuKind::Broadcast:
      case CuKind::Done:
        return {kUnblock, 2};
      case CuKind::Go:
        return {kGo, 1};
      case CuKind::Select: // cases/default discovered dynamically
      case CuKind::Wait:
      case CuKind::Add:
      default:
        return {};
    }
}

/** Append "<basename>:<line>" (the SourceLoc::str() form). */
void
appendLoc(std::string &out, const SourceLoc &loc)
{
    out.append(loc.basenameView());
    char num[16];
    int n = std::snprintf(num, sizeof num, ":%u", loc.line);
    out.append(num, static_cast<size_t>(n));
}

/** Append " <kind>[/case<i>] " — the middle of a requirement key. */
void
appendKindCase(std::string &out, CuKind kind, int case_idx)
{
    char mid[40];
    int n;
    if (case_idx >= 0)
        n = std::snprintf(mid, sizeof mid, " %s/case%d ", cuKindName(kind),
                          case_idx);
    else
        n = std::snprintf(mid, sizeof mid, " %s ", cuKindName(kind));
    out.append(mid, static_cast<size_t>(n));
}

/** True when @p loc is "<basename>:<line>", the form appendLoc renders. */
bool
validLoc(std::string_view loc)
{
    size_t colon = loc.rfind(':');
    if (colon == std::string_view::npos || colon == 0 ||
        loc.find('/') != std::string_view::npos)
        return false;
    std::string_view num = loc.substr(colon + 1);
    uint32_t line;
    const char *last = num.data() + num.size();
    auto [end, ec] = std::from_chars(num.data(), last, line);
    return ec == std::errc() && end == last &&
           (num[0] != '0' || num.size() == 1);
}

/** (scope, location, kind, select case): one requirement group. */
struct GroupKey
{
    uint32_t scope = 0; ///< 0 = program level, else a node scope.
    uint32_t loc = 0;   ///< Interned "<basename>:<line>".
    int32_t caseIdx = -1;
    uint32_t kind = 0;

    bool
    operator==(const GroupKey &o) const
    {
        return scope == o.scope && loc == o.loc && caseIdx == o.caseIdx &&
               kind == o.kind;
    }
};

/** A program-level requirement: its CU, select case, type and id. */
struct ProgReq
{
    Cu cu;
    int32_t caseIdx;
    ReqType type;
    ReqId id;

    /** Table order: CU, then case (unsigned: case -1 last), then type. */
    bool
    operator<(const ProgReq &o) const
    {
        return std::tuple(cu, static_cast<uint32_t>(caseIdx), type) <
               std::tuple(o.cu, static_cast<uint32_t>(o.caseIdx), o.type);
    }
};

struct GroupKeyHash
{
    size_t
    operator()(const GroupKey &k) const
    {
        uint64_t h = (static_cast<uint64_t>(k.scope) << 32) ^ k.loc;
        h ^= (static_cast<uint64_t>(static_cast<uint32_t>(k.caseIdx)) << 8 |
              k.kind) *
             0x9e3779b97f4a7c15ull;
        return static_cast<size_t>(h * 0xff51afd7ed558ccdull >> 17);
    }
};

/**
 * The process-wide requirement catalog: interned locations, node
 * scopes and requirement groups, with each group's rendered key
 * prefix. A node scope is the paper's goroutine equivalence (equal
 * parents, equal creation CU): the pair (parent scope, creation
 * location), interned once. Scope 0 is program level and scope 1 is
 * main; a scope's "main>loc>...>loc" text is rendered once, when it is
 * interned. Append-only and guarded by one mutex; the hot path reaches
 * it only on a scratch's cache misses.
 */
class Catalog
{
  public:
    static constexpr uint32_t kMainScope = 1;

    static Catalog &
    instance()
    {
        static Catalog *c = new Catalog; // never destroyed: outlives
                                         // every state and worker
        return *c;
    }

    /**
     * Set @p id to the scope of a goroutine created at @p loc by one in
     * scope @p parent. With @p intern an unseen scope is interned (its
     * text rendered); otherwise it fails the lookup.
     */
    bool
    scope(uint32_t parent, uint32_t loc, bool intern, uint32_t *id)
    {
        std::lock_guard<std::mutex> lk(mu_);
        const uint64_t k = uint64_t{parent} << 32 | loc;
        auto it = childScopes_.find(k);
        if (it == childScopes_.end()) {
            if (!intern)
                return false;
            auto s = static_cast<uint32_t>(scopes_.size());
            scopes_.push_back(scopes_[parent] + '>' + sources_[loc].str());
            it = childScopes_.emplace(k, s).first;
        }
        *id = it->second;
        return true;
    }

    /**
     * Set @p id to the location "<basename>:<line>" @p loc_str names.
     * With @p intern an unseen one is interned; otherwise it fails the
     * lookup.
     */
    bool
    loc(const std::string &loc_str, bool intern, uint32_t *id)
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = locIds_.find(loc_str);
        if (it == locIds_.end()) {
            if (!intern)
                return false;
            auto l = static_cast<uint32_t>(sources_.size());
            const size_t colon = loc_str.rfind(':');
            uint32_t line = 0;
            std::from_chars(loc_str.data() + colon + 1,
                            loc_str.data() + loc_str.size(), line);
            sources_.emplace_back(
                files_.emplace_back(loc_str, 0, colon).c_str(), line);
            it = locIds_.emplace(loc_str, l).first;
        }
        *id = it->second;
        return true;
    }

    uint32_t
    group(const GroupKey &k)
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = groupIds_.find(k);
        if (it != groupIds_.end())
            return it->second;
        auto g = static_cast<uint32_t>(prefixes_.size());
        std::string prefix;
        if (k.scope != 0) {
            prefix = scopes_[k.scope];
            prefix += '|';
        }
        prefix += sources_[k.loc].str();
        appendKindCase(prefix, static_cast<CuKind>(k.kind), k.caseIdx);
        prefixes_.push_back(std::move(prefix));
        keys_.push_back(k);
        groupIds_.emplace(k, g);
        return g;
    }

    bool
    findGroup(const GroupKey &k, uint32_t *g) const
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = groupIds_.find(k);
        if (it == groupIds_.end())
            return false;
        *g = it->second;
        return true;
    }

    /** Append the key strings of @p ids to @p out, in order. */
    void
    keyStrs(const std::vector<ReqId> &ids, std::vector<std::string> *out)
        const
    {
        std::lock_guard<std::mutex> lk(mu_);
        out->reserve(out->size() + ids.size());
        for (ReqId id : ids) {
            out->push_back(prefixes_[id / 4]);
            out->back() += reqTypeName(static_cast<ReqType>(id & 3));
        }
    }

    /** The program-level requirements among @p ids, unsorted. */
    std::vector<ProgReq>
    programLevel(const ReqBits &ids) const
    {
        std::lock_guard<std::mutex> lk(mu_);
        std::vector<ProgReq> out;
        ids.forEach([&](ReqId id) {
            const GroupKey &k = keys_[id / 4];
            if (k.scope == 0)
                out.push_back({Cu(sources_[k.loc], CuKind(k.kind)),
                               k.caseIdx, ReqType(id & 3), id});
        });
        return out;
    }

  private:
    Catalog() : scopes_{"", "main"} {}

    mutable std::mutex mu_;
    /** Per scope: its rendered text ("" for program level). */
    std::vector<std::string> scopes_;
    /** (parent scope, creation location) → scope, for scopes ≥ 2. */
    std::unordered_map<uint64_t, uint32_t> childScopes_;
    /** Per location: its file and line, the file owned by files_. */
    std::vector<SourceLoc> sources_;
    std::deque<std::string> files_; // a deque: c_str() stays put
    std::unordered_map<std::string, uint32_t> locIds_;
    /** Per group: its keys' shared prefix "[scope|]loc kind[/caseN] ". */
    std::vector<std::string> prefixes_;
    /** Per group: its key. */
    std::vector<GroupKey> keys_;
    std::unordered_map<GroupKey, uint32_t, GroupKeyHash> groupIds_;
};

/** The program-level group of @p cu's templates, interned. */
uint32_t
progGroup(Catalog &cat, const Cu &cu)
{
    uint32_t l;
    cat.loc(cu.loc.str(), true, &l);
    return cat.group({0, l, -1, static_cast<uint32_t>(cu.kind)});
}

/**
 * Parse a requirement key "[<scope>|]<loc> <kind>[/case<i>] <type>"
 * into its group key and type. With @p intern, unseen scopes and
 * locations are interned; otherwise they fail the lookup. A scope is
 * "main" followed by ">"-separated locations, and a location is
 * "<name>:<line>"; any other text is refused.
 */
bool
parseKey(Catalog &cat, const std::string &key, bool intern, GroupKey *gk,
         ReqType *type)
{
    size_t sp2 = key.rfind(' ');
    if (sp2 == std::string::npos || sp2 == 0)
        return false;
    size_t sp1 = key.rfind(' ', sp2 - 1);
    if (sp1 == std::string::npos || sp1 == 0)
        return false;
    std::string_view type_tok(key.data() + sp2 + 1, key.size() - sp2 - 1);
    std::string_view kind_tok(key.data() + sp1 + 1, sp2 - sp1 - 1);

    bool type_ok = false;
    for (ReqType t : kAllTypes) {
        if (type_tok == reqTypeName(t)) {
            *type = t;
            type_ok = true;
        }
    }
    if (!type_ok)
        return false;

    gk->caseIdx = -1;
    size_t slash = kind_tok.find("/case");
    if (slash != std::string_view::npos) {
        std::string_view num = kind_tok.substr(slash + 5);
        if (num.empty() || num.size() > 9)
            return false;
        int v = 0;
        for (char c : num) {
            if (c < '0' || c > '9')
                return false;
            v = v * 10 + (c - '0');
        }
        gk->caseIdx = v;
        kind_tok = kind_tok.substr(0, slash);
    }
    bool kind_ok = false;
    for (uint32_t k = 0; k < static_cast<uint32_t>(CuKind::NumCuKinds);
         ++k) {
        if (kind_tok == cuKindName(static_cast<CuKind>(k))) {
            gk->kind = k;
            kind_ok = true;
        }
    }
    if (!kind_ok)
        return false;

    auto locId = [&](std::string_view text, uint32_t *id) {
        return validLoc(text) && cat.loc(std::string(text), intern, id);
    };
    std::string_view head(key.data(), sp1);
    size_t bar = head.rfind('|');
    gk->scope = 0;
    if (bar != std::string_view::npos) {
        // A node scope: "main", then one creation location per level.
        std::string_view scope = head.substr(0, bar);
        size_t gt = scope.find('>');
        if (scope.substr(0, gt) != "main")
            return false;
        gk->scope = Catalog::kMainScope;
        while (gt != std::string_view::npos) {
            size_t next = scope.find('>', gt + 1);
            uint32_t l;
            if (!locId(scope.substr(gt + 1, next - gt - 1), &l) ||
                !cat.scope(gk->scope, l, intern, &gk->scope))
                return false;
            gt = next;
        }
    }
    return locId(head.substr(bar + 1), &gk->loc); // bar + 1 == 0: no scope
}

} // namespace

// ---------------------------------------------------------------- ReqBits

bool
ReqBits::set(ReqId id)
{
    size_t w = id >> 6;
    if (w >= words_.size())
        words_.resize(w + 1, 0);
    uint64_t bit = uint64_t{1} << (id & 63);
    if (words_[w] & bit)
        return false;
    words_[w] |= bit;
    return true;
}

size_t
ReqBits::unite(const ReqBits &o, size_t *new_by_type)
{
    if (o.words_.size() > words_.size())
        words_.resize(o.words_.size(), 0);
    // Ids are group * 4 + type, so type t owns bit positions ≡ t mod 4.
    constexpr uint64_t kTypeMask = 0x1111111111111111ull;
    size_t added = 0;
    for (size_t w = 0; w < o.words_.size(); ++w) {
        uint64_t fresh = o.words_[w] & ~words_[w];
        if (!fresh)
            continue;
        words_[w] |= fresh;
        added += static_cast<size_t>(__builtin_popcountll(fresh));
        if (new_by_type) {
            for (size_t t = 0; t < 4; ++t)
                new_by_type[t] += static_cast<size_t>(
                    __builtin_popcountll(fresh & (kTypeMask << t)));
        }
    }
    return added;
}

// --------------------------------------------------------------- universe

CoverageUniverse::CoverageUniverse(staticmodel::CuTable statics)
    : statics_(std::move(statics))
{
    Catalog &cat = Catalog::instance();
    for (const Cu &cu : statics_.all()) {
        ReqTemplates ts = templatesFor(cu.kind);
        if (ts.empty())
            continue;
        uint32_t g = progGroup(cat, cu);
        for (ReqType t : ts)
            count_ += required_.set(reqId(g, t)) ? 1 : 0;
    }
}

// ---------------------------------------------------------------- scratch

namespace detail {

/**
 * The delta engine. Per execution it computes what a fresh state on
 * the static universe would gain from this one trace — the per-
 * iteration view that node-level materialization, select-case triples
 * and NB-select instances decide on — keeping "required/covered in
 * this execution" as flags over ids reset through a touched list; the
 * static universe answers the rest. Lookup caches (CU resolution, node
 * scopes, groups) persist.
 */
struct ScratchImpl
{
    explicit ScratchImpl(const CoverageUniverse &u)
        : universe(u), cat(Catalog::instance())
    {
    }

    /** A resolved CU: its identity, interned location and group. */
    struct CuRef
    {
        Cu cu;
        uint32_t loc = 0;
        uint32_t group = 0; ///< Program-level group, case -1.
        bool dynamic = false;
    };

    /** Per-goroutine select context while walking a trace. */
    struct SelCtx
    {
        uint32_t cu = 0; ///< Index into cus.
        bool hasDefault = false;
        int nCases = 0;
    };

    static constexpr uint32_t kNoScope = UINT32_MAX;
    static constexpr uint8_t kReq = 1;
    static constexpr uint8_t kCov = 2;

    const CoverageUniverse &universe;
    Catalog &cat;

    // Lookup caches (execution-independent).
    struct CuCacheKeyHash
    {
        size_t
        operator()(const std::pair<const void *, uint64_t> &k) const
        {
            return std::hash<const void *>()(k.first) ^
                   static_cast<size_t>(k.second * 0x9e3779b97f4a7c15ull);
        }
    };
    std::unordered_map<std::pair<const void *, uint64_t>, uint32_t,
                       CuCacheKeyHash>
        cuIndex;
    std::vector<CuRef> cus;
    /** (parent scope << 32 | creation location) → the child's scope. */
    std::unordered_map<uint64_t, uint32_t> childScopes;
    std::unordered_map<GroupKey, uint32_t, GroupKeyHash> groupCache;

    // Per-execution state.
    std::vector<uint8_t> flags;
    std::vector<ReqId> touched;
    std::vector<uint32_t> nbSel;
    /** Node scope by the node's slot in GoroutineTree::nodes(). */
    std::vector<uint32_t> scopeBySlot;
    std::unordered_map<uint64_t, std::pair<uint32_t, uint32_t>> lastAcq;
    std::unordered_map<uint32_t, SelCtx> sel;
    CoverageDelta *out = nullptr;

    uint8_t
    flagsOf(ReqId id) const
    {
        return id < flags.size() ? flags[id] : 0;
    }

    void
    setFlag(ReqId id, uint8_t f)
    {
        if (id >= flags.size())
            flags.resize(std::max<size_t>(id + 1, flags.size() * 2), 0);
        if (flags[id] == 0)
            touched.push_back(id);
        flags[id] |= f;
    }

    bool
    isRequired(ReqId id) const
    {
        return (flagsOf(id) & kReq) || universe.required().test(id);
    }

    void
    require(ReqId id)
    {
        if (flagsOf(id) & kReq)
            return;
        if (universe.required().test(id))
            return;
        setFlag(id, kReq);
        out->required.push_back(id);
    }

    uint32_t
    group(uint32_t scope, const CuRef &ref, int case_idx)
    {
        if (scope == 0 && case_idx < 0)
            return ref.group;
        GroupKey k{scope, ref.loc, case_idx,
                   static_cast<uint32_t>(ref.cu.kind)};
        auto it = groupCache.find(k);
        if (it != groupCache.end())
            return it->second;
        uint32_t g = cat.group(k);
        groupCache.emplace(k, g);
        return g;
    }

    /** Instantiate the template set of @p ref at a granularity. */
    void
    instantiate(const CuRef &ref, uint32_t scope, int case_idx)
    {
        if (case_idx >= 0) {
            // Select-case requirement triple, inserted as a group: a
            // present first id means the whole triple is.
            uint32_t g = group(scope, ref, case_idx);
            if (isRequired(reqId(g, ReqType::Blocked)))
                return;
            require(reqId(g, ReqType::Blocked));
            require(reqId(g, ReqType::Unblocking));
            require(reqId(g, ReqType::Nop));
            return;
        }
        uint32_t g = group(scope, ref, -1);
        ReqTemplates ts = templatesFor(ref.cu.kind);
        if (!ts.empty() && !isRequired(reqId(g, ts.data[0]))) {
            for (ReqType t : ts)
                require(reqId(g, t));
        }
        // A select known to carry a default case is an "unblocking
        // action" (Req4 NB-SELECT).
        if (ref.cu.kind == CuKind::Select &&
            std::find(nbSel.begin(), nbSel.end(), ref.loc) != nbSel.end()) {
            require(reqId(g, ReqType::Unblocking));
            require(reqId(g, ReqType::Nop));
        }
    }

    /** Look up (or dynamically register) the CU at @p loc. */
    uint32_t
    resolve(const SourceLoc &loc, CuKind fallback)
    {
        std::pair<const void *, uint64_t> ck{
            loc.file, (uint64_t{loc.line} << 8) |
                          static_cast<uint64_t>(fallback)};
        uint32_t idx;
        auto it = cuIndex.find(ck);
        if (it != cuIndex.end()) {
            idx = it->second;
        } else {
            const staticmodel::CuTable &t = universe.statics();
            const Cu *found = t.findKind(loc, fallback);
            // Receive events at a range statement resolve to the range
            // CU.
            if (!found && fallback == CuKind::Recv)
                found = t.findKind(loc, CuKind::Range);
            CuRef ref;
            ref.cu = found ? *found : Cu(loc, fallback);
            ref.dynamic = !found;
            cat.loc(ref.cu.loc.str(), true, &ref.loc);
            ref.group = cat.group(
                {0, ref.loc, -1, static_cast<uint32_t>(ref.cu.kind)});
            idx = static_cast<uint32_t>(cus.size());
            cus.push_back(ref);
            cuIndex.emplace(ck, idx);
        }
        // A fresh state instantiates a dynamic CU at its first sighting
        // (later ones find it required).
        if (cus[idx].dynamic)
            instantiate(cus[idx], 0, -1);
        return idx;
    }

    /** Register and mark covered (program level + node level). */
    void
    cover(uint32_t cu_idx, ReqType type, int case_idx, uint32_t scope)
    {
        const CuRef &ref = cus[cu_idx];
        ReqId pid = reqId(group(0, ref, case_idx), type);
        if (!(flagsOf(pid) & kCov)) {
            require(pid);
            setFlag(pid, kCov);
            out->covered.push_back(pid);
        }
        if (scope == kNoScope)
            return; // the scheduler creating main: no node scope
        ReqId nid = reqId(group(scope, ref, case_idx), type);
        if (!(flagsOf(nid) & kCov)) {
            // Materialize the node-level requirement set for this CU
            // the first time the node covers it.
            instantiate(ref, scope, case_idx);
            require(nid);
            setFlag(nid, kCov);
            out->covered.push_back(nid);
        }
    }

    void compute(const trace::Ect &ect, const GoroutineTree &tree,
                 CoverageDelta *delta);
};

void
ScratchImpl::compute(const trace::Ect &ect, const GoroutineTree &tree,
                     CoverageDelta *delta)
{
    for (ReqId id : touched)
        flags[id] = 0;
    touched.clear();
    nbSel.clear();
    lastAcq.clear();
    sel.clear();
    out = delta;
    out->clear();

    // Node scope of application-level goroutines by tree slot
    // (kNoScope: system goroutines and the scheduler context). Main's
    // is fixed; every other node gets its own where the walk meets its
    // creation.
    const std::vector<GoroutineNode> &nodes = tree.nodes();
    scopeBySlot.assign(nodes.size(), kNoScope);
    if (tree.root())
        scopeBySlot[tree.root() - nodes.data()] = Catalog::kMainScope;

    for (const Event &ev : ect.events()) {
        const size_t slot = tree.slot(ev.gid);
        const uint32_t sc =
            slot < scopeBySlot.size() ? scopeBySlot[slot] : kNoScope;
        if (sc == kNoScope && ev.type != EventType::GoCreate)
            continue; // system/scheduler context
        auto obj = static_cast<uint64_t>(ev.args[0]);

        switch (ev.type) {
          case EventType::GoCreate: {
            if (ev.args[1] != 0)
                break; // system goroutine
            const GoroutineNode *child =
                tree.node(static_cast<uint32_t>(ev.args[0]));
            if (!child || !child->appLevel)
                break;
            uint32_t cu = resolve(ev.loc, CuKind::Go);
            if (sc != kNoScope) { // else main, created by the scheduler
                const uint32_t loc = cus[cu].loc;
                auto [it, fresh] =
                    childScopes.try_emplace(uint64_t{sc} << 32 | loc, 0);
                if (fresh)
                    cat.scope(sc, loc, true, &it->second);
                scopeBySlot[child - nodes.data()] = it->second;
            }
            cover(cu, ReqType::Nop, -1, sc);
            break;
          }

          case EventType::GoBlockSend:
            cover(resolve(ev.loc, CuKind::Send), ReqType::Blocked, -1, sc);
            break;
          case EventType::GoBlockRecv:
            cover(resolve(ev.loc, CuKind::Recv), ReqType::Blocked, -1, sc);
            break;
          case EventType::GoBlockSync: {
            // a1 carries the runtime BlockReason; only mutex/rwmutex
            // parks instantiate Req3 (waitgroup waits have no
            // requirement in the paper's model).
            auto reason = static_cast<runtime::BlockReason>(ev.args[1]);
            if (reason != runtime::BlockReason::Mutex &&
                reason != runtime::BlockReason::RWMutex)
                break;
            uint32_t cu = resolve(ev.loc, CuKind::Lock);
            if (cus[cu].cu.kind == CuKind::Lock)
                cover(cu, ReqType::Blocked, -1, sc);
            break;
          }
          case EventType::GoBlockSelect: {
            // Every registered case of the parked select is blocked.
            auto it = sel.find(ev.gid);
            if (it == sel.end())
                break;
            const SelCtx &ctx = it->second;
            if (!ctx.hasDefault) {
                for (int i = 0; i < ctx.nCases; ++i)
                    cover(ctx.cu, ReqType::Blocked, i, sc);
            }
            break;
          }

          case EventType::ChSend: {
            uint32_t cu = resolve(ev.loc, CuKind::Send);
            if (ev.args[1]) // blockedFirst
                cover(cu, ReqType::Blocked, -1, sc);
            else
                cover(cu, ev.args[2] ? ReqType::Unblocking : ReqType::Nop,
                      -1, sc);
            break;
          }
          case EventType::ChRecv: {
            uint32_t cu = resolve(ev.loc, CuKind::Recv);
            if (ev.args[1])
                cover(cu, ReqType::Blocked, -1, sc);
            else
                cover(cu, ev.args[2] ? ReqType::Unblocking : ReqType::Nop,
                      -1, sc);
            break;
          }
          case EventType::ChClose:
            cover(resolve(ev.loc, CuKind::Close),
                  ev.args[1] ? ReqType::Unblocking : ReqType::Nop, -1, sc);
            break;

          case EventType::MuLockReq:
            if (ev.args[1] != -1) {
                auto it = lastAcq.find(obj);
                if (it != lastAcq.end())
                    cover(it->second.first, ReqType::Blocking, -1,
                          it->second.second);
            }
            break;
          case EventType::RWLockReq:
          case EventType::RWRLockReq:
            if (ev.args[1] != 0) {
                auto it = lastAcq.find(obj);
                if (it != lastAcq.end())
                    cover(it->second.first, ReqType::Blocking, -1,
                          it->second.second);
            }
            break;
          case EventType::MuLock:
          case EventType::RWLock:
          case EventType::RWRLock: {
            uint32_t cu = resolve(ev.loc, CuKind::Lock);
            if (ev.args[1])
                cover(cu, ReqType::Blocked, -1, sc);
            lastAcq[obj] = {cu, sc};
            break;
          }
          case EventType::MuUnlock:
          case EventType::RWUnlock:
          case EventType::RWRUnlock:
            cover(resolve(ev.loc, CuKind::Unlock),
                  ev.args[1] ? ReqType::Unblocking : ReqType::Nop, -1, sc);
            break;

          case EventType::WgAdd:
            if (ev.args[1] < 0) // a Done
                cover(resolve(ev.loc, CuKind::Done),
                      ev.args[3] ? ReqType::Unblocking : ReqType::Nop, -1,
                      sc);
            break;
          case EventType::CvSignal:
            cover(resolve(ev.loc, CuKind::Signal),
                  ev.args[1] ? ReqType::Unblocking : ReqType::Nop, -1, sc);
            break;
          case EventType::CvBroadcast:
            cover(resolve(ev.loc, CuKind::Broadcast),
                  ev.args[1] ? ReqType::Unblocking : ReqType::Nop, -1, sc);
            break;

          case EventType::SelectBegin: {
            SelCtx ctx;
            ctx.cu = resolve(ev.loc, CuKind::Select);
            ctx.nCases = static_cast<int>(ev.args[0]);
            ctx.hasDefault = ev.args[1] != 0;
            if (ctx.hasDefault) {
                const CuRef &ref = cus[ctx.cu];
                if (std::find(nbSel.begin(), nbSel.end(), ref.loc) ==
                    nbSel.end()) {
                    // First observation of the default: Req4 instances.
                    nbSel.push_back(ref.loc);
                    require(reqId(ref.group, ReqType::Unblocking));
                    require(reqId(ref.group, ReqType::Nop));
                }
            }
            sel[ev.gid] = ctx;
            break;
          }
          case EventType::SelectCase: {
            auto it = sel.find(ev.gid);
            if (it == sel.end())
                break;
            const SelCtx &ctx = it->second;
            if (!ctx.hasDefault) {
                // Req2: discovered case → requirement triple, program
                // and node level.
                auto idx = static_cast<int>(ev.args[0]);
                const CuRef &ref = cus[ctx.cu];
                instantiate(ref, 0, idx);
                instantiate(ref, sc, idx);
            }
            break;
          }
          case EventType::SelectEnd: {
            auto it = sel.find(ev.gid);
            if (it == sel.end())
                break;
            const SelCtx ctx = it->second;
            auto chosen = static_cast<int>(ev.args[0]);
            bool blocked_first = ev.args[1] != 0;
            bool woke = ev.args[2] != 0;
            if (chosen < 0) {
                // Default taken: the select acted as a NOP (Req4).
                cover(ctx.cu, ReqType::Nop, -1, sc);
            } else if (ctx.hasDefault) {
                cover(ctx.cu, woke ? ReqType::Unblocking : ReqType::Nop,
                      -1, sc);
            } else if (blocked_first) {
                cover(ctx.cu, ReqType::Blocked, chosen, sc);
            } else {
                cover(ctx.cu, woke ? ReqType::Unblocking : ReqType::Nop,
                      chosen, sc);
            }
            sel.erase(ev.gid);
            break;
          }

          default:
            break;
        }
    }
    out = nullptr;
}

} // namespace detail

void
CoverageDelta::clear()
{
    required.clear();
    covered.clear();
}

CoverageScratch::CoverageScratch(std::shared_ptr<const CoverageUniverse> u)
    : universe_(std::move(u)),
      impl_(std::make_unique<detail::ScratchImpl>(*universe_))
{
}

CoverageScratch::~CoverageScratch() = default;

void
CoverageScratch::compute(const trace::Ect &ect, const GoroutineTree &tree,
                         CoverageDelta *out)
{
    impl_->compute(ect, tree, out);
}

// ------------------------------------------------------------------ state

namespace {

std::shared_ptr<const CoverageUniverse>
universeFor(staticmodel::CuTable statics)
{
    // Default-constructed states (no static model) share one universe.
    if (statics.empty()) {
        static const auto empty =
            std::make_shared<const CoverageUniverse>(staticmodel::CuTable{});
        return empty;
    }
    return std::make_shared<const CoverageUniverse>(std::move(statics));
}

} // namespace

std::string
CoverageState::key(const Cu &cu, ReqType type, int case_idx)
{
    std::string k;
    appendLoc(k, cu.loc);
    appendKindCase(k, cu.kind, case_idx);
    k += reqTypeName(type);
    return k;
}

CoverageState::CoverageState(staticmodel::CuTable statics)
    : CoverageState(universeFor(std::move(statics)))
{
}

CoverageState::CoverageState(std::shared_ptr<const CoverageUniverse> u)
    : universe_(std::move(u)), required_(universe_->required()),
      nRequired_(universe_->size())
{
}

void
CoverageState::addEct(const trace::Ect &ect)
{
    GoroutineTree tree(ect);
    addEct(ect, tree);
}

void
CoverageState::addEct(const trace::Ect &ect, const GoroutineTree &tree)
{
    CoverageDelta d;
    CoverageScratch(universe_).compute(ect, tree, &d);
    applyDelta(d);
}

void
CoverageState::require(ReqId id)
{
    if (required_.set(id))
        ++nRequired_;
}

void
CoverageState::cover(ReqId id)
{
    require(id);
    if (covered_.set(id)) {
        ++nCovered_;
        ++coveredOfType_[id & 3];
    }
}

void
CoverageState::applyDelta(const CoverageDelta &d)
{
    for (ReqId id : d.required)
        require(id);
    for (ReqId id : d.covered)
        cover(id);
}

void
CoverageState::mergeFrom(const CoverageState &other)
{
    nRequired_ += required_.unite(other.required_, nullptr);
    nCovered_ += covered_.unite(other.covered_, coveredOfType_);
}

bool
parseBitmap(const std::string &bitmap, CoverageDelta *out)
{
    Catalog &cat = Catalog::instance();
    out->clear();
    size_t pos = 0;
    while (pos < bitmap.size()) {
        size_t eol = bitmap.find('\n', pos);
        if (eol == std::string::npos)
            eol = bitmap.size();
        std::string line = bitmap.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty())
            continue;
        if (line.size() < 3 || (line[0] != '0' && line[0] != '1') ||
            line[1] != ' ')
            return false;
        GroupKey gk;
        ReqType t;
        if (!parseKey(cat, line.substr(2), true, &gk, &t))
            return false;
        ReqId id = reqId(cat.group(gk), t);
        (line[0] == '1' ? out->covered : out->required).push_back(id);
    }
    return true;
}

std::string
deltaBitmap(const CoverageDelta &d)
{
    std::vector<std::string> keys;
    Catalog::instance().keyStrs(d.required, &keys);
    Catalog::instance().keyStrs(d.covered, &keys);
    std::string out;
    for (size_t i = 0; i < keys.size(); ++i)
        out += (i < d.required.size() ? "0 " : "1 ") + keys[i] + '\n';
    return out;
}

bool
CoverageState::restoreBitmap(const std::string &bitmap)
{
    CoverageDelta d;
    if (!parseBitmap(bitmap, &d))
        return false;
    applyDelta(d);
    return true;
}

bool
CoverageState::findKey(const std::string &key, ReqId *id) const
{
    Catalog &cat = Catalog::instance();
    GroupKey gk;
    ReqType t;
    uint32_t g;
    if (!parseKey(cat, key, false, &gk, &t) || !cat.findGroup(gk, &g))
        return false;
    *id = reqId(g, t);
    return true;
}

bool
CoverageState::isCovered(const std::string &key) const
{
    ReqId id;
    return findKey(key, &id) && covered_.test(id);
}

bool
CoverageState::isRequired(const std::string &key) const
{
    ReqId id;
    return findKey(key, &id) && required_.test(id);
}

namespace {

/** (key, covered) for every required id of a state, sorted by key. */
std::vector<std::pair<std::string, bool>>
sortedKeys(const ReqBits &required, const ReqBits &covered)
{
    std::vector<ReqId> ids;
    required.forEach([&](ReqId id) { ids.push_back(id); });
    std::vector<std::string> keys;
    Catalog::instance().keyStrs(ids, &keys);
    std::vector<std::pair<std::string, bool>> out;
    out.reserve(ids.size());
    for (size_t i = 0; i < ids.size(); ++i)
        out.emplace_back(std::move(keys[i]), covered.test(ids[i]));
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace

std::string
CoverageState::bitmapStr() const
{
    std::string out;
    for (const auto &[k, cov] : sortedKeys(required_, covered_)) {
        out += cov ? '1' : '0';
        out += ' ';
        out += k;
        out += '\n';
    }
    return out;
}

double
CoverageState::percent() const
{
    if (nRequired_ == 0)
        return 100.0;
    return 100.0 * static_cast<double>(nCovered_) /
           static_cast<double>(nRequired_);
}

std::vector<std::string>
CoverageState::uncovered() const
{
    std::vector<std::string> out;
    for (auto &[k, cov] : sortedKeys(required_, covered_))
        if (!cov)
            out.push_back(std::move(k));
    return out;
}

staticmodel::CuTable
CoverageState::cuTable() const
{
    staticmodel::CuTable t = universe_->statics();
    for (const ProgReq &r : Catalog::instance().programLevel(required_))
        t.add(r.cu); // sorted insert; ignores a CU already present
    return t;
}

std::string
CoverageState::tableStr() const
{
    std::vector<ProgReq> reqs = Catalog::instance().programLevel(required_);
    std::sort(reqs.begin(), reqs.end());
    std::string out = strFormat("%-22s %-10s %-14s %s\n", "CU location",
                                "kind", "requirement", "covered");
    for (const ProgReq &r : reqs) {
        std::string req = reqTypeName(r.type);
        if (r.caseIdx >= 0)
            req = strFormat("case%d-%s", r.caseIdx, req.c_str());
        out += strFormat("%-22s %-10s %-14s %s\n", r.cu.loc.str().c_str(),
                         cuKindName(r.cu.kind), req.c_str(),
                         covered_.test(r.id) ? "yes" : "no");
    }
    return out;
}

} // namespace goat::analysis
