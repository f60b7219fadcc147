#include "goker/registry.hh"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <set>

#include "staticmodel/flowgraph.hh"
#include "staticmodel/mhp.hh"
#include "staticmodel/scanner.hh"

namespace goat::goker {

const char *
bugClassName(BugClass c)
{
    switch (c) {
      case BugClass::ResourceDeadlock: return "resource";
      case BugClass::CommunicationDeadlock: return "communication";
      case BugClass::MixedDeadlock: return "mixed";
    }
    return "?";
}

KernelRegistry &
KernelRegistry::instance()
{
    static KernelRegistry reg;
    return reg;
}

void
KernelRegistry::add(KernelInfo info)
{
    std::vector<int> &lines = lines_[info.sourceFile];
    lines.insert(std::upper_bound(lines.begin(), lines.end(), info.line),
                 info.line);
    kernels_.push_back(std::move(info));
}

const KernelInfo *
KernelRegistry::find(const std::string &name) const
{
    for (const auto &k : kernels_)
        if (k.name == name)
            return &k;
    return nullptr;
}

std::vector<const KernelInfo *>
KernelRegistry::all() const
{
    std::vector<const KernelInfo *> out;
    for (const auto &k : kernels_)
        if (!k.hostile)
            out.push_back(&k);
    std::sort(out.begin(), out.end(),
              [](const KernelInfo *a, const KernelInfo *b) {
                  if (a->project != b->project)
                      return a->project < b->project;
                  return a->name < b->name;
              });
    return out;
}

std::vector<const KernelInfo *>
KernelRegistry::allHostile() const
{
    std::vector<const KernelInfo *> out;
    for (const auto &k : kernels_)
        if (k.hostile)
            out.push_back(&k);
    std::sort(out.begin(), out.end(),
              [](const KernelInfo *a, const KernelInfo *b) {
                  return a->name < b->name;
              });
    return out;
}

std::vector<const KernelInfo *>
KernelRegistry::byProject(const std::string &project) const
{
    std::vector<const KernelInfo *> out;
    for (const auto *k : all())
        if (k->project == project)
            out.push_back(k);
    return out;
}

std::vector<std::string>
KernelRegistry::projects() const
{
    std::set<std::string> names;
    for (const auto &k : kernels_)
        if (!k.hostile)
            names.insert(k.project);
    return {names.begin(), names.end()};
}

KernelAutoReg::KernelAutoReg(const char *name, const char *project,
                             BugClass cls, const char *desc,
                             std::function<void()> fn, const char *file,
                             int line, bool hostile)
{
    KernelInfo info;
    info.name = name;
    info.project = project;
    info.bugClass = cls;
    info.description = desc;
    info.fn = std::move(fn);
    info.sourceFile = file;
    info.line = line;
    info.hostile = hostile;
    KernelRegistry::instance().add(std::move(info));
}

std::pair<uint32_t, uint32_t>
kernelSpan(const KernelInfo &kernel)
{
    // The kernel's span runs from its registration line to the next
    // registration in the same file (or EOF).
    int end = 1 << 30;
    const auto &byFile = KernelRegistry::instance().lines_;
    auto file = byFile.find(kernel.sourceFile);
    if (file != byFile.end()) {
        auto next = std::upper_bound(file->second.begin(),
                                     file->second.end(), kernel.line);
        if (next != file->second.end())
            end = *next;
    }
    return {static_cast<uint32_t>(kernel.line), static_cast<uint32_t>(end)};
}

namespace {

/**
 * The process's one scan of @p path: the first caller (from any
 * thread) runs @p scanPath, every later one gets the same object,
 * never rebuilt. A missing file memoizes as the empty scan.
 */
template <class Scan>
const Scan &
sharedScan(const std::string &path, Scan (*scanPath)(const std::string &))
{
    static std::mutex mu;
    static std::map<std::string, std::unique_ptr<const Scan>> memo;
    std::lock_guard<std::mutex> lock(mu);
    std::unique_ptr<const Scan> &slot = memo[path];
    if (!slot)
        slot = std::make_unique<const Scan>(scanPath(path));
    return *slot;
}

const staticmodel::SrcScan &
sharedRegions(const KernelInfo &kernel)
{
    return sharedScan(kernel.sourceFile, &staticmodel::scanRegionsFile);
}

} // namespace

staticmodel::CuTable
kernelCuTable(const KernelInfo &kernel)
{
    auto [begin, end] = kernelSpan(kernel);
    const staticmodel::CuTable &full =
        sharedScan(kernel.sourceFile, &staticmodel::scanFile);
    staticmodel::CuTable out;
    for (const auto &cu : full.all()) {
        if (cu.loc.line >= begin && cu.loc.line < end)
            out.add(cu);
    }
    return out;
}

staticmodel::LintReport
kernelLintReport(const KernelInfo &kernel)
{
    auto [begin, end] = kernelSpan(kernel);
    return staticmodel::lintScan(sharedRegions(kernel), begin, end);
}

std::string
kernelMhpPairsStr(const KernelInfo &kernel)
{
    auto [begin, end] = kernelSpan(kernel);
    staticmodel::FlowGraph fg =
        staticmodel::buildFlowGraph(sharedRegions(kernel), begin, end);
    return staticmodel::mhpPairsStr(staticmodel::MhpAnalysis(fg));
}

std::vector<SourceLoc>
kernelMhpSites(const KernelInfo &kernel)
{
    auto [begin, end] = kernelSpan(kernel);
    staticmodel::FlowGraph fg =
        staticmodel::buildFlowGraph(sharedRegions(kernel), begin, end);
    return staticmodel::mhpSites(staticmodel::MhpAnalysis(fg));
}

} // namespace goat::goker
