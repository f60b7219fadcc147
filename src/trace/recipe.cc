#include "trace/recipe.hh"

#include <fstream>
#include <ostream>
#include <sstream>

#include "base/fileio.hh"
#include "base/fmt.hh"
#include "trace/serialize.hh"

namespace goat::trace {

namespace {

constexpr const char *kMagic = "# goat-recipe v1";

} // namespace

uint64_t
ectFingerprint(const Ect &ect)
{
    std::string text = ectToString(ect);
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

void
writeRecipe(const Recipe &r, std::ostream &os)
{
    os << kMagic << '\n';
    if (!r.kernel.empty())
        os << "kernel " << r.kernel << '\n';
    os << "seed " << r.seed << '\n';
    os << "delay_bound " << r.delayBound << '\n';
    // %.17g round-trips an IEEE double exactly.
    os << "noise_prob " << strFormat("%.17g", r.noiseProb) << '\n';
    os << "step_budget " << r.stepBudget << '\n';
    os << "iteration " << r.iteration << '\n';
    os << "hook_calls " << r.hookCalls << '\n';
    os << "outcome " << r.outcome << '\n';
    os << "verdict " << r.verdict << '\n';
    os << "ect_events " << r.ectEvents << '\n';
    os << "ect_hash " << strFormat("%016llx",
                                   static_cast<unsigned long long>(r.ectHash))
       << '\n';
    if (r.seededPolicy)
        os << "policy seeded\n";
    for (const RecipeYield &y : r.yields)
        os << "yield " << y.call << ' ' << y.kind << ' ' << y.file << ' '
           << y.line << '\n';
}

std::string
recipeToString(const Recipe &r)
{
    std::ostringstream oss;
    writeRecipe(r, oss);
    return oss.str();
}

bool
writeRecipeFile(const Recipe &r, const std::string &path)
{
    return atomicWriteFile(path, recipeToString(r));
}

bool
readRecipe(std::istream &in, Recipe &r)
{
    r = Recipe{};
    std::string line;
    if (!std::getline(in, line) || strTrim(line) != kMagic)
        return false;
    while (std::getline(in, line)) {
        line = strTrim(line);
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string key, val;
        ls >> key >> val;
        bool ok = true;
        if (key == "kernel") {
            r.kernel = val;
            ok = !val.empty();
        } else if (key == "seed") {
            ok = parseNum(val, &r.seed);
        } else if (key == "delay_bound") {
            ok = parseNum(val, &r.delayBound);
        } else if (key == "noise_prob") {
            ok = parseNum(val, &r.noiseProb);
        } else if (key == "step_budget") {
            ok = parseNum(val, &r.stepBudget);
        } else if (key == "iteration") {
            ok = parseNum(val, &r.iteration);
        } else if (key == "hook_calls") {
            ok = parseNum(val, &r.hookCalls);
        } else if (key == "outcome") {
            r.outcome = val; // an empty value is tolerated
        } else if (key == "verdict") {
            r.verdict = val;
        } else if (key == "ect_events") {
            ok = parseNum(val, &r.ectEvents);
        } else if (key == "ect_hash") {
            ok = parseNum(val, &r.ectHash, 16);
        } else if (key == "policy") {
            r.seededPolicy = val == "seeded";
            ok = !val.empty();
        } else if (key == "yield") {
            RecipeYield y;
            std::string line_no;
            ok = ls >> y.kind >> y.file >> line_no &&
                 parseNum(val, &y.call) && parseNum(line_no, &y.line);
            r.yields.push_back(std::move(y));
        }
        // Unknown keys are skipped (forward compatibility).
        if (!ok)
            return false;
    }
    return true;
}

bool
recipeFromString(const std::string &text, Recipe &r)
{
    std::istringstream iss(text);
    return readRecipe(iss, r);
}

bool
readRecipeFile(const std::string &path, Recipe &r)
{
    std::ifstream ifs(path);
    if (!ifs)
        return false;
    return readRecipe(ifs, r);
}

} // namespace goat::trace
