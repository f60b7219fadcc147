/**
 * @file
 * Repro recipes: the serialized witness of one buggy (or otherwise
 * interesting) execution, small enough to mail to a colleague and
 * complete enough to re-execute the exact schedule.
 *
 * Every scheduling decision of a run is a pure function of the seed
 * plus the perturbation hook's answers, so a recipe only needs the
 * execution parameters (seed, delay bound, noise probability, step
 * budget) and the index of every hook call at which a yield was
 * injected. Replaying a recipe (perturb/replay.hh) re-executes the
 * identical interleaving; the recipe additionally carries the expected
 * verdict and an ECT fingerprint so a replayer can *assert* the
 * reproduction instead of trusting it.
 *
 * Format, line-oriented like the ECT serializer next door:
 *
 *   # goat-recipe v1
 *   kernel cockroach_1055
 *   seed 8286623314361712391
 *   delay_bound 2
 *   noise_prob 0.02
 *   step_budget 2000000
 *   iteration 7
 *   hook_calls 31
 *   outcome ok
 *   verdict partial_deadlock
 *   ect_events 120
 *   ect_hash 9add71047b48ef5c
 *   yield 5 send goker_cockroach.cc 120
 *   yield 17 lock goker_cockroach.cc 133
 *
 * `yield` lines give the 1-based perturbation-hook call index at which
 * the yield fired plus the CU site (kind, file basename, line) — the
 * sites are informational (the call index alone drives replay) but are
 * the debugging headline after minimization.
 */

#ifndef GOAT_TRACE_RECIPE_HH
#define GOAT_TRACE_RECIPE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/ect.hh"

namespace goat::trace {

/** One injected yield: where in the decision stream, and at what CU. */
struct RecipeYield
{
    /** 1-based perturbation-hook call index the yield fired at. */
    uint64_t call = 0;
    /** CU kind name at the injection site ("send", "lock", ...). */
    std::string kind;
    /** Source file basename of the CU. */
    std::string file;
    uint32_t line = 0;

    bool
    operator==(const RecipeYield &o) const
    {
        return call == o.call && kind == o.kind && file == o.file &&
               line == o.line;
    }
};

/**
 * A complete schedule-repro recipe for one execution.
 */
struct Recipe
{
    int version = 1;
    /** Program/kernel label ("" when unknown). */
    std::string kernel;
    uint64_t seed = 0;
    /** Yield bound D the run was recorded under. */
    int delayBound = 0;
    double noiseProb = 0.02;
    uint64_t stepBudget = 2'000'000;
    /** Campaign iteration that produced the run (0 = standalone). */
    int iteration = 0;
    /** Total perturbation-hook invocations observed in the run. */
    uint64_t hookCalls = 0;
    /** Runtime outcome name of the recorded run ("ok", ...). */
    std::string outcome;
    /** Offline verdict name ("partial_deadlock", ...). */
    std::string verdict;
    /** FNV-1a fingerprint of the serialized ECT (ectFingerprint). */
    uint64_t ectHash = 0;
    /** Event count of the recorded ECT. */
    uint64_t ectEvents = 0;
    /**
     * Seeded-policy recipe (`policy seeded` line): the exact yield
     * list is unknown — the run died (crash/timeout under the
     * campaign supervisor) before it could be recorded — so replay
     * re-derives the schedule from the seeded perturbation policy
     * exactly as the campaign iteration did, instead of replaying an
     * explicit yield list. ECT fingerprint assertions do not apply.
     */
    bool seededPolicy = false;
    /** Injected yields, in call order. */
    std::vector<RecipeYield> yields;
};

/** FNV-1a hash of an ECT's full text serialization (meta + events). */
uint64_t ectFingerprint(const Ect &ect);

/** Serialize a recipe to a stream. */
void writeRecipe(const Recipe &r, std::ostream &os);

/** Serialize a recipe to a string. */
std::string recipeToString(const Recipe &r);

/** Serialize a recipe to a file. @return false on I/O error. */
bool writeRecipeFile(const Recipe &r, const std::string &path);

/**
 * Parse a serialized recipe.
 *
 * @retval false on malformed input: bad magic, a truncated yield
 *         line, or a number that is not one whole token (the hash in
 *         hex, the rest in decimal). Unknown keys are skipped for
 *         forward compatibility.
 */
bool readRecipe(std::istream &in, Recipe &r);

/** Parse from a string. */
bool recipeFromString(const std::string &text, Recipe &r);

/** Parse from a file. */
bool readRecipeFile(const std::string &path, Recipe &r);

} // namespace goat::trace

#endif // GOAT_TRACE_RECIPE_HH
