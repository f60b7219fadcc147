/**
 * @file
 * Lexical source scanner building the static CU model from C++ sources
 * that use the GoAT-CPP API — the substitute for the paper's Go AST
 * traversal (DESIGN.md §2).
 *
 * The scanner strips comments and string literals, then recognizes the
 * API's primitive operations by their call syntax:
 *
 *   .send( .recv( .recvOk( .close( .range(           -> channel CUs
 *   .lock( .rlock( .tryLock( .unlock( .runlock(      -> lock CUs
 *   .wait( .add( .done( .signal( .broadcast(         -> sync CUs
 *   go( / goNamed(                                   -> go CU
 *   Select(                                          -> select CU
 *   LockGuard(                                       -> lock + unlock CU
 *
 * Being lexical rather than type-aware, the scanner can over-approximate
 * on foreign classes with identically named methods; GoAT-CPP code
 * conventions (no unrelated .send()/.lock() methods in instrumented
 * files) keep the model exact in practice, and the dynamic↔static
 * matcher reports any CU that never produces a compatible event.
 */

#ifndef GOAT_STATICMODEL_SCANNER_HH
#define GOAT_STATICMODEL_SCANNER_HH

#include <map>
#include <string>
#include <vector>

#include "staticmodel/cutable.hh"

namespace goat::staticmodel {

/**
 * Scan C++ source text for concurrency usages.
 *
 * @param text Full source text.
 * @param filename Name recorded in the produced CUs (basenamed).
 */
CuTable scanSource(const std::string &text, const std::string &filename);

/** Scan one file on disk. Missing files yield an empty table. */
CuTable scanFile(const std::string &path);

/**
 * Remove // and block comments plus string/char literal contents from
 * source text, preserving line structure (exposed for testing).
 * Handles C++ raw string literals (`R"(...)"` and the delimited
 * `R"delim(...)delim"` forms, with u8/u/U/L prefixes) so CU-like text
 * inside raw strings cannot pollute the model.
 */
std::string stripCommentsAndStrings(const std::string &text);

// ---------------------------------------------------------------------
// Block/region layer: the structural scan the static lint pass runs on.
// Where scanSource() flattens a file into (file, line, kind) tuples,
// scanRegions() additionally keeps the lexical block structure, the
// receiver expression of every `.method(` call, early-exit `return`
// statements, and channel-capacity hints — everything the flow-free
// lint checks (staticmodel/lint.hh) need.
// ---------------------------------------------------------------------

/**
 * One recognized operation with its lexical context.
 *
 * Besides the CU kinds, the region scan records SharedVar accesses
 * (`.load(` / `.store(` / `.update(`) with kind NumCuKinds and the
 * method name preserved — they are not CUs (no dynamic schedule
 * event) but the flow-aware GL008 race check needs them.
 */
struct SrcOp
{
    SourceLoc loc;
    CuKind kind = CuKind::NumCuKinds;
    /**
     * Receiver expression of a `.method(` call ("st->mu"); for
     * go()/goNamed() ops, the call's argument text (used to resolve
     * goroutines spawned by lambda/function name); else "".
     */
    std::string object;
    /** Raw callee name ("lock", "rlock", "Select", "go", ...). */
    std::string method;
    /** Innermost enclosing scope id (index into SrcScan::scopes). */
    int scope = 0;
    /** Select ops: the chain declares an `.onDefault()` arm. */
    bool selectDefault = false;
    /** Add ops: integer-literal delta, or -1 when not a literal. */
    int addArg = -1;

    /** SharedVar access (load/store/update)? */
    bool isVarAccess() const;
    /** SharedVar write (store/update)? */
    bool isVarWrite() const;
};

/**
 * One lexical `{...}` region.
 */
struct SrcScope
{
    /** Parent scope id (-1 for the file scope). */
    int parent = -1;
    /** Brace-nesting depth (0 for the file scope). */
    int depth = 0;
    uint32_t beginLine = 0;
    uint32_t endLine = 0;
    /**
     * The scope is an analysis unit root: a function body, a lambda
     * body (including goroutine bodies passed to go()/goNamed()), or
     * the file scope. Lock-held state never crosses a task root.
     */
    bool taskRoot = false;
    /** Body of a `for`/`while`/`do` statement. */
    bool loop = false;
    /** Body of an `if`/`else` statement (conditional path). */
    bool conditional = false;
    /**
     * Task roots only: the name bound to this body — the variable a
     * lambda is assigned to (`auto f = [..]{...}` -> "f") or the
     * function name (`void worker() {...}` -> "worker"). Used to
     * resolve `go(f)` spawns of named lambdas/functions; "" when
     * anonymous.
     */
    std::string declName;
};

/** One `return` statement (an early-exit path). */
struct SrcReturn
{
    uint32_t line = 0;
    int scope = 0;
    /**
     * The return is the braceless body of an `if`/`else` (e.g.
     * `if (err) return;`) — conditional even though no scope wraps it.
     */
    bool conditional = false;
};

/**
 * Structural scan of one source text: operations in textual order,
 * the scope tree, return statements, and channel-capacity hints.
 */
struct SrcScan
{
    /** Interned basename of the scanned file. */
    const char *file = "?";
    /** Recognized operations, in textual order. */
    std::vector<SrcOp> ops;
    /** Scope tree; index 0 is the file scope. */
    std::vector<SrcScope> scopes;
    /** Return statements, in textual order. */
    std::vector<SrcReturn> returns;
    /**
     * Channel-capacity hints: trailing identifier of a declaration or
     * constructor-initializer `name(<int literal>)` → the literal.
     * Consulted only for objects that carry channel operations.
     */
    std::map<std::string, int> chanCap;
    /**
     * Inline suppression comments, harvested from the raw text before
     * comment stripping: line carrying `// goat:nolint(GL003,GL004)`
     * (or the bare `// goat:nolint`) → listed rule ids (empty vector
     * = suppress every rule on that line).
     */
    std::map<uint32_t, std::vector<std::string>> nolint;

    /** True when a goat:nolint comment on @p line covers @p ruleId. */
    bool nolintAt(uint32_t line, const std::string &ruleId) const;

    /** True when @p ancestor is @p scope or one of its ancestors. */
    bool scopeWithin(int scope, int ancestor) const;

    /** Innermost task root enclosing @p scope (the scope itself ok). */
    int taskRootOf(int scope) const;

    /** True when any scope on the path scope→root (exclusive) loops. */
    bool inLoop(int scope, int root) const;
};

/** Structural scan of one source text (see SrcScan). */
SrcScan scanRegions(const std::string &text, const std::string &filename);

/** Structural scan of one file on disk (empty scan when missing). */
SrcScan scanRegionsFile(const std::string &path);

} // namespace goat::staticmodel

#endif // GOAT_STATICMODEL_SCANNER_HH
