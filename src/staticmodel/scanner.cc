#include "staticmodel/scanner.hh"

#include <cctype>
#include <fstream>
#include <sstream>

#include "base/fmt.hh"
#include "trace/serialize.hh"

namespace goat::staticmodel {

namespace {

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/**
 * True when the `"` at @p i opens a raw string literal: preceded by an
 * `R` (optionally prefixed u8/u/U/L) that is not the tail of a longer
 * identifier (`myVarR"..."` is not a raw string prefix).
 */
bool
isRawStringQuote(const std::string &text, size_t i)
{
    if (i == 0 || text[i - 1] != 'R')
        return false;
    size_t k = i - 1; // the 'R'
    if (k >= 2 && text[k - 1] == '8' && text[k - 2] == 'u')
        k -= 2;
    else if (k >= 1 &&
             (text[k - 1] == 'u' || text[k - 1] == 'U' || text[k - 1] == 'L'))
        k -= 1;
    return k == 0 || !isIdentChar(text[k - 1]);
}

/** Method-name → CU kind table for `.name(` call sites. */
struct MethodKind
{
    const char *name;
    CuKind kind;
};

constexpr MethodKind methodKinds[] = {
    {"send", CuKind::Send},
    {"recv", CuKind::Recv},
    {"recvOk", CuKind::Recv},
    {"close", CuKind::Close},
    {"range", CuKind::Range},
    {"lock", CuKind::Lock},
    {"rlock", CuKind::Lock},
    {"tryLock", CuKind::Lock},
    {"unlock", CuKind::Unlock},
    {"runlock", CuKind::Unlock},
    {"wait", CuKind::Wait},
    {"add", CuKind::Add},
    {"done", CuKind::Done},
    {"signal", CuKind::Signal},
    {"broadcast", CuKind::Broadcast},
};

} // namespace

bool
SrcOp::isVarAccess() const
{
    return kind == CuKind::NumCuKinds &&
           (method == "load" || method == "store" || method == "update");
}

bool
SrcOp::isVarWrite() const
{
    return kind == CuKind::NumCuKinds &&
           (method == "store" || method == "update");
}

std::string
stripCommentsAndStrings(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    enum class St { Code, Line, Block, Str, Chr } st = St::Code;
    for (size_t i = 0; i < text.size(); ++i) {
        char c = text[i];
        char n = i + 1 < text.size() ? text[i + 1] : '\0';
        switch (st) {
          case St::Code:
            if (c == '/' && n == '/') {
                st = St::Line;
                ++i;
            } else if (c == '/' && n == '*') {
                st = St::Block;
                ++i;
            } else if (c == '"' && isRawStringQuote(text, i)) {
                // Raw string literal R"delim(...)delim": skip to the
                // matching close, preserving embedded newlines so line
                // numbers after the literal stay correct.
                size_t dp = text.find('(', i + 1);
                if (dp == std::string::npos || dp - i - 1 > 16) {
                    st = St::Str; // malformed; degrade to plain string
                    out += ' ';
                    break;
                }
                std::string closer =
                    ")" + text.substr(i + 1, dp - i - 1) + "\"";
                size_t end = text.find(closer, dp + 1);
                size_t stop = end == std::string::npos
                                  ? text.size()
                                  : end + closer.size();
                out += ' ';
                for (size_t k = i; k < stop; ++k)
                    if (text[k] == '\n')
                        out += '\n';
                i = stop - 1;
            } else if (c == '"') {
                st = St::Str;
                out += ' ';
            } else if (c == '\'') {
                st = St::Chr;
                out += ' ';
            } else {
                out += c;
            }
            break;
          case St::Line:
            if (c == '\n') {
                st = St::Code;
                out += '\n';
            }
            break;
          case St::Block:
            if (c == '*' && n == '/') {
                st = St::Code;
                ++i;
            } else if (c == '\n') {
                out += '\n';
            }
            break;
          case St::Str:
            if (c == '\\') {
                ++i;
            } else if (c == '"') {
                st = St::Code;
            } else if (c == '\n') {
                out += '\n'; // unterminated; keep line counts sane
                st = St::Code;
            }
            break;
          case St::Chr:
            if (c == '\\') {
                ++i;
            } else if (c == '\'') {
                st = St::Code;
            }
            break;
        }
    }
    return out;
}

CuTable
scanSource(const std::string &text, const std::string &filename)
{
    CuTable table;
    const char *file = trace::internString(pathBasename(filename));
    std::string clean = stripCommentsAndStrings(text);

    std::istringstream iss(clean);
    std::string line;
    uint32_t lineno = 0;
    while (std::getline(iss, line)) {
        ++lineno;
        for (size_t i = 0; i < line.size(); ++i) {
            // `.method(` call sites.
            if (line[i] == '.') {
                size_t j = i + 1;
                while (j < line.size() && isIdentChar(line[j]))
                    ++j;
                if (j < line.size() && line[j] == '(' && j > i + 1) {
                    std::string ident = line.substr(i + 1, j - i - 1);
                    for (const auto &mk : methodKinds) {
                        if (ident == mk.name) {
                            table.add(Cu(SourceLoc(file, lineno), mk.kind));
                            break;
                        }
                    }
                }
                continue;
            }
            // Word-start identifiers: go( goNamed( Select( LockGuard(.
            if (!isIdentChar(line[i]))
                continue;
            if (i > 0 && (isIdentChar(line[i - 1]) || line[i - 1] == '.'))
                continue;
            size_t j = i;
            while (j < line.size() && isIdentChar(line[j]))
                ++j;
            std::string ident = line.substr(i, j - i);
            bool callsite = j < line.size() && line[j] == '(';
            // Types also match their declaration form: `Select sel(..)`
            // and `LockGuard g(m)`.
            auto declsite = [&] {
                size_t k = j;
                while (k < line.size() && line[k] == ' ')
                    ++k;
                size_t w = k;
                while (w < line.size() && isIdentChar(line[w]))
                    ++w;
                return w > k && w < line.size() && line[w] == '(';
            };
            if (callsite && (ident == "go" || ident == "goNamed")) {
                table.add(Cu(SourceLoc(file, lineno), CuKind::Go));
            } else if (ident == "Select" && (callsite || declsite())) {
                table.add(Cu(SourceLoc(file, lineno), CuKind::Select));
            } else if (ident == "LockGuard" && (callsite || declsite())) {
                table.add(Cu(SourceLoc(file, lineno), CuKind::Lock));
                table.add(Cu(SourceLoc(file, lineno), CuKind::Unlock));
            }
            i = j - 1;
        }
    }
    return table;
}

CuTable
scanFile(const std::string &path)
{
    std::ifstream ifs(path);
    if (!ifs)
        return {};
    std::ostringstream oss;
    oss << ifs.rdbuf();
    return scanSource(oss.str(), path);
}

// ---------------------------------------------------------------------
// Block/region layer
// ---------------------------------------------------------------------

bool
SrcScan::scopeWithin(int scope, int ancestor) const
{
    while (scope >= 0) {
        if (scope == ancestor)
            return true;
        scope = scopes[scope].parent;
    }
    return false;
}

int
SrcScan::taskRootOf(int scope) const
{
    while (scope >= 0 && !scopes[scope].taskRoot)
        scope = scopes[scope].parent;
    return scope < 0 ? 0 : scope;
}

bool
SrcScan::inLoop(int scope, int root) const
{
    while (scope >= 0 && scope != root) {
        if (scopes[scope].loop)
            return true;
        scope = scopes[scope].parent;
    }
    return false;
}

bool
SrcScan::nolintAt(uint32_t line, const std::string &ruleId) const
{
    auto it = nolint.find(line);
    if (it == nolint.end())
        return false;
    if (it->second.empty())
        return true; // bare `goat:nolint` covers every rule
    for (const auto &r : it->second)
        if (r == ruleId)
            return true;
    return false;
}

namespace {

/** Keywords whose parenthesized head does not open a function body. */
bool
isControlKeyword(const std::string &w)
{
    return w == "if" || w == "for" || w == "while" || w == "switch" ||
           w == "catch";
}

const MethodKind *
lookupMethod(const std::string &name)
{
    for (const auto &mk : methodKinds)
        if (name == mk.name)
            return &mk;
    return nullptr;
}

} // namespace

SrcScan
scanRegions(const std::string &text, const std::string &filename)
{
    SrcScan scan;
    scan.file = trace::internString(pathBasename(filename));

    // Suppression comments live inside comments, so they must be
    // harvested from the raw text before stripping.
    {
        std::istringstream iss(text);
        std::string ln;
        uint32_t no = 0;
        while (std::getline(iss, ln)) {
            ++no;
            size_t p = ln.find("goat:nolint");
            if (p == std::string::npos || ln.rfind("//", p) == std::string::npos)
                continue;
            std::vector<std::string> rules;
            size_t q = p + 11; // past "goat:nolint"
            if (q < ln.size() && ln[q] == '(') {
                size_t e = ln.find(')', q);
                std::string list =
                    ln.substr(q + 1,
                              e == std::string::npos ? std::string::npos
                                                     : e - q - 1);
                std::string cur;
                for (char ch : list + ",") {
                    if (ch == ',') {
                        if (!cur.empty())
                            rules.push_back(cur);
                        cur.clear();
                    } else if (isIdentChar(ch)) {
                        cur += ch;
                    }
                }
            }
            scan.nolint[no] = std::move(rules);
        }
    }

    const std::string clean = stripCommentsAndStrings(text);

    SrcScope root;
    root.parent = -1;
    root.beginLine = 1;
    root.taskRoot = true;
    scan.scopes.push_back(root);

    std::vector<int> stack{0};
    // Token preceding each currently open '(' (verbatim, so a lambda
    // introducer leaves "]" and `if (` leaves "if").
    std::vector<std::string> parenIdent;
    std::string prevTok, prevPrevTok;
    std::string lastClosedParenIdent;
    // Current member-access chain ("st->mu.lock") and the chain minus
    // its last component ("st->mu") — the receiver of a method call.
    std::string chain, chainReceiver;
    int pendingSelect = -1;       // index of the Select op whose chain
    size_t pendingSelectDepth = 0; // is still open (for .onDefault)
    bool pendingTaskRoot = false; // saw go(/goNamed(; next body is one
    size_t pendingTaskRootParens = 0;
    bool chanDecl = false; // inside a `Chan<...> name...;` declaration
    bool condStmt = false; // in the braceless body of an if/else
    std::vector<std::string> bracketChain; // chain saved at each '['
    // Left-hand identifier of the current `name = ...` statement; a
    // lambda body opening before the next ';' is bound to this name.
    std::string pendingAssign;

    size_t i = 0;
    uint32_t line = 1;
    auto peekNonSpace = [&](size_t from) {
        while (from < clean.size() &&
               (clean[from] == ' ' || clean[from] == '\t' ||
                clean[from] == '\r'))
            ++from;
        return from;
    };
    auto setPrev = [&](std::string tok) {
        prevPrevTok = std::move(prevTok);
        prevTok = std::move(tok);
    };
    // Parse an optional non-negative integer literal argument at the
    // position of an opening '(' (e.g. `.add(2)` or `errs(1)`).
    auto intArgAt = [&](size_t paren) -> int {
        size_t k = peekNonSpace(paren + 1);
        size_t d = k;
        while (d < clean.size() &&
               std::isdigit(static_cast<unsigned char>(clean[d])))
            ++d;
        if (d == k)
            return -1;
        size_t e = peekNonSpace(d);
        if (e >= clean.size() || clean[e] != ')')
            return -1;
        return std::atoi(clean.substr(k, d - k).c_str());
    };
    // Argument text of a call whose '(' sits at @p paren ("st->mu").
    auto argTextAt = [&](size_t paren) -> std::string {
        int depth = 0;
        size_t k = paren;
        for (; k < clean.size(); ++k) {
            if (clean[k] == '(')
                ++depth;
            else if (clean[k] == ')' && --depth == 0)
                break;
        }
        std::string arg = clean.substr(paren + 1, k - paren - 1);
        size_t a = arg.find_first_not_of(" \t\r\n");
        size_t b = arg.find_last_not_of(" \t\r\n");
        return a == std::string::npos ? "" : arg.substr(a, b - a + 1);
    };

    while (i < clean.size()) {
        char c = clean[i];
        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (c == ' ' || c == '\t' || c == '\r') {
            ++i;
            continue;
        }
        if (isIdentChar(c)) {
            size_t j = i;
            while (j < clean.size() && isIdentChar(clean[j]))
                ++j;
            std::string w = clean.substr(i, j - i);
            if (prevTok == "." || prevTok == "->" || prevTok == "::") {
                chainReceiver = chain;
                chain += prevTok + w;
            } else {
                chainReceiver.clear();
                chain = w;
            }
            if (w == "return")
                scan.returns.push_back(
                    {line, stack.back(),
                     condStmt || prevTok == "else"});
            size_t k = peekNonSpace(j);
            bool calls = k < clean.size() && clean[k] == '(';
            if (calls && (prevTok == "." || prevTok == "->")) {
                // `.method(` call site with a receiver expression.
                if (w == "onDefault" && pendingSelect >= 0 &&
                    stack.size() == pendingSelectDepth) {
                    scan.ops[pendingSelect].selectDefault = true;
                } else if (const MethodKind *mk = lookupMethod(w)) {
                    SrcOp op;
                    op.loc = SourceLoc(scan.file, line);
                    op.kind = mk->kind;
                    op.object = chainReceiver;
                    op.method = w;
                    op.scope = stack.back();
                    if (mk->kind == CuKind::Add)
                        op.addArg = intArgAt(k);
                    scan.ops.push_back(std::move(op));
                } else if (w == "load" || w == "store" || w == "update") {
                    // SharedVar access: not a CU (kind stays the
                    // NumCuKinds sentinel) but the GL008 race check
                    // needs the site.
                    SrcOp op;
                    op.loc = SourceLoc(scan.file, line);
                    op.object = chainReceiver;
                    op.method = w;
                    op.scope = stack.back();
                    scan.ops.push_back(std::move(op));
                }
            } else if (calls) {
                // Word-start call site.
                if (w == "go" || w == "goNamed") {
                    SrcOp op;
                    op.loc = SourceLoc(scan.file, line);
                    op.kind = CuKind::Go;
                    op.object = argTextAt(k); // for named-spawn matching
                    op.method = w;
                    op.scope = stack.back();
                    scan.ops.push_back(std::move(op));
                    pendingTaskRoot = true;
                    pendingTaskRootParens = parenIdent.size();
                } else if (w == "Select" || prevTok == "Select") {
                    // `Select()` chain or `Select sel(...)` declaration.
                    SrcOp op;
                    op.loc = SourceLoc(scan.file, line);
                    op.kind = CuKind::Select;
                    op.method = "Select";
                    op.scope = stack.back();
                    scan.ops.push_back(std::move(op));
                    pendingSelect = static_cast<int>(scan.ops.size()) - 1;
                    pendingSelectDepth = stack.size();
                } else if (w == "LockGuard" || prevTok == "LockGuard") {
                    // `LockGuard(m)` or `LockGuard g(m)`: scope-bound
                    // lock; the lint pass releases it at scope exit.
                    SrcOp op;
                    op.loc = SourceLoc(scan.file, line);
                    op.kind = CuKind::Lock;
                    op.object = argTextAt(k);
                    op.method = "LockGuard";
                    op.scope = stack.back();
                    scan.ops.push_back(std::move(op));
                } else if (!isControlKeyword(w)) {
                    // Capacity hint: `Chan<T> name(N)` declarations and
                    // `name(N)` constructor initializers.
                    int cap = intArgAt(k);
                    if (cap >= 0)
                        scan.chanCap[w] = cap;
                }
            } else if (chanDecl && (prevTok == ">" || prevTok == ",")) {
                // `Chan<T> name;` declares an unbuffered channel.
                size_t e = peekNonSpace(j);
                if (e < clean.size() &&
                    (clean[e] == ';' || clean[e] == ',') &&
                    scan.chanCap.find(w) == scan.chanCap.end())
                    scan.chanCap[w] = 0;
            }
            if (w == "Chan" && k < clean.size() && clean[k] == '<')
                chanDecl = true;
            setPrev(std::move(w));
            i = j;
            continue;
        }
        if (c == '.') {
            setPrev(".");
            ++i;
            continue;
        }
        if (c == '-' && i + 1 < clean.size() && clean[i + 1] == '>') {
            setPrev("->");
            i += 2;
            continue;
        }
        if (c == ':' && i + 1 < clean.size() && clean[i + 1] == ':') {
            setPrev("::");
            i += 2;
            continue;
        }
        switch (c) {
          case '(':
            parenIdent.push_back(prevTok);
            setPrev("(");
            break;
          case ')':
            lastClosedParenIdent =
                parenIdent.empty() ? "" : parenIdent.back();
            if (!parenIdent.empty())
                parenIdent.pop_back();
            // A go(...) call that closed without opening a body takes
            // its pending-task-root flag with it (named fn pointer).
            if (pendingTaskRoot && parenIdent.size() <= pendingTaskRootParens)
                pendingTaskRoot = false;
            if (lastClosedParenIdent == "if")
                condStmt = true; // until a `{` or `;` ends the body
            setPrev(")");
            break;
          case '{': {
            SrcScope s;
            s.parent = stack.back();
            s.depth = scan.scopes[s.parent].depth + 1;
            s.beginLine = line;
            if (prevTok == "]") {
                s.taskRoot = true; // captureless-parameter lambda body
                s.declName = pendingAssign;
            } else if (prevTok == ")") {
                const std::string &id = lastClosedParenIdent;
                if (id == "if" || id == "switch")
                    s.conditional = true;
                else if (id == "for" || id == "while")
                    s.loop = true;
                else if (id == "catch")
                    ; // plain scope
                else {
                    s.taskRoot = true; // function/ctor/lambda body
                    // `[..](args) {` binds the assignment name;
                    // `name(args) {` binds the function name.
                    s.declName = id == "]" ? pendingAssign : id;
                }
            } else if (prevTok == "else") {
                s.conditional = true;
            } else if (prevTok == "do") {
                s.loop = true;
            } // else: struct/class/namespace/init-list — plain scope
            if (pendingTaskRoot && s.taskRoot)
                pendingTaskRoot = false;
            condStmt = false;
            stack.push_back(static_cast<int>(scan.scopes.size()));
            scan.scopes.push_back(s);
            setPrev("{");
            break;
          }
          case '}':
            if (stack.size() > 1) {
                scan.scopes[stack.back()].endLine = line;
                stack.pop_back();
            }
            setPrev("}");
            break;
          case '[':
            bracketChain.push_back(chain);
            chain.clear();
            chainReceiver.clear();
            setPrev("[");
            break;
          case ']':
            // `arr[i]` keeps indexing into the same receiver chain;
            // a lambda introducer restores an empty chain (harmless).
            if (!bracketChain.empty()) {
                chain = bracketChain.back().empty()
                            ? ""
                            : bracketChain.back() + "[]";
                bracketChain.pop_back();
            }
            chainReceiver.clear();
            setPrev("]");
            break;
          case ';':
            if (pendingSelect >= 0 && stack.size() == pendingSelectDepth)
                pendingSelect = -1;
            chanDecl = false;
            condStmt = false;
            pendingAssign.clear();
            chain.clear();
            chainReceiver.clear();
            setPrev(";");
            break;
          case '=':
            if (i + 1 < clean.size() && clean[i + 1] == '=') {
                chain.clear();
                chainReceiver.clear();
                setPrev("==");
                ++i;
            } else {
                // Simple assignment: remember the left-hand name so a
                // lambda body on the right picks it up as declName.
                // Compound forms (`!=`, `<=`, `+=`, ...) leave an
                // operator in prevTok and are skipped here.
                if (!prevTok.empty() &&
                    (std::isalpha(static_cast<unsigned char>(prevTok[0])) ||
                     prevTok[0] == '_'))
                    pendingAssign = prevTok;
                chain.clear();
                chainReceiver.clear();
                setPrev("=");
            }
            break;
          default:
            chain.clear();
            chainReceiver.clear();
            setPrev(std::string(1, c));
            break;
        }
        ++i;
    }
    scan.scopes[0].endLine = line;
    return scan;
}

SrcScan
scanRegionsFile(const std::string &path)
{
    std::ifstream ifs(path);
    if (!ifs)
        return {};
    std::ostringstream oss;
    oss << ifs.rdbuf();
    return scanRegions(oss.str(), path);
}

} // namespace goat::staticmodel
