#include "analysis/dataflow.hh"

#include <set>

namespace genesys::analysis
{

namespace
{

bool
isP(const Token &t, const char *text)
{
    return t.kind == TokKind::Punct && t.text == text;
}

const std::set<std::string> &
exprKeywords()
{
    static const std::set<std::string> kw = {
        "auto",        "bool",       "char",
        "const",       "constexpr",  "double",
        "false",       "float",      "int",
        "long",        "short",      "signed",
        "sizeof",      "static_cast","const_cast",
        "dynamic_cast","reinterpret_cast",
        "true",        "unsigned",   "void",
        "co_await",    "nullptr",    "new",
        "delete",      "this",
    };
    return kw;
}

/// Matching ')' for the '(' at @p i, searching below @p limit.
std::size_t
closeParen(const std::vector<Token> &toks, std::size_t i,
           std::size_t limit)
{
    int depth = 0;
    for (std::size_t j = i; j < limit; ++j) {
        if (isP(toks[j], "("))
            ++depth;
        else if (isP(toks[j], ")") && --depth == 0)
            return j;
    }
    return limit;
}

/// Does the '<' at @p i look like a template head? Heuristic: a '>'
/// within a short window whose next token is '(' — `as<T>(...)`.
std::size_t
templateSkip(const std::vector<Token> &toks, std::size_t i,
             std::size_t limit)
{
    int depth = 0;
    const std::size_t window = i + 24 < limit ? i + 24 : limit;
    for (std::size_t j = i; j < window; ++j) {
        if (isP(toks[j], "<"))
            ++depth;
        else if (isP(toks[j], ">")) {
            if (--depth == 0) {
                if (j + 1 < limit && isP(toks[j + 1], "("))
                    return j; // ident<...>( — a template call head
                return 0;
            }
        } else if (isP(toks[j], ";") || isP(toks[j], "{"))
            return 0;
    }
    return 0;
}

std::string
invertOp(const std::string &op)
{
    if (op == "<")
        return ">=";
    if (op == "<=")
        return ">";
    if (op == ">")
        return "<=";
    if (op == ">=")
        return "<";
    if (op == "==")
        return "!=";
    return "==";
}

std::string
mirrorOp(const std::string &op)
{
    if (op == "<")
        return ">";
    if (op == "<=")
        return ">=";
    if (op == ">")
        return "<";
    if (op == ">=")
        return "<=";
    return op; // == and != are symmetric
}

void
fillRhs(CondFact &f, const std::vector<Token> &toks, std::size_t b,
        std::size_t e)
{
    if (e == b + 1 && toks[b].kind == TokKind::Number) {
        f.rhsIsLiteral = true;
        f.rhsIsZero = toks[b].text == "0";
        return;
    }
    f.rhsRoot = spanRoot(toks, b, e);
}

void
collect(const std::vector<Token> &toks, std::size_t b, std::size_t e,
        bool sense, std::vector<CondFact> &out, int depthBudget)
{
    if (depthBudget <= 0)
        return;
    // Strip redundant outer parens.
    while (e > b + 1 && isP(toks[b], "(") &&
           closeParen(toks, b, e) == e - 1) {
        ++b;
        --e;
    }
    if (b >= e)
        return;

    // Top-level connectors: `||` binds looser than `&&`.
    std::size_t orPos = e, andPos = e;
    {
        int depth = 0;
        for (std::size_t j = b; j + 1 < e; ++j) {
            const Token &t = toks[j];
            if (isP(t, "(") || isP(t, "[") || isP(t, "{"))
                ++depth;
            else if (isP(t, ")") || isP(t, "]") || isP(t, "}"))
                --depth;
            else if (depth == 0 && isP(t, "|") &&
                     isP(toks[j + 1], "|")) {
                if (orPos == e)
                    orPos = j;
            } else if (depth == 0 && isP(t, "&") &&
                       isP(toks[j + 1], "&") &&
                       j > b && // leading && is an rvalue-ref, skip
                       !isP(toks[j - 1], "(") && !isP(toks[j - 1], ","))
            {
                if (andPos == e)
                    andPos = j;
            }
        }
    }
    if (orPos < e) {
        // `A || B`: on the false edge both disjuncts are false; the
        // true edge pins down neither.
        if (!sense) {
            collect(toks, b, orPos, false, out, depthBudget - 1);
            collect(toks, orPos + 2, e, false, out, depthBudget - 1);
        }
        return;
    }
    if (andPos < e) {
        // `A && B`: on the true edge both conjuncts hold.
        if (sense) {
            collect(toks, b, andPos, true, out, depthBudget - 1);
            collect(toks, andPos + 2, e, true, out, depthBudget - 1);
        }
        return;
    }

    // Leading negation (but not `!=`).
    if (isP(toks[b], "!") && (b + 1 >= e || !isP(toks[b + 1], "="))) {
        collect(toks, b + 1, e, !sense, out, depthBudget - 1);
        return;
    }

    // Top-level comparison / assignment.
    {
        int depth = 0;
        for (std::size_t j = b; j < e; ++j) {
            const Token &t = toks[j];
            if (isP(t, "(") || isP(t, "[") || isP(t, "{")) {
                ++depth;
                continue;
            }
            if (isP(t, ")") || isP(t, "]") || isP(t, "}")) {
                --depth;
                continue;
            }
            if (depth != 0 || t.kind != TokKind::Punct)
                continue;
            if (t.text == "<") {
                const std::size_t skip = templateSkip(toks, j, e);
                if (skip != 0) {
                    j = skip;
                    continue;
                }
            }
            std::string op;
            std::size_t opEnd = j + 1;
            if (t.text == "<" || t.text == ">") {
                op = t.text;
                if (j + 1 < e && isP(toks[j + 1], "=")) {
                    op += "=";
                    ++opEnd;
                }
            } else if (t.text == "=" && j + 1 < e &&
                       isP(toks[j + 1], "=")) {
                op = "==";
                ++opEnd;
            } else if (t.text == "!" && j + 1 < e &&
                       isP(toks[j + 1], "=")) {
                op = "!=";
                ++opEnd;
            } else if (t.text == "=" &&
                       (j == b || !isP(toks[j - 1], "=")) &&
                       (j + 1 >= e || !isP(toks[j + 1], "="))) {
                // Assignment-in-condition: `if (auto r = f())`.
                // The bound variable is truthy on the true edge.
                CondFact f;
                f.kind = sense ? CondFact::Kind::Truthy
                               : CondFact::Kind::Falsy;
                for (std::size_t k = j; k > b; --k) {
                    if (toks[k - 1].kind == TokKind::Ident) {
                        f.subject = toks[k - 1].text;
                        break;
                    }
                }
                if (!f.subject.empty())
                    out.push_back(std::move(f));
                return;
            }
            if (op.empty())
                continue;

            CondFact f;
            f.kind = CondFact::Kind::Cmp;
            f.op = sense ? op : invertOp(op);
            f.subject = spanRoot(toks, b, j);
            fillRhs(f, toks, opEnd, e);
            if (!f.subject.empty())
                out.push_back(f);
            // Mirrored fact for the rhs root: `kMax >= cnt` also
            // pins down `cnt`.
            const std::string rhsSubject = spanRoot(toks, opEnd, e);
            if (!rhsSubject.empty() && rhsSubject != f.subject) {
                CondFact m;
                m.kind = CondFact::Kind::Cmp;
                m.op = mirrorOp(f.op);
                m.subject = rhsSubject;
                fillRhs(m, toks, b, j);
                out.push_back(std::move(m));
            }
            return;
        }
    }

    // Atom: a plain variable (or call) truthiness test.
    CondFact f;
    f.kind = sense ? CondFact::Kind::Truthy : CondFact::Kind::Falsy;
    f.subject = spanRoot(toks, b, e);
    if (!f.subject.empty())
        out.push_back(std::move(f));
}

} // namespace

std::string
spanRoot(const std::vector<Token> &toks, std::size_t begin,
         std::size_t end)
{
    for (std::size_t k = begin; k < end; ++k) {
        const Token &t = toks[k];
        if (t.kind != TokKind::Ident ||
            exprKeywords().count(t.text) != 0)
            continue;
        if (k + 1 < end && (isP(toks[k + 1], "::") ||
                            isP(toks[k + 1], "<") ||
                            isP(toks[k + 1], "(")))
            continue;
        if (k > begin && isP(toks[k - 1], "::"))
            continue;
        return t.text;
    }
    return "";
}

std::vector<CondFact>
parseCondFacts(const std::vector<Token> &toks, std::size_t begin,
               std::size_t end, bool sense)
{
    std::vector<CondFact> out;
    if (begin < end && end <= toks.size())
        collect(toks, begin, end, sense, out, 8);
    return out;
}

} // namespace genesys::analysis
