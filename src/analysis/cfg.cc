#include "analysis/cfg.hh"

namespace genesys::analysis
{

namespace
{

bool
isIdent(const Token &t, const char *text)
{
    return t.kind == TokKind::Ident && t.text == text;
}

bool
isPunct(const Token &t, const char *text)
{
    return t.kind == TokKind::Punct && t.text == text;
}

class Lowerer
{
  public:
    explicit Lowerer(const std::vector<Token> &toks) : toks_(toks) {}

    std::vector<FlowStmt>
    lowerRange(std::size_t begin, std::size_t end)
    {
        std::vector<FlowStmt> out;
        std::size_t i = begin;
        while (i < end)
            parseInto(i, end, out);
        return out;
    }

  private:
    std::size_t
    matchForward(std::size_t i, const char *open, const char *close,
                 std::size_t limit) const
    {
        int depth = 0;
        for (std::size_t j = i; j < limit; ++j) {
            if (isPunct(toks_[j], open))
                ++depth;
            else if (isPunct(toks_[j], close) && --depth == 0)
                return j;
        }
        return limit;
    }

    /// End of a plain statement starting at @p i: the first ';' with
    /// (), [], {} balanced. Returns the ';' index (or limit).
    std::size_t
    stmtEnd(std::size_t i, std::size_t limit) const
    {
        int depth = 0;
        for (std::size_t j = i; j < limit; ++j) {
            const Token &t = toks_[j];
            if (isPunct(t, "(") || isPunct(t, "[") || isPunct(t, "{"))
                ++depth;
            else if (isPunct(t, ")") || isPunct(t, "]") ||
                     isPunct(t, "}"))
                --depth;
            else if (isPunct(t, ";") && depth == 0)
                return j;
        }
        return limit;
    }

    /// Parse one statement-or-block at @p i into its own list
    /// (the body of an if/loop arm). Advances @p i past it.
    std::vector<FlowStmt>
    parseArm(std::size_t &i, std::size_t limit)
    {
        std::vector<FlowStmt> out;
        if (i < limit)
            parseInto(i, limit, out);
        return out;
    }

    /**
     * Parse one statement at @p i, appending nodes to @p out (a bare
     * `{}` block splices its contents). Advances @p i past it.
     */
    void
    parseInto(std::size_t &i, std::size_t limit,
              std::vector<FlowStmt> &out)
    {
        const Token &t = toks_[i];

        if (isPunct(t, ";")) { // empty statement
            ++i;
            return;
        }
        if (isPunct(t, "{")) { // bare block: splice contents
            const std::size_t close =
                matchForward(i, "{", "}", limit);
            std::size_t j = i + 1;
            while (j < close)
                parseInto(j, close, out);
            i = close + 1;
            return;
        }
        // Case labels are runtime no-ops (fallthrough): skip to ':'.
        if (isIdent(t, "case") || isIdent(t, "default")) {
            std::size_t j = i + 1;
            while (j < limit && !isPunct(toks_[j], ":"))
                ++j;
            i = j + 1;
            return;
        }
        if (isIdent(t, "if")) {
            parseIf(i, limit, out);
            return;
        }
        if (isIdent(t, "while")) {
            FlowStmt s;
            s.kind = StmtKind::Loop;
            s.line = t.line;
            std::size_t lp = i + 1;
            const std::size_t rp =
                matchForward(lp, "(", ")", limit);
            s.condBegin = lp + 1;
            s.condEnd = rp;
            // `while (true)` / `while (1)`: the false edge is
            // infeasible; model as an infinite loop (exits by break).
            if (s.condEnd == s.condBegin + 1 &&
                (isIdent(toks_[s.condBegin], "true") ||
                 (toks_[s.condBegin].kind == TokKind::Number &&
                  toks_[s.condBegin].text == "1")))
                s.condEnd = s.condBegin;
            std::size_t j = rp + 1;
            s.thenBody = parseArm(j, limit);
            out.push_back(std::move(s));
            i = j;
            return;
        }
        if (isIdent(t, "do")) {
            FlowStmt s;
            s.kind = StmtKind::Loop;
            s.line = t.line;
            s.bodyFirst = true;
            std::size_t j = i + 1;
            s.thenBody = parseArm(j, limit);
            // `while (cond) ;`
            if (j < limit && isIdent(toks_[j], "while")) {
                const std::size_t rp =
                    matchForward(j + 1, "(", ")", limit);
                s.condBegin = j + 2;
                s.condEnd = rp;
                j = rp + 1;
                if (j < limit && isPunct(toks_[j], ";"))
                    ++j;
            }
            out.push_back(std::move(s));
            i = j;
            return;
        }
        if (isIdent(t, "for")) {
            parseFor(i, limit, out);
            return;
        }
        if (isIdent(t, "switch")) {
            parseSwitch(i, limit, out);
            return;
        }
        if (isIdent(t, "try")) {
            FlowStmt s;
            s.kind = StmtKind::Try;
            s.line = t.line;
            std::size_t j = i + 1;
            if (j < limit && isPunct(toks_[j], "{")) {
                const std::size_t close =
                    matchForward(j, "{", "}", limit);
                s.thenBody = lowerRange(j + 1, close);
                j = close + 1;
            }
            while (j < limit && isIdent(toks_[j], "catch")) {
                std::size_t k = j + 1;
                if (k < limit && isPunct(toks_[k], "("))
                    k = matchForward(k, "(", ")", limit) + 1;
                if (k < limit && isPunct(toks_[k], "{")) {
                    const std::size_t close =
                        matchForward(k, "{", "}", limit);
                    s.alternatives.push_back(
                        lowerRange(k + 1, close));
                    k = close + 1;
                }
                j = k;
            }
            out.push_back(std::move(s));
            i = j;
            return;
        }
        if (isIdent(t, "return") || isIdent(t, "co_return")) {
            FlowStmt s;
            s.kind = StmtKind::Return;
            s.line = t.line;
            s.begin = i + 1;
            s.end = stmtEnd(i, limit);
            out.push_back(std::move(s));
            i = s.end == limit ? limit : s.end + 1;
            return;
        }
        if (isIdent(t, "throw")) {
            FlowStmt s;
            s.kind = StmtKind::Throw;
            s.line = t.line;
            s.begin = i + 1;
            s.end = stmtEnd(i, limit);
            out.push_back(std::move(s));
            i = s.end == limit ? limit : s.end + 1;
            return;
        }
        if (isIdent(t, "break")) {
            FlowStmt s;
            s.kind = StmtKind::Break;
            s.line = t.line;
            out.push_back(std::move(s));
            i = stmtEnd(i, limit) + 1;
            return;
        }
        if (isIdent(t, "continue")) {
            FlowStmt s;
            s.kind = StmtKind::Continue;
            s.line = t.line;
            out.push_back(std::move(s));
            i = stmtEnd(i, limit) + 1;
            return;
        }

        // Plain statement.
        FlowStmt s;
        s.kind = StmtKind::Simple;
        s.line = t.line;
        s.begin = i;
        s.end = stmtEnd(i, limit);
        const std::size_t next = s.end == limit ? limit : s.end + 1;
        out.push_back(std::move(s));
        i = next;
    }

    void
    parseIf(std::size_t &i, std::size_t limit,
            std::vector<FlowStmt> &out)
    {
        FlowStmt s;
        s.kind = StmtKind::If;
        s.line = toks_[i].line;
        std::size_t lp = i + 1;
        // `if constexpr (...)`
        if (lp < limit && isIdent(toks_[lp], "constexpr"))
            ++lp;
        const std::size_t rp = matchForward(lp, "(", ")", limit);
        s.condBegin = lp + 1;
        s.condEnd = rp;
        std::size_t j = rp + 1;
        s.thenBody = parseArm(j, limit);
        if (j < limit && isIdent(toks_[j], "else")) {
            ++j;
            s.elseBody = parseArm(j, limit);
        }
        out.push_back(std::move(s));
        i = j;
    }

    void
    parseFor(std::size_t &i, std::size_t limit,
             std::vector<FlowStmt> &out)
    {
        const int line = toks_[i].line;
        const std::size_t lp = i + 1;
        const std::size_t rp = matchForward(lp, "(", ")", limit);

        // Range-for: a top-level ':' inside the parens.
        std::size_t colon = rp;
        {
            int depth = 0;
            for (std::size_t k = lp + 1; k < rp; ++k) {
                const Token &tk = toks_[k];
                if (isPunct(tk, "(") || isPunct(tk, "[") ||
                    isPunct(tk, "{"))
                    ++depth;
                else if (isPunct(tk, ")") || isPunct(tk, "]") ||
                         isPunct(tk, "}"))
                    --depth;
                else if (depth == 0 && isPunct(tk, ":")) {
                    colon = k;
                    break;
                }
                else if (depth == 0 && isPunct(tk, ";"))
                    break; // classic for
            }
        }
        std::size_t j = rp + 1;
        if (colon < rp) {
            FlowStmt s;
            s.kind = StmtKind::RangeFor;
            s.line = line;
            s.thenBody = parseArm(j, limit);
            out.push_back(std::move(s));
            i = j;
            return;
        }

        // Classic for: init; cond; inc.
        std::size_t semi1 = rp, semi2 = rp;
        {
            int depth = 0;
            for (std::size_t k = lp + 1; k < rp; ++k) {
                const Token &tk = toks_[k];
                if (isPunct(tk, "(") || isPunct(tk, "[") ||
                    isPunct(tk, "{"))
                    ++depth;
                else if (isPunct(tk, ")") || isPunct(tk, "]") ||
                         isPunct(tk, "}"))
                    --depth;
                else if (depth == 0 && isPunct(tk, ";")) {
                    if (semi1 == rp)
                        semi1 = k;
                    else if (semi2 == rp) {
                        semi2 = k;
                        break;
                    }
                }
            }
        }
        if (semi1 < rp && semi1 > lp + 1) { // init as its own stmt
            FlowStmt init;
            init.kind = StmtKind::Simple;
            init.line = line;
            init.begin = lp + 1;
            init.end = semi1;
            out.push_back(std::move(init));
        }
        FlowStmt s;
        s.kind = StmtKind::Loop;
        s.line = line;
        if (semi1 < rp && semi2 < rp && semi2 > semi1 + 1) {
            s.condBegin = semi1 + 1;
            s.condEnd = semi2;
        } // else: no condition -> infinite loop
        s.thenBody = parseArm(j, limit);
        if (semi2 < rp && semi2 + 1 < rp) { // increment at body end
            FlowStmt inc;
            inc.kind = StmtKind::Simple;
            inc.line = line;
            inc.begin = semi2 + 1;
            inc.end = rp;
            s.thenBody.push_back(std::move(inc));
        }
        out.push_back(std::move(s));
        i = j;
    }

    void
    parseSwitch(std::size_t &i, std::size_t limit,
                std::vector<FlowStmt> &out)
    {
        FlowStmt s;
        s.kind = StmtKind::Switch;
        s.line = toks_[i].line;
        const std::size_t lp = i + 1;
        const std::size_t rp = matchForward(lp, "(", ")", limit);
        s.condBegin = lp + 1;
        s.condEnd = rp;
        std::size_t j = rp + 1;
        if (j < limit && isPunct(toks_[j], "{")) {
            const std::size_t close =
                matchForward(j, "{", "}", limit);
            // One alternative per case label, each running to the end
            // of the switch so fallthrough is modeled exactly.
            int depth = 0;
            for (std::size_t k = j + 1; k < close; ++k) {
                const Token &tk = toks_[k];
                if (isPunct(tk, "{") || isPunct(tk, "(") ||
                    isPunct(tk, "["))
                    ++depth;
                else if (isPunct(tk, "}") || isPunct(tk, ")") ||
                         isPunct(tk, "]"))
                    --depth;
                if (depth != 0 || tk.kind != TokKind::Ident)
                    continue;
                if (tk.text != "case" && tk.text != "default")
                    continue;
                if (tk.text == "default")
                    s.hasDefault = true;
                std::size_t c = k;
                while (c < close && !isPunct(toks_[c], ":"))
                    ++c;
                s.alternatives.push_back(lowerRange(c + 1, close));
            }
            j = close + 1;
        }
        out.push_back(std::move(s));
        i = j;
    }

    const std::vector<Token> &toks_;
};

} // namespace

FlowTree
lowerFunction(const Program &prog, int funcIdx)
{
    const Function &fn =
        prog.functions[static_cast<std::size_t>(funcIdx)];
    const std::vector<Token> &toks = prog.fileOf(fn).tokens;
    FlowTree tree;
    if (fn.bodyEnd > fn.bodyBegin + 1) {
        Lowerer lo(toks);
        tree.body = lo.lowerRange(fn.bodyBegin + 1, fn.bodyEnd);
    }
    return tree;
}

} // namespace genesys::analysis
