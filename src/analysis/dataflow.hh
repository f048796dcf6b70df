/**
 * @file
 * gflow's path walker and branch-condition facts (DESIGN.md §16).
 *
 * PathWalker enumerates acyclic paths through a FlowTree by
 * depth-first continuation passing: at every If/Loop/Switch the state
 * forks, loops contribute a zero-iteration and a one-iteration path
 * (enough for the taint lattice, which is idempotent over
 * repetition), and break/continue/return resolve lexically through
 * continuation records instead of CFG edges. The walk is
 * deterministic (source order, then-edge before else-edge) and
 * budgeted: past maxPaths only the first branch of each fork is
 * followed, so pathological functions degrade to a single-path scan
 * instead of exploding.
 *
 * The Client type supplies the transfer functions:
 *
 *   void onSimple(const FlowStmt &s, State &st);
 *   void onCondition(const FlowStmt &s, State &st);   // both edges
 *   void onBranch(const FlowStmt &s, bool sense, State &st);
 *   void onExit(const FlowStmt &s, State &st);        // return/throw
 *
 * onCondition sees the condition span once per fork — side effects
 * that happen regardless of the edge taken belong there. onBranch
 * then asserts the edge. onExit sees the value span of a `return` or
 * `throw`; a path that falls off the end or enters an infinite loop
 * ends without it.
 */

#ifndef GENESYS_ANALYSIS_DATAFLOW_HH
#define GENESYS_ANALYSIS_DATAFLOW_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "analysis/cfg.hh"

namespace genesys::analysis
{

/**
 * A single asserted fact derived from a branch condition under a
 * known edge sense. `parseCondFacts` decomposes top-level `&&` (both
 * conjuncts hold on the true edge), `||` (both disjuncts fail on the
 * false edge), and `!`, then classifies each atom.
 */
struct CondFact
{
    enum class Kind
    {
        Truthy, ///< `x` asserted nonzero / engaged
        Falsy,  ///< `x` asserted zero / empty
        Cmp,    ///< `subject op rhs` asserted to hold
    };
    Kind kind = Kind::Truthy;
    /// The variable the fact is about (root identifier of the lhs).
    std::string subject;
    /// Cmp only: the asserted operator after sense folding —
    /// `!(a < b)` on the true edge and `a < b` on the false edge both
    /// yield op ">=".
    std::string op;
    /// Cmp only: rhs shape, for bounds reasoning.
    bool rhsIsLiteral = false;
    bool rhsIsZero = false;
    std::string rhsRoot; ///< root identifier of the rhs ("" if none)
};

/**
 * Decompose the condition tokens [begin, end) under edge @p sense
 * into asserted facts. Returns an empty vector when the condition is
 * too rich to decompose (the client then learns nothing — sound for
 * the taint lattice, which only acts on known facts).
 */
std::vector<CondFact> parseCondFacts(const std::vector<Token> &toks,
                                     std::size_t begin,
                                     std::size_t end, bool sense);

/**
 * Root identifier of an expression span: the first identifier that is
 * not a qualifier (`std::`), template head, or call head — `*base` and
 * `base` root at "base", `fd + 1` at "fd". "" when none exists.
 */
std::string spanRoot(const std::vector<Token> &toks, std::size_t begin,
                     std::size_t end);

template <typename State, typename Client> class PathWalker
{
  public:
    PathWalker(const FlowTree &tree, Client &client,
               std::size_t maxPaths = 512)
        : tree_(tree), client_(client), maxPaths_(maxPaths)
    {
    }

    void
    run(State initial)
    {
        Cont atEnd = [this](State) { ++paths_; };
        walkSeq(tree_.body, 0, std::move(initial), atEnd, nullptr);
    }

  private:
    using Cont = std::function<void(State)>;

    /// Lexical loop/switch context for break/continue resolution.
    struct FlowCtx
    {
        const Cont *onBreak = nullptr;
        const Cont *onContinue = nullptr;
    };

    bool
    forkAllowed() const
    {
        return paths_ < maxPaths_;
    }

    void
    walkSeq(const std::vector<FlowStmt> &stmts, std::size_t idx,
            State st, const Cont &after, const FlowCtx *ctx)
    {
        if (idx == stmts.size()) {
            after(std::move(st));
            return;
        }
        const FlowStmt &s = stmts[idx];
        Cont rest = [this, &stmts, idx, &after, ctx](State st2) {
            walkSeq(stmts, idx + 1, std::move(st2), after, ctx);
        };

        switch (s.kind) {
        case StmtKind::Simple:
            client_.onSimple(s, st);
            rest(std::move(st));
            return;
        case StmtKind::Return:
        case StmtKind::Throw:
            client_.onExit(s, st);
            ++paths_;
            return;
        case StmtKind::Break:
            if (ctx != nullptr && ctx->onBreak != nullptr)
                (*ctx->onBreak)(std::move(st));
            else
                rest(std::move(st)); // malformed; keep walking
            return;
        case StmtKind::Continue:
            if (ctx != nullptr && ctx->onContinue != nullptr)
                (*ctx->onContinue)(std::move(st));
            else
                rest(std::move(st));
            return;
        case StmtKind::If:
            walkIf(s, std::move(st), rest, ctx);
            return;
        case StmtKind::Loop:
            walkLoop(s, std::move(st), rest, ctx);
            return;
        case StmtKind::RangeFor:
            walkRangeFor(s, std::move(st), rest, ctx);
            return;
        case StmtKind::Switch:
            walkSwitch(s, std::move(st), rest, ctx);
            return;
        case StmtKind::Try:
            walkTry(s, std::move(st), rest, ctx);
            return;
        }
    }

    void
    walkIf(const FlowStmt &s, State st, const Cont &rest,
           const FlowCtx *ctx)
    {
        client_.onCondition(s, st);
        {
            State thenSt = st;
            client_.onBranch(s, true, thenSt);
            walkSeq(s.thenBody, 0, std::move(thenSt), rest, ctx);
        }
        if (!forkAllowed())
            return;
        State elseSt = std::move(st);
        client_.onBranch(s, false, elseSt);
        walkSeq(s.elseBody, 0, std::move(elseSt), rest, ctx);
    }

    void
    walkLoop(const FlowStmt &s, State st, const Cont &rest,
             const FlowCtx *ctx)
    {
        (void)ctx; // body break/continue bind to this loop
        const bool infinite = s.condBegin >= s.condEnd;
        if (s.condBegin < s.condEnd)
            client_.onCondition(s, st);

        // Zero-iteration path (not for do-while / infinite loops).
        if (!infinite && !s.bodyFirst) {
            State zero = st;
            client_.onBranch(s, false, zero);
            rest(std::move(zero));
            if (!forkAllowed())
                return;
        }

        // One-iteration path. After the body completes (fall off or
        // `continue`), a finite loop re-tests and exits on the false
        // edge; an infinite loop never exits except by break.
        Cont endIter = [this, &s, &rest, infinite](State st2) {
            if (infinite) {
                ++paths_;
                return;
            }
            client_.onBranch(s, false, st2);
            rest(std::move(st2));
        };
        FlowCtx loopCtx;
        loopCtx.onBreak = &rest;
        loopCtx.onContinue = &endIter;
        State once = std::move(st);
        if (!infinite)
            client_.onBranch(s, true, once);
        walkSeq(s.thenBody, 0, std::move(once), endIter, &loopCtx);
    }

    void
    walkRangeFor(const FlowStmt &s, State st, const Cont &rest,
                 const FlowCtx *ctx)
    {
        (void)ctx;
        rest(st); // empty range
        if (!forkAllowed())
            return;
        FlowCtx loopCtx;
        loopCtx.onBreak = &rest;
        loopCtx.onContinue = &rest;
        walkSeq(s.thenBody, 0, std::move(st), rest, &loopCtx);
    }

    void
    walkSwitch(const FlowStmt &s, State st, const Cont &rest,
               const FlowCtx *ctx)
    {
        client_.onCondition(s, st);
        // `continue` inside a switch belongs to the enclosing loop;
        // `break` exits the switch.
        FlowCtx swCtx;
        swCtx.onBreak = &rest;
        swCtx.onContinue =
            ctx != nullptr ? ctx->onContinue : nullptr;
        bool first = true;
        for (const auto &alt : s.alternatives) {
            if (!first && !forkAllowed())
                return;
            first = false;
            State altSt = st;
            walkSeq(alt, 0, std::move(altSt), rest, &swCtx);
        }
        if (!s.hasDefault && (first || forkAllowed()))
            rest(std::move(st));
    }

    void
    walkTry(const FlowStmt &s, State st, const Cont &rest,
            const FlowCtx *ctx)
    {
        // "A entirely or B entirely": the try block as one path, each
        // handler as another starting from the pre-try state.
        {
            State trySt = st;
            walkSeq(s.thenBody, 0, std::move(trySt), rest, ctx);
        }
        for (const auto &handler : s.alternatives) {
            if (!forkAllowed())
                return;
            State hSt = st;
            walkSeq(handler, 0, std::move(hSt), rest, ctx);
        }
    }

    const FlowTree &tree_;
    Client &client_;
    std::size_t maxPaths_;
    std::size_t paths_ = 0;
};

} // namespace genesys::analysis

#endif // GENESYS_ANALYSIS_DATAFLOW_HH
