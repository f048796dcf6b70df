/**
 * @file
 * gflow's structured control-flow IR (DESIGN.md §16).
 *
 * A function body is lowered from the token stream into a tree of
 * FlowStmt nodes rather than a flat basic-block graph: the source is
 * structured C++, so the tree keeps branch conditions attached to
 * their regions for free, and the path walker (dataflow.hh) gets
 * break/continue/return semantics by construction instead of by edge
 * bookkeeping. Nodes carry token spans, never copies of text — every
 * consumer reads through the owning LexedFile.
 *
 * What the lowering models:
 *  - `if (c) A else B` with full condition spans (else-if chains
 *    nest in elseBody);
 *  - `while` / `for` / range-`for` / `do-while` loops;
 *  - `switch` lowered to one alternative per case label, where an
 *    alternative runs from its label to the end of the switch so
 *    fallthrough is modeled exactly (a `break` ends it);
 *  - `try { A } catch { B }` approximated as "A entirely or B
 *    entirely"; `throw` is an exiting statement;
 *  - everything else as a Simple statement spanning to its `;` with
 *    brackets balanced, so lambda bodies and brace-init lists stay
 *    inside one statement.
 */

#ifndef GENESYS_ANALYSIS_CFG_HH
#define GENESYS_ANALYSIS_CFG_HH

#include <cstddef>
#include <vector>

#include "analysis/model.hh"

namespace genesys::analysis
{

enum class StmtKind
{
    Simple,   ///< expression / declaration statement
    If,       ///< cond + thenBody / elseBody
    Loop,     ///< while / for / do-while; cond + thenBody
    RangeFor, ///< range-for; thenBody
    Switch,   ///< cond + one alternatives entry per case label
    Try,      ///< thenBody = try block, alternatives = handlers
    Return,   ///< return / co_return; span covers the value tokens
    Throw,    ///< throw; exits the function (nearest catch at best)
    Break,
    Continue,
};

struct FlowStmt
{
    StmtKind kind = StmtKind::Simple;
    int line = 0;
    /// Simple/Return/Throw: token span of the statement (excluding
    /// the final ';'). Others: unused.
    std::size_t begin = 0;
    std::size_t end = 0;
    /// If/Loop/Switch: token span of the condition (inside parens).
    /// Empty (condBegin == condEnd) for an infinite `for (;;)`.
    std::size_t condBegin = 0;
    std::size_t condEnd = 0;
    /// True for do-while: the body runs at least once.
    bool bodyFirst = false;
    std::vector<FlowStmt> thenBody;
    std::vector<FlowStmt> elseBody;
    /// Switch: each alternative is the statement list from one case
    /// label to the end of the switch body (fallthrough included).
    std::vector<std::vector<FlowStmt>> alternatives;
    /// Switch: true when one of the labels is `default:` (without it
    /// the walker adds a no-case-taken path).
    bool hasDefault = false;
};

/// A lowered function body.
struct FlowTree
{
    std::vector<FlowStmt> body;
};

/** Lower functions[funcIdx]'s body tokens into a FlowTree. */
FlowTree lowerFunction(const Program &prog, int funcIdx);

} // namespace genesys::analysis

#endif // GENESYS_ANALYSIS_CFG_HH
