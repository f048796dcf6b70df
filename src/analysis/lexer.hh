/**
 * @file
 * gstat's C++ lexer (DESIGN.md §14).
 *
 * Produces the token stream the function extractor and the analysis
 * passes walk. The lexer is deliberately small — it understands exactly
 * as much C++ as the passes need:
 *
 *  - identifiers, numbers, string/char literals (including raw string
 *    literals `R"delim(...)delim"` with encoding prefixes), and
 *    punctuation (only `::` and `->` are fused into one token; every
 *    other operator is emitted character by character so downstream
 *    bracket matching never has to split a fused token);
 *  - comments are not tokens: their text is collected per line so the
 *    suppression scanner can find `gstat: allow(<rule>)` annotations
 *    without prose ever reaching a pass;
 *  - preprocessor directives (with backslash continuations) are
 *    lexed into a stream of their own: the token rules see a macro
 *    body, while the extractor and the CFG, which walk `tokens`, never
 *    meet a directive. An `#include "tailRaw_.hh"` is one String token,
 *    so it cannot trip a rule.
 *
 * Every token carries its 1-based source line for findings.
 */

#ifndef GENESYS_ANALYSIS_LEXER_HH
#define GENESYS_ANALYSIS_LEXER_HH

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace genesys::analysis
{

enum class TokKind
{
    Ident,   ///< identifier or keyword
    Number,  ///< numeric literal (integer or floating)
    String,  ///< string literal; text holds the decoded contents
    CharLit, ///< character literal; text holds the raw contents
    Punct,   ///< punctuation; "::" and "->" fused, all else single char
};

struct Token
{
    TokKind kind;
    std::string text;
    int line;
};

/** One lexed translation unit (or header). */
struct LexedFile
{
    std::string path; ///< repo-relative path, forward slashes
    std::vector<Token> tokens;
    /// Tokens of preprocessor directive lines, '#' excluded.
    std::vector<Token> directives;
    /// line -> concatenated comment text on that line (for allow()).
    std::map<int, std::string> comments;
};

/** Lex @p text (the contents of @p path) into tokens + comment map. */
LexedFile lex(const std::string &path, const std::string &text);

} // namespace genesys::analysis

#endif // GENESYS_ANALYSIS_LEXER_HH
