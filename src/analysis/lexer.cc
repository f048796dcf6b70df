#include "analysis/lexer.hh"

#include <cctype>

namespace genesys::analysis
{

namespace
{

bool
identStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool
identCont(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/**
 * True when the quote at @p i opens a raw string literal: the
 * characters before it spell an `R` (optionally prefixed `u8`, `u`,
 * `U`, or `L`) that is not the tail of a longer identifier.
 */
bool
rawStringAt(const std::string &t, std::size_t i)
{
    if (i == 0 || t[i] != '"' || t[i - 1] != 'R')
        return false;
    std::size_t p = i - 1; // index of 'R'
    if (p >= 2 && t[p - 2] == 'u' && t[p - 1] == '8')
        p -= 2;
    else if (p >= 1 && (t[p - 1] == 'u' || t[p - 1] == 'U' ||
                        t[p - 1] == 'L'))
        p -= 1;
    return p == 0 || !identCont(t[p - 1]);
}

} // namespace

LexedFile
lex(const std::string &path, const std::string &text)
{
    LexedFile out;
    out.path = path;
    std::size_t i = 0;
    const std::size_t n = text.size();
    int line = 1;
    bool atLineStart = true; // only whitespace seen since the newline
    // Where tokens go: a directive's, from its '#' to its last line.
    std::vector<Token> *sink = &out.tokens;

    auto addComment = [&out](int at, const std::string &body) {
        auto &slot = out.comments[at];
        if (!slot.empty())
            slot += ' ';
        slot += body;
    };

    while (i < n) {
        const char c = text[i];
        if (c == '\n') {
            ++line;
            ++i;
            atLineStart = true;
            sink = &out.tokens;
            continue;
        }
        // Backslash continuation: the logical line (a directive) goes on.
        if (c == '\\' && i + 1 < n && text[i + 1] == '\n') {
            ++line;
            i += 2;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c)) != 0) {
            ++i;
            continue;
        }
        if (c == '#' && atLineStart) {
            sink = &out.directives;
            ++i;
            continue;
        }
        atLineStart = false;
        // Line comment.
        if (c == '/' && i + 1 < n && text[i + 1] == '/') {
            std::size_t j = i + 2;
            while (j < n && text[j] != '\n')
                ++j;
            addComment(line, text.substr(i + 2, j - (i + 2)));
            i = j;
            continue;
        }
        // Block comment (may span lines; text lands on each line it
        // covers so a one-line allow() inside it is still found).
        if (c == '/' && i + 1 < n && text[i + 1] == '*') {
            std::size_t j = i + 2;
            std::size_t segStart = j;
            while (j + 1 < n &&
                   !(text[j] == '*' && text[j + 1] == '/')) {
                if (text[j] == '\n') {
                    addComment(line,
                               text.substr(segStart, j - segStart));
                    ++line;
                    segStart = j + 1;
                }
                ++j;
            }
            addComment(line, text.substr(segStart, j - segStart));
            i = j + 1 < n ? j + 2 : n;
            continue;
        }
        // Raw string literal: R"delim( ... )delim".
        if (c == '"' && rawStringAt(text, i)) {
            std::size_t j = i + 1;
            std::string delim;
            while (j < n && text[j] != '(' && delim.size() < 16)
                delim += text[j++];
            const std::string closer = ")" + delim + "\"";
            const int startLine = line;
            std::size_t body = j < n ? j + 1 : n;
            std::size_t end = text.find(closer, body);
            if (end == std::string::npos)
                end = n;
            std::string contents = text.substr(body, end - body);
            for (char bc : contents) {
                if (bc == '\n')
                    ++line;
            }
            sink->push_back(
                {TokKind::String, std::move(contents), startLine});
            i = end == n ? n : end + closer.size();
            continue;
        }
        // Ordinary string / char literal.
        if (c == '"' || c == '\'') {
            const char quote = c;
            std::size_t j = i + 1;
            std::string contents;
            while (j < n && text[j] != quote) {
                if (text[j] == '\\' && j + 1 < n) {
                    if (text[j + 1] == '\n')
                        ++line;
                    contents += text[j + 1];
                    j += 2;
                    continue;
                }
                if (text[j] == '\n') // unterminated; bail at EOL
                    break;
                contents += text[j];
                ++j;
            }
            sink->push_back(
                {quote == '"' ? TokKind::String : TokKind::CharLit,
                 std::move(contents), line});
            i = j < n && text[j] == quote ? j + 1 : j;
            continue;
        }
        // Identifier (string prefixes like R/u8 are consumed by the
        // raw-string case above before we ever get here).
        if (identStart(c)) {
            std::size_t j = i + 1;
            while (j < n && identCont(text[j]))
                ++j;
            sink->push_back(
                {TokKind::Ident, text.substr(i, j - i), line});
            i = j;
            continue;
        }
        // Number (good enough: digits, dots, exponents, suffixes).
        if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
            std::size_t j = i + 1;
            while (j < n && (identCont(text[j]) || text[j] == '.' ||
                             ((text[j] == '+' || text[j] == '-') &&
                              (text[j - 1] == 'e' ||
                               text[j - 1] == 'E'))))
                ++j;
            sink->push_back(
                {TokKind::Number, text.substr(i, j - i), line});
            i = j;
            continue;
        }
        // Punctuation: fuse only :: and ->.
        if (c == ':' && i + 1 < n && text[i + 1] == ':') {
            sink->push_back({TokKind::Punct, "::", line});
            i += 2;
            continue;
        }
        if (c == '-' && i + 1 < n && text[i + 1] == '>') {
            sink->push_back({TokKind::Punct, "->", line});
            i += 2;
            continue;
        }
        sink->push_back({TokKind::Punct, std::string(1, c), line});
        ++i;
    }
    return out;
}

} // namespace genesys::analysis
