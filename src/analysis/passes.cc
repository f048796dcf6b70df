#include "analysis/passes.hh"

#include <algorithm>
#include <map>
#include <set>
#include <string_view>

#include "analysis/flowpasses.hh"

namespace genesys::analysis
{

namespace
{

// ---- pass 1: may-park ------------------------------------------------

struct HandlerRow
{
    std::string name;
    std::string handlerName;
    bool mayBlock = false;
};

/// Recover the syscall table's implemented rows,
/// `impl(num, "name", type, role, handler, flags)`, from the token
/// stream. A row may block when its flags name `kMayBlock`.
std::vector<HandlerRow>
scanHandlerRows(const Program &prog)
{
    auto is = [](const Token &t, TokKind kind, const char *text) {
        return t.kind == kind && (text == nullptr || t.text == text);
    };
    std::vector<HandlerRow> rows;
    for (const LexedFile &file : prog.files) {
        const auto &toks = file.tokens;
        for (std::size_t i = 0; i + 12 < toks.size(); ++i) {
            const bool shape =
                is(toks[i], TokKind::Ident, "impl") &&
                is(toks[i + 1], TokKind::Punct, "(") &&
                is(toks[i + 2], TokKind::Number, nullptr) &&
                is(toks[i + 3], TokKind::Punct, ",") &&
                is(toks[i + 4], TokKind::String, nullptr) &&
                is(toks[i + 5], TokKind::Punct, ",") &&
                is(toks[i + 6], TokKind::Ident, nullptr) &&
                is(toks[i + 7], TokKind::Punct, ",") &&
                is(toks[i + 8], TokKind::Ident, nullptr) &&
                is(toks[i + 9], TokKind::Punct, ",") &&
                is(toks[i + 10], TokKind::Ident, nullptr) &&
                is(toks[i + 11], TokKind::Punct, ",");
            if (!shape)
                continue;
            HandlerRow row;
            row.name = toks[i + 4].text;
            row.handlerName = toks[i + 10].text;
            for (std::size_t j = i + 12;
                 j < toks.size() && !is(toks[j], TokKind::Punct, ")");
                 ++j)
                row.mayBlock |= is(toks[j], TokKind::Ident, "kMayBlock");
            rows.push_back(std::move(row));
        }
    }
    return rows;
}

} // namespace

std::vector<Finding>
runMayParkPass(CallGraph &cg)
{
    const Program &prog = cg.program();
    std::vector<Finding> findings;

    // Rule nonblocking-handler-parks: a handler whose row lacks the
    // may-block flag reaches an indefinite park.
    for (const HandlerRow &row : scanHandlerRows(prog)) {
        if (row.mayBlock)
            continue;
        auto defs = prog.byShortName.find(row.handlerName);
        if (defs == prog.byShortName.end())
            continue;
        for (int idx : defs->second) {
            const ParkSummary &s = cg.parkSummary(idx);
            if (s.kind != ParkKind::Indefinite)
                continue;
            const Function &f =
                prog.functions[static_cast<std::size_t>(idx)];
            Finding fd;
            fd.path = prog.fileOf(f).path;
            fd.line = f.line;
            fd.rule = "nonblocking-handler-parks";
            fd.message =
                "handler " + row.handlerName + " for syscall '" +
                row.name +
                "' is classified non-blocking (its syscall-table row "
                "lacks kMayBlock) but can park indefinitely";
            fd.witness = s.witness;
            findings.push_back(std::move(fd));
        }
    }

    // Rule drain-loop-park: the ring consumer must stay runnable; an
    // indefinite park wedges every shard behind this one.
    for (std::size_t i = 0; i < prog.functions.size(); ++i) {
        const Function &f = prog.functions[i];
        if (f.shortName != "ringConsumeTask")
            continue;
        const ParkSummary &s = cg.parkSummary(static_cast<int>(i));
        if (s.kind != ParkKind::Indefinite)
            continue;
        Finding fd;
        fd.path = prog.fileOf(f).path;
        fd.line = f.line;
        fd.rule = "drain-loop-park";
        fd.message =
            "ring consumer drain loop " + f.qualName + " can park indefinitely";
        fd.witness = s.witness;
        findings.push_back(std::move(fd));
    }
    return findings;
}

namespace
{

// ---- pass 2: token rules ----------------------------------------------

/// Does @p path name the tree file @p file ("core/slot.cc")? True for
/// the file itself and for any root in front of it ("src/core/slot.cc",
/// "/abs/src/core/slot.cc"), so the verdict does not depend on the root.
bool
isFile(const std::string &path, std::string_view file)
{
    return path == file ||
           (path.size() > file.size() && path.ends_with(file) &&
            path[path.size() - file.size() - 1] == '/');
}

bool
isAnyFile(const std::string &path,
          std::initializer_list<std::string_view> files)
{
    return std::any_of(files.begin(), files.end(),
                       [&path](std::string_view f) {
                           return isFile(path, f);
                       });
}

/// Token @p k exists, is code (not a literal), and spells @p text.
bool
tokIs(const std::vector<Token> &toks, std::size_t k, std::string_view text)
{
    return k < toks.size() && toks[k].kind != TokKind::String &&
           toks[k].kind != TokKind::CharLit && toks[k].text == text;
}

/// The host locking vocabulary the `host-lock` rule bans.
const std::set<std::string> &
hostLockNames()
{
    static const std::set<std::string> names = {
        "mutex",        "shared_mutex", "recursive_mutex", "timed_mutex",
        "lock_guard",   "unique_lock",  "scoped_lock",     "shared_lock",
    };
    return names;
}

/// Names declared `unordered_{map,set,multimap,multiset}<...> name`
/// followed by `;`, `=`, `{` or `(`.
std::set<std::string>
unorderedNames(const LexedFile &file)
{
    const auto &toks = file.tokens;
    std::set<std::string> names;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const std::string &t = toks[i].text;
        if (toks[i].kind != TokKind::Ident ||
            (t != "unordered_map" && t != "unordered_set" &&
             t != "unordered_multimap" && t != "unordered_multiset") ||
            !tokIs(toks, i + 1, "<"))
            continue;
        std::size_t j = i + 1;
        for (int depth = 0; j < toks.size(); ++j) {
            if (tokIs(toks, j, "<"))
                ++depth;
            else if (tokIs(toks, j, ">") && --depth == 0)
                break;
            else if (tokIs(toks, j, ";") || tokIs(toks, j, "{") ||
                     tokIs(toks, j, "(") || tokIs(toks, j, ")"))
                break;
        }
        if (tokIs(toks, j, ">") && j + 2 < toks.size() &&
            toks[j + 1].kind == TokKind::Ident &&
            (tokIs(toks, j + 2, ";") || tokIs(toks, j + 2, "=") ||
             tokIs(toks, j + 2, "{") || tokIs(toks, j + 2, "(")))
            names.insert(toks[j + 1].text);
    }
    return names;
}

/// The range of a range-for starting at `for` (@p i): the NAME of
/// `for (decl : NAME)` or `for (decl : x.NAME)` / `x->NAME`; "" for
/// any other loop.
std::string
rangeForTarget(const std::vector<Token> &toks, std::size_t i)
{
    if (!tokIs(toks, i + 1, "("))
        return "";
    std::size_t k = i + 2;
    while (k < toks.size() && !tokIs(toks, k, ":")) {
        if (tokIs(toks, k, ";") || tokIs(toks, k, "(") ||
            tokIs(toks, k, ")"))
            return "";
        ++k;
    }
    ++k;
    if (k + 1 < toks.size() && toks[k].kind == TokKind::Ident &&
        (tokIs(toks, k + 1, ".") || tokIs(toks, k + 1, "->")))
        k += 2;
    if (k < toks.size() && toks[k].kind == TokKind::Ident &&
        tokIs(toks, k + 1, ")"))
        return toks[k].text;
    return "";
}

/// Owning captures of the lambda whose '[' is token @p b: every
/// top-level capture that is neither by-reference nor `this`.
std::vector<std::string>
owningCaptures(const std::vector<Token> &toks, std::size_t b)
{
    std::vector<std::string> owning;
    std::string cur;
    int depth = 0;
    for (std::size_t k = b + 1; k < toks.size(); ++k) {
        const std::string &t = toks[k].text;
        const bool code = toks[k].kind == TokKind::Punct;
        if (code && depth == 0 && (t == "," || t == "]")) {
            if (!cur.empty() && cur[0] != '&' && cur != "this")
                owning.push_back(cur);
            cur.clear();
            if (t == "]")
                break;
            continue;
        }
        if (code && (t == "<" || t == "(" || t == "[" || t == "{"))
            ++depth;
        else if (code && (t == ">" || t == ")" || t == "]" || t == "}"))
            --depth;
        cur += t;
    }
    return owning;
}

/// The token that ends the co_await full-expression starting at token
/// @p i: the first `;` or `,` at the keyword's own depth, or a closing
/// bracket below it.
std::size_t
coawaitEnd(const std::vector<Token> &toks, std::size_t i)
{
    int depth = 0;
    std::size_t k = i + 1;
    for (; k < toks.size(); ++k) {
        if (toks[k].kind != TokKind::Punct)
            continue;
        const std::string &t = toks[k].text;
        if (t == "(" || t == "[" || t == "{")
            ++depth;
        else if ((t == ")" || t == "]" || t == "}") && --depth < 0)
            break;
        else if ((t == ";" || t == ",") && depth == 0)
            break;
    }
    return k;
}

/// The token rules (DESIGN.md §11), over every token of every file.
/// A rule reports a line at most once.
void
runTokenRules(const Program &prog, std::vector<Finding> &findings)
{
    std::map<std::string, std::set<std::string>> unordered;
    for (const LexedFile &file : prog.files)
        unordered[file.path] = unorderedNames(file);
    // Lambda introducers as the extractor recognized them, per file.
    std::vector<std::vector<std::size_t>> lambdas(prog.files.size());
    for (const Function &f : prog.functions)
        if (f.isLambda)
            lambdas[static_cast<std::size_t>(f.fileIndex)].push_back(
                f.introducer);

    for (std::size_t fi = 0; fi < prog.files.size(); ++fi) {
        const LexedFile &file = prog.files[fi];
        std::set<std::pair<int, std::string>> reported;
        auto add = [&](int line, const char *rule, std::string message) {
            if (!reported.emplace(line, rule).second)
                return;
            Finding fd;
            fd.path = file.path;
            fd.line = line;
            fd.rule = rule;
            fd.message = std::move(message);
            findings.push_back(std::move(fd));
        };

        // A name declared unordered in this file or in its paired
        // header/source (same stem): `slots_` being a vector in
        // core/slot.hh must not inherit gsan.hh's unordered `slots_`.
        std::set<std::string> names = unordered[file.path];
        const std::size_t dot = file.path.rfind('.');
        const std::string pair =
            file.path.substr(0, dot) +
            (file.path.ends_with(".hh") ? ".cc" : ".hh");
        if (auto it = unordered.find(pair); it != unordered.end())
            names.insert(it->second.begin(), it->second.end());

        const bool doorbellFile = isAnyFile(
            file.path, {"gpu/gpu.cc", "gpu/gpu.hh", "core/client.cc"});
        // The audited direct consumers of the zero-copy segment loan:
        // the implementation, the recvmsg(MSG_ZEROCOPY) syscall layer
        // that parks loans on the OpenFile and retires them on the
        // next call, and the gkv load generator, whose parse finishes
        // before its next drain.
        const bool loanFile =
            isAnyFile(file.path, {"osk/tcp.hh", "osk/tcp.cc",
                                  "osk/syscalls.cc", "workloads/gkv.cc"});

        // Directive bodies (a macro's expansion) get the same rules;
        // only code holds the extractor's lambdas.
        for (const bool code : {true, false}) {
            const std::vector<Token> &toks =
                code ? file.tokens : file.directives;
            for (std::size_t i = 0; i < toks.size(); ++i) {
                if (toks[i].kind != TokKind::Ident)
                    continue;
                const std::string &t = toks[i].text;
                const int line = toks[i].line;
                if (hostLockNames().count(t) != 0)
                    add(line, "host-lock",
                        "std::" + t +
                            " locks between host threads, but the "
                            "simulated machine runs on one; model "
                            "exclusion with sim::Semaphore, as "
                            "MemoryManager's mmap_sem does");
                if (t == "sendInterrupt" && !doorbellFile &&
                    tokIs(toks, i + 1, "("))
                    add(line, "doorbell-callers",
                        "the doorbell is rung only by the device and the "
                        "client issue path (gpu/gpu.*, core/client.cc)");
                if (t == "readSegments" && !loanFile &&
                    tokIs(toks, i + 1, "("))
                    add(line, "segment-loan",
                        "readSegments hands out loaned NetSegs whose "
                        "lifetime the caller must manage by hand; only the "
                        "audited zero-copy paths (osk/tcp.*, "
                        "osk/syscalls.cc, workloads/gkv.cc) may call it; "
                        "use recvmsg(MSG_ZEROCOPY), which retires its "
                        "loans on the next call");
                // time(), time(NULL), time(nullptr), time(0).
                const bool timeCall =
                    t == "time" && tokIs(toks, i + 1, "(") &&
                    (tokIs(toks, i + 2, ")") ||
                     ((tokIs(toks, i + 2, "NULL") ||
                       tokIs(toks, i + 2, "nullptr") ||
                       tokIs(toks, i + 2, "0")) &&
                      tokIs(toks, i + 3, ")")));
                if ((t == "chrono" && i >= 2 && tokIs(toks, i - 2, "std") &&
                     tokIs(toks, i - 1, "::")) ||
                    t == "steady_clock" || t == "system_clock" ||
                    ((t == "clock_gettime" || t == "gettimeofday") &&
                     tokIs(toks, i + 1, "(")) ||
                    timeCall)
                    add(line, "wall-clock",
                        "wall-clock time source in simulated code; modeled "
                        "time comes from sim::EventQueue::now()");
                if ((t == "rand" && tokIs(toks, i + 1, "(") &&
                     tokIs(toks, i + 2, ")")) ||
                    (t == "srand" && tokIs(toks, i + 1, "(")) ||
                    t == "random_device")
                    add(line, "raw-rand",
                        "unseeded randomness; use the seeded "
                        "support/random.hh PRNG");
                std::string iterated; // `for (x : NAME)` or `NAME.begin()`
                if (t == "for")
                    iterated = rangeForTarget(toks, i);
                else if (tokIs(toks, i + 1, ".") &&
                         (tokIs(toks, i + 2, "begin") ||
                          tokIs(toks, i + 2, "cbegin")) &&
                         tokIs(toks, i + 3, "("))
                    iterated = t;
                if (!iterated.empty() && names.count(iterated) != 0)
                    add(line, "unordered-iteration",
                        "iterating '" + iterated +
                            "' (std::unordered_*): order is "
                            "implementation-defined; use an ordered "
                            "container or sort first");
                if (t != "co_await" || !code)
                    continue;
                const std::size_t end = coawaitEnd(toks, i);
                for (const std::size_t b : lambdas[fi]) {
                    if (b <= i || b >= end)
                        continue;
                    const std::vector<std::string> owning =
                        owningCaptures(toks, b);
                    if (owning.empty())
                        continue;
                    std::string list;
                    for (const std::string &c : owning) {
                        if (!list.empty())
                            list += ", ";
                        list += c;
                    }
                    add(toks[b].line, "coawait-owning-lambda",
                        "lambda with owning capture(s) [" + list +
                            "] inside a co_await full-expression is "
                            "double-destroyed by GCC 12's coroutine "
                            "lowering; hoist it into a named local and "
                            "std::move it");
                }
            }
        }
    }
}

} // namespace

std::vector<Finding>
runOrderingPass(const Program &prog)
{
    // The gsan annotation API's own implementation is exempt: those
    // bodies define the annotations, they do not use them.
    const std::set<std::string> annotationImpls = {
        "ringPublish", "ringConsume", "ringConsumeRacy", "ringObserve",
        "ringDoorbell"};

    std::vector<Finding> findings;
    for (const Function &f : prog.functions) {
        const LexedFile &file = prog.fileOf(f);
        if (annotationImpls.count(f.shortName) != 0)
            continue;

        bool hasConsume = false;
        bool hasTailStore = false;
        bool hasHeadStore = false;
        std::vector<std::size_t> loadIdx;
        for (const CallSite &c : f.calls) {
            // ringConsumeRacy is a deliberate-race annotation: the
            // body documents an unordered read, which is exactly what
            // this rule wants made explicit.
            if (c.callee == "ringConsume" ||
                c.callee == "ringConsumeRacy")
                hasConsume = true;
            else if (c.callee == "storeTailRelease")
                hasTailStore = true;
            else if (c.callee == "storeHeadRelease")
                hasHeadStore = true;
            else if (c.callee == "loadHeadAcquire" ||
                     c.callee == "loadTailAcquire")
                loadIdx.push_back(c.tokenIndex);
        }

        for (const CallSite &c : f.calls) {
            const bool isStore = c.callee == "storeTailRelease" ||
                                 c.callee == "storeHeadRelease";
            if (isStore) {
                // The acquire load may sit inside the store's own
                // argument list: accept any load before the store
                // call's closing paren.
                std::size_t close = c.tokenIndex + 1;
                int depth = 0;
                for (; close < file.tokens.size(); ++close) {
                    const Token &t = file.tokens[close];
                    if (t.kind == TokKind::Punct && t.text == "(")
                        ++depth;
                    else if (t.kind == TokKind::Punct &&
                             t.text == ")" && --depth == 0)
                        break;
                }
                const bool paired = std::any_of(
                    loadIdx.begin(), loadIdx.end(),
                    [close](std::size_t li) { return li < close; });
                if (!paired) {
                    Finding fd;
                    fd.path = file.path;
                    fd.line = c.line;
                    fd.rule = "unpaired-release";
                    fd.message =
                        c.callee + " in " + f.qualName +
                        " has no prior acquire load of a ring "
                        "counter in the same body";
                    findings.push_back(std::move(fd));
                }
            }
            if (c.callee == "ringPublish" && !hasTailStore) {
                Finding fd;
                fd.path = file.path;
                fd.line = c.line;
                fd.rule = "unpaired-hb-annotation";
                fd.message =
                    "ringPublish annotation in " + f.qualName +
                    " models a publish, but the body performs no "
                    "storeTailRelease";
                findings.push_back(std::move(fd));
            }
            if (c.callee == "ringConsume" && !hasHeadStore) {
                Finding fd;
                fd.path = file.path;
                fd.line = c.line;
                fd.rule = "unpaired-hb-annotation";
                fd.message =
                    "ringConsume annotation in " + f.qualName +
                    " models a consume, but the body performs no "
                    "storeHeadRelease";
                findings.push_back(std::move(fd));
            }
        }

        for (const EntriesAccess &a : f.entriesAccesses) {
            if (a.isWrite || hasConsume)
                continue;
            // A read already ordered after an acquire load of a ring
            // counter in the same body (the bounds-check reclaim
            // pattern: assert head/tail, then read) is disciplined
            // without a separate annotation.
            const bool afterLoad = std::any_of(
                loadIdx.begin(), loadIdx.end(),
                [&a](std::size_t li) { return li < a.tokenIndex; });
            if (afterLoad)
                continue;
            Finding fd;
            fd.path = file.path;
            fd.line = a.line;
            fd.rule = "unannotated-consume";
            fd.message = "entries_ read in " + f.qualName +
                         " without a ringConsume() acquire "
                         "annotation in the same body";
            findings.push_back(std::move(fd));
        }
    }
    runTokenRules(prog, findings);
    return findings;
}

std::vector<Finding>
runAllPasses(const Program &prog)
{
    CallGraph cg(prog);
    std::vector<Finding> findings;
    auto append = [&findings](std::vector<Finding> more) {
        findings.insert(findings.end(),
                        std::make_move_iterator(more.begin()),
                        std::make_move_iterator(more.end()));
    };
    append(runMayParkPass(cg));
    append(runOrderingPass(prog));
    append(runTaintPass(cg));
    sortFindings(findings);
    return findings;
}

} // namespace genesys::analysis
