#include "analysis/passes.hh"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

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

// ---- pass 2: lock order ----------------------------------------------

struct LockEdge
{
    std::string from;
    std::string to;
    std::string path;
    int line = 0;
    std::vector<std::string> witness;
};

void
addEdge(std::map<std::pair<std::string, std::string>, LockEdge> &edges,
        LockEdge edge)
{
    auto key = std::make_pair(edge.from, edge.to);
    if (edges.count(key) == 0)
        edges.emplace(std::move(key), std::move(edge));
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

    for (std::size_t i = 0; i < prog.functions.size(); ++i) {
        const Function &f = prog.functions[i];
        const int idx = static_cast<int>(i);

        // Rule drain-loop-park: the ring consumer must stay runnable;
        // an indefinite park wedges every shard behind this one.
        if (f.shortName == "ringConsumeTask") {
            const ParkSummary &s = cg.parkSummary(idx);
            if (s.kind == ParkKind::Indefinite) {
                Finding fd;
                fd.path = prog.fileOf(f).path;
                fd.line = f.line;
                fd.rule = "drain-loop-park";
                fd.message = "ring consumer drain loop " + f.qualName +
                             " can park indefinitely";
                fd.witness = s.witness;
                findings.push_back(std::move(fd));
            }
        }

        // Rule park-under-lock: no park of any kind with a lock held.
        for (const CallSite &c : f.calls) {
            if (c.deferred || c.heldLocks.empty())
                continue;
            ParkSummary s = cg.callParkSummary(idx, c);
            if (s.kind == ParkKind::None)
                continue;
            Finding fd;
            fd.path = prog.fileOf(f).path;
            fd.line = c.line;
            fd.rule = "park-under-lock";
            fd.message = f.qualName + " may park (" +
                         parkKindName(s.kind) + ") while holding " +
                         c.heldLocks.front();
            fd.witness = s.witness;
            findings.push_back(std::move(fd));
        }
    }
    return findings;
}

std::vector<Finding>
runLockOrderPass(CallGraph &cg)
{
    const Program &prog = cg.program();
    std::map<std::pair<std::string, std::string>, LockEdge> edges;

    for (std::size_t i = 0; i < prog.functions.size(); ++i) {
        const Function &f = prog.functions[i];
        const int idx = static_cast<int>(i);
        const std::string &path = prog.fileOf(f).path;

        // Direct acquisition-order edges within one body.
        for (const LockEvent &e : f.lockEvents) {
            if (!e.acquire)
                continue;
            for (const std::string &held : e.heldBefore) {
                LockEdge edge;
                edge.from = held;
                edge.to = e.lockId;
                edge.path = path;
                edge.line = e.line;
                std::ostringstream os;
                os << path << ":" << e.line << ": " << f.qualName
                   << " acquires " << e.lockId << " while holding "
                   << held;
                edge.witness.push_back(os.str());
                addEdge(edges, std::move(edge));
            }
        }

        // Edges through calls made with locks held: the callee may
        // acquire more locks (transitively).
        for (const CallSite &c : f.calls) {
            if (c.deferred || c.heldLocks.empty())
                continue;
            for (int def : cg.resolveDefs(c)) {
                if (def == idx)
                    continue;
                for (const auto &acq : cg.lockSummary(def)) {
                    for (const std::string &held : c.heldLocks) {
                        LockEdge edge;
                        edge.from = held;
                        edge.to = acq.first;
                        edge.path = path;
                        edge.line = c.line;
                        edge.witness.push_back(
                            cg.callStep(idx, c) + " (holding " +
                            held + ")");
                        edge.witness.insert(
                            edge.witness.end(),
                            acq.second.witness.begin(),
                            acq.second.witness.end());
                        addEdge(edges, std::move(edge));
                    }
                }
            }
        }
    }

    // Cycle detection: for each node (in sorted order), BFS for the
    // shortest path back to itself; report the cycle only from its
    // lexicographically smallest member so each cycle appears once.
    std::map<std::string, std::vector<std::string>> adj;
    for (const auto &entry : edges)
        adj[entry.first.first].push_back(entry.first.second);

    std::vector<Finding> findings;
    std::set<std::string> reported;
    for (const auto &node : adj) {
        const std::string &start = node.first;
        // BFS from start; parent map reconstructs the cycle.
        std::map<std::string, std::string> parent;
        std::vector<std::string> queue{start};
        std::set<std::string> seen{start};
        std::string last; // predecessor of start on the cycle
        bool closed = false;
        for (std::size_t qi = 0; qi < queue.size() && !closed; ++qi) {
            const std::string cur = queue[qi];
            auto next = adj.find(cur);
            if (next == adj.end())
                continue;
            for (const std::string &to : next->second) {
                if (to == start) {
                    last = cur;
                    closed = true;
                    break;
                }
                if (seen.insert(to).second) {
                    parent[to] = cur;
                    queue.push_back(to);
                }
            }
        }
        if (!closed)
            continue;
        // Reconstruct start -> ... -> last -> start.
        std::vector<std::string> cycle;
        for (std::string cur = last; cur != start; cur = parent[cur])
            cycle.push_back(cur);
        cycle.push_back(start);
        std::reverse(cycle.begin(), cycle.end());
        // Only report from the smallest member (self-loops trivially
        // qualify), and only once per member set.
        if (*std::min_element(cycle.begin(), cycle.end()) != start)
            continue;
        std::string canon;
        for (const auto &n : std::set<std::string>(cycle.begin(),
                                                   cycle.end()))
            canon += n + "|";
        if (!reported.insert(canon).second)
            continue;

        Finding fd;
        fd.rule = "lock-order-cycle";
        std::string order;
        for (const std::string &n : cycle)
            order += n + " -> ";
        order += start;
        fd.message = "lock acquisition order cycle: " + order;
        for (std::size_t k = 0; k < cycle.size(); ++k) {
            const std::string &from = cycle[k];
            const std::string &to =
                cycle[(k + 1) % cycle.size()];
            const LockEdge &e = edges.at({from, to});
            if (k == 0) {
                fd.path = e.path;
                fd.line = e.line;
            }
            fd.witness.push_back("edge " + from + " -> " + to + ":");
            fd.witness.insert(fd.witness.end(), e.witness.begin(),
                              e.witness.end());
        }
        findings.push_back(std::move(fd));
    }
    return findings;
}

std::vector<Finding>
runOrderingPass(const Program &prog)
{
    // The gsan annotation API's own implementation is exempt: those
    // bodies define the annotations, they do not use them.
    const std::set<std::string> annotationImpls = {
        "ringPublish", "ringConsume", "ringConsumeRacy", "ringObserve",
        "ringDoorbell"};

    auto endsWith = [](const std::string &s, const std::string &suf) {
        return s.size() >= suf.size() &&
               s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
    };

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

        if (!endsWith(file.path, "core/ring.hh")) {
            for (const RawCounterUse &u : f.rawCounters) {
                Finding fd;
                fd.path = file.path;
                fd.line = u.line;
                fd.rule = "raw-counter-access";
                fd.message =
                    "raw ring counter " + u.counter + " accessed in " +
                    f.qualName +
                    "; only core/ring.hh accessors may touch it";
                findings.push_back(std::move(fd));
            }
        }
    }
    return findings;
}

std::vector<Finding>
runPasses(const Program &prog, const PassSet &ps)
{
    CallGraph cg(prog);
    std::vector<Finding> findings;
    auto append = [&findings](std::vector<Finding> more) {
        findings.insert(findings.end(),
                        std::make_move_iterator(more.begin()),
                        std::make_move_iterator(more.end()));
    };
    if (ps.mayPark)
        append(runMayParkPass(cg));
    if (ps.lockOrder)
        append(runLockOrderPass(cg));
    if (ps.ordering)
        append(runOrderingPass(prog));
    if (ps.ownership)
        append(runOwnershipPass(cg));
    if (ps.taint)
        append(runTaintPass(cg));
    sortFindings(findings);
    return findings;
}

std::vector<Finding>
runAllPasses(const Program &prog)
{
    return runPasses(prog, PassSet{});
}

} // namespace genesys::analysis
