#include "analysis/callgraph.hh"

#include <sstream>

namespace genesys::analysis
{

const char *
parkKindName(ParkKind k)
{
    switch (k) {
    case ParkKind::None:
        return "none";
    case ParkKind::Bounded:
        return "bounded";
    case ParkKind::Indefinite:
        return "indefinite";
    }
    return "?";
}

CallGraph::CallGraph(const Program &prog) : prog_(prog)
{
    // Parking primitives, by the name a call site spells. Indefinite:
    // woken only by another party that may never act. Bounded: the
    // resource is guaranteed to free (cores, DMA channels, bands).
    seeds_["wait"] = ParkKind::Indefinite;
    seeds_["arriveAndWait"] = ParkKind::Indefinite;
    seeds_["epoll_wait"] = ParkKind::Indefinite;
    seeds_["acquire"] = ParkKind::Bounded;
    seeds_["acquireCore"] = ParkKind::Bounded;

    // Noreturn terminators: the program is dead past these, so their
    // bodies (error printing through the stdio model) must not feed
    // park facts into the callers' summaries.
    terminals_.insert("panic");
    terminals_.insert("fatal");
    terminals_.insert("abort");
    terminals_.insert("exit");
    terminals_.insert("terminate");

    for (std::size_t i = 0; i < prog_.functions.size(); ++i) {
        const Function &f = prog_.functions[i];
        if (f.parent >= 0)
            lambdas_[f.parent].push_back(static_cast<int>(i));
    }
}

bool
CallGraph::arityOk(const CallSite &call, int def) const
{
    if (call.argCount < 0)
        return true; // unparsed site: stay conservative
    const Function &f =
        prog_.functions[static_cast<std::size_t>(def)];
    if (f.minArgs >= 0 && call.argCount < f.minArgs)
        return false;
    if (f.maxArgs >= 0 && call.argCount > f.maxArgs)
        return false;
    return true;
}

std::vector<int>
CallGraph::resolveDefs(const CallSite &call) const
{
    std::vector<int> out;
    if (terminals_.count(call.callee) != 0)
        return out;
    auto defs = prog_.byShortName.find(call.callee);
    if (defs == prog_.byShortName.end())
        return out;
    if (call.qualifier.empty()) {
        for (int def : defs->second) {
            if (arityOk(call, def))
                out.push_back(def);
        }
        return out;
    }
    const std::string want = call.qualifier + "::" + call.callee;
    const std::string wantSuffix = "::" + want;
    for (int def : defs->second) {
        const std::string &qual =
            prog_.functions[static_cast<std::size_t>(def)].qualName;
        if ((qual == want ||
             (qual.size() > wantSuffix.size() &&
              qual.compare(qual.size() - wantSuffix.size(),
                           wantSuffix.size(), wantSuffix) == 0)) &&
            arityOk(call, def))
            out.push_back(def);
    }
    return out;
}

std::string
CallGraph::callStep(int fromIdx, const CallSite &call) const
{
    const Function &f =
        prog_.functions[static_cast<std::size_t>(fromIdx)];
    std::ostringstream os;
    os << prog_.fileOf(f).path << ":" << call.line << ": "
       << f.qualName << " -> " << call.callee;
    return os.str();
}

const std::vector<CallSite> &
CallGraph::syncCalls(int idx)
{
    auto it = syncMemo_.find(idx);
    if (it != syncMemo_.end())
        return it->second;
    std::vector<CallSite> out;
    // Walk this function plus all transitively non-deferred lambdas.
    std::vector<int> stack{idx};
    while (!stack.empty()) {
        const int cur = stack.back();
        stack.pop_back();
        const Function &f =
            prog_.functions[static_cast<std::size_t>(cur)];
        for (const CallSite &c : f.calls) {
            if (!c.deferred)
                out.push_back(c);
        }
        auto kids = lambdas_.find(cur);
        if (kids == lambdas_.end())
            continue;
        for (int kid : kids->second) {
            if (!prog_.functions[static_cast<std::size_t>(kid)]
                     .deferred)
                stack.push_back(kid);
        }
    }
    return syncMemo_.emplace(idx, std::move(out)).first->second;
}

ParkSummary
CallGraph::callParkSummary(int fromIdx, const CallSite &call)
{
    ParkSummary best;
    if (terminals_.count(call.callee) != 0)
        return best;
    auto seed = seeds_.find(call.callee);
    if (seed != seeds_.end() && call.qualifier.empty()) {
        best.kind = seed->second;
        const Function &f =
            prog_.functions[static_cast<std::size_t>(fromIdx)];
        std::ostringstream os;
        os << prog_.fileOf(f).path << ":" << call.line << ": "
           << call.callee << "() parks ("
           << parkKindName(seed->second) << ")";
        best.witness.push_back(os.str());
        return best;
    }
    for (int def : resolveDefs(call)) {
        if (def == fromIdx)
            continue;
        const ParkSummary &sub = parkSummary(def);
        if (sub.kind > best.kind) {
            best.kind = sub.kind;
            best.witness.clear();
            best.witness.push_back(callStep(fromIdx, call));
            best.witness.insert(best.witness.end(),
                                sub.witness.begin(),
                                sub.witness.end());
        }
    }
    return best;
}

const ParkSummary &
CallGraph::parkSummary(int idx)
{
    auto it = parkMemo_.find(idx);
    if (it != parkMemo_.end())
        return it->second;
    if (onStack_[idx]) {
        // Back edge: contributes nothing beyond the cycle body.
        static const ParkSummary none;
        return none;
    }
    onStack_[idx] = true;
    ParkSummary result = computePark(idx);
    onStack_[idx] = false;
    return parkMemo_.emplace(idx, std::move(result)).first->second;
}

ParkSummary
CallGraph::computePark(int idx)
{
    ParkSummary best;
    for (const CallSite &c : syncCalls(idx)) {
        ParkSummary s = callParkSummary(idx, c);
        if (s.kind > best.kind)
            best = std::move(s);
        if (best.kind == ParkKind::Indefinite)
            break; // cannot get stronger
    }
    return best;
}

} // namespace genesys::analysis
