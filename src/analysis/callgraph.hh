/**
 * @file
 * gstat's interprocedural layer (DESIGN.md §14).
 *
 * Resolution is name-based: a call site `f(...)` is connected to every
 * extracted definition whose short name is `f` (a may-call
 * over-approximation), refined by arity — a call spelling k arguments
 * only targets definitions whose parameter count admits k. On top of
 * that graph this layer computes, per function, a **park summary**:
 * the strongest parking behavior reachable through synchronous edges
 * (direct calls plus non-deferred lambda bodies), with a witness call
 * chain to the parking primitive. Primitives are seeded by name —
 * WaitQueue::wait / Barrier::arriveAndWait / epoll_wait are
 * indefinite, Semaphore::acquire / CpuCluster::acquireCore are bounded
 * (a core eventually frees; a peer may never send bytes).
 *
 * Edges through deferral sinks (WorkQueue::enqueue*, scheduleIn,
 * spawn, ...) are excluded: that work runs later on another logical
 * thread and must not be charged to the caller's synchronous flow.
 * Recursion is handled by treating back edges as contributing nothing
 * (a cycle alone cannot introduce a park the cycle body lacks).
 */

#ifndef GENESYS_ANALYSIS_CALLGRAPH_HH
#define GENESYS_ANALYSIS_CALLGRAPH_HH

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/model.hh"

namespace genesys::analysis
{

/// Strength ordering matters: None < Bounded < Indefinite.
enum class ParkKind
{
    None = 0,
    Bounded = 1,
    Indefinite = 2,
};

const char *parkKindName(ParkKind k);

struct ParkSummary
{
    ParkKind kind = ParkKind::None;
    /// Formatted "path:line: ..." steps from the function's own call
    /// site down to the parking primitive.
    std::vector<std::string> witness;
};

class CallGraph
{
  public:
    explicit CallGraph(const Program &prog);

    /** Park summary of functions[idx] (memoized). */
    const ParkSummary &parkSummary(int idx);

    /** Synchronous call sites of functions[idx]: its own non-deferred
     *  calls plus those of non-deferred child lambdas. */
    const std::vector<CallSite> &syncCalls(int idx);

    /** Definitions a call site may target. Unqualified calls match
     *  every definition sharing the short name; explicitly qualified
     *  calls (std::fprintf, A::B::f) only match definitions whose
     *  qualified name agrees — an external qualified call resolves to
     *  nothing. Calls to noreturn terminators resolve to nothing.
     *  Arity-refined: a call spelling k arguments never targets a
     *  definition requiring more than k or accepting fewer (defaults
     *  and packs widen a definition's acceptable range), so
     *  `dev->read(pos, buf, len)` does not resolve to the two-argument
     *  `TcpSocket::read` just because the short names collide. */
    std::vector<int> resolveDefs(const CallSite &call) const;

    const Program &program() const { return prog_; }

  private:
    /** "path:line: caller -> callee" step for a witness chain. */
    std::string callStep(int fromIdx, const CallSite &call) const;
    ParkSummary computePark(int idx);
    /**
     * Park behavior of a single call site resolved in @p fromIdx:
     * seed-name parks resolve at the site itself, otherwise the
     * strongest summary among same-named definitions. Returns a
     * summary whose witness starts at the call site.
     */
    ParkSummary callParkSummary(int fromIdx, const CallSite &call);
    /// Can @p call's spelled arity target functions[def]?
    bool arityOk(const CallSite &call, int def) const;

    const Program &prog_;
    /// Seed park kinds by callee short name.
    std::map<std::string, ParkKind> seeds_;
    /// Noreturn terminators: calls to these propagate nothing.
    std::set<std::string> terminals_;
    std::map<int, ParkSummary> parkMemo_;
    std::map<int, std::vector<CallSite>> syncMemo_;
    std::map<int, bool> onStack_;
    /// Child lambdas per function index.
    std::map<int, std::vector<int>> lambdas_;
};

} // namespace genesys::analysis

#endif // GENESYS_ANALYSIS_CALLGRAPH_HH
