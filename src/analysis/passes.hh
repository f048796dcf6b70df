/**
 * @file
 * gstat's structural analysis passes (DESIGN.md §14). The gflow
 * GPU-taint dataflow pass (DESIGN.md §16) is declared in
 * flowpasses.hh; runAllPasses runs all three.
 *
 * 1. May-park (`nonblocking-handler-parks`, `drain-loop-park`):
 *    transitive reachability to parking primitives over synchronous
 *    call edges. The syscall blocking classification is recovered
 *    from the tree itself: each implemented row of the syscall table,
 *    `impl(num, "name", type, role, sysX, flags)`, binds a call to its
 *    handler, and `kMayBlock` in its flags is what the runtime treats
 *    as may-block. A handler whose row lacks the flag but can reach an
 *    indefinite park is a classification bug: the ring consumer would
 *    service it inline and wedge a shared OS core. The same
 *    reachability must not hold from the ring consumer's drain loop
 *    (`ringConsumeTask`).
 *
 * 2. Ordering discipline (`unpaired-release`,
 *    `unpaired-hb-annotation`, `unannotated-consume`): flow-sensitive
 *    per-body pairing of ring counter accesses. A release store must
 *    be ordered after an acquire load in the same body (the load may
 *    appear inside the store's own argument list, as in
 *    `storeHeadRelease(loadHeadAcquire() + 1)`); a gsan ring
 *    annotation must sit next to the counter operation it models; an
 *    `entries_[...]` read needs a `ringConsume()` acquire in the same
 *    body. The same group runs the token rules over every token of
 *    every file (DESIGN.md §11): no host locking, since the simulated
 *    machine runs on one host thread (`host-lock`); the doorbell rings
 *    only from gpu/gpu.* and core/client.cc (`doorbell-callers`);
 *    zero-copy loans are taken only on the audited paths
 *    (`segment-loan`); no iteration over an std::unordered_* container
 *    (`unordered-iteration`); no wall clock and no unseeded randomness
 *    (`wall-clock`, `raw-rand`); and no lambda with owning captures
 *    inside a co_await full-expression (`coawait-owning-lambda`). File
 *    allowlists match by path suffix, so the verdict does not depend
 *    on the root. Slot state and the raw ring counters need no rule:
 *    they are private members (SyscallSlot::state_, RingCounters in
 *    core/ring.hh), and the access-control ctests pin that.
 */

#ifndef GENESYS_ANALYSIS_PASSES_HH
#define GENESYS_ANALYSIS_PASSES_HH

#include <vector>

#include "analysis/callgraph.hh"
#include "analysis/model.hh"

namespace genesys::analysis
{

std::vector<Finding> runMayParkPass(CallGraph &cg);
std::vector<Finding> runOrderingPass(const Program &prog);

/** All passes, sorted for stable output. */
std::vector<Finding> runAllPasses(const Program &prog);

} // namespace genesys::analysis

#endif // GENESYS_ANALYSIS_PASSES_HH
