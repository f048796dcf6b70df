/**
 * @file
 * gflow's dataflow pass (DESIGN.md §16): GPU-argument taint over the
 * PathWalker. Slot/ring payload reads (`args.a[i]`, `args.as<T>(i)`,
 * SQ ring entries, loads through `args.ptr<T>(i)` windows) are
 * untrusted; flows into memory-op sizes, allocation sizes, container
 * indexing, or GPU-window walks with no dominating bounds guard are
 * reported, including through calls via bottom-up parameter
 * summaries.
 */

#ifndef GENESYS_ANALYSIS_FLOWPASSES_HH
#define GENESYS_ANALYSIS_FLOWPASSES_HH

#include <vector>

#include "analysis/callgraph.hh"
#include "analysis/model.hh"

namespace genesys::analysis
{

/** GPU-argument taint pass. */
std::vector<Finding> runTaintPass(CallGraph &cg);

} // namespace genesys::analysis

#endif // GENESYS_ANALYSIS_FLOWPASSES_HH
