/**
 * @file
 * gstat's function/method/lambda extractor (DESIGN.md §14).
 *
 * Walks each lexed file with a scope stack (namespace / class / other
 * braces), recognizes function definitions by their `name(args)
 * [qualifiers] {` shape (including out-of-class `Class::name` and
 * constructor-initializer lists), and scans every body for:
 *
 *  - call sites (`ident(`), with their arguments and a `deferred` bit
 *    when the call is an argument to a deferral sink
 *    (WorkQueue::enqueue/enqueueOn, EventQueue::scheduleIn, spawn, …);
 *  - lambda bodies, extracted as child functions of their enclosing
 *    function; a lambda handed to a deferral sink is marked deferred —
 *    its calls run later on another logical thread, so the may-park
 *    pass must not charge them to the parent;
 *  - `entries_[...]` accesses (read vs write) for the ordering pass.
 *
 * Known soundness limits (documented in DESIGN.md §14): resolution is
 * name-based, and operator overloads and function pointers are not
 * modeled.
 */

#ifndef GENESYS_ANALYSIS_EXTRACT_HH
#define GENESYS_ANALYSIS_EXTRACT_HH

#include "analysis/model.hh"

namespace genesys::analysis
{

/** Extract all functions of files[fileIndex] into prog.functions. */
void extractFile(Program &prog, int fileIndex);

/** Rebuild byShortName / byQualName after extraction. */
void indexFunctions(Program &prog);

} // namespace genesys::analysis

#endif // GENESYS_ANALYSIS_EXTRACT_HH
