/**
 * @file
 * gstat's program model: functions, call sites, findings.
 *
 * The extractor (extract.cc) populates a Program from lexed files; the
 * call graph (callgraph.cc) and the passes (passes.cc) consume it.
 * Containers are ordered (std::map / vectors in source order) so every
 * run of the analyzer over the same tree produces byte-identical
 * output.
 */

#ifndef GENESYS_ANALYSIS_MODEL_HH
#define GENESYS_ANALYSIS_MODEL_HH

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/lexer.hh"

namespace genesys::analysis
{

/** A call site inside a function body. */
struct CallSite
{
    std::string callee; ///< unqualified name as spelled
    /// Explicit qualification as spelled ("std", "sim", "A::B");
    /// empty for receiver calls and plain names. An explicitly
    /// qualified call never resolves to a definition whose qualified
    /// name does not match — `std::fprintf` must not resolve to some
    /// in-tree `GpuStdio::fprintf`.
    std::string qualifier;
    /// Receiver identifier for member calls: the `x` of `x.f(...)` /
    /// `x->f(...)`. When the receiver is itself a call chain
    /// (`p.fds().allocate(...)`), the name of the innermost call
    /// ("fds") — enough for the taint pass to recognize the API
    /// without a type system. Empty for free calls.
    std::string receiver;
    int line = 0;
    std::size_t tokenIndex = 0; ///< into the owning file's tokens
    /// Inside a lambda (or call argument) handed to a deferral sink
    /// (WorkQueue::enqueue*, EventQueue::scheduleIn, Sim::spawn, ...):
    /// runs later on another logical thread, not synchronously here.
    bool deferred = false;
    /// Number of top-level arguments spelled at the site, for
    /// arity-refined resolution; -1 when the list was unparseable.
    int argCount = -1;
};

/** An `entries_[...]` access, classified read vs write. */
struct EntriesAccess
{
    bool isWrite = false;
    int line = 0;
    std::size_t tokenIndex = 0;
};

/** One extracted function, method, or lambda body. */
struct Function
{
    std::string qualName;  ///< e.g. "SyscallRing::popHead"
    std::string shortName; ///< last component, e.g. "popHead"
    int fileIndex = 0;     ///< into Program::files
    int line = 0;          ///< definition line
    std::size_t bodyBegin = 0; ///< token index of '{'
    std::size_t bodyEnd = 0;   ///< token index of matching '}'
    int parent = -1;       ///< enclosing function for lambdas
    bool isLambda = false;
    std::size_t introducer = 0; ///< lambdas: token index of the '['
    /// Lambda handed to a deferral sink: calls inside it are NOT
    /// synchronous work of the parent.
    bool deferred = false;
    /// Parameter names in declaration order ("" when unnamed or not
    /// recovered from the signature).
    std::vector<std::string> params;
    /// Arity bounds for call-site resolution: required (non-defaulted)
    /// parameters and total parameters. -1 = unknown / unbounded
    /// (unparsed signature or a parameter pack).
    int minArgs = -1;
    int maxArgs = -1;

    std::vector<CallSite> calls;
    std::vector<EntriesAccess> entriesAccesses;
};

/** The whole analyzed tree. */
struct Program
{
    std::vector<LexedFile> files;
    std::vector<Function> functions;
    /// shortName -> indices into functions (all definitions sharing it).
    /// Members of opaque classes are excluded.
    std::map<std::string, std::vector<int>> byShortName;
    /// qualName -> index of the first definition with that name.
    std::map<std::string, int> byQualName;
    /// Classes marked `gstat: opaque(Name)`: their members never
    /// resolve from unqualified call sites. Used for API-boundary
    /// classes whose method names deliberately mirror an external
    /// interface (the device-side POSIX wrappers) and would otherwise
    /// swallow every same-named call in the host tree.
    std::set<std::string> opaqueClasses;

    const LexedFile &fileOf(const Function &f) const
    {
        return files[static_cast<std::size_t>(f.fileIndex)];
    }
};

/** One reported defect, with an interprocedural witness chain. */
struct Finding
{
    std::string path;
    int line = 0;
    std::string rule;
    std::string message;
    /// Witness call path / acquisition sites, outermost first. Each
    /// entry is already formatted "path:line: description".
    std::vector<std::string> witness;

    std::string render() const;
};

/** Sort by (path, line, rule) for stable reports. */
void sortFindings(std::vector<Finding> &findings);

} // namespace genesys::analysis

#endif // GENESYS_ANALYSIS_MODEL_HH
