/**
 * @file
 * gstat front end: source loading, pass orchestration, suppressions.
 *
 * A finding can be suppressed with a `gstat: allow(<rule>)` comment on
 * the finding's line or up to three lines above it (so a justification
 * sentence fits in the same comment block). Suppressions are counted
 * and reported — a silent allow is still visible in the summary line.
 */

#ifndef GENESYS_ANALYSIS_ANALYZER_HH
#define GENESYS_ANALYSIS_ANALYZER_HH

#include <string>
#include <vector>

#include "analysis/model.hh"

namespace genesys::analysis
{

struct SourceFile
{
    std::string path;
    std::string text;
};

struct AnalysisResult
{
    std::vector<Finding> findings; ///< post-suppression, sorted
    int suppressed = 0;
    std::size_t functionCount = 0;
    std::size_t fileCount = 0;
};

/** Lex + extract + run all passes + apply allow() suppressions. */
AnalysisResult analyzeSources(const std::vector<SourceFile> &sources);

/** Recursively collect .hh/.cc files under @p root, sorted by path.
 *  Returns false (and sets @p err) when the root is unreadable. */
bool loadTree(const std::string &root, std::vector<SourceFile> &out,
              std::string &err);

/** Seeded-defect corpus; prints per-case results. Returns 0 on pass. */
int runSelfTest();

} // namespace genesys::analysis

#endif // GENESYS_ANALYSIS_ANALYZER_HH
