/**
 * @file
 * gstat driver: run the analyzer over a tree, or run the seeded-defect
 * corpus with --self-test.
 *
 * Exit codes: 0 clean, 1 findings (or corpus failures), 2 usage / IO
 * error.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/analyzer.hh"

namespace
{

void
usage()
{
    std::fprintf(
        stderr,
        "usage: gstat [--self-test] [root ...]\n"
        "  Analyzes every .hh/.cc under each root (default: src).\n");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace genesys::analysis;

    std::vector<std::string> roots;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--self-test") == 0)
            return runSelfTest();
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0) {
            usage();
            return 0;
        }
        if (argv[i][0] == '-') {
            usage();
            return 2;
        }
        roots.push_back(argv[i]);
    }
    if (roots.empty())
        roots.push_back("src");

    std::vector<SourceFile> sources;
    for (const std::string &root : roots) {
        std::string err;
        if (!loadTree(root, sources, err)) {
            std::fprintf(stderr, "gstat: %s\n", err.c_str());
            return 2;
        }
    }

    const AnalysisResult result = analyzeSources(sources);
    for (const Finding &f : result.findings)
        std::printf("%s\n", f.render().c_str());
    std::printf("gstat: %zu finding(s), %d suppressed, "
                "%zu functions in %zu files\n",
                result.findings.size(), result.suppressed,
                result.functionCount, result.fileCount);
    return result.findings.empty() ? 0 : 1;
}
