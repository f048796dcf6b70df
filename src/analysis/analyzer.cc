#include "analysis/analyzer.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "analysis/extract.hh"
#include "analysis/passes.hh"

namespace genesys::analysis
{

namespace
{

/// Does @p comment carry `gstat: allow(<rule>)` (possibly among a
/// comma-separated list)?
bool
commentAllows(const std::string &comment, const std::string &rule)
{
    std::size_t pos = 0;
    while ((pos = comment.find("gstat:", pos)) != std::string::npos) {
        std::size_t p = pos + 6;
        while (p < comment.size() && comment[p] == ' ')
            ++p;
        if (comment.compare(p, 6, "allow(") != 0) {
            pos = p;
            continue;
        }
        p += 6;
        const std::size_t close = comment.find(')', p);
        if (close == std::string::npos)
            return false;
        std::string list = comment.substr(p, close - p);
        std::stringstream ss(list);
        std::string item;
        while (std::getline(ss, item, ',')) {
            item.erase(std::remove(item.begin(), item.end(), ' '),
                       item.end());
            if (item == rule)
                return true;
        }
        pos = close;
    }
    return false;
}

bool
suppressed(const LexedFile &file, const Finding &f)
{
    // The allow() may sit on the finding's line or up to three lines
    // above, so a justification comment block covers it.
    for (int line = f.line; line >= f.line - 3 && line > 0; --line) {
        auto it = file.comments.find(line);
        if (it != file.comments.end() &&
            commentAllows(it->second, f.rule))
            return true;
    }
    return false;
}

} // namespace

namespace
{

/// Collect `gstat: opaque(Class)` boundary annotations from comments.
void
collectOpaqueClasses(Program &prog)
{
    for (const LexedFile &file : prog.files) {
        for (const auto &entry : file.comments) {
            const std::string &c = entry.second;
            std::size_t pos = 0;
            while ((pos = c.find("gstat:", pos)) !=
                   std::string::npos) {
                std::size_t p = pos + 6;
                while (p < c.size() && c[p] == ' ')
                    ++p;
                if (c.compare(p, 7, "opaque(") != 0) {
                    pos = p;
                    continue;
                }
                p += 7;
                const std::size_t close = c.find(')', p);
                if (close == std::string::npos)
                    break;
                std::string name = c.substr(p, close - p);
                name.erase(
                    std::remove(name.begin(), name.end(), ' '),
                    name.end());
                if (!name.empty())
                    prog.opaqueClasses.insert(std::move(name));
                pos = close;
            }
        }
    }
}

} // namespace

AnalysisResult
analyzeSources(const std::vector<SourceFile> &sources)
{
    Program prog;
    prog.files.reserve(sources.size());
    for (const SourceFile &s : sources)
        prog.files.push_back(lex(s.path, s.text));
    for (std::size_t i = 0; i < prog.files.size(); ++i)
        extractFile(prog, static_cast<int>(i));
    collectOpaqueClasses(prog);
    indexFunctions(prog);

    std::vector<Finding> all = runAllPasses(prog);

    std::map<std::string, const LexedFile *> byPath;
    for (const LexedFile &f : prog.files)
        byPath[f.path] = &f;

    AnalysisResult result;
    result.fileCount = prog.files.size();
    result.functionCount = prog.functions.size();
    for (Finding &f : all) {
        auto it = byPath.find(f.path);
        if (it != byPath.end() && suppressed(*it->second, f)) {
            ++result.suppressed;
            continue;
        }
        result.findings.push_back(std::move(f));
    }
    return result;
}

bool
loadTree(const std::string &root, std::vector<SourceFile> &out,
         std::string &err)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    if (!fs::is_directory(root, ec)) {
        err = root + " is not a directory";
        return false;
    }
    std::vector<std::string> paths;
    for (fs::recursive_directory_iterator it(root, ec), end;
         it != end; it.increment(ec)) {
        if (ec) {
            err = "cannot walk " + root + ": " + ec.message();
            return false;
        }
        if (!it->is_regular_file())
            continue;
        const std::string p = it->path().generic_string();
        if (p.size() > 3 && (p.compare(p.size() - 3, 3, ".hh") == 0 ||
                             p.compare(p.size() - 3, 3, ".cc") == 0))
            paths.push_back(p);
    }
    std::sort(paths.begin(), paths.end());
    for (const std::string &p : paths) {
        std::ifstream in(p, std::ios::binary);
        if (!in) {
            err = "cannot read " + p;
            return false;
        }
        std::ostringstream text;
        text << in.rdbuf();
        out.push_back({p, text.str()});
    }
    return true;
}

} // namespace genesys::analysis
