/**
 * @file
 * Unit tests for the gstat static analyzer (src/analysis/).
 *
 * The seeded-defect corpus (`gstat --self-test`, also run here) is the
 * broad regression net; these tests pin the analyzer's contract at the
 * API level: witness chains, the suppression window, and the
 * resolution-hygiene mechanisms (noreturn terminators, explicit
 * qualifiers, opaque API-boundary classes, arity-refined resolution)
 * that keep the real tree free of false park chains, and the real tree
 * itself: clean, and caught when mutated (a doorbell, a host lock, a
 * raw rand()), under a relative and an absolute root.
 */

#include "analysis/analyzer.hh"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace
{

using genesys::analysis::AnalysisResult;
using genesys::analysis::Finding;
using genesys::analysis::SourceFile;
using genesys::analysis::analyzeSources;
using genesys::analysis::loadTree;
using genesys::analysis::runSelfTest;

AnalysisResult
analyze(const std::string &text, const std::string &path = "t/x.cc")
{
    return analyzeSources({{path, text}});
}

std::vector<std::string>
rulesOf(const AnalysisResult &r)
{
    std::vector<std::string> rules;
    for (const Finding &f : r.findings)
        rules.push_back(f.rule);
    return rules;
}

// A syscall table where `ioctl` is classified non-blocking.
const char *kTablePrologue = R"src(
inline constexpr SyscallRow kRows[] = {
    impl(16, "ioctl", ResourceControl, Producer, sysIoctl, 0),
};
)src";

TEST(Gstat, CleanSnippetHasNoFindings)
{
    const AnalysisResult r = analyze(R"src(
int add(int a, int b) { return a + b; }
int twice(int a) { return add(a, a); }
)src");
    EXPECT_TRUE(r.findings.empty());
    EXPECT_EQ(r.suppressed, 0);
    EXPECT_EQ(r.functionCount, 2u);
}

TEST(Gstat, TransitiveParkCarriesWitnessChain)
{
    const AnalysisResult r = analyze(std::string(kTablePrologue) + R"src(
long helper(WaitQueue &wq) { return wq.wait(); }
long sysIoctl(WaitQueue &wq) { return helper(wq); }
)src");
    ASSERT_EQ(rulesOf(r),
              std::vector<std::string>{"nonblocking-handler-parks"});
    const Finding &f = r.findings[0];
    // The witness walks handler -> helper -> the parking call site.
    ASSERT_GE(f.witness.size(), 2u);
    EXPECT_NE(f.witness[0].find("helper"), std::string::npos);
    EXPECT_NE(f.witness.back().find("wait"), std::string::npos);
    EXPECT_NE(f.witness.back().find("t/x.cc:"), std::string::npos);
}

TEST(Gstat, SuppressionWindowIsThreeLines)
{
    // allow() two lines above the finding line: suppressed.
    const AnalysisResult near = analyze(std::string(kTablePrologue) +
                                        R"src(
// gstat: allow(nonblocking-handler-parks)
long
sysIoctl(WaitQueue &wq) { return wq.wait(); }
)src");
    EXPECT_TRUE(near.findings.empty());
    EXPECT_EQ(near.suppressed, 1);

    // allow() five lines above: out of the window, finding survives.
    const AnalysisResult far = analyze(std::string(kTablePrologue) +
                                       R"src(
// gstat: allow(nonblocking-handler-parks)
//
//
//
long
sysIoctl(WaitQueue &wq) { return wq.wait(); }
)src");
    ASSERT_EQ(rulesOf(far),
              std::vector<std::string>{"nonblocking-handler-parks"});
    EXPECT_EQ(far.suppressed, 0);
}

TEST(Gstat, OpaqueClassBlocksUnqualifiedResolution)
{
    const char *wrapper = R"src(
class Wrapper
{
  public:
    long request(WaitQueue &wq) { return wq.wait(); }
};
long sysIoctl(int fd) { return request(fd); }
)src";
    // Without the annotation, `request(fd)` resolves into the class
    // and the handler appears to park.
    const AnalysisResult plain =
        analyze(std::string(kTablePrologue) + wrapper);
    EXPECT_EQ(rulesOf(plain),
              std::vector<std::string>{"nonblocking-handler-parks"});

    const AnalysisResult opaque =
        analyze(std::string(kTablePrologue) +
                "// gstat: opaque(Wrapper)\n" + wrapper);
    EXPECT_TRUE(opaque.findings.empty());
}

TEST(Gstat, QualifiedCallDoesNotResolveByShortName)
{
    // `ext::request` must not resolve to the in-tree parking
    // `Wrapper::request` — the qualifier does not match.
    const AnalysisResult r = analyze(std::string(kTablePrologue) + R"src(
class Wrapper
{
  public:
    long request(WaitQueue &wq) { return wq.wait(); }
};
long sysIoctl(int fd) { return ext::request(fd); }
)src");
    EXPECT_TRUE(r.findings.empty());
}

TEST(Gstat, NoreturnTerminatorCutsParkPropagation)
{
    // panic() happens to reach a park (its I/O path), but a call TO
    // panic never returns, so the handler cannot park through it.
    const AnalysisResult r = analyze(std::string(kTablePrologue) + R"src(
void panic(WaitQueue &wq) { wq.wait(); }
long sysIoctl(WaitQueue &wq) { panic(wq); return 0; }
)src");
    EXPECT_TRUE(r.findings.empty());
}

TEST(Gstat, ArityRefinedResolution)
{
    // A one-argument call must not resolve to the parking
    // two-argument overload just because the short names collide.
    const AnalysisResult r = analyze(std::string(kTablePrologue) + R"src(
struct Stream
{
    WaitQueue wq_;
    long read(void *buf, unsigned long len) { return wq_.wait(); }
};
struct Device
{
    long read(unsigned long bytes) { return 0; }
};
long sysIoctl(Device &dev) { return dev.read(16); }
)src");
    EXPECT_TRUE(r.findings.empty());
}

TEST(Gstat, UnpairedReleaseStore)
{
    const AnalysisResult r = analyze(R"src(
void badPublish(SyscallRing &r) { r.storeTailRelease(7); }
)src");
    EXPECT_EQ(rulesOf(r), std::vector<std::string>{"unpaired-release"});
}

TEST(Gstat, DeterministicAcrossRuns)
{
    const std::string text = std::string(kTablePrologue) +
        "long sysIoctl(WaitQueue &wq) { return wq.wait(); }\n";
    const AnalysisResult a = analyze(text);
    const AnalysisResult b = analyze(text);
    ASSERT_EQ(a.findings.size(), b.findings.size());
    for (std::size_t i = 0; i < a.findings.size(); ++i)
        EXPECT_EQ(a.findings[i].render(), b.findings[i].render());
}

TEST(Gstat, LoadTreeRejectsMissingRoot)
{
    std::vector<SourceFile> files;
    std::string err;
    EXPECT_FALSE(loadTree("definitely/not/a/dir", files, err));
    EXPECT_FALSE(err.empty());
}

// The real tree, analyzed in memory under the relative root CI passes
// ("src") and under the absolute root ctest passes: clean as it stands
// (no suppression), and a doorbell rung from the workqueue,
// a host lock and a raw rand() each give exactly one finding.
TEST(Gstat, TreeIsCleanAndCatchesMutationsUnderAnyRoot)
{
    const std::string absRoot = GENESYS_SOURCE_DIR;
    std::vector<SourceFile> absTree;
    std::string err;
    ASSERT_TRUE(loadTree(absRoot, absTree, err)) << err;
    std::vector<SourceFile> relTree = absTree;
    for (SourceFile &f : relTree)
        f.path = "src" + f.path.substr(absRoot.size());

    for (std::vector<SourceFile> tree : {relTree, absTree}) {
        SCOPED_TRACE(tree.front().path);
        const AnalysisResult clean = analyzeSources(tree);
        for (const Finding &f : clean.findings)
            ADD_FAILURE() << f.render();
        EXPECT_EQ(clean.suppressed, 0);

        const auto wq = std::find_if(
            tree.begin(), tree.end(), [](const SourceFile &f) {
                return f.path.ends_with("/osk/workqueue.cc");
            });
        ASSERT_NE(wq, tree.end());
        wq->text += "\nvoid\nmutant(GpuDevice &gpu)\n{\n"
                    "    gpu.sendInterrupt(0);\n"
                    "    std::lock_guard<std::mutex> g(mu_);\n"
                    "    int r = rand();\n}\n";
        const AnalysisResult mutated = analyzeSources(tree);
        EXPECT_EQ(rulesOf(mutated),
                  (std::vector<std::string>{"doorbell-callers",
                                            "host-lock", "raw-rand"}));
        for (const Finding &f : mutated.findings)
            EXPECT_EQ(f.path, wq->path);
    }
}

TEST(Gstat, SeededDefectCorpusPasses)
{
    EXPECT_EQ(runSelfTest(), 0);
}

// ---- gflow: path-sensitive GPU taint (DESIGN.md §16) -----------------

TEST(Gflow, UnboundedGpuLengthReachesMemcpy)
{
    const AnalysisResult r = analyze(R"src(
void copyOut(const SyscallArgs &args, char *dst, const char *src) {
    unsigned long len = args.a[2];
    std::memcpy(dst, src, len);
}
)src");
    EXPECT_EQ(rulesOf(r), std::vector<std::string>{"gpu-taint-mem"});
}

TEST(Gflow, ExplicitTemplateMinSanitizesCopySize)
{
    // `std::min<unsigned long>(...)` carries an explicit template
    // argument list; the extractor must still see the call so the
    // min/clamp sanitizer applies.
    const AnalysisResult r = analyze(R"src(
void copyOut(const SyscallArgs &args, char *dst, const Buf &b) {
    unsigned long len = args.a[2];
    const unsigned long n = std::min<unsigned long>(len, b.size);
    std::memcpy(dst, b.data, n);
}
)src");
    EXPECT_TRUE(r.findings.empty());
}

TEST(Gflow, ShortCircuitGuardInOneConditionIsClean)
{
    // `fd < 0 || fd >= n || slots[fd] == 0`: each operand is scanned
    // under the accumulated edge facts of the operands to its left.
    const AnalysisResult r = analyze(R"src(
int get(const SyscallArgs &args, Table &t) {
    int fd = args.as<int>(0);
    if (fd < 0 || fd >= t.n || t.slots[fd] == 0)
        return -1;
    return t.slots[fd];
}
)src");
    EXPECT_TRUE(r.findings.empty());
}

TEST(Gflow, CallReturnLaundersArgumentTaint)
{
    // `m.find(addr)` returns the callee's output, not raw GPU data;
    // the GENESYS_ASSERT bound then sanitizes the derived index.
    const AnalysisResult r = analyze(R"src(
void drop(const SyscallArgs &args, Mm &m) {
    unsigned long addr = args.a[0];
    Vma *vma = m.find(addr);
    unsigned long first = addr / 4096;
    GENESYS_ASSERT(first < vma->pages, "bounds");
    vma->state[first] = 1;
}
)src");
    EXPECT_TRUE(r.findings.empty());
}

TEST(Gflow, AssociativeContainerSubscriptIsClean)
{
    // A base used with keyed-container vocabulary (`contains`)
    // subscripts by key, not position.
    const AnalysisResult r = analyze(R"src(
void track(const SyscallArgs &args, Reg &r) {
    int fd = args.as<int>(0);
    if (r.interests.contains(fd))
        return;
    r.interests[fd] = 1;
}
)src");
    EXPECT_TRUE(r.findings.empty());
}

TEST(Gflow, InterproceduralTaintChainNamesCallee)
{
    const AnalysisResult r = analyze(R"src(
void sink(char *dst, const char *src, unsigned long n) {
    std::memcpy(dst, src, n);
}
long entry(const SyscallArgs &args, char *d, const char *s) {
    sink(d, s, args.a[2]);
    return 0;
}
)src");
    ASSERT_EQ(rulesOf(r), std::vector<std::string>{"gpu-taint-mem"});
    bool namesCallee = false;
    for (const std::string &step : r.findings[0].witness)
        if (step.find("sink") != std::string::npos)
            namesCallee = true;
    EXPECT_TRUE(namesCallee);
}

} // namespace
