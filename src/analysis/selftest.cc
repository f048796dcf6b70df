/**
 * @file
 * gstat's seeded-defect corpus (`gstat --self-test`).
 *
 * Every analysis rule is exercised twice: a seeded defect the analyzer
 * must catch (with a witness path for the interprocedural rules) and a
 * nearby negative the analyzer must stay silent on. The corpus is the
 * regression net for the extractor and passes: a lexer desync, a
 * broken deferral edge, or a lost directive body all surface here as
 * a missing or spurious finding.
 */

#include "analysis/analyzer.hh"

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace genesys::analysis
{

namespace
{

struct Expect
{
    const char *rule;
    int count;
};

struct CorpusCase
{
    const char *name;
    std::vector<SourceFile> files;
    std::vector<Expect> expects;
    int suppressed = 0;
};

// Rules whose findings must carry a witness (an interprocedural call
// chain, or a gflow source-to-sink trace).
const std::set<std::string> &
witnessRules()
{
    static const std::set<std::string> rules = {
        "nonblocking-handler-parks", "drain-loop-park", "gpu-taint-mem",
        "gpu-taint-alloc", "gpu-taint-index", "gpu-taint-window"};
    return rules;
}

std::vector<CorpusCase>
buildCorpus()
{
    std::vector<CorpusCase> cases;

    // ---- may-park: handler classification ---------------------------
    cases.push_back(
        {"handler-classification",
         {{"corpus/handlers.cc", R"src(
long
sysRead(WaitQueue &wq)
{
    return wq.wait(); // classified blocking: the park is expected
}

long
sysIoctl(WaitQueue &wq)
{
    return wq.wait(); // seeded defect: direct indefinite park
}

long
parkHelper(WaitQueue &wq)
{
    return wq.wait();
}

long
sysGetpid(WaitQueue &wq)
{
    return parkHelper(wq); // seeded defect: transitive indefinite park
}

long
sysFutex(Semaphore &sem)
{
    sem.acquire(); // bounded park: fine for a non-blocking handler
    return 0;
}

long
sysDup(WorkQueue &q, WaitQueue &wq)
{
    q.enqueue([&wq] { wq.wait(); }); // deferred: runs on a worker
    return 0;
}

inline constexpr SyscallRow kRows[] = {
    impl(0, "read", Filesystem, Producer, sysRead, kTransfer | kMayBlock),
    impl(16, "ioctl", ResourceControl, Producer, sysIoctl, 0),
    impl(39, "getpid", Identity, Producer, sysGetpid, 0),
    impl(202, "futex", ThreadIdentitySync, Producer, sysFutex, 0),
    impl(32, "dup", Filesystem, Producer, sysDup, 0),
};
)src"}},
         {{"nonblocking-handler-parks", 2}}});

    // ---- may-park: arity-refined resolution -------------------------
    // Two definitions share a short name; only the arity-matching one
    // is a may-call target. The two-argument stream read parks, the
    // one-argument device read does not.
    cases.push_back(
        {"arity-refined-resolution",
         {{"corpus/arity.cc", R"src(
struct Stream
{
    WaitQueue wq_;
    long read(void *buf, unsigned long len) { return wq_.wait(); }
};

struct Device
{
    long read(unsigned long bytes) { return 0; }
};

long
sysIoctl(Device &dev)
{
    return dev.read(16); // negative: one arg cannot be Stream::read
}

long
sysDup(Stream &s, void *buf)
{
    return s.read(buf, 16); // seeded defect: two args reach the park
}

inline constexpr SyscallRow kRows[] = {
    impl(16, "ioctl", ResourceControl, Producer, sysIoctl, 0),
    impl(32, "dup", Filesystem, Producer, sysDup, 0),
};
)src"}},
         {{"nonblocking-handler-parks", 1}}});

    // ---- may-park: ring consumer drain loop -------------------------
    cases.push_back(
        {"drain-loop-parks",
         {{"corpus/drain.cc", R"src(
sim::Task<>
InterruptBackend::ringConsumeTask(unsigned shard)
{
    for (;;) {
        cpus.acquireCore(); // bounded: a core always frees
        auto inlinePark = [&] { wq.wait(); };
        inlinePark(); // seeded defect: inline park wedges the shard
    }
}
)src"}},
         {{"drain-loop-park", 1}}});

    cases.push_back(
        {"drain-loop-clean",
         {{"corpus/drain_ok.cc", R"src(
sim::Task<>
InterruptBackend::ringConsumeTask(unsigned shard)
{
    cpus.acquireCore();
    queue.enqueueOn(shard, [&] { wq.wait(); }); // punted, not inline
}
)src"}},
         {}});

    // ---- ordering discipline ----------------------------------------
    cases.push_back(
        {"ordering-discipline",
         {{"corpus/ordering.cc", R"src(
struct Ring
{
    int entries_[16];
    unsigned long loadHeadAcquire() const;
    unsigned long loadTailAcquire() const;
    void storeHeadRelease(unsigned long v);
    void storeTailRelease(unsigned long v);

    void goodPublish(Gsan *g)
    {
        unsigned long t = loadTailAcquire();
        storeTailRelease(t + 1);
        g->ringPublish(1, 1); // negative: store + annotation paired
    }

    void badPublish()
    {
        storeTailRelease(7); // seeded defect: no acquire load first
    }

    void badAnnotation(Gsan *g)
    {
        g->ringPublish(1, 1); // seeded defect: annotation, no store
    }

    int badPeek()
    {
        return entries_[0]; // seeded defect: unannotated read
    }

    int goodPop(Gsan *g)
    {
        g->ringConsume(1);
        int v = entries_[indexOf(loadHeadAcquire())];
        storeHeadRelease(loadHeadAcquire() + 1); // load inside args
        return v;
    }
};
)src"}},
         {{"unannotated-consume", 1},
          {"unpaired-hb-annotation", 1},
          {"unpaired-release", 1}}});

    // ---- token rules (DESIGN.md §11) ---------------------------------
    // The simulated machine runs on one host thread: exclusion is a
    // sim::Semaphore, and any host lock type is a finding, one a line.
    cases.push_back(
        {"host-lock",
         {{"src/osk/x.cc", R"src(
struct Shard
{
    std::mutex mu_;       // seeded defect
    sim::Semaphore sem_{1};
    WaitQueue wq_;

    void direct()
    {
        std::lock_guard<std::mutex> g(mu_); // seeded defect: once a line
        wq_.wait();
    }

    sim::Task<>
    modeled()
    {
        co_await sem_.acquire(); // negative: the modeled lock
        sem_.release();
    }
};
)src"}},
         {{"host-lock", 2}}});

    cases.push_back(
        {"host-lock-spellings",
         {{"src/core/x.hh", R"src(
// a std::mutex named in a comment is not code
const char *kWhy = "std::lock_guard needs a second host thread";
std::shared_mutex tableMu; // seeded defect
void
both(std::recursive_mutex &a, Other &b) // seeded defect
{
    std::scoped_lock g(a, b);                   // seeded defect
    std::unique_lock<Other> u(b, std::defer_lock); // seeded defect
    b.lock();                                   // negative: not a lock type
}
#define GUARD(m) std::lock_guard<Other> guard_##m(m) // seeded defect
)src"}},
         {{"host-lock", 5}}});

    // Allowlists match by path suffix: "src/core/client.cc" is the
    // doorbell's own file under any root.
    cases.push_back(
        {"doorbell-callers",
         {{"src/osk/workqueue.cc", R"src(
void
kick(GpuDevice &gpu)
{
    gpu.sendInterrupt(3); // seeded defect: host side rings the doorbell
}
)src"},
          {"src/core/client.cc", R"src(
void
GpuSyscalls::ring()
{
    gpu_.sendInterrupt(3); // negative: the client issue path
}
)src"}},
         {{"doorbell-callers", 1}}});

    cases.push_back(
        {"unordered-iteration",
         {{"src/core/x.cc", R"src(
std::unordered_map<int, int> seen_;
std::vector<int> v_;
void walk() { for (auto &kv : seen_) { use(kv); } } // seeded defect
bool has() { return seen_.contains(3); }            // negative: lookup
void each() { for (int x : v_) use(x); }            // negative: vector
)src"},
          {"src/core/pair.hh", R"src(
struct Pair
{
    std::unordered_set<int> live_;
};
)src"},
          {"src/core/pair.cc", R"src(
auto first(Pair &p) { return p.live_.begin(); } // seeded defect: header's
)src"},
          {"src/core/other.cc", R"src(
std::vector<int> live_;
auto first() { return live_.begin(); } // negative: not paired with pair.hh
)src"}},
         {{"unordered-iteration", 2}}});

    cases.push_back(
        {"wall-clock",
         {{"src/sim/x.cc", R"src(
auto a = std::chrono::steady_clock::now(); // seeded defect: once a line
auto b = time(nullptr);                    // seeded defect
auto c = resumeTime(3);                    // negative: modeled accessor
)src"}},
         {{"wall-clock", 2}}});

    cases.push_back(
        {"raw-rand",
         {{"src/osk/x.cc", R"src(
int r = rand();       // seeded defect
std::random_device rd; // seeded defect
support::Xoshiro rng(seed);
auto n = rng.next();   // negative: the seeded PRNG
)src"}},
         {{"raw-rand", 2}}});

    // Directive bodies are lexed, so a macro cannot hide a banned token;
    // an include guard and an include of <random> stay clean.
    cases.push_back(
        {"macro-body",
         {{"src/osk/x.hh", R"src(
#ifndef GENESYS_OSK_X_HH
#define GENESYS_OSK_X_HH
#include <random>
#define ROLL() rand() // seeded defect
#define ROLL_LONG() \
    rand() // seeded defect: on the continuation line
int r = ROLL() + ROLL_LONG();
#endif // GENESYS_OSK_X_HH
)src"}},
         {{"raw-rand", 2}}});

    cases.push_back(
        {"coawait-owning-lambda",
         {{"src/core/x.cc", R"src(
sim::Task<>
owning()
{
    co_await g([shared](int x) { shared->v = x; }); // seeded defect
}

sim::Task<>
initCapture()
{
    co_await g([p = std::move(q)](int x) { p->v = x; }); // seeded defect
}

sim::Task<>
immediate()
{
    co_await [shared]() -> sim::Task<> { use(shared); }(); // seeded defect
}

sim::Task<>
byReference()
{
    co_await g([&](int x) { use(x); }); // negative
}

sim::Task<>
hoisted()
{
    std::function<void(int)> cb = [shared](int x) { shared->v = x; };
    co_await g(std::move(cb)); // negative: a named local
}

sim::Task<>
subscript()
{
    co_await g(table[idx](3)); // negative: not a lambda
}
)src"}},
         {{"coawait-owning-lambda", 3}}});

    cases.push_back(
        {"segment-loan",
         {{"src/core/x.cc", R"src(
// drained via readSegments(out, 8, false)
sim::Task<>
drain(osk::TcpSocket *s, OpenFile *file)
{
    std::vector<osk::NetSeg> segs(8);
    co_await s->readSegments(segs.data(), 8, false); // seeded defect
    file->loanedSegs = std::move(segs);
}
)src"},
          {"src/osk/syscalls.cc", R"src(
sim::Task<>
drain(osk::TcpSocket *s, OpenFile *file)
{
    std::vector<osk::NetSeg> segs(8);
    co_await s->readSegments(segs.data(), 8, true); // negative: audited path
    file->loanedSegs = std::move(segs);
}
)src"},
          {"src/workloads/gkv.cc", R"src(
sim::Task<>
drain(osk::TcpSocket *s, OpenFile *file)
{
    std::vector<osk::NetSeg> segs(8);
    co_await s->readSegments(segs.data(), 8, false); // negative: audited path
    file->loanedSegs = std::move(segs);
}
)src"}},
         {{"segment-loan", 1}}});

    // ---- suppressions -----------------------------------------------
    cases.push_back(
        {"suppressions",
         {{"corpus/suppress.cc", R"src(
struct Near
{
    void storeTailRelease(unsigned long v);
    // Intentional: exercises the allow() window.
    // gstat: allow(unpaired-release)
    void resetTail() { storeTailRelease(0); }
};

struct Far
{
    void storeTailRelease(unsigned long v);
    // gstat: allow(unpaired-release)
    //
    //
    //
    void resetTail() { storeTailRelease(0); } // allow is out of range
};

int r = rand(); // gstat: allow(raw-rand)
std::mutex m; // gstat: allow(host-lock)
sim::Task<>
drain(osk::TcpSocket *s, OpenFile *file)
{
    std::vector<osk::NetSeg> segs(8);
    co_await s->readSegments(segs.data(), 8, false); // gstat: allow(segment-loan)
    file->loanedSegs = std::move(segs);
}
)src"}},
         {{"unpaired-release", 1}},
         4});

    // ---- raw string literals must not desync the lexer --------------
    cases.push_back(
        {"raw-string-literals",
         {{"corpus/rawstring.cc", R"src(
const char *kScript = R"(storeTailRelease(99); " stray quote ' )";
// calls sendInterrupt() and rand() at time(nullptr)
const char *kNames[] = {"gettimeofday", "clock_gettime"};
const char *kRaw = R"(calls rand() at time(nullptr))";
const char *kQuoted = R"(a "quoted" word)"; int r1 = rand(); // seeded
const char *kDelim = R"x(ends with )" but not here)x";
int r2 = rand(); // seeded defect: the custom delimiter closed
auto s = u8R"(std::mutex "fake")"; auto t = LR"(srand(7))";
void tag() { LOG_ERROR"tag"; int r3 = rand(); } // seeded: not raw

struct Q
{
    void storeTailRelease(unsigned long v);
    void bad()
    {
        storeTailRelease(1); // seeded defect: proves lexing stayed
                             // in sync past the raw string
    }
};
)src"}},
         {{"unpaired-release", 1}, {"raw-rand", 3}}});

    // ---- gflow: taint into memory ops -------------------------------
    cases.push_back(
        {"flow-taint-mem",
         {{"corpus/flow_mem.cc", R"src(
long
unboundedCopy(const SyscallArgs &args, char *dst, const char *src)
{
    const unsigned long n = args.a[2];
    std::memcpy(dst, src, n); // seeded defect: GPU-controlled size
    return 0;
}

long
boundedCopy(const SyscallArgs &args, char *dst, const char *src)
{
    const unsigned long n = args.a[2];
    if (n > 4096)
        return -1;
    std::memcpy(dst, src, n); // negative: dominated by the bound
    return 0;
}

long
clampedCopy(const SyscallArgs &args, char *dst, const char *src,
            unsigned long cap)
{
    const unsigned long n = std::min(args.a[2], cap);
    std::memcpy(dst, src, n); // negative: min() launders the size
    return 0;
}
)src"}},
         {{"gpu-taint-mem", 1}}});

    // ---- gflow: taint into allocation sizes -------------------------
    cases.push_back(
        {"flow-taint-alloc",
         {{"corpus/flow_alloc.cc", R"src(
long
unboundedVec(const SyscallArgs &args)
{
    const int cnt = args.as<int>(2);
    if (cnt < 0)
        return -22; // lower bound only: proves nothing about size
    std::vector<NetSeg> segs(static_cast<unsigned long>(cnt));
    return 0; // seeded defect above: GPU-controlled element count
}

long
boundedVec(const SyscallArgs &args)
{
    const int cnt = args.as<int>(2);
    if (cnt < 0 || cnt > 64)
        return -22;
    std::vector<NetSeg> segs(static_cast<unsigned long>(cnt));
    return 0; // negative: both bounds dominate the allocation
}

long
unboundedResize(const SyscallArgs &args, std::vector<char> &buf)
{
    buf.resize(args.a[3]); // seeded defect: direct source into resize
    return 0;
}
)src"}},
         {{"gpu-taint-alloc", 2}}});

    // ---- gflow: taint into container indexing -----------------------
    cases.push_back(
        {"flow-taint-index",
         {{"corpus/flow_index.cc", R"src(
long
rawIndex(const SyscallArgs &args, FdTable &table)
{
    const unsigned idx = args.as<unsigned>(0);
    return table.rows[idx]; // seeded defect: unchecked GPU index
}

long
assertedIndex(const SyscallArgs &args, FdTable &table)
{
    const unsigned idx = args.as<unsigned>(0);
    GENESYS_ASSERT(idx < table.count, "fd index in range");
    return table.rows[idx]; // negative: asserted bound dominates
}

long
poppedIndex(ServiceCore &core, Shard &shard, SyscallSlot *slots)
{
    const unsigned item = core.tryPopRingEntry(shard);
    return slots[item].state; // seeded defect: ring payload indexes
}
)src"}},
         {{"gpu-taint-index", 2}}});

    // ---- gflow: GPU-window walks, incl. through a call --------------
    cases.push_back(
        {"flow-taint-window",
         {{"corpus/flow_window.cc", R"src(
long
walkWindow(const SyscallArgs &args)
{
    const IoVec *iov = args.ptr<IoVec>(1);
    const int cnt = args.as<int>(2);
    if (cnt < 0)
        return -22;
    long total = 0;
    for (int i = 0; i < cnt; ++i)
        total += iov[i].len; // seeded defect: GPU-bounded walk
    return total;
}

long
sumSpans(const IoVec *iov, int iov_cnt)
{
    long cap = 0;
    for (int i = 0; i < iov_cnt; ++i)
        cap += iov[i].len;
    return cap;
}

long
forwardedCount(const SyscallArgs &args)
{
    const IoVec *iov = args.ptr<IoVec>(1);
    const int cnt = args.as<int>(2);
    return sumSpans(iov, cnt); // seeded defect: crosses the call
}

long
clampedForward(const SyscallArgs &args)
{
    const IoVec *iov = args.ptr<IoVec>(1);
    const int cnt = args.as<int>(2);
    if (cnt < 0 || cnt > 1024)
        return -22;
    return sumSpans(iov, cnt); // negative: bounded before the call
}
)src"}},
         {{"gpu-taint-window", 2}}});

    return cases;
}

bool
runCase(const CorpusCase &c)
{
    const AnalysisResult result = analyzeSources(c.files);
    std::map<std::string, int> got;
    bool ok = true;
    for (const Finding &f : result.findings) {
        ++got[f.rule];
        if (witnessRules().count(f.rule) != 0 && f.witness.empty()) {
            std::printf("FAIL %s: finding without witness: %s\n",
                        c.name, f.render().c_str());
            ok = false;
        }
    }
    std::map<std::string, int> want;
    for (const Expect &e : c.expects)
        want[e.rule] = e.count;
    if (got != want) {
        std::printf("FAIL %s: expected vs got findings differ\n",
                    c.name);
        for (const auto &w : want)
            std::printf("  want %-28s x%d\n", w.first.c_str(),
                        w.second);
        for (const Finding &f : result.findings)
            std::printf("  got  %s\n", f.render().c_str());
        ok = false;
    }
    if (result.suppressed != c.suppressed) {
        std::printf("FAIL %s: expected %d suppressed, got %d\n",
                    c.name, c.suppressed, result.suppressed);
        ok = false;
    }
    if (ok)
        std::printf("PASS %s\n", c.name);
    return ok;
}

} // namespace

int
runSelfTest()
{
    int failures = 0;
    int defects = 0;
    const std::vector<CorpusCase> corpus = buildCorpus();
    for (const CorpusCase &c : corpus) {
        if (!runCase(c))
            ++failures;
        for (const Expect &e : c.expects)
            defects += e.count;
    }
    std::printf("gstat self-test: %zu cases, %d seeded defects, "
                "%d failure(s)\n",
                corpus.size(), defects, failures);
    return failures == 0 ? 0 : 1;
}

} // namespace genesys::analysis
