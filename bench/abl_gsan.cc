/**
 * @file
 * Ablation: cost and cleanliness of the gsan happens-before sanitizer.
 *
 * Part 1 runs every end-to-end workload kSamples times with the
 * sanitizer off and kSamples times with it on, alternating which mode
 * runs first, and reports the host wall-clock overhead of the
 * always-compiled instrumentation. The overhead gate is on the median
 * of the per-sample aggregate overheads (one sample is too noisy to
 * gate on), and the spread is printed. Because gsan only observes
 * (vector-clock joins on the side, no simulated latency), every run
 * must be report-free and the simulated end time must be
 * bit-identical between the off and on runs of each sample; those
 * stay hard per-run gates.
 *
 * Part 2 sweeps the paper's invocation design space (granularity ×
 * ordering × blocking × wait mode, the fig 7/8 axes) with the
 * sanitizer enabled. Every clean run must produce zero reports: a
 * nonzero count here means either a real protocol bug or a sanitizer
 * false positive, and the binary exits nonzero so CI fails.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <vector>

#include "bench/common.hh"
#include "workloads/fbdisplay.hh"
#include "workloads/grep.hh"
#include "workloads/memcached.hh"
#include "workloads/miniamr.hh"
#include "workloads/signal_search.hh"
#include "workloads/wordcount.hh"

using namespace genesys;
using namespace genesys::bench;

namespace
{

constexpr std::uint64_t kSeed = 42;
/// Wall-clock samples per workload and mode.
constexpr int kSamples = 5;

struct Meas
{
    bool correct = false;
    Tick simElapsed = 0;
    double wallMs = 0.0;
    std::uint64_t reports = 0;
};

/** Run @p workload on a fresh system, timing the host wall clock. */
template <typename Fn>
Meas
measure(bool sanitize, Fn &&workload)
{
    core::System sys = freshSystem(kSeed);
    sys.gsan().setEnabled(sanitize);
    const auto t0 = std::chrono::steady_clock::now();
    Meas m = workload(sys);
    const auto t1 = std::chrono::steady_clock::now();
    m.wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    m.reports = sys.gsan().reportCount();
    if (m.reports > 0)
        std::printf("%s", sys.gsan().renderReports().c_str());
    return m;
}

Meas
grepWg(core::System &sys)
{
    workloads::GrepCorpusConfig cc;
    cc.numFiles = 64;
    cc.fileBytes = 8 * 1024;
    const auto corpus = workloads::buildGrepCorpus(sys, cc);
    const auto r = workloads::runGrep(sys, corpus,
                                      workloads::GrepMode::GpuWorkGroup);
    return {r.correct, sys.sim().now(), 0.0, 0};
}

Meas
wordcountGenesys(core::System &sys)
{
    workloads::WordcountCorpusConfig cc;
    cc.numFiles = 16;
    cc.fileBytes = 64 * 1024;
    const auto corpus = workloads::buildWordcountCorpus(sys, cc);
    const auto r = workloads::runWordcount(
        sys, corpus, workloads::WordcountMode::Genesys);
    return {r.correct, sys.sim().now(), 0.0, 0};
}

Meas
memcachedGpu(core::System &sys)
{
    workloads::MemcachedConfig cfg;
    cfg.elemsPerBucket = 64;
    cfg.numGets = 128;
    cfg.useGpu = true;
    const auto r = workloads::runMemcached(sys, cfg);
    return {r.correct, sys.sim().now(), 0.0, 0};
}

Meas
miniamrMadvise(core::System &sys)
{
    workloads::MiniAmrConfig cfg;
    cfg.datasetBytes = 48ull * 1024 * 1024;
    cfg.blockBytes = 4ull * 1024 * 1024;
    cfg.timesteps = 12;
    cfg.rssWatermarkBytes = 36ull * 1024 * 1024;
    const auto r = workloads::runMiniAmr(sys, cfg);
    return {r.completed && !r.gpuTimeout, sys.sim().now(), 0.0, 0};
}

Meas
signalSearch(core::System &sys)
{
    workloads::SignalSearchConfig cfg;
    cfg.numBlocks = 96;
    cfg.blockBytes = 16 * 1024;
    cfg.lookupQueriesPerBlock = 20'000;
    cfg.useSignals = true;
    const auto r = workloads::runSignalSearch(sys, cfg);
    return {r.correct, sys.sim().now(), 0.0, 0};
}

Meas
fbdisplay(core::System &sys)
{
    workloads::FbDisplayConfig cfg;
    cfg.width = 320;
    cfg.height = 240;
    const auto r = workloads::runFbDisplay(sys, cfg);
    return {r.ok && r.pixelErrors == 0, sys.sim().now(), 0.0, 0};
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
overheadPct(double off_ms, double on_ms)
{
    return off_ms > 0.0 ? (on_ms / off_ms - 1.0) * 100.0 : 0.0;
}

core::Invocation
inv(core::Granularity g, core::Ordering o, core::Blocking b,
    core::WaitMode w)
{
    core::Invocation i;
    i.granularity = g;
    i.ordering = o;
    i.blocking = b;
    i.waitMode = w;
    return i;
}

/** One design-space point: a small syscall-heavy kernel, gsan on. */
std::uint64_t
matrixPointReports(core::Invocation varied)
{
    core::System sys = freshSystem(kSeed);
    sys.gsan().setEnabled(true);
    sys.kernel().vfs().createFile("/out");
    gpu::KernelLaunch k;
    k.workItems = 4 * 128;
    k.wgSize = 128;
    k.program = [&sys,
                 varied](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        const auto fixed =
            inv(core::Granularity::WorkGroup, core::Ordering::Strong,
                core::Blocking::Blocking, core::WaitMode::Polling);
        const auto fd = co_await sys.gpuSys().open(ctx, fixed, "/out",
                                                   osk::O_WRONLY);
        for (int round = 0; round < 4; ++round) {
            co_await sys.gpuSys().pwrite(ctx, varied,
                                         static_cast<int>(fd), "x", 1,
                                         ctx.workgroupId());
        }
        co_await sys.gpuSys().close(ctx, fixed,
                                    static_cast<int>(fd));
    };
    sys.launchGpuAndDrain(std::move(k));
    sys.run();
    if (sys.gsan().reportCount() > 0)
        std::printf("%s", sys.gsan().renderReports().c_str());
    return sys.gsan().reportCount();
}

std::uint64_t
workItemPointReports()
{
    core::System sys = freshSystem(kSeed);
    sys.gsan().setEnabled(true);
    sys.kernel().vfs().createFile("/out");
    gpu::KernelLaunch k;
    k.workItems = 2 * 64;
    k.wgSize = 64;
    k.program = [&sys](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        const auto fixed =
            inv(core::Granularity::WorkGroup, core::Ordering::Strong,
                core::Blocking::Blocking, core::WaitMode::Polling);
        const auto fd = co_await sys.gpuSys().open(ctx, fixed, "/out",
                                                   osk::O_WRONLY);
        co_await sys.gpuSys().invokeWorkItems(
            ctx,
            inv(core::Granularity::WorkItem, core::Ordering::Strong,
                core::Blocking::Blocking, core::WaitMode::Polling),
            osk::sysno::pwrite64,
            [&](std::uint32_t lane) {
                return std::optional<osk::SyscallArgs>(osk::makeArgs(
                    static_cast<int>(fd), "x", 1, lane));
            });
        co_await sys.gpuSys().close(ctx, fixed,
                                    static_cast<int>(fd));
    };
    sys.launchGpuAndDrain(std::move(k));
    sys.run();
    if (sys.gsan().reportCount() > 0)
        std::printf("%s", sys.gsan().renderReports().c_str());
    return sys.gsan().reportCount();
}

std::uint64_t
kernelPointReports()
{
    core::System sys = freshSystem(kSeed);
    sys.gsan().setEnabled(true);
    gpu::KernelLaunch k;
    k.workItems = 4 * 128;
    k.wgSize = 128;
    k.program = [&sys](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        osk::RUsage ru{};
        co_await sys.gpuSys().getrusage(
            ctx,
            inv(core::Granularity::Kernel, core::Ordering::Relaxed,
                core::Blocking::Blocking, core::WaitMode::Polling),
            &ru);
    };
    sys.launchGpuAndDrain(std::move(k));
    sys.run();
    if (sys.gsan().reportCount() > 0)
        std::printf("%s", sys.gsan().renderReports().c_str());
    return sys.gsan().reportCount();
}

} // namespace

int
main()
{
    banner("abl_gsan",
           "Happens-before sanitizer: wall-clock overhead on the "
           "end-to-end workloads, and zero-report sweeps of the "
           "invocation design space");

    bool ok = true;

    TextTable t1("six workloads, gsan off vs on, median of " +
                 std::to_string(kSamples) +
                 " samples (seeded, simulated time must be identical)");
    t1.setHeader({"workload", "correct", "reports", "sim_identical",
                  "wall_off_ms", "wall_on_ms", "overhead_%"});
    const struct
    {
        const char *name;
        Meas (*fn)(core::System &);
    } kWorkloads[] = {
        {"grep/wg", grepWg},
        {"wordcount/genesys", wordcountGenesys},
        {"memcached/gpu", memcachedGpu},
        {"miniamr/madvise", miniamrMadvise},
        {"signal_search", signalSearch},
        {"fbdisplay", fbdisplay},
    };
    constexpr std::size_t kNumWorkloads = std::size(kWorkloads);
    struct Row
    {
        bool ok = true;
        bool sameSim = true;
        std::uint64_t reports = 0;
        std::vector<double> offMs, onMs;
    };
    Row rows[kNumWorkloads];
    std::vector<double> aggregates;
    for (int sample = 0; sample < kSamples; ++sample) {
        // Alternate which mode runs first, so neither always runs on
        // the warmer host caches.
        const bool onFirst = sample % 2 == 1;
        double totalOff = 0.0, totalOn = 0.0;
        for (std::size_t i = 0; i < kNumWorkloads; ++i) {
            const Meas first = measure(onFirst, kWorkloads[i].fn);
            const Meas second = measure(!onFirst, kWorkloads[i].fn);
            const Meas &off = onFirst ? second : first;
            const Meas &on = onFirst ? first : second;
            Row &row = rows[i];
            const bool same_sim = off.simElapsed == on.simElapsed;
            row.sameSim = row.sameSim && same_sim;
            row.reports += on.reports;
            row.ok = row.ok && off.correct && on.correct &&
                     on.reports == 0 && same_sim;
            row.offMs.push_back(off.wallMs);
            row.onMs.push_back(on.wallMs);
            totalOff += off.wallMs;
            totalOn += on.wallMs;
        }
        aggregates.push_back(overheadPct(totalOff, totalOn));
    }
    for (std::size_t i = 0; i < kNumWorkloads; ++i) {
        const Row &row = rows[i];
        ok = ok && row.ok;
        const double off = median(row.offMs);
        const double on = median(row.onMs);
        char over[32];
        std::snprintf(over, sizeof over, "%.2f", overheadPct(off, on));
        t1.addRow({kWorkloads[i].name, row.ok ? "yes" : "NO",
                   std::to_string(row.reports),
                   row.sameSim ? "yes" : "NO", std::to_string(off),
                   std::to_string(on), over});
    }
    std::printf("%s\n", t1.render().c_str());
    const double aggregate = median(aggregates);
    std::printf("aggregate wall-clock overhead: %.2f%% median of %d "
                "samples (min %.2f%%, max %.2f%%; target < 10%%)\n\n",
                aggregate, kSamples,
                *std::min_element(aggregates.begin(), aggregates.end()),
                *std::max_element(aggregates.begin(), aggregates.end()));
    if (aggregate >= 10.0)
        ok = false;

    TextTable t2("invocation design space with gsan on "
                 "(fig 7/8 axes; every point must be report-free)");
    t2.setHeader({"point", "reports"});
    for (const core::Ordering o :
         {core::Ordering::Strong, core::Ordering::Relaxed}) {
        for (const core::Blocking b :
             {core::Blocking::Blocking, core::Blocking::NonBlocking}) {
            for (const core::WaitMode w :
                 {core::WaitMode::Polling, core::WaitMode::HaltResume}) {
                const std::uint64_t n = matrixPointReports(
                    inv(core::Granularity::WorkGroup, o, b, w));
                ok = ok && n == 0;
                std::string name = std::string("wg/") +
                                   core::orderingName(o) + "/" +
                                   core::blockingName(b) + "/" +
                                   core::waitModeName(w);
                t2.addRow({name, std::to_string(n)});
            }
        }
    }
    const std::uint64_t wi = workItemPointReports();
    ok = ok && wi == 0;
    t2.addRow({"workitem/strong/blocking/polling",
               std::to_string(wi)});
    const std::uint64_t kg = kernelPointReports();
    ok = ok && kg == 0;
    t2.addRow({"kernel/relaxed/blocking/polling", std::to_string(kg)});
    std::printf("%s\n", t2.render().c_str());

    std::printf("abl_gsan: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
