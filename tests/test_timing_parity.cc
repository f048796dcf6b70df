/**
 * @file
 * Timing-parity regression tests for the service path.
 *
 * Each scenario drives the full GPU->slot->service->wake pipeline in a
 * shape borrowed from the fig07-fig16 benches (granularity sweep,
 * ordering/blocking/wait-mode matrix, coalescing, residency pressure,
 * polling daemon, grep, wordcount, Fig 9 polling contention) and
 * asserts the *exact* simulated completion tick against a golden value
 * captured from the pre-refactor host. The wordcount and Fig 9 cases
 * also pin the GPU L2 hit/miss counts and the per-agent bus bytes.
 *
 * The golden numbers pin down the contract of the backend refactor:
 * with the default configuration (areaShards=1, default workers,
 * shard-affinity steering) the layered ServiceBackend/SlotScanner/
 * sharded-WorkQueue architecture must be bit-identical in modeled time
 * to the monolithic GenesysHost it replaced. Any intentional timing
 * change must update these constants in the same commit and say why.
 *
 * Set GENESYS_PARITY_CAPTURE=1 to print actual values instead of
 * asserting (used to regenerate the table).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/system.hh"
#include "workloads/grep.hh"
#include "workloads/wordcount.hh"

namespace genesys::core
{
namespace
{

bool
captureMode()
{
    const char *env = std::getenv("GENESYS_PARITY_CAPTURE");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/** FNV-1a 64 over a run of 64-bit values. */
std::uint64_t
digestWords(const std::vector<std::uint64_t> &values)
{
    std::uint64_t digest = 14695981039346656037ull;
    for (std::uint64_t v : values) {
        for (int b = 0; b < 8; ++b) {
            digest ^= (v >> (8 * b)) & 0xff;
            digest *= 1099511628211ull;
        }
    }
    return digest;
}

/** EXPECT the golden tick (or digest), or print the actual in capture
 *  mode. */
void
checkTick(const char *name, Tick actual, Tick golden)
{
    if (captureMode()) {
        std::printf("PARITY %s = %llu\n", name,
                    static_cast<unsigned long long>(actual));
        return;
    }
    EXPECT_EQ(actual, golden) << name;
}

SystemConfig
smallConfig()
{
    SystemConfig cfg;
    cfg.gpu.numCus = 2;
    cfg.gpu.maxWavesPerCu = 8;
    cfg.gpu.maxWorkGroupsPerCu = 4;
    cfg.gpu.kernelLaunchLatency = ticks::us(5);
    return cfg;
}

Invocation
inv(Granularity g, Ordering o, Blocking b,
    WaitMode w = WaitMode::Polling)
{
    Invocation i;
    i.granularity = g;
    i.ordering = o;
    i.blocking = b;
    i.waitMode = w;
    return i;
}

/** One work-group: open + pwrite + close, returns the final tick.
 *  The first @p eagains pwrite64 dispatches answer -EAGAIN; the tick
 *  the last wave finishes goes to @p wave_done when it is given. */
Tick
runBasicWorkGroup(const SystemConfig &cfg, Invocation i, int eagains = 0,
                  Tick *wave_done = nullptr)
{
    System sys(cfg);
    sys.kernel().vfs().createFile("/p");
    for (int n = 1; n <= eagains; ++n) {
        sys.kernel().faults().planFault(osk::sysno::pwrite64, n,
                                        {osk::FaultKind::Eagain});
    }
    static const char payload[] = "parity-check-abcdef";
    gpu::KernelLaunch k;
    k.workItems = 256; // one group, 4 waves: barriers span waves
    k.wgSize = 256;
    k.program = [&sys, i,
                 wave_done](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        auto open_inv = i;
        open_inv.blocking = Blocking::Blocking; // fd consumed below
        const auto fd =
            co_await sys.gpuSys().open(ctx, open_inv, "/p", 1);
        co_await sys.gpuSys().pwrite(ctx, i, static_cast<int>(fd),
                                     payload, 16, 0);
        if (wave_done != nullptr)
            *wave_done = std::max(*wave_done, ctx.sim().now());
    };
    sys.launchGpuAndDrain(std::move(k));
    const Tick end = sys.run();
    EXPECT_EQ(sys.kernel().faults().plannedRemaining(), 0u);
    return end;
}

TEST(TimingParity, OrderingBlockingWaitMatrix)
{
    // The fig08 axes: ordering x blocking x wait mode.
    const SystemConfig cfg = smallConfig();
    struct Case
    {
        const char *name;
        Ordering o;
        Blocking b;
        WaitMode w;
        Tick golden;
    };
    const Case cases[] = {
        {"strong_blocking_poll", Ordering::Strong, Blocking::Blocking,
         WaitMode::Polling, 54515},
        {"strong_blocking_halt", Ordering::Strong, Blocking::Blocking,
         WaitMode::HaltResume, 63897},
        {"strong_nonblocking_poll", Ordering::Strong,
         Blocking::NonBlocking, WaitMode::Polling, 54307},
        {"relaxed_blocking_poll", Ordering::Relaxed, Blocking::Blocking,
         WaitMode::Polling, 54515},
        {"relaxed_blocking_halt", Ordering::Relaxed, Blocking::Blocking,
         WaitMode::HaltResume, 63897},
        {"relaxed_nonblocking_poll", Ordering::Relaxed,
         Blocking::NonBlocking, WaitMode::Polling, 54307},
    };
    for (const Case &c : cases) {
        checkTick(c.name,
                  runBasicWorkGroup(
                      cfg, inv(Granularity::WorkGroup, c.o, c.b, c.w)),
                  c.golden);
    }
}

TEST(TimingParity, KernelGranularityManyGroups)
{
    const SystemConfig cfg = smallConfig();
    System sys(cfg);
    sys.kernel().vfs().createFile("/k");
    gpu::KernelLaunch k;
    k.workItems = 8 * 256;
    k.wgSize = 256;
    k.program = [&sys](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        auto i = inv(Granularity::Kernel, Ordering::Relaxed,
                     Blocking::Blocking);
        co_await sys.gpuSys().pwrite(ctx, i, -1, nullptr, 0, 0);
    };
    sys.launchGpuAndDrain(std::move(k));
    checkTick("kernel_granularity", sys.run(), 30230);
}

/** One wave, one pwrite64 per lane, returns the final tick. The
 *  first-serviced lane's request answers -EAGAIN in its first
 *  @p eagains rounds; the tick the wave finishes goes to @p wave_done
 *  when it is given. Only the lanes in @p lanes call. */
Tick
runWorkItemPwrites(const SystemConfig &cfg, WaitMode w, int eagains = 0,
                   Tick *wave_done = nullptr, std::uint64_t lanes = ~0ull)
{
    System sys(cfg);
    sys.kernel().vfs().createFile("/wi");
    // Each later round re-dispatches only that lane, after the first
    // round's 64.
    for (int r = 0; r < eagains; ++r) {
        sys.kernel().faults().planFault(osk::sysno::pwrite64,
                                        r == 0 ? 1 : 64 + r,
                                        {osk::FaultKind::Eagain});
    }
    static char lane_bytes[64];
    for (int i = 0; i < 64; ++i)
        lane_bytes[i] = static_cast<char>('A' + (i % 26));
    gpu::KernelLaunch k;
    k.workItems = 64;
    k.wgSize = 64;
    k.program = [&sys, w, wave_done,
                 lanes](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        auto i = inv(Granularity::WorkGroup, Ordering::Strong,
                     Blocking::Blocking);
        const auto fd = co_await sys.gpuSys().open(ctx, i, "/wi", 1);
        Invocation wi = inv(Granularity::WorkItem, Ordering::Strong,
                            Blocking::Blocking, w);
        co_await sys.gpuSys().invokeWorkItems(
            ctx, wi, osk::sysno::pwrite64,
            [fd, lanes](
                std::uint32_t lane) -> std::optional<osk::SyscallArgs> {
                if ((lanes >> lane & 1) == 0)
                    return std::nullopt;
                return osk::makeArgs(static_cast<int>(fd),
                                     &lane_bytes[lane], 1, lane);
            });
        if (wave_done != nullptr)
            *wave_done = ctx.sim().now();
    };
    sys.launchGpuAndDrain(std::move(k));
    const Tick end = sys.run();
    EXPECT_EQ(sys.kernel().faults().plannedRemaining(), 0u);
    return end;
}

TEST(TimingParity, WorkItemPerLanePwrites)
{
    checkTick("workitem_lane_pwrites",
              runWorkItemPwrites(smallConfig(), WaitMode::Polling),
              264398);
}

TEST(TimingParity, WorkItemSparseLaneMaskPolling)
{
    // Three scattered lanes poll their own slots: each round visits
    // only the outstanding lanes, in lane order.
    const std::uint64_t lanes = 1ull << 1 | 1ull << 40 | 1ull << 63;
    Tick done = 0;
    const Tick end = runWorkItemPwrites(smallConfig(), WaitMode::Polling,
                                        0, &done, lanes);
    checkTick("workitem_sparse_poll", end, 60157);
    checkTick("workitem_sparse_poll_done", done, 60157);
}

TEST(TimingParity, RingModeWorkGroupAndWorkItem)
{
    // Ring submission: SQ batches, one doorbell per batch, CQ polling.
    // The consume task lingers after the last batch, so the final
    // tick follows the last submission; the waves' own finish ticks
    // pin the completion side.
    SystemConfig cfg = smallConfig();
    cfg.genesys.useRings = true;
    struct Case
    {
        const char *name;
        bool workItem;
        WaitMode w;
        Tick golden;
        Tick goldenDone;
    };
    const Case cases[] = {
        {"ring_wg_poll", false, WaitMode::Polling, 63970, 48129},
        {"ring_wg_halt", false, WaitMode::HaltResume, 67470, 55272},
        {"ring_wi_poll", true, WaitMode::Polling, 148139, 128350},
        {"ring_wi_halt", true, WaitMode::HaltResume, 148139, 133139},
    };
    for (const Case &c : cases) {
        Tick done = 0;
        const Tick end =
            c.workItem
                ? runWorkItemPwrites(cfg, c.w, 0, &done)
                : runBasicWorkGroup(cfg,
                                    inv(Granularity::WorkGroup,
                                        Ordering::Strong,
                                        Blocking::Blocking, c.w),
                                    0, &done);
        checkTick(c.name, end, c.golden);
        checkTick((std::string(c.name) + "_done").c_str(), done,
                  c.goldenDone);
    }
}

TEST(TimingParity, EagainBackoffShapes)
{
    // Two consecutive -EAGAINs: the leader's backoff doubles, a
    // wavefront's shared stall stays flat.
    const SystemConfig cfg = smallConfig();
    checkTick("eagain_wg",
              runBasicWorkGroup(cfg,
                                inv(Granularity::WorkGroup,
                                    Ordering::Strong, Blocking::Blocking),
                                2),
              107136);
    checkTick("eagain_wi",
              runWorkItemPwrites(cfg, WaitMode::Polling, 2), 315638);
}

TEST(TimingParity, CoalescedInterruptBatches)
{
    SystemConfig cfg = smallConfig();
    cfg.genesys.coalesceWindow = ticks::us(50);
    cfg.genesys.coalesceMaxBatch = 8;
    System sys(cfg);
    sys.kernel().vfs().createFile("/co")->setSynthetic(1 << 20);
    gpu::KernelLaunch k;
    k.workItems = 16 * 64;
    k.wgSize = 64;
    k.program = [&sys](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        auto i = inv(Granularity::WorkGroup, Ordering::Relaxed,
                     Blocking::Blocking);
        const auto fd = co_await sys.gpuSys().open(ctx, i, "/co", 0);
        co_await sys.gpuSys().pread(ctx, i, static_cast<int>(fd),
                                    nullptr, 4096,
                                    ctx.workgroupId() * 4096);
    };
    sys.launchGpuAndDrain(std::move(k));
    checkTick("coalesced_batches", sys.run(), 161476);
}

TEST(TimingParity, ResidencyPressureManyGroups)
{
    // More work-groups than the small device can hold resident.
    const SystemConfig cfg = smallConfig();
    System sys(cfg);
    sys.kernel().vfs().createFile("/rp");
    gpu::KernelLaunch k;
    k.workItems = 32 * 64;
    k.wgSize = 64;
    static char bytes[32];
    k.program = [&sys](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        bytes[ctx.workgroupId()] =
            static_cast<char>('a' + ctx.workgroupId() % 26);
        auto i = inv(Granularity::WorkGroup, Ordering::Relaxed,
                     Blocking::Blocking);
        const auto fd = co_await sys.gpuSys().open(ctx, i, "/rp", 1);
        co_await sys.gpuSys().pwrite(ctx, i, static_cast<int>(fd),
                                     &bytes[ctx.workgroupId()], 1,
                                     ctx.workgroupId());
    };
    sys.launchGpuAndDrain(std::move(k));
    checkTick("residency_pressure", sys.run(), 208769);
}

TEST(TimingParity, NonBlockingSlotReuse)
{
    const SystemConfig cfg = smallConfig();
    System sys(cfg);
    sys.kernel().vfs().createFile("/reuse");
    gpu::KernelLaunch k;
    k.workItems = 64;
    k.wgSize = 64;
    static const char byte = 'r';
    k.program = [&sys](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        auto i = inv(Granularity::WorkGroup, Ordering::Relaxed,
                     Blocking::Blocking);
        const auto fd = co_await sys.gpuSys().open(ctx, i, "/reuse", 1);
        auto nb = inv(Granularity::WorkGroup, Ordering::Relaxed,
                      Blocking::NonBlocking);
        for (int n = 0; n < 8; ++n) {
            co_await sys.gpuSys().pwrite(ctx, nb, static_cast<int>(fd),
                                         &byte, 1, n);
        }
    };
    sys.launchGpuAndDrain(std::move(k));
    checkTick("nonblocking_reuse", sys.run(), 215138);
}

TEST(TimingParity, PollingDaemonBackend)
{
    const SystemConfig cfg = smallConfig();
    System sys(cfg);
    sys.kernel().vfs().createFile("/pd");
    sys.host().startPollingDaemon(ticks::us(20));
    static const char data[] = "daemon";
    gpu::KernelLaunch k;
    k.workItems = 64;
    k.wgSize = 64;
    k.program = [&sys](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        auto i = inv(Granularity::WorkGroup, Ordering::Strong,
                     Blocking::Blocking);
        const auto fd = co_await sys.gpuSys().open(ctx, i, "/pd", 1);
        co_await sys.gpuSys().pwrite(ctx, i, static_cast<int>(fd),
                                     data, 6, 0);
        sys.host().stopDaemon();
    };
    sys.launchGpu(std::move(k));
    checkTick("polling_daemon", sys.run(), 77801);
}

TEST(TimingParity, PollingDaemonSweepOrder)
{
    // Work-item appends served by one daemon per CU shard at a 5 us
    // scan interval. Each launch is 4 single-wave work-groups spread
    // over the 2 CUs, and every wave appends twice. A wave's second
    // round publishes while the sweep is still servicing the other
    // resident wave, behind the cursor; the second launch dispatches
    // into retired waves' slots while a sweep is in progress. Each
    // lane appends a (round, launch, wave, lane) tag, so the file's
    // bytes are the order the daemons serviced the lanes.
    SystemConfig cfg = smallConfig();
    cfg.gpu.maxWorkGroupsPerCu = 2;
    cfg.genesys.areaShards = 2;
    System sys(cfg);
    auto *out = sys.kernel().vfs().createFile("/order");
    sys.host().startPollingDaemon(ticks::us(5));
    static constexpr std::uint32_t kWaves = 4;
    static constexpr std::uint32_t kLaunches = 2;
    static constexpr std::uint32_t kRounds = 2;
    static std::uint8_t tags[kRounds][kLaunches][kWaves][64][2];
    std::uint32_t waves_done = 0;
    auto launch = [&](std::uint32_t which) {
        gpu::KernelLaunch k;
        k.workItems = kWaves * 64;
        k.wgSize = 64;
        k.program = [&sys, &waves_done,
                     which](gpu::WavefrontCtx &ctx) -> sim::Task<> {
            const std::uint32_t wg = ctx.workgroupId();
            if (which == 1)
                co_await ctx.compute(15000 * (wg % 2 + 1));
            auto i = inv(Granularity::WorkGroup, Ordering::Strong,
                         Blocking::Blocking);
            const auto fd = co_await sys.gpuSys().open(
                ctx, i, "/order", osk::O_WRONLY | osk::O_APPEND);
            Invocation wi = inv(Granularity::WorkItem, Ordering::Strong,
                                Blocking::Blocking);
            for (std::uint32_t round = 0; round < kRounds; ++round) {
                co_await sys.gpuSys().invokeWorkItems(
                    ctx, wi, osk::sysno::write,
                    [fd, round, which, wg](std::uint32_t lane) {
                        auto &tag = tags[round][which][wg][lane];
                        tag[0] = static_cast<std::uint8_t>(
                            round * 64 + which * 16 + wg);
                        tag[1] = static_cast<std::uint8_t>(lane);
                        return std::optional(osk::makeArgs(
                            static_cast<int>(fd), tag, 2));
                    });
            }
            if (++waves_done == kLaunches * kWaves)
                sys.host().stopDaemon();
        };
        sys.launchGpu(std::move(k));
    };
    launch(0);
    launch(1);
    const Tick end = sys.run();

    const auto &bytes = out->data();
    ASSERT_EQ(bytes.size(), kRounds * kLaunches * kWaves * 64 * 2);
    std::uint64_t digest = 14695981039346656037ull; // FNV-1a 64
    for (const std::uint8_t b : bytes) {
        digest ^= b;
        digest *= 1099511628211ull;
    }
    checkTick("daemon_sweep_order_tick", end, 1647712);
    checkTick("daemon_sweep_order_digest", digest,
              435794354125019429ull);
}

TEST(TimingParity, GrepWorkGroupAndWorkItem)
{
    // fig13a shape on a reduced corpus; syscall-heavy (open/read/write
    // per file) and residency-limited, via both granularities.
    auto run = [](workloads::GrepMode mode) {
        SystemConfig cfg = smallConfig();
        System sys(cfg);
        workloads::GrepCorpusConfig cc;
        cc.numFiles = 32;
        cc.fileBytes = 2 * 1024;
        const auto corpus = workloads::buildGrepCorpus(sys, cc);
        const auto res = workloads::runGrep(sys, corpus, mode);
        EXPECT_TRUE(res.correct);
        return res.elapsed;
    };
    checkTick("grep_workgroup", run(workloads::GrepMode::GpuWorkGroup),
              902796);
    checkTick("grep_workitem_poll",
              run(workloads::GrepMode::GpuWorkItemPolling), 477865);
}

TEST(TimingParity, WordcountL2AndBus)
{
    // fig13b shape on a reduced corpus: one work-group per file, so
    // the slot polls and the GPU's reads run through the L2 and the
    // shared memory bus.
    System sys(smallConfig());
    workloads::WordcountCorpusConfig cc;
    cc.numFiles = 16;
    cc.fileBytes = 24 * 1024;
    const auto corpus = workloads::buildWordcountCorpus(sys, cc);
    const auto res = workloads::runWordcount(
        sys, corpus, workloads::WordcountMode::Genesys);
    EXPECT_TRUE(res.correct);
    // The run ends on the Fig 14 sampler's 2 ms window, so the event
    // count is what pins the interleaving inside it.
    checkTick("wordcount_tick", sys.sim().now(), 2000000);
    checkTick("wordcount_events", sys.sim().events().executedEvents(),
              4813);
    checkTick("wordcount_l2_hits", sys.gpu().l2().hits(), 2115);
    checkTick("wordcount_l2_misses", sys.gpu().l2().misses(), 4);
    checkTick("wordcount_bus_gpu", sys.memBus().bytesMoved("gpu"), 256);
    checkTick("wordcount_counts_digest", digestWords(res.counts),
              9127702502114955908ull);
}

TEST(TimingParity, PollingSpillContendsWithCpu)
{
    // Fig 9 shape: GPU pollers sweep twice as many lines as the L2
    // holds, so poll misses queue on the memory bus behind a CPU agent
    // streaming 256 B bursts.
    System sys(smallConfig());
    auto &gpu = sys.gpu();
    const std::uint64_t lines = 2 * gpu.l2().lineCapacity();
    constexpr std::uint64_t kPollers = 32;
    bool stop = false;
    for (std::uint64_t w = 0; w < kPollers; ++w) {
        sys.sim().spawn([](gpu::GpuDevice &g, std::uint64_t base,
                           std::uint64_t n, std::uint64_t seed,
                           bool &halt) -> sim::Task<> {
            std::uint64_t x = seed * 2654435769ull + 1;
            while (!halt) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                co_await g.accessLine(0x2000'0000 + (base + x % n) * 64,
                                      g.config().atomicLoad);
            }
        }(gpu, w * (lines / kPollers), lines / kPollers, w + 1, stop));
    }
    sys.sim().spawn([](System &s, bool &halt) -> sim::Task<> {
        while (!halt)
            co_await s.memBus().transfer(mem::Agent::Cpu, 256);
    }(sys, stop));
    sys.run(ticks::us(200));
    stop = true;
    checkTick("spill_tick", sys.run(), 201667);
    checkTick("spill_l2_hits", gpu.l2().hits(), 731);
    checkTick("spill_l2_misses", gpu.l2().misses(), 2955);
    checkTick("spill_bus_gpu", sys.memBus().bytesMoved("gpu"), 189120);
    checkTick("spill_bus_cpu", sys.memBus().bytesMoved("cpu"), 285184);
}

} // namespace
} // namespace genesys::core
