/**
 * @file
 * Unit tests for the GPU execution model: dispatch, residency,
 * barriers, hardware slots, halt/resume, and the L2 polling path.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "gpu/gpu.hh"
#include "sim/sim.hh"
#include "support/logging.hh"

namespace genesys::gpu
{
namespace
{

GpuConfig
tinyGpu()
{
    GpuConfig cfg;
    cfg.numCus = 2;
    cfg.maxWavesPerCu = 4;
    cfg.maxWorkGroupsPerCu = 2;
    cfg.kernelLaunchLatency = 0;
    return cfg;
}

TEST(GpuConfig, DerivedQuantities)
{
    GpuConfig cfg; // defaults: 8 CUs x 40 waves x 64 lanes
    EXPECT_EQ(cfg.activeWorkItemSlots(), 8u * 40 * 64);
    // 1 GHz-ish clock: cycles round sensibly.
    EXPECT_EQ(cfg.cyclesToTicks(0), 0u);
    EXPECT_GE(cfg.cyclesToTicks(1), 1u);
    EXPECT_NEAR(static_cast<double>(cfg.cyclesToTicks(758'000'000)),
                1e9, 1e6); // one second of cycles at 758 MHz
}

TEST(GpuDevice, WavefrontMustFitA64BitLaneMask)
{
    sim::Sim s;
    for (const std::uint32_t lanes : {0u, 65u}) {
        GpuConfig cfg = tinyGpu();
        cfg.wavefrontSize = lanes;
        EXPECT_THROW({ GpuDevice gpu(s, cfg); }, PanicError) << lanes;
    }
    GpuConfig cfg = tinyGpu();
    cfg.wavefrontSize = 64;
    EXPECT_NO_THROW({ GpuDevice gpu(s, cfg); });
}

TEST(GpuDevice, LaunchRunsEveryWorkItemExactlyOnce)
{
    sim::Sim s;
    GpuDevice gpu(s, tinyGpu());
    std::set<std::uint64_t> seen;
    KernelLaunch k;
    k.workItems = 1000; // not wavefront- or wg-aligned
    k.wgSize = 192;     // 3 waves per group
    k.program = [&seen](WavefrontCtx &ctx) -> sim::Task<> {
        for (std::uint32_t lane = 0; lane < ctx.laneCount(); ++lane) {
            const auto item = ctx.firstWorkItem() + lane;
            EXPECT_TRUE(seen.insert(item).second) << item;
        }
        co_return;
    };
    s.spawn(gpu.launch(std::move(k)));
    s.run();
    EXPECT_EQ(seen.size(), 1000u);
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), 999u);
    EXPECT_EQ(gpu.launchedKernels(), 1u);
    EXPECT_EQ(gpu.launchedWorkGroups(), 6u); // ceil(1000/192)
}

TEST(GpuDevice, ResidencyLimitsConcurrentWorkGroups)
{
    sim::Sim s;
    GpuDevice gpu(s, tinyGpu()); // at most 2x2 = 4 resident groups
    std::uint32_t peak = 0;
    KernelLaunch k;
    k.workItems = 16 * 64;
    k.wgSize = 64;
    k.program = [&gpu, &peak](WavefrontCtx &ctx) -> sim::Task<> {
        peak = std::max(peak, gpu.residentWorkGroups());
        co_await ctx.compute(10000);
    };
    s.spawn(gpu.launch(std::move(k)));
    s.run();
    EXPECT_EQ(peak, 4u);
    EXPECT_EQ(gpu.residentWorkGroups(), 0u);
}

TEST(GpuDevice, WaveSlotsAlsoLimitResidency)
{
    sim::Sim s;
    GpuConfig cfg = tinyGpu(); // 4 wave slots per CU
    sim::Sim s2;
    GpuDevice gpu(s2, cfg);
    // Each group needs 4 waves = a whole CU's wave slots, so only one
    // group per CU can be resident despite 2 WG slots.
    std::uint32_t peak = 0;
    KernelLaunch k;
    k.workItems = 8 * 256;
    k.wgSize = 256;
    k.program = [&gpu, &peak](WavefrontCtx &ctx) -> sim::Task<> {
        peak = std::max(peak, gpu.residentWorkGroups());
        co_await ctx.compute(1000);
    };
    s2.spawn(gpu.launch(std::move(k)));
    s2.run();
    EXPECT_EQ(peak, 2u);
}

TEST(GpuDevice, KernelLaunchLatencyCharged)
{
    sim::Sim s;
    GpuConfig cfg = tinyGpu();
    cfg.kernelLaunchLatency = ticks::us(15);
    GpuDevice gpu(s, cfg);
    KernelLaunch k;
    k.workItems = 64;
    k.wgSize = 64;
    k.program = [](WavefrontCtx &) -> sim::Task<> { co_return; };
    s.spawn(gpu.launch(std::move(k)));
    EXPECT_EQ(s.run(), ticks::us(15));
}

TEST(GpuDevice, HwWaveSlotsAreUniqueAmongResidentWaves)
{
    sim::Sim s;
    GpuDevice gpu(s, tinyGpu());
    std::multiset<std::uint32_t> active;
    bool overlap = false;
    KernelLaunch k;
    k.workItems = 64 * 64;
    k.wgSize = 128;
    k.program = [&](WavefrontCtx &ctx) -> sim::Task<> {
        if (active.contains(ctx.hwWaveSlot()))
            overlap = true;
        active.insert(ctx.hwWaveSlot());
        co_await ctx.compute(500);
        active.erase(active.find(ctx.hwWaveSlot()));
    };
    s.spawn(gpu.launch(std::move(k)));
    s.run();
    EXPECT_FALSE(overlap);
    EXPECT_TRUE(active.empty());
}

TEST(GpuDevice, HwItemSlotIndexesLaneWithinWave)
{
    sim::Sim s;
    GpuDevice gpu(s, tinyGpu());
    KernelLaunch k;
    k.workItems = 70; // 2 waves: 64 + 6 lanes
    k.wgSize = 70;
    bool checked = false;
    k.program = [&checked, &gpu](WavefrontCtx &ctx) -> sim::Task<> {
        EXPECT_EQ(ctx.hwItemSlot(0),
                  ctx.hwWaveSlot() * gpu.config().wavefrontSize);
        if (ctx.laneCount() < 64) {
            EXPECT_EQ(ctx.laneCount(), 6u);
            EXPECT_THROW(ctx.hwItemSlot(6), PanicError);
            checked = true;
        }
        co_return;
    };
    s.spawn(gpu.launch(std::move(k)));
    s.run();
    EXPECT_TRUE(checked);
}

TEST(GpuDevice, WorkGroupBarrierSynchronizesWaves)
{
    sim::Sim s;
    GpuDevice gpu(s, tinyGpu());
    std::vector<Tick> after_barrier;
    KernelLaunch k;
    k.workItems = 256; // one group, 4 waves
    k.wgSize = 256;
    k.program = [&s, &after_barrier](WavefrontCtx &ctx) -> sim::Task<> {
        // Waves do different amounts of pre-barrier work.
        co_await ctx.compute(1000 * (ctx.waveInGroup() + 1));
        co_await ctx.wgBarrier();
        after_barrier.push_back(s.now());
    };
    s.spawn(gpu.launch(std::move(k)));
    s.run();
    ASSERT_EQ(after_barrier.size(), 4u);
    for (Tick t : after_barrier)
        EXPECT_EQ(t, after_barrier[0]);
}

TEST(GpuDevice, GroupLeaderIsWaveZero)
{
    sim::Sim s;
    GpuDevice gpu(s, tinyGpu());
    int leaders = 0;
    KernelLaunch k;
    k.workItems = 512; // 2 groups x 4 waves
    k.wgSize = 256;
    k.program = [&leaders](WavefrontCtx &ctx) -> sim::Task<> {
        if (ctx.isGroupLeader())
            ++leaders;
        co_return;
    };
    s.spawn(gpu.launch(std::move(k)));
    s.run();
    EXPECT_EQ(leaders, 2);
}

TEST(GpuDevice, HaltResumeRoundTrip)
{
    sim::Sim s;
    GpuConfig cfg = tinyGpu();
    cfg.waveResumeLatency = ticks::us(5);
    GpuDevice gpu(s, cfg);
    Tick resumed_at = 0;
    std::uint32_t slot = 0;
    KernelLaunch k;
    k.workItems = 64;
    k.wgSize = 64;
    k.program = [&](WavefrontCtx &ctx) -> sim::Task<> {
        slot = ctx.hwWaveSlot();
        co_await ctx.halt();
        resumed_at = ctx.sim().now();
    };
    s.spawn(gpu.launch(std::move(k)));
    s.run();
    EXPECT_EQ(resumed_at, 0u); // still halted
    const Tick wake_time = s.now();
    gpu.resumeWave(slot);
    s.run();
    EXPECT_EQ(resumed_at, wake_time + ticks::us(5));
}

TEST(GpuDevice, ResumeOfNonHaltedWaveIsNoop)
{
    sim::Sim s;
    GpuDevice gpu(s, tinyGpu());
    EXPECT_NO_THROW(gpu.resumeWave(0));
    EXPECT_THROW(gpu.resumeWave(100000), PanicError);
}

TEST(GpuDevice, InterruptReachesSink)
{
    sim::Sim s;
    GpuDevice gpu(s, tinyGpu());
    std::vector<std::uint32_t> seen;
    std::vector<std::uint32_t> cus;
    gpu.setInterruptSink([&seen, &cus](std::uint32_t cu,
                                       std::uint32_t id) {
        seen.push_back(id);
        cus.push_back(cu);
    });
    KernelLaunch k;
    k.workItems = 128;
    k.wgSize = 64;
    k.program = [&gpu](WavefrontCtx &ctx) -> sim::Task<> {
        gpu.sendInterrupt(ctx.hwWaveSlot());
        co_return;
    };
    s.spawn(gpu.launch(std::move(k)));
    s.run();
    EXPECT_EQ(seen.size(), 2u);
    // The message's routing tag names the originating CU.
    ASSERT_EQ(cus.size(), seen.size());
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(cus[i], seen[i] / tinyGpu().maxWavesPerCu);
}

TEST(GpuDevice, SequentialKernelsReuseResources)
{
    sim::Sim s;
    GpuDevice gpu(s, tinyGpu());
    for (int i = 0; i < 3; ++i) {
        KernelLaunch k;
        k.workItems = 512;
        k.wgSize = 128;
        k.program = [](WavefrontCtx &ctx) -> sim::Task<> {
            co_await ctx.compute(100);
        };
        s.spawn(gpu.launch(std::move(k)));
        s.run();
    }
    EXPECT_EQ(gpu.launchedKernels(), 3u);
    EXPECT_EQ(gpu.residentWorkGroups(), 0u);
}

TEST(GpuDevice, LaunchValidation)
{
    sim::Sim s;
    GpuDevice gpu(s, tinyGpu());
    KernelLaunch empty;
    empty.workItems = 0;
    empty.wgSize = 64;
    empty.program = [](WavefrontCtx &) -> sim::Task<> { co_return; };
    EXPECT_THROW(
        {
            s.spawn(gpu.launch(std::move(empty)));
            s.run();
        },
        PanicError);

    KernelLaunch huge;
    huge.workItems = 64;
    huge.wgSize = 2048; // > 16 waves
    huge.program = [](WavefrontCtx &) -> sim::Task<> { co_return; };
    EXPECT_THROW(
        {
            sim::Sim s2;
            GpuDevice g2(s2, tinyGpu());
            s2.spawn(g2.launch(std::move(huge)));
            s2.run();
        },
        PanicError);
}

TEST(GpuDevice, AccessLinePollingHitsL2)
{
    sim::Sim s;
    mem::MemBusParams bp;
    mem::MemBus bus(s.events(), bp);
    GpuConfig cfg = tinyGpu();
    GpuDevice gpu(s, cfg, &bus);
    s.spawn([](GpuDevice &g) -> sim::Task<> {
        // Poll the same line repeatedly: one miss, then hits.
        for (int i = 0; i < 10; ++i)
            co_await g.accessLine(0x1000, g.config().atomicLoad);
    }(gpu));
    s.run();
    EXPECT_EQ(gpu.l2().misses(), 1u);
    EXPECT_EQ(gpu.l2().hits(), 9u);
    EXPECT_EQ(bus.bytesMoved("gpu"), 64u);
}

TEST(GpuDevice, AccessLineSpillGeneratesBusTraffic)
{
    sim::Sim s;
    mem::MemBusParams bp;
    mem::MemBus bus(s.events(), bp);
    GpuConfig cfg = tinyGpu(); // 256 KiB L2 = 4096 lines
    GpuDevice gpu(s, cfg, &bus);
    const std::uint64_t lines = 8192; // 2x capacity
    s.spawn([](GpuDevice &g, std::uint64_t n) -> sim::Task<> {
        for (int pass = 0; pass < 2; ++pass)
            for (std::uint64_t i = 0; i < n; ++i)
                co_await g.accessLine(i * 64, g.config().plainLoad);
    }(gpu, lines));
    s.run();
    // Sweep over 2x capacity thrashes: nearly everything misses.
    EXPECT_GT(bus.bytesMoved("gpu"), 2 * lines * 64 * 9 / 10);
}

TEST(GpuDevice, MissAndCpuTransferShareOneFifoBus)
{
    // A GPU L2 miss joins the bus queue one access latency after it is
    // awaited. A CPU transfer issued at that same tick is served before
    // or after it strictly by event order: one queue, one permit.
    for (const bool gpu_first : {true, false}) {
        sim::Sim s;
        mem::MemBusParams bp;
        bp.bytesPerSec = 1e9; // 1 byte per tick
        bp.requestOverhead = 0;
        mem::MemBus bus(s.events(), bp);
        GpuDevice gpu(s, tinyGpu(), &bus);
        const Tick at = gpu.config().atomicLoad + gpu.config().l2HitLatency;
        Tick gpu_done = 0;
        Tick cpu_done = 0;
        auto gpu_side = [](GpuDevice &g, Tick &done) -> sim::Task<> {
            co_await g.accessLine(0x1000, g.config().atomicLoad);
            done = g.sim().now();
        };
        auto cpu_side = [](sim::Sim &sm, mem::MemBus &b, Tick when,
                           Tick &done) -> sim::Task<> {
            co_await sm.delay(when);
            co_await b.transfer(mem::Agent::Cpu, 100);
            done = sm.now();
        };
        if (gpu_first) {
            s.spawn(gpu_side(gpu, gpu_done));
            s.spawn(cpu_side(s, bus, at, cpu_done));
        } else {
            s.spawn(cpu_side(s, bus, at, cpu_done));
            s.spawn(gpu_side(gpu, gpu_done));
        }
        s.run();
        EXPECT_EQ(gpu_done, gpu_first ? at + 64 : at + 164);
        EXPECT_EQ(cpu_done, gpu_first ? at + 164 : at + 100);
        EXPECT_EQ(bus.bytesMoved("gpu"), 64u);
        EXPECT_EQ(bus.bytesMoved("cpu"), 100u);
    }
}

} // namespace
} // namespace genesys::gpu
