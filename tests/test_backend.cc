/**
 * @file
 * Service-path architecture tests (DESIGN.md §10): ServiceBackend
 * selection, the sharded syscall area end to end, shard->worker
 * steering, the per-worker workqueue (bounds, steal, runtime worker
 * count), the per-shard polling daemons, and the new sysfs knobs.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/system.hh"
#include "osk/workqueue.hh"
#include "support/logging.hh"

namespace genesys::core
{
namespace
{

SystemConfig
shardedConfig(std::uint32_t shards, std::uint32_t workers = 32)
{
    SystemConfig cfg;
    cfg.gpu.numCus = 4;
    cfg.gpu.maxWavesPerCu = 4;
    cfg.gpu.maxWorkGroupsPerCu = 4;
    cfg.gpu.kernelLaunchLatency = ticks::us(5);
    cfg.genesys.areaShards = shards;
    cfg.kernel.workqueueWorkers = workers;
    return cfg;
}

Invocation
wgInv(Blocking b = Blocking::Blocking)
{
    Invocation i;
    i.granularity = Granularity::WorkGroup;
    i.ordering = Ordering::Relaxed;
    i.blocking = b;
    return i;
}

/** One open + pwrite per work-group, enough groups to cover every CU. */
void
runSpanningKernel(System &sys, std::uint32_t groups)
{
    if (sys.kernel().vfs().resolve("/spread") == nullptr)
        sys.kernel().vfs().createFile("/spread");
    gpu::KernelLaunch k;
    k.workItems = groups * 64;
    k.wgSize = 64;
    k.program = [&sys](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        const auto fd =
            co_await sys.gpuSys().open(ctx, wgInv(), "/spread", 1);
        co_await sys.gpuSys().pwrite(ctx, wgInv(),
                                     static_cast<int>(fd), "x", 1,
                                     ctx.workgroupId());
    };
    sys.launchGpuAndDrain(std::move(k));
    sys.run();
}

// ------------------------------------------------- backend selection

TEST(Backend, InterruptBackendIsDefaultAndNamed)
{
    System sys(shardedConfig(1));
    EXPECT_FALSE(sys.host().daemonMode());
    EXPECT_STREQ(sys.host().activeBackend().name(), "interrupt");
}

TEST(Backend, DaemonSelectionSwitchesActiveBackend)
{
    System sys(shardedConfig(1));
    sys.host().startPollingDaemon(ticks::us(20));
    EXPECT_TRUE(sys.host().daemonMode());
    EXPECT_STREQ(sys.host().activeBackend().name(), "polling-daemon");
    sys.host().stopDaemon();
    EXPECT_FALSE(sys.host().daemonMode());
    EXPECT_STREQ(sys.host().activeBackend().name(), "interrupt");
    sys.run();
    EXPECT_EQ(sys.host().daemonScansLive(), 0u);
}

// ------------------------------------------------- sharded interrupts

TEST(Backend, MultiShardServicesAcrossAllShards)
{
    System sys(shardedConfig(4));
    runSpanningKernel(sys, 16);
    EXPECT_EQ(sys.syscallArea().shardCount(), 4u);
    std::uint64_t int_sum = 0;
    std::uint64_t proc_sum = 0;
    for (std::uint32_t s = 0; s < 4; ++s) {
        // 16 work-groups over 4 CUs: every shard saw traffic.
        EXPECT_GT(sys.host().interruptsOnShard(s), 0u) << "shard " << s;
        EXPECT_GT(sys.syscallArea().processedOnShard(s), 0u)
            << "shard " << s;
        EXPECT_GT(sys.syscallArea().issuedOnShard(s), 0u)
            << "shard " << s;
        EXPECT_TRUE(sys.syscallArea().quiescent(s)) << "shard " << s;
        int_sum += sys.host().interruptsOnShard(s);
        proc_sum += sys.syscallArea().processedOnShard(s);
    }
    EXPECT_EQ(int_sum, sys.host().interrupts());
    EXPECT_EQ(proc_sum, sys.host().processedSyscalls());
    EXPECT_EQ(sys.host().inFlight(), 0u);
}

TEST(Backend, ShardAffinitySteeringSpreadsWorkers)
{
    System sys(shardedConfig(4, 4));
    runSpanningKernel(sys, 16);
    // Every shard steers to its own worker; all four executed batches.
    std::uint32_t busy = 0;
    for (std::uint32_t w = 0; w < 4; ++w)
        busy += sys.kernel().workqueue().executedBy(w) > 0 ? 1 : 0;
    EXPECT_EQ(busy, 4u);
}

TEST(Backend, GsanCleanOnMultiShardRun)
{
    System sys(shardedConfig(4));
    sys.gsan().setEnabled(true);
    runSpanningKernel(sys, 16);
    EXPECT_EQ(sys.gsan().reportCount(), 0u);
}

// ------------------------------------------------- per-shard daemons

TEST(Backend, PerShardDaemonsServiceTheirShards)
{
    System sys(shardedConfig(2));
    sys.gsan().setEnabled(true);
    sys.host().startPollingDaemon(ticks::us(20));
    sys.kernel().vfs().createFile("/pd");
    gpu::KernelLaunch k;
    k.workItems = 16 * 64;
    k.wgSize = 64;
    k.program = [&sys](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        const auto fd =
            co_await sys.gpuSys().open(ctx, wgInv(), "/pd", 1);
        co_await sys.gpuSys().pwrite(ctx, wgInv(),
                                     static_cast<int>(fd), "d", 1,
                                     ctx.workgroupId());
        if (ctx.workgroupId() == 0)
            sys.host().stopDaemon();
    };
    sys.launchGpu(std::move(k));
    sys.run();
    for (std::uint32_t s = 0; s < 2; ++s) {
        EXPECT_GT(sys.syscallArea().processedOnShard(s), 0u)
            << "shard " << s;
        EXPECT_TRUE(sys.syscallArea().quiescent(s));
    }
    // Each shard's daemon registered its own gsan thread: re-asking
    // for the per-shard names must not create new threads.
    auto &g = sys.gsan();
    const auto before = g.threadCount();
    (void)g.namedThread("cpu-daemon-0");
    (void)g.namedThread("cpu-daemon-1");
    EXPECT_EQ(g.threadCount(), before);
    EXPECT_EQ(g.reportCount(), 0u);
    EXPECT_EQ(sys.host().daemonScansLive(), 0u);
}

TEST(Backend, StopDaemonDrainJoinsScanLoops)
{
    System sys(shardedConfig(2));
    sys.host().startPollingDaemon(ticks::us(50));
    sys.kernel().vfs().createFile("/drain");
    gpu::KernelLaunch k;
    k.workItems = 64;
    k.wgSize = 64;
    k.program = [&sys](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        const auto fd =
            co_await sys.gpuSys().open(ctx, wgInv(), "/drain", 1);
        co_await sys.gpuSys().pwrite(ctx, wgInv(),
                                     static_cast<int>(fd), "z", 1, 0);
        sys.host().stopDaemon();
    };
    std::uint32_t live_after_drain = 99;
    sys.sim().spawn([](System &s, gpu::KernelLaunch launch,
                       std::uint32_t &live) -> sim::Task<> {
        co_await s.gpu().launch(std::move(launch));
        co_await s.host().drain();
        // drain() joins the final sweeps: no scan coroutine survives.
        live = s.host().daemonScansLive();
    }(sys, std::move(k), live_after_drain));
    sys.run();
    EXPECT_EQ(live_after_drain, 0u);
    EXPECT_TRUE(sys.syscallArea().quiescent());
    EXPECT_EQ(sys.host().daemonScansLive(), 0u);
}

TEST(Backend, DaemonIgnoresDoorbellsWhileRunning)
{
    System sys(shardedConfig(2));
    sys.host().startPollingDaemon(ticks::us(20));
    sys.kernel().vfs().createFile("/quiet");
    gpu::KernelLaunch k;
    k.workItems = 4 * 64;
    k.wgSize = 64;
    k.program = [&sys](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        const auto fd =
            co_await sys.gpuSys().open(ctx, wgInv(), "/quiet", 1);
        co_await sys.gpuSys().pwrite(ctx, wgInv(),
                                     static_cast<int>(fd), "q", 1,
                                     ctx.workgroupId());
    };
    // The daemon's scan timer keeps the sim alive, so stop it from a
    // coroutine once the kernel (and thus every syscall) completed —
    // after snapshotting the interrupt counter.
    std::uint64_t interrupts_at_finish = 99;
    sys.sim().spawn([](System &s, gpu::KernelLaunch launch,
                       std::uint64_t &snap) -> sim::Task<> {
        co_await s.gpu().launch(std::move(launch));
        snap = s.host().interrupts();
        s.host().stopDaemon();
    }(sys, std::move(k), interrupts_at_finish));
    sys.run();
    // Doorbells rang but the daemon backend swallowed them all.
    EXPECT_EQ(interrupts_at_finish, 0u);
    EXPECT_GT(sys.host().processedSyscalls(), 0u);
    EXPECT_EQ(sys.host().daemonScansLive(), 0u);
}

// ------------------------------------------------- workqueue dispatch

TEST(WorkQueuePerWorker, EnqueueOnTargetsWorkerAndIdleStealCovers)
{
    sim::Sim s;
    osk::CpuCluster cpus(s, 4);
    osk::OskParams params;
    osk::WorkQueue wq(s, cpus, params, 4);
    std::uint64_t ran = 0;
    for (int i = 0; i < 8; ++i) {
        wq.enqueueOn(2, [&ran](std::uint32_t) -> sim::Task<> {
            ++ran;
            co_return;
        });
    }
    EXPECT_EQ(wq.queuedOn(2), 8u);
    s.run();
    EXPECT_EQ(ran, 8u);
    EXPECT_EQ(wq.executedTasks(), 8u);
    EXPECT_EQ(wq.queuedNow(), 0u);
    // Worker 0 is woken first (FIFO wait queue) and has to steal from
    // worker 2's backlog.
    EXPECT_GE(wq.steals(), 1u);
}

TEST(WorkQueuePerWorker, BoundedQueueSpillsToLeastLoaded)
{
    sim::Sim s;
    osk::CpuCluster cpus(s, 4);
    osk::OskParams params;
    osk::WorkQueue wq(s, cpus, params, 2);
    wq.setQueueBound(2);
    // Target worker 0 five times without running the sim. The bound
    // redirects overflow to the least-loaded queue until both queues
    // are full; a full-everywhere enqueue stays on its target.
    for (int i = 0; i < 5; ++i)
        wq.enqueueOn(0, [](std::uint32_t) -> sim::Task<> { co_return; });
    EXPECT_EQ(wq.spills(), 2u);
    EXPECT_EQ(wq.queuedOn(1), 2u);
    EXPECT_EQ(wq.queuedOn(0), 3u);
    s.run();
    EXPECT_EQ(wq.executedTasks(), 5u);
    EXPECT_EQ(wq.queuedNow(), 0u);
}

TEST(WorkQueuePerWorker, SetMaxWorkersTakesEffectOnNextDispatch)
{
    sim::Sim s;
    osk::CpuCluster cpus(s, 4);
    osk::OskParams params;
    osk::WorkQueue wq(s, cpus, params, 4);
    auto burst = [&wq](int n) {
        for (int i = 0; i < n; ++i) {
            wq.enqueueOn(
                static_cast<std::uint32_t>(i),
                [](std::uint32_t) -> sim::Task<> { co_return; });
        }
    };
    burst(8);
    s.run();
    const auto w0_before = wq.executedBy(0);
    wq.setMaxWorkers(1);
    EXPECT_EQ(wq.maxWorkers(), 1u);
    burst(8);
    s.run();
    // Every post-shrink dispatch landed on worker 0.
    EXPECT_EQ(wq.executedBy(0), w0_before + 8);
    // Growing again works too (retired loops respawn).
    wq.setMaxWorkers(4);
    burst(8);
    s.run();
    EXPECT_EQ(wq.executedTasks(), 24u);
    EXPECT_EQ(wq.queuedNow(), 0u);
}

TEST(WorkQueuePerWorker, MaxWorkersClampAndCap)
{
    sim::Sim s;
    osk::CpuCluster cpus(s, 4);
    osk::OskParams params;
    osk::WorkQueue wq(s, cpus, params, 4);
    EXPECT_EQ(wq.workerCap(), 4u);
    wq.setMaxWorkers(0);
    EXPECT_EQ(wq.maxWorkers(), 1u);
    wq.setMaxWorkers(99);
    EXPECT_EQ(wq.maxWorkers(), 4u);
}

// ------------------------------------------------- sysfs knob surface

class ShardSysfsTest : public ::testing::Test
{
  protected:
    ShardSysfsTest() : sys_(shardedConfig(2, 4)) {}

    std::int64_t
    sys(int num, const osk::SyscallArgs &args)
    {
        std::int64_t ret = -1;
        sys_.sim().spawn([](System &s, int n, osk::SyscallArgs a,
                            std::int64_t &out) -> sim::Task<> {
            out = co_await s.kernel().doSyscall(s.process(), n, a);
        }(sys_, num, args, ret));
        sys_.run();
        return ret;
    }

    std::string
    readFile(const std::string &path)
    {
        const auto fd = sys(osk::sysno::open,
                            osk::makeArgs(path.c_str(), osk::O_RDONLY));
        if (fd < 0)
            return "<open failed>";
        char buf[64] = {};
        sys(osk::sysno::read, osk::makeArgs(fd, buf, 63));
        sys(osk::sysno::close, osk::makeArgs(fd));
        return buf;
    }

    System sys_;
};

TEST_F(ShardSysfsTest, ShardCountAndPerShardCountersReadable)
{
    EXPECT_EQ(readFile("/sys/genesys/shards/count"), "2\n");
    runSpanningKernel(sys_, 8);
    for (std::uint32_t s = 0; s < 2; ++s) {
        const auto base =
            logging::format("/sys/genesys/shards/%u/", s);
        EXPECT_EQ(
            readFile(base + "issued"),
            logging::format("%llu\n",
                            static_cast<unsigned long long>(
                                sys_.syscallArea().issuedOnShard(s))));
        EXPECT_EQ(readFile(base + "processed"),
                  logging::format(
                      "%llu\n",
                      static_cast<unsigned long long>(
                          sys_.syscallArea().processedOnShard(s))));
        EXPECT_EQ(readFile(base + "interrupts"),
                  logging::format(
                      "%llu\n", static_cast<unsigned long long>(
                                    sys_.host().interruptsOnShard(s))));
    }
}

TEST_F(ShardSysfsTest, MaxWorkersKnobTakesEffectMidRun)
{
    // Phase 1: the default worker pool services a kernel.
    runSpanningKernel(sys_, 8);
    const auto fd =
        sys(osk::sysno::open,
            osk::makeArgs("/sys/genesys/workqueue/max_workers",
                          osk::O_RDWR));
    ASSERT_GE(fd, 0);
    EXPECT_EQ(readFile("/sys/genesys/workqueue/max_workers"), "4\n");
    ASSERT_EQ(sys(osk::sysno::write, osk::makeArgs(fd, "1\n", 2)), 2);
    EXPECT_EQ(sys_.kernel().workqueue().maxWorkers(), 1u);
    // Out-of-range writes are rejected (0 bytes written).
    EXPECT_EQ(sys(osk::sysno::write, osk::makeArgs(fd, "0\n", 2)), 0);
    EXPECT_EQ(sys(osk::sysno::write, osk::makeArgs(fd, "64\n", 3)), 0);
    EXPECT_EQ(sys_.kernel().workqueue().maxWorkers(), 1u);

    // Phase 2: every dispatch after the write lands on worker 0.
    const auto others_before =
        sys_.kernel().workqueue().executedTasks() -
        sys_.kernel().workqueue().executedBy(0);
    runSpanningKernel(sys_, 8);
    const auto others_after =
        sys_.kernel().workqueue().executedTasks() -
        sys_.kernel().workqueue().executedBy(0);
    EXPECT_EQ(others_after, others_before);
    EXPECT_TRUE(sys_.syscallArea().quiescent());
}

TEST_F(ShardSysfsTest, QueueBoundKnobRoundTrips)
{
    const auto fd =
        sys(osk::sysno::open,
            osk::makeArgs("/sys/genesys/workqueue/queue_bound",
                          osk::O_RDWR));
    ASSERT_GE(fd, 0);
    ASSERT_EQ(sys(osk::sysno::write, osk::makeArgs(fd, "16\n", 3)), 3);
    EXPECT_EQ(sys_.kernel().workqueue().queueBound(), 16u);
    EXPECT_EQ(sys(osk::sysno::write, osk::makeArgs(fd, "0\n", 2)), 0);
    EXPECT_EQ(sys_.kernel().workqueue().queueBound(), 16u);
}

} // namespace
} // namespace genesys::core
