/**
 * @file
 * gsan tests: the vector-clock core at API level, then end-to-end
 * seeded-bug detection through the full GPU/CPU pipeline.
 *
 * The end-to-end tests come in pairs: a clean run of each invocation
 * shape must produce ZERO reports (no false positives), and every
 * deliberately re-introduced bug — dropped pre/post barrier, payload
 * read before Finished, halt after the wake already fired — must be
 * flagged (no false negatives on the seeded violations).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "core/system.hh"
#include "osk/epoll.hh"
#include "osk/fault.hh"
#include "osk/file.hh"
#include "support/gsan.hh"

namespace genesys::core
{
namespace
{

using gsan::ReportKind;
using gsan::Sanitizer;

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

// ------------------------------------------------------ sanitizer core

TEST(GsanUnit, DisabledHooksAreNoOps)
{
    Sanitizer g;
    ASSERT_FALSE(g.enabled());
    const auto wave = g.waveThread(0); // explicit registration works
    g.setActor(wave);
    g.slotWrite(1, "args");
    g.slotRead(1, "args");
    g.slotWrite(1, "result"); // would race if enabled: no acquire
    g.invocationBegin(wave, true, 1, "strong");
    g.waveHalt(0);
    EXPECT_EQ(g.reportCount(), 0u);
}

TEST(GsanUnit, CleanReleaseAcquireChainHasNoReports)
{
    Sanitizer g;
    g.setEnabled(true);
    const auto wave = g.waveThread(0);
    const auto cpu = g.workerThread(0);
    g.setActor(wave);
    g.slotAcquire(7);
    g.slotWrite(7, "args");
    g.slotRelease(7); // publish
    g.setActor(cpu);
    g.slotAcquire(7); // beginProcessing
    g.slotRead(7, "args");
    g.slotWrite(7, "result");
    g.slotRelease(7); // complete
    g.setActor(wave);
    g.slotAcquire(7); // consume
    g.slotRead(7, "result");
    g.slotRelease(7);
    EXPECT_EQ(g.reportCount(), 0u);
}

TEST(GsanUnit, ReadWithoutAcquireIsReported)
{
    Sanitizer g;
    g.setEnabled(true);
    const auto wave = g.waveThread(0);
    const auto cpu = g.workerThread(0);
    g.setActor(wave);
    g.slotAcquire(7);
    g.slotWrite(7, "args");
    g.slotRelease(7);
    g.setActor(cpu);
    g.slotAcquire(7);
    g.slotWrite(7, "result");
    g.slotRelease(7);
    g.setActor(wave);
    g.slotRead(7, "result"); // no acquire first: race
    EXPECT_EQ(g.countOf(ReportKind::PayloadRace), 1u);
    ASSERT_EQ(g.reports().size(), 1u);
    EXPECT_NE(g.reports()[0].what.find("reads 'result'"),
              std::string::npos);
    EXPECT_NE(g.reports()[0].what.find("wave0"), std::string::npos);
    EXPECT_NE(g.reports()[0].what.find("cpu-worker0"),
              std::string::npos);
}

TEST(GsanUnit, UnorderedWriteWriteIsReported)
{
    Sanitizer g;
    g.setEnabled(true);
    const auto a = g.waveThread(0);
    const auto b = g.waveThread(1);
    g.setActor(a);
    g.slotWrite(3, "args");
    g.setActor(b);
    g.slotWrite(3, "args"); // no edge from a's write
    EXPECT_EQ(g.countOf(ReportKind::PayloadRace), 1u);
}

TEST(GsanUnit, WriteRacingPriorReadIsReported)
{
    Sanitizer g;
    g.setEnabled(true);
    const auto reader = g.waveThread(0);
    const auto writer = g.workerThread(0);
    g.setActor(reader);
    g.slotRead(5, "result");
    g.setActor(writer);
    g.slotWrite(5, "result"); // unordered with the read
    EXPECT_EQ(g.countOf(ReportKind::PayloadRace), 1u);
}

TEST(GsanUnit, BarrierCreatesHappensBefore)
{
    Sanitizer g;
    g.setEnabled(true);
    const auto a = g.waveThread(0);
    const auto b = g.waveThread(1);
    g.setActor(a);
    g.slotWrite(9, "args");
    g.barrierArrive(0xB, a);
    g.barrierArrive(0xB, b);
    g.barrierLeave(0xB, a);
    g.barrierLeave(0xB, b);
    g.setActor(b);
    g.slotWrite(9, "args"); // ordered through the barrier
    EXPECT_EQ(g.reportCount(), 0u);
}

TEST(GsanUnit, ExplicitEdgeOrdersAccesses)
{
    Sanitizer g;
    g.setEnabled(true);
    const auto a = g.namedThread("producer");
    const auto b = g.namedThread("consumer");
    g.setActor(a);
    g.slotWrite(2, "args");
    g.edge(a, b);
    g.setActor(b);
    g.slotRead(2, "args");
    EXPECT_EQ(g.reportCount(), 0u);
}

TEST(GsanUnit, ReportRenderingIsDeterministic)
{
    auto scenario = [](Sanitizer &g) {
        g.setEnabled(true);
        g.setActor(g.waveThread(4));
        g.slotWrite(1, "args");
        g.setActor(g.workerThread(2));
        g.slotWrite(1, "result");
        g.slotRead(1, "result");
        g.setActor(g.waveThread(4));
        g.slotWrite(1, "args");
    };
    Sanitizer g1, g2;
    scenario(g1);
    scenario(g2);
    EXPECT_GT(g1.reportCount(), 0u);
    EXPECT_EQ(g1.renderReports(), g2.renderReports());
    // Stable prefix: sequence number, tick, kind tag.
    EXPECT_EQ(g1.renderReports().rfind("gsan#0 @0 [payload-race]", 0),
              0u);
}

TEST(GsanUnit, ReportCapStoresPrefixButCountsAll)
{
    Sanitizer g;
    g.setEnabled(true);
    g.setMaxStoredReports(2);
    const auto a = g.waveThread(0);
    const auto b = g.waveThread(1);
    for (int i = 0; i < 5; ++i) {
        g.setActor(i % 2 ? a : b);
        g.slotWrite(0, "args"); // every write races the previous one
    }
    EXPECT_EQ(g.countOf(ReportKind::PayloadRace), 4u);
    EXPECT_EQ(g.reports().size(), 2u);
    EXPECT_NE(g.renderReports().find("2 more report(s)"),
              std::string::npos);
}

TEST(GsanUnit, MissingPreBarrierFlagged)
{
    Sanitizer g;
    g.setEnabled(true);
    const auto wave = g.waveThread(0);
    g.invocationBegin(wave, true, 17, "strong");
    EXPECT_EQ(g.countOf(ReportKind::OrderingViolation), 1u);
    EXPECT_NE(g.reports()[0].what.find("pre-invocation"),
              std::string::npos);
}

TEST(GsanUnit, BarrierBeforeInvocationSatisfiesContract)
{
    Sanitizer g;
    g.setEnabled(true);
    const auto wave = g.waveThread(0);
    g.barrierArrive(0xB, wave);
    g.barrierLeave(0xB, wave);
    g.invocationBegin(wave, true, 17, "strong");
    g.invocationEnd(wave, true, 17, "strong");
    g.barrierArrive(0xB, wave);
    g.barrierLeave(0xB, wave);
    g.waveRetire(0);
    EXPECT_EQ(g.reportCount(), 0u);
}

TEST(GsanUnit, PendingPostBarrierFlaggedAtNextInvocation)
{
    Sanitizer g;
    g.setEnabled(true);
    const auto wave = g.waveThread(0);
    g.invocationBegin(wave, false, 98, "relaxed");
    g.invocationEnd(wave, true, 98, "relaxed"); // producer: post needed
    g.invocationBegin(wave, false, 99, "relaxed"); // ...but none came
    EXPECT_EQ(g.countOf(ReportKind::OrderingViolation), 1u);
    EXPECT_NE(g.reports()[0].what.find("post-invocation"),
              std::string::npos);
}

TEST(GsanUnit, PendingPostBarrierFlaggedAtRetireAndSlotIsRecycled)
{
    Sanitizer g;
    g.setEnabled(true);
    const auto wave = g.waveThread(6);
    g.barrierArrive(0xB, wave);
    g.barrierLeave(0xB, wave);
    g.invocationBegin(wave, true, 17, "strong");
    g.invocationEnd(wave, true, 17, "strong");
    g.waveRetire(6); // post barrier never happened
    EXPECT_EQ(g.countOf(ReportKind::OrderingViolation), 1u);
    // The hw slot is recycled: the next wavefront in it must not
    // inherit the old wave's barrier credit.
    g.invocationBegin(wave, true, 17, "strong");
    EXPECT_EQ(g.countOf(ReportKind::OrderingViolation), 2u);
}

TEST(GsanUnit, DroppedWakeThenHaltReportsLostWakeupOnce)
{
    Sanitizer g;
    g.setEnabled(true);
    (void)g.waveThread(3);
    g.setActor(g.workerThread(0));
    g.resumeDropped(3);
    g.waveHalt(3);
    EXPECT_EQ(g.countOf(ReportKind::LostWakeup), 1u);
    EXPECT_NE(g.reports()[0].what.find("cpu-worker0"),
              std::string::npos);
    g.waveHalt(3); // the drop was consumed by the first report
    EXPECT_EQ(g.countOf(ReportKind::LostWakeup), 1u);
}

TEST(GsanUnit, ConsumingTheSlotClearsDroppedWake)
{
    Sanitizer g;
    g.setEnabled(true);
    (void)g.waveThread(3);
    g.setActor(g.workerThread(0));
    g.resumeDropped(3);
    // The polling sweep found the finished slot and consumed it: the
    // dropped wake is harmless, a later halt must not be flagged.
    g.slotConsumed(42, 3);
    g.waveHalt(3);
    EXPECT_EQ(g.reportCount(), 0u);
}

TEST(GsanUnit, DeliveredWakeCreatesHappensBefore)
{
    Sanitizer g;
    g.setEnabled(true);
    const auto wave = g.waveThread(3);
    const auto cpu = g.workerThread(0);
    g.setActor(cpu);
    g.slotWrite(8, "result");
    g.resumeDelivered(3); // wake carries the CPU's clock
    g.waveWake(3);
    g.setActor(wave);
    g.slotRead(8, "result"); // ordered through the wake message
    EXPECT_EQ(g.reportCount(), 0u);
}

TEST(GsanUnit, ResetClearsStateButKeepsConfig)
{
    Sanitizer g;
    g.setEnabled(true);
    g.setMaxStoredReports(7);
    g.setActor(g.waveThread(0));
    g.slotRead(1, "result");
    g.setActor(g.waveThread(1));
    g.slotWrite(1, "result");
    ASSERT_GT(g.reportCount(), 0u);
    g.reset();
    EXPECT_EQ(g.reportCount(), 0u);
    EXPECT_EQ(g.threadCount(), 0u);
    EXPECT_TRUE(g.enabled());
    EXPECT_EQ(g.maxStoredReports(), 7u);
}

TEST(GsanUnit, ThreadNamesAreStable)
{
    Sanitizer g;
    EXPECT_EQ(g.threadName(g.waveThread(3)), "wave3");
    EXPECT_EQ(g.threadName(g.workerThread(2)), "cpu-worker2");
    EXPECT_EQ(g.threadName(g.namedThread("cpu-daemon")), "cpu-daemon");
    EXPECT_EQ(g.waveThread(3), g.waveThread(3));
    EXPECT_EQ(g.findWaveThread(3), g.waveThread(3));
    EXPECT_EQ(g.findWaveThread(99), Sanitizer::kNoThread);
}

// ------------------------------------------------- end-to-end: clean

/**
 * Run a work-group kernel whose pwrite/getrusage use @p varied while
 * open/close stay strong+blocking (a usable fd needs a result), gsan
 * on; return the report count.
 */
std::uint64_t
cleanRunReports(Invocation varied)
{
    System sys(smallConfig());
    sys.gsan().setEnabled(true);
    sys.kernel().vfs().createFile("/out");
    gpu::KernelLaunch k;
    k.workItems = 2 * 128; // two work-groups of two waves each
    k.wgSize = 128;
    k.program = [&sys,
                 varied](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        const auto fixed = inv(Granularity::WorkGroup,
                               Ordering::Strong, Blocking::Blocking);
        const auto fd = co_await sys.gpuSys().open(ctx, fixed, "/out",
                                                   osk::O_WRONLY);
        co_await sys.gpuSys().pwrite(ctx, varied,
                                     static_cast<int>(fd), "y", 1,
                                     ctx.workgroupId());
        if (varied.blocking == Blocking::Blocking) {
            // Only blocking calls may pass an out-pointer into the
            // coroutine frame: non-blocking results land later.
            osk::RUsage ru{};
            co_await sys.gpuSys().getrusage(ctx, varied, &ru);
        }
        co_await sys.gpuSys().close(ctx, fixed,
                                    static_cast<int>(fd));
    };
    sys.launchGpuAndDrain(std::move(k));
    sys.run();
    EXPECT_TRUE(sys.syscallArea().quiescent());
    return sys.gsan().reportCount();
}

TEST(GsanEndToEnd, CleanWorkGroupMatrixIsReportFree)
{
    for (const Ordering o : {Ordering::Strong, Ordering::Relaxed}) {
        for (const Blocking b :
             {Blocking::Blocking, Blocking::NonBlocking}) {
            for (const WaitMode w :
                 {WaitMode::Polling, WaitMode::HaltResume}) {
                EXPECT_EQ(cleanRunReports(
                              inv(Granularity::WorkGroup, o, b, w)),
                          0u)
                    << orderingName(o) << "/" << blockingName(b)
                    << "/" << waitModeName(w);
            }
        }
    }
}

TEST(GsanEndToEnd, CleanWorkItemInvocationsAreReportFree)
{
    System sys(smallConfig());
    sys.gsan().setEnabled(true);
    sys.kernel().vfs().createFile("/wi");
    gpu::KernelLaunch k;
    k.workItems = 64;
    k.wgSize = 64;
    k.program = [&sys](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        auto i = inv(Granularity::WorkItem, Ordering::Strong,
                     Blocking::Blocking);
        const auto fd = co_await sys.gpuSys().open(
            ctx, inv(Granularity::WorkGroup, Ordering::Strong,
                     Blocking::Blocking),
            "/wi", osk::O_WRONLY);
        int failures = 0;
        co_await sys.gpuSys().invokeWorkItems(
            ctx, i, osk::sysno::pwrite64,
            [&](std::uint32_t lane) {
                return std::optional<osk::SyscallArgs>(osk::makeArgs(
                    static_cast<int>(fd), "z", 1, lane));
            },
            [&](std::uint32_t, std::int64_t r) {
                if (r != 1)
                    ++failures;
            });
        EXPECT_EQ(failures, 0);
    };
    sys.launchGpuAndDrain(std::move(k));
    sys.run();
    EXPECT_EQ(sys.gsan().reportCount(), 0u);
}

TEST(GsanEndToEnd, CleanDaemonBackendIsReportFree)
{
    System sys(smallConfig());
    sys.gsan().setEnabled(true);
    sys.kernel().vfs().createFile("/d");
    sys.host().startPollingDaemon(ticks::us(5));
    gpu::KernelLaunch k;
    k.workItems = 128;
    k.wgSize = 64;
    k.program = [&sys](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        auto i = inv(Granularity::WorkGroup, Ordering::Strong,
                     Blocking::Blocking);
        const auto fd = co_await sys.gpuSys().open(ctx, i, "/d", 1);
        co_await sys.gpuSys().pwrite(ctx, i, static_cast<int>(fd),
                                     "q", 1, 0);
        co_await sys.gpuSys().close(ctx, i, static_cast<int>(fd));
    };
    sys.launchGpu(std::move(k));
    sys.run(ticks::ms(50));
    sys.host().stopDaemon();
    sys.run();
    EXPECT_EQ(sys.gsan().reportCount(), 0u);
    EXPECT_GT(sys.host().processedSyscalls(), 0u);
}

// --------------------------------------- end-to-end: seeded bugs

/** One strong blocking work-group getrusage with @p hooks planted.
 *  Heap-allocated: a System is pinned (its sysfs files hold its
 *  address), so it cannot be returned by value. */
std::unique_ptr<System>
seededRun(GenesysParams::GsanTestHooks hooks,
          WaitMode w = WaitMode::Polling)
{
    SystemConfig cfg = smallConfig();
    cfg.genesys.gsanTest = hooks;
    auto owned = std::make_unique<System>(cfg);
    System &sys = *owned;
    sys.gsan().setEnabled(true);
    gpu::KernelLaunch k;
    k.workItems = 128; // one work-group, two waves
    k.wgSize = 128;
    k.program = [&sys, w](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        osk::RUsage ru{};
        co_await sys.gpuSys().getrusage(
            ctx,
            inv(Granularity::WorkGroup, Ordering::Strong,
                Blocking::Blocking, w),
            &ru);
    };
    sys.launchGpu(std::move(k));
    sys.run();
    return owned;
}

TEST(GsanSeeded, DroppedPreBarrierIsDetected)
{
    GenesysParams::GsanTestHooks hooks;
    hooks.skipPreBarrier = true;
    const auto run = seededRun(hooks);
    System &sys = *run;
    // Both waves of the group invoke without the required barrier.
    EXPECT_EQ(sys.gsan().countOf(ReportKind::OrderingViolation), 2u);
    EXPECT_EQ(sys.gsan().countOf(ReportKind::PayloadRace), 0u);
}

TEST(GsanSeeded, DroppedPostBarrierIsDetectedAtRetire)
{
    GenesysParams::GsanTestHooks hooks;
    hooks.skipPostBarrier = true;
    const auto run = seededRun(hooks);
    System &sys = *run;
    EXPECT_EQ(sys.gsan().countOf(ReportKind::OrderingViolation), 2u);
    EXPECT_NE(sys.gsan().renderReports().find("retires"),
              std::string::npos);
}

TEST(GsanSeeded, DroppedBothBarriersDoubleFlagged)
{
    GenesysParams::GsanTestHooks hooks;
    hooks.skipPreBarrier = true;
    hooks.skipPostBarrier = true;
    const auto run = seededRun(hooks);
    System &sys = *run;
    EXPECT_EQ(sys.gsan().countOf(ReportKind::OrderingViolation), 4u);
}

TEST(GsanSeeded, RelaxedProducerWithoutPostBarrierIsDetected)
{
    // The relaxed producer contract is barrier-after only; dropping
    // it must be flagged even though no pre barrier is required.
    SystemConfig cfg = smallConfig();
    cfg.genesys.gsanTest.skipPostBarrier = true;
    System sys(cfg);
    sys.gsan().setEnabled(true);
    gpu::KernelLaunch k;
    k.workItems = 64;
    k.wgSize = 64;
    k.program = [&sys](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        osk::RUsage ru{}; // getrusage is a Producer (read-like) call
        co_await sys.gpuSys().getrusage(
            ctx,
            inv(Granularity::WorkGroup, Ordering::Relaxed,
                Blocking::Blocking),
            &ru);
    };
    sys.launchGpu(std::move(k));
    sys.run();
    EXPECT_EQ(sys.gsan().countOf(ReportKind::OrderingViolation), 1u);
}

TEST(GsanSeeded, PayloadReadBeforeFinishedIsDetected)
{
    GenesysParams::GsanTestHooks hooks;
    hooks.racyPeekBeforeFinished = true;
    const auto run = seededRun(hooks);
    System &sys = *run;
    EXPECT_GE(sys.gsan().countOf(ReportKind::PayloadRace), 1u);
    EXPECT_NE(sys.gsan().renderReports().find("'result'"),
              std::string::npos);
}

TEST(GsanSeeded, ConsumeWithoutAcquireIsDetected)
{
    GenesysParams::GsanTestHooks hooks;
    hooks.racyConsume = true;
    const auto run = seededRun(hooks);
    System &sys = *run;
    EXPECT_GE(sys.gsan().countOf(ReportKind::PayloadRace), 1u);
    EXPECT_NE(sys.gsan().renderReports().find("Finished"),
              std::string::npos);
}

TEST(GsanSeeded, HaltAfterWakeFiredIsDetected)
{
    GenesysParams::GsanTestHooks hooks;
    // ~130 simulated ms between the final sweep and the halt: the
    // CPU completes and fires its wake into the still-running wave.
    hooks.haltGapCycles = 100'000'000;
    const auto run = seededRun(hooks, WaitMode::HaltResume);
    System &sys = *run;
    EXPECT_GE(sys.gsan().countOf(ReportKind::LostWakeup), 1u);
    EXPECT_NE(sys.gsan().renderReports().find("sleep forever"),
              std::string::npos);
}

TEST(GsanSeeded, FaultInjectionCrossTestStaysClean)
{
    // EINTR restarts reissue the whole claim/publish/consume cycle;
    // the recovery path must be as race-free as the happy path.
    System sys(smallConfig());
    sys.gsan().setEnabled(true);
    sys.kernel().vfs().createFile("/f");
    sys.kernel().faults().planFault(osk::sysno::pwrite64, 1,
                                    {osk::FaultKind::Eintr});
    sys.kernel().faults().planFault(osk::sysno::pwrite64, 2,
                                    {osk::FaultKind::Eagain});
    gpu::KernelLaunch k;
    k.workItems = 64;
    k.wgSize = 64;
    k.program = [&sys](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        auto i = inv(Granularity::WorkGroup, Ordering::Strong,
                     Blocking::Blocking);
        const auto fd = co_await sys.gpuSys().open(ctx, i, "/f", 1);
        EXPECT_EQ(co_await sys.gpuSys().pwrite(
                      ctx, i, static_cast<int>(fd), "r", 1, 0),
                  1);
        co_await sys.gpuSys().close(ctx, i, static_cast<int>(fd));
    };
    sys.launchGpuAndDrain(std::move(k));
    sys.run();
    EXPECT_GE(sys.gpuSys().syscallRetries(), 2u);
    EXPECT_EQ(sys.gsan().reportCount(), 0u);
}

TEST(GsanEndToEnd, HaltResumeSlotRecyclingRegression)
{
    // Regression for the host bug gsan's ownership discipline found:
    // the requester's hw wave slot was read from the slot AFTER
    // complete() released it, so a consume+recycle could redirect the
    // wake. Back-to-back halt-resume calls recycle the slot as fast
    // as possible; the run must terminate (every wake reaches its
    // wave) and stay report-free.
    System sys(smallConfig());
    sys.gsan().setEnabled(true);
    gpu::KernelLaunch k;
    k.workItems = 4 * 64;
    k.wgSize = 64;
    k.program = [&sys](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        for (int round = 0; round < 4; ++round) {
            osk::RUsage ru{};
            EXPECT_EQ(co_await sys.gpuSys().getrusage(
                          ctx,
                          inv(Granularity::WorkGroup,
                              Ordering::Strong, Blocking::Blocking,
                              WaitMode::HaltResume),
                          &ru),
                      0);
        }
    };
    sys.launchGpuAndDrain(std::move(k));
    sys.run();
    EXPECT_TRUE(sys.syscallArea().quiescent());
    EXPECT_EQ(sys.gsan().reportCount(), 0u);
    EXPECT_EQ(sys.host().processedSyscalls(), 16u);
}

// -------------------------------------------------- knob surface

TEST(GsanSysfs, EnableAndTuneThroughVfs)
{
    System sys;
    auto &k = sys.kernel();
    // Force a known starting state (GENESYS_GSAN may be set when the
    // whole suite runs under the gsan CI job).
    sys.gsan().setEnabled(false);
    ASSERT_FALSE(sys.gsan().enabled());

    auto poke = [&](const char *path, const char *val) -> sim::Task<> {
        const auto fd = co_await k.doSyscall(
            sys.process(), osk::sysno::open,
            osk::makeArgs(path, osk::O_RDWR));
        EXPECT_GE(fd, 0);
        co_await k.doSyscall(
            sys.process(), osk::sysno::write,
            osk::makeArgs(fd, val, std::strlen(val)));
        co_await k.doSyscall(sys.process(), osk::sysno::close,
                             osk::makeArgs(fd));
    };
    sys.sim().spawn(poke("/sys/genesys/gsan/enabled", "1"));
    sys.sim().spawn(poke("/sys/genesys/gsan/max_reports", "33"));
    sys.run();
    EXPECT_TRUE(sys.gsan().enabled());
    EXPECT_EQ(sys.gsan().maxStoredReports(), 33u);
}

TEST(GsanSysfs, ReportCountersAreReadOnly)
{
    System sys;
    std::int64_t wrote = 0;
    sys.sim().spawn([](System &s, std::int64_t &out) -> sim::Task<> {
        auto &k = s.kernel();
        const auto fd = co_await k.doSyscall(
            s.process(), osk::sysno::open,
            osk::makeArgs("/sys/genesys/gsan/reports", osk::O_RDWR));
        out = co_await k.doSyscall(s.process(), osk::sysno::write,
                                   osk::makeArgs(fd, "9", 1));
    }(sys, wrote));
    sys.run();
    EXPECT_NE(wrote, 1);
}

// --------------------------------------- epoll readiness channel

/** Raw-stack rig for the epoll check-then-sleep window tests: a
 *  connected TCP pair with the server end watched by one instance. */
struct EpollGsanRig
{
    EpollGsanRig()
        : sim(1), udp(sim.events(), params),
          tcp(sim.events(), params),
          ep(sim.events(), params, udp, tcp)
    {
        gsan.setEnabled(true);
        ep.setSanitizer(&gsan);
        osk::TcpSocket *lst = tcp.createSocket();
        EXPECT_EQ(lst->bind({1, 7100}), 0);
        EXPECT_EQ(lst->listen(4), 0);
        cli = tcp.createSocket();
        int rc = -1;
        sim.spawn([](osk::TcpSocket *c, int &out) -> sim::Task<> {
            out = co_await c->connect({1, 7100});
        }(cli, rc));
        sim.run();
        EXPECT_EQ(rc, 0);
        int sid = -1;
        EXPECT_TRUE(lst->tryAccept(sid));
        inst = ep.instance(ep.create());
        EXPECT_NE(inst, nullptr);
        EXPECT_EQ(inst->ctl(osk::EPOLL_CTL_ADD_, 40,
                            osk::FileKind::Tcp, sid, osk::EPOLLIN_,
                            40),
                  0);
    }

    osk::OskParams params;
    sim::Sim sim;
    osk::UdpStack udp;
    osk::TcpStack tcp;
    osk::EpollSystem ep;
    Sanitizer gsan;
    osk::TcpSocket *cli = nullptr;
    osk::EpollInstance *inst = nullptr;
};

TEST(GsanSeeded, EpollNotifyInsideCheckSleepWindowIsReported)
{
    EpollGsanRig rig;
    // Seeded bug: the waiter suspends for 1 ms between its readiness
    // probe and its sleep without re-probing.
    rig.inst->setTestSleepGap(ticks::ms(1));

    osk::EpollEvent evs[2];
    std::int64_t n = -1;
    rig.sim.spawn([](osk::EpollInstance *i, osk::EpollEvent *e,
                     std::int64_t &out) -> sim::Task<> {
        out = co_await i->wait(e, 2, ticks::ms(5), /*waiter=*/1);
    }(rig.inst, evs, n));
    // Data lands inside the gap: its wakeup is lost, and only the
    // timeout backstop rescues the (level-triggered) waiter.
    rig.sim.spawn([](osk::TcpSocket *c) -> sim::Task<> {
        co_await c->write("x", 1);
    }(rig.cli));
    rig.sim.run();

    EXPECT_EQ(n, 1); // the re-probe after the timer still finds data
    EXPECT_EQ(rig.gsan.countOf(ReportKind::LostWakeup), 1u);
    EXPECT_NE(rig.gsan.renderReports().find(
                  "check-then-sleep window"),
              std::string::npos);
}

TEST(GsanEndToEnd, EpollWaitWithoutSeededGapIsReportFree)
{
    EpollGsanRig rig;
    osk::EpollEvent evs[2];
    std::int64_t n = -1;
    rig.sim.spawn([](osk::EpollInstance *i, osk::EpollEvent *e,
                     std::int64_t &out) -> sim::Task<> {
        out = co_await i->wait(e, 2, /*timeout_ns=*/-1,
                               /*waiter=*/1);
    }(rig.inst, evs, n));
    // The write lands well after the waiter blocks; the notification
    // is delivered, not lost.
    rig.sim.spawn([](EpollGsanRig &r) -> sim::Task<> {
        co_await sim::Delay(r.sim.events(), ticks::us(500));
        co_await r.cli->write("x", 1);
    }(rig));
    rig.sim.run();

    EXPECT_EQ(n, 1);
    EXPECT_EQ(rig.gsan.reportCount(), 0u);
}

// ---------------------------------- SQ/CQ ring channel (§13)

TEST(GsanRing, CleanPublishDoorbellConsumeChainHasNoReports)
{
    Sanitizer g;
    g.setEnabled(true);
    const auto wave = g.waveThread(0);
    const auto cpu = g.workerThread(0);
    g.setActor(wave);
    g.ringPublish(/*key=*/0, /*entries=*/2); // one batch, two entries
    g.ringDoorbell(0);
    g.setActor(cpu);
    g.ringConsume(0);
    g.ringConsume(0);
    g.setActor(wave);
    g.ringObserve(1); // CQ waiter baseline read before any publish
    EXPECT_EQ(g.reportCount(), 0u);
}

TEST(GsanRing, ConsumeOvertakingPublishIsReported)
{
    Sanitizer g;
    g.setEnabled(true);
    const auto wave = g.waveThread(0);
    const auto cpu = g.workerThread(0);
    g.setActor(wave);
    g.ringPublish(0, 1);
    g.setActor(cpu);
    g.ringConsume(0);
    g.ringConsume(0); // second consume: only one publish happened
    EXPECT_EQ(g.countOf(ReportKind::OrderingViolation), 1u);
    EXPECT_NE(g.renderReports().find("overtakes the publish"),
              std::string::npos);
}

TEST(GsanRing, RacyEntryReadWithoutAcquireIsReported)
{
    Sanitizer g;
    g.setEnabled(true);
    const auto wave = g.waveThread(0);
    const auto cpu = g.workerThread(0);
    g.setActor(wave);
    g.ringPublish(0, 1);
    g.setActor(cpu);
    // Entry read with no ringConsume acquire first: the publish is
    // not ordered before it.
    g.ringConsumeRacy(0);
    EXPECT_EQ(g.countOf(ReportKind::PayloadRace), 1u);
    EXPECT_NE(g.renderReports().find("no happens-before edge"),
              std::string::npos);

    // After a proper acquire the same read is ordered — the check is
    // happens-before-based, not unconditional.
    g.ringConsume(0);
    g.ringConsumeRacy(0);
    EXPECT_EQ(g.countOf(ReportKind::PayloadRace), 1u);
}

TEST(GsanRing, CleanRingRunsAreReportFreeOnBothBackends)
{
    for (const bool daemon : {false, true}) {
        SystemConfig cfg = smallConfig();
        cfg.genesys.useRings = true;
        cfg.genesys.ringEntries = 8;
        System sys(cfg);
        sys.gsan().setEnabled(true);
        sys.kernel().vfs().createFile("/ring");
        if (daemon)
            sys.host().startPollingDaemon(ticks::us(5));
        gpu::KernelLaunch k;
        k.workItems = 128; // one work-group, two waves
        k.wgSize = 128;
        k.program = [&sys](gpu::WavefrontCtx &ctx) -> sim::Task<> {
            auto i = inv(Granularity::WorkGroup, Ordering::Strong,
                         Blocking::Blocking);
            const auto fd =
                co_await sys.gpuSys().open(ctx, i, "/ring", 1);
            co_await sys.gpuSys().pwrite(ctx, i,
                                         static_cast<int>(fd), "r", 1,
                                         0);
            co_await sys.gpuSys().close(ctx, i,
                                        static_cast<int>(fd));
        };
        if (daemon) {
            sys.launchGpu(std::move(k));
            sys.run(ticks::ms(50));
            sys.host().stopDaemon();
            sys.run();
        } else {
            sys.launchGpuAndDrain(std::move(k));
            sys.run();
        }
        EXPECT_EQ(sys.gsan().reportCount(), 0u)
            << (daemon ? "daemon" : "interrupt") << " backend:\n"
            << sys.gsan().renderReports();
        EXPECT_GT(sys.syscallArea().ringBatchesTotal(), 0u);
    }
}

TEST(GsanRing, SeededRacySqConsumeIsDetected)
{
    SystemConfig cfg = smallConfig();
    cfg.genesys.useRings = true;
    cfg.genesys.gsanTest.ringRacySqConsume = true;
    System sys(cfg);
    sys.gsan().setEnabled(true);
    gpu::KernelLaunch k;
    k.workItems = 128;
    k.wgSize = 128;
    k.program = [&sys](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        osk::RUsage ru{};
        co_await sys.gpuSys().getrusage(
            ctx,
            inv(Granularity::WorkGroup, Ordering::Strong,
                Blocking::Blocking),
            &ru);
    };
    sys.launchGpuAndDrain(std::move(k));
    sys.run();
    EXPECT_GE(sys.gsan().countOf(ReportKind::PayloadRace), 1u);
    EXPECT_NE(sys.gsan().renderReports().find("ring"),
              std::string::npos);
}

TEST(GsanSysfs, EnvironmentVariableEnablesSanitizer)
{
    ::setenv("GENESYS_GSAN", "1", 1);
    System on;
    ::setenv("GENESYS_GSAN", "0", 1);
    System off;
    ::unsetenv("GENESYS_GSAN");
    EXPECT_TRUE(on.gsan().enabled());
    EXPECT_FALSE(off.gsan().enabled());
}

TEST(GsanSysfs, StatsReportCarriesGsanCounters)
{
    System sys;
    sys.gsan().setEnabled(true);
    const std::string report = sys.statsReport();
    EXPECT_NE(report.find("gsan.enabled"), std::string::npos);
    EXPECT_NE(report.find("gsan.payload_races"), std::string::npos);
    EXPECT_NE(report.find("gsan.ordering_violations"),
              std::string::npos);
    EXPECT_NE(report.find("gsan.lost_wakeups"), std::string::npos);
}

} // namespace
} // namespace genesys::core
