/**
 * @file
 * Ablation: GENESYS's interrupt + kernel-workqueue host backend vs the
 * prior-work user-mode polling daemon [27] that pins a CPU core and
 * scans the slot array.
 *
 * Two effects separate the designs:
 *  1. Low-load request latency: the daemon adds up to a scan interval
 *     of delay before it notices a request; the interrupt path pays a
 *     fixed delivery + dispatch cost regardless of idleness.
 *  2. The stolen core: the daemon burns one of the four CPUs even
 *     when no GPU requests exist; co-running CPU work loses 25% of
 *     its capacity.
 *
 * Every System runs with the gsan happens-before sanitizer enabled
 * (timing-neutral, so the tables are unchanged); the bench exits
 * nonzero on any report.
 */

#include "bench/common.hh"
#include "osk/file.hh"

using namespace genesys;
using namespace genesys::bench;

namespace
{

constexpr const char *kPath = "/tmp/abl.dat";

std::uint64_t g_gsanReports = 0;

/** Mean leader-observed latency of 16 sequential blocking preads. */
double
requestLatencyUs(bool daemon, Tick scan_interval)
{
    core::System sys = freshSystem();
    sys.gsan().setEnabled(true);
    sys.kernel().vfs().createFile(kPath)->setSynthetic(1 << 20);
    std::int64_t fd = -1;
    sys.sim().spawn([](core::System &s, std::int64_t &out) -> sim::Task<> {
        out = co_await s.kernel().doSyscall(
            s.process(), osk::sysno::open,
            osk::makeArgs(kPath, osk::O_RDONLY));
    }(sys, fd));
    sys.run();
    if (daemon)
        sys.host().startPollingDaemon(scan_interval);

    double total_us = 0.0;
    for (int i = 0; i < 16; ++i) {
        Tick t0 = 0, t1 = 0;
        gpu::KernelLaunch k;
        k.workItems = 64;
        k.wgSize = 64;
        k.program = [&sys, &fd, &t0,
                     &t1](gpu::WavefrontCtx &ctx) -> sim::Task<> {
            core::Invocation wg;
            wg.ordering = core::Ordering::Relaxed;
            // Desynchronize from the daemon's scan phase.
            co_await ctx.compute(1000 + 977 * ctx.workgroupId());
            t0 = ctx.sim().now();
            co_await sys.gpuSys().pread(ctx, wg, static_cast<int>(fd),
                                        nullptr, 4096, 0);
            t1 = ctx.sim().now();
        };
        sys.launchGpu(std::move(k));
        sys.run(sys.sim().now() + ticks::ms(20));
        total_us += ticks::toUs(t1 - t0);
    }
    if (daemon) {
        sys.host().stopDaemon();
        sys.run();
    }
    g_gsanReports += sys.gsan().reportCount();
    return total_us / 16.0;
}

/** Completion time of 64 x 50 us CPU jobs next to an (idle) backend. */
double
coRunningJobsMs(bool daemon)
{
    core::System sys = freshSystem();
    sys.gsan().setEnabled(true);
    if (daemon)
        sys.host().startPollingDaemon(ticks::us(20));
    Tick done = 0;
    for (int w = 0; w < 4; ++w) {
        sys.sim().spawn([](core::System &s, Tick &out) -> sim::Task<> {
            for (int i = 0; i < 16; ++i)
                co_await s.kernel().cpus().compute(ticks::us(50));
            if (s.sim().now() > out)
                out = s.sim().now();
        }(sys, done));
    }
    sys.run(ticks::ms(50));
    if (daemon) {
        sys.host().stopDaemon();
        sys.run();
    }
    g_gsanReports += sys.gsan().reportCount();
    return ticks::toMs(done);
}

} // namespace

int
main()
{
    banner("Ablation: host backend",
           "interrupt + workqueue (GENESYS) vs user-mode polling "
           "daemon (prior work)");

    TextTable lat("Low-load blocking pread latency");
    lat.setHeader({"backend", "mean latency (us)"});
    lat.addRow({"interrupt + workqueue",
                logging::format("%.1f", requestLatencyUs(false, 0))});
    for (Tick scan : {ticks::us(5), ticks::us(50), ticks::us(500)}) {
        lat.addRow({logging::format(
                        "polling daemon (scan %llu us)",
                        static_cast<unsigned long long>(scan / 1000)),
                    logging::format("%.1f",
                                    requestLatencyUs(true, scan))});
    }
    std::printf("%s\n", lat.render().c_str());

    TextTable jobs("Co-running CPU jobs (no GPU requests in flight)");
    jobs.setHeader({"backend", "64 x 50us jobs done (ms)",
                    "capacity lost"});
    const double alone = coRunningJobsMs(false);
    const double shared = coRunningJobsMs(true);
    jobs.addRow({"interrupt + workqueue",
                 logging::format("%.2f", alone), "0%"});
    jobs.addRow({"polling daemon",
                 logging::format("%.2f", shared),
                 logging::format("%.0f%%",
                                 100.0 * (shared - alone) / shared)});
    std::printf("%s\n", jobs.render().c_str());

    std::printf("Expected shape: daemon latency tracks its scan "
                "interval and can beat interrupts only with very "
                "tight (CPU-burning) scan loops; the daemon costs one "
                "core (~25%% of this 4-core host) even when idle.\n");

    std::printf("gsan: %llu report(s) across every run%s\n",
                static_cast<unsigned long long>(g_gsanReports),
                g_gsanReports > 0 ? " -- FAIL" : "");
    return g_gsanReports > 0 ? 1 : 0;
}
