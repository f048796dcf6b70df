/**
 * @file
 * Golden tests for the observable surfaces generated from the metric
 * table: the full /sys/genesys listing (path, value, writability),
 * the statsReport() text, and the Producer/Consumer role of every
 * POSIX wrapper. The goldens under tests/golden/ were captured from
 * the hand-wired surfaces the table replaced, so any drift in a path,
 * a value, a knob's writability, a report line or a wrapper's barrier
 * placement fails here. On a mismatch the actual text is written to
 * `<golden>.actual` in the test's working directory.
 *
 * Also covers the sysfs write contract: decimal overflow and values
 * beyond a knob's range are rejected with a zero-byte write.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "core/system.hh"
#include "osk/file.hh"
#include "support/logging.hh"
#include "workloads/gkv.hh"
#include "golden.hh"

namespace genesys::core
{
namespace
{

/** Same topology as test_ring.cc's ringConfig(shards, entries). */
SystemConfig
ringConfig(std::uint32_t shards, std::uint32_t ring_entries)
{
    SystemConfig cfg;
    cfg.gpu.numCus = 2;
    cfg.gpu.maxWavesPerCu = 8;
    cfg.gpu.maxWorkGroupsPerCu = 4;
    cfg.gpu.kernelLaunchLatency = ticks::us(5);
    cfg.genesys.areaShards = shards;
    cfg.genesys.useRings = true;
    cfg.genesys.ringEntries = ring_entries;
    return cfg;
}

/** The fixed GPU gkv run every golden is captured after. */
void
runFixedGkv(System &sys)
{
    // Explicit, so the goldens do not depend on GENESYS_GSAN.
    sys.gsan().setEnabled(true);
    workloads::GkvConfig gc;
    gc.useGpu = true;
    gc.numConnections = 4;
    gc.requestsPerConn = 6;
    gc.serverGroups = 2;
    gc.valueBytes = 128;
    gc.thinkNs = 500;
    ASSERT_TRUE(workloads::runGkv(sys, gc).correct);
}

void
walk(osk::Directory &dir, const std::string &path, std::string &out)
{
    for (const auto &[name, node] : dir.entries()) {
        const std::string child = path + "/" + name;
        if (node->type() == osk::InodeType::Directory) {
            walk(static_cast<osk::Directory &>(*node), child, out);
            continue;
        }
        auto &dev = static_cast<osk::CharDevice &>(*node);
        char buf[64] = {};
        const std::uint64_t n = dev.read(0, buf, sizeof(buf) - 1);
        std::string value(buf, n);
        if (!value.empty() && value.back() == '\n')
            value.pop_back();
        // A file is writable when writing back its own value sticks.
        const bool writable = dev.write(0, value.data(), value.size()) ==
                              value.size();
        out += child + " " + value + (writable ? " rw\n" : " ro\n");
    }
}

/** Every file under /sys/genesys: path, value, rw/ro. */
std::string
sysfsListing(System &sys)
{
    auto *root = sys.kernel().vfs().resolve("/sys/genesys");
    EXPECT_NE(root, nullptr);
    std::string out;
    if (root != nullptr) {
        walk(static_cast<osk::Directory &>(*root), "/sys/genesys",
             out);
    }
    return out;
}

TEST(MetricsGolden, DefaultSystemSysfsAndReport)
{
    System sys;
    runFixedGkv(sys);
    expectGolden("stats_default.txt", sys.statsReport());
    expectGolden("sysfs_default.txt", sysfsListing(sys));
}

TEST(MetricsGolden, RingSystemSysfsAndReport)
{
    System sys(ringConfig(2, 16));
    runFixedGkv(sys);
    expectGolden("stats_ring_2x16.txt", sys.statsReport());
    expectGolden("sysfs_ring_2x16.txt", sysfsListing(sys));
}

using Wrapper = std::function<sim::Task<std::int64_t>(
    GpuSyscalls &, gpu::WavefrontCtx &, Invocation)>;

struct WrapperCase
{
    const char *name;
    int sysno;
    Wrapper call;
};

TEST(MetricsGolden, WrapperRoles)
{
    // A Consumer call flushes the GPU L1 before publishing (Section
    // VI); a Producer call does not. Make the flush cost one second,
    // so the role shows as the time one kernel-scope relaxed
    // non-blocking call takes.
    SystemConfig cfg;
    cfg.genesys.l1FlushCost = ticks::sec(1);
    System sys(cfg);
    // A plan that never fires arms the injector, so every dispatch is
    // counted per sysno: each wrapper must publish its own number.
    sys.kernel().faults().planFault(-1, 1, {});

    static char buf[64];
    static osk::IoVec iov[1] = {
        {osk::SyscallArgs::fromPtr(buf), sizeof(buf)}};
    static osk::SockAddr addr;
    static osk::RUsage usage;
    static osk::SigInfo info;
    static osk::EpollEvent ev[1];
    namespace n = osk::sysno;
    using G = GpuSyscalls;
    using C = gpu::WavefrontCtx;
    using I = Invocation;
    const std::vector<WrapperCase> cases = {
        {"open", n::open,
         [](G &g, C &c, I i) { return g.open(c, i, "/nope", 0); }},
        {"close", n::close,
         [](G &g, C &c, I i) { return g.close(c, i, -1); }},
        {"read", n::read,
         [](G &g, C &c, I i) { return g.read(c, i, -1, buf, 8); }},
        {"write", n::write,
         [](G &g, C &c, I i) { return g.write(c, i, -1, buf, 8); }},
        {"pread", n::pread64,
         [](G &g, C &c, I i) { return g.pread(c, i, -1, buf, 8, 0); }},
        {"pwrite", n::pwrite64,
         [](G &g, C &c, I i) { return g.pwrite(c, i, -1, buf, 8, 0); }},
        {"lseek", n::lseek,
         [](G &g, C &c, I i) { return g.lseek(c, i, -1, 0, 0); }},
        {"mmap", n::mmap,
         [](G &g, C &c, I i) { return g.mmap(c, i, 4096, -1); }},
        {"munmap", n::munmap,
         [](G &g, C &c, I i) { return g.munmap(c, i, 0, 0); }},
        {"madvise", n::madvise,
         [](G &g, C &c, I i) { return g.madvise(c, i, 0, 0, 0); }},
        {"getrusage", n::getrusage,
         [](G &g, C &c, I i) { return g.getrusage(c, i, &usage); }},
        {"rtSigqueueinfo", n::rt_sigqueueinfo,
         [](G &g, C &c, I i) {
             return g.rtSigqueueinfo(c, i, 0, 10, &info);
         }},
        {"sendto", n::sendto,
         [](G &g, C &c, I i) { return g.sendto(c, i, -1, buf, 8, &addr); }},
        {"recvfrom", n::recvfrom,
         [](G &g, C &c, I i) {
             return g.recvfrom(c, i, -1, buf, 8, &addr);
         }},
        {"ioctl", n::ioctl,
         [](G &g, C &c, I i) { return g.ioctl(c, i, -1, 0, buf); }},
        {"readv", n::readv,
         [](G &g, C &c, I i) { return g.readv(c, i, -1, iov, 1); }},
        {"writev", n::writev,
         [](G &g, C &c, I i) { return g.writev(c, i, -1, iov, 1); }},
        {"sendmsg", n::sendmsg,
         [](G &g, C &c, I i) { return g.sendmsg(c, i, -1, iov, 1, 0); }},
        {"recvmsg", n::recvmsg,
         [](G &g, C &c, I i) { return g.recvmsg(c, i, -1, iov, 1, 0); }},
        {"connect", n::connect,
         [](G &g, C &c, I i) { return g.connect(c, i, -1, &addr); }},
        {"listen", n::listen,
         [](G &g, C &c, I i) { return g.listen(c, i, -1, 1); }},
        {"accept", n::accept,
         [](G &g, C &c, I i) { return g.accept(c, i, -1, &addr); }},
        {"shutdown", n::shutdown,
         [](G &g, C &c, I i) { return g.shutdown(c, i, -1, 0); }},
        {"epollCreate", n::epoll_create,
         [](G &g, C &c, I i) { return g.epollCreate(c, i); }},
        {"epollCtl", n::epoll_ctl,
         [](G &g, C &c, I i) { return g.epollCtl(c, i, -1, 1, -1, ev); }},
        {"epollWait", n::epoll_wait,
         [](G &g, C &c, I i) { return g.epollWait(c, i, -1, ev, 1, 0); }},
    };
    ASSERT_EQ(cases.size(), 26u);

    std::vector<Tick> elapsed(cases.size(), 0);
    gpu::KernelLaunch k;
    k.workItems = 64;
    k.wgSize = 64;
    k.program = [&sys, &cases, &elapsed](C &ctx) -> sim::Task<> {
        Invocation inv;
        inv.granularity = Granularity::Kernel;
        inv.ordering = Ordering::Relaxed;
        inv.blocking = Blocking::NonBlocking;
        for (std::size_t i = 0; i < cases.size(); ++i) {
            const Tick start = ctx.sim().now();
            co_await cases[i].call(sys.gpuSys(), ctx, inv);
            elapsed[i] = ctx.sim().now() - start;
        }
    };
    sys.launchGpuAndDrain(std::move(k));
    sys.run();

    std::string out;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        EXPECT_EQ(sys.kernel().faults().invocations(cases[i].sysno), 1u)
            << cases[i].name;
        out += logging::format(
            "%s %d %s\n", cases[i].name, cases[i].sysno,
            elapsed[i] >= ticks::sec(1) ? "consumer" : "producer");
    }
    expectGolden("wrapper_roles.txt", out);
}

// ------------------------------------------------- sysfs write contract

/** write(2) of @p text to the sysfs file @p path, via simulated code. */
std::int64_t
writeSysfs(System &sys, const std::string &path, const std::string &text)
{
    std::int64_t ret = -1;
    sys.sim().spawn([](System &s, std::string p, std::string t,
                       std::int64_t &out) -> sim::Task<> {
        osk::Process &proc = s.process();
        const std::int64_t fd = co_await s.kernel().doSyscall(
            proc, osk::sysno::open, osk::makeArgs(p.c_str(), osk::O_WRONLY));
        out = co_await s.kernel().doSyscall(
            proc, osk::sysno::write,
            osk::makeArgs(fd, t.data(), t.size()));
        co_await s.kernel().doSyscall(proc, osk::sysno::close,
                                      osk::makeArgs(fd));
    }(sys, path, text, ret));
    sys.run();
    return ret;
}

TEST(SysfsWrite, FirstSysAccessIsAWriteThatSticks)
{
    // /sys/genesys fills on its first lookup; a write that is that
    // lookup must land in a file the fill just made, and the tree it
    // leaves must be the whole tree.
    System sys;
    EXPECT_EQ(writeSysfs(sys, "/sys/genesys/coalesce_window_ns", "2500"),
              4);
    EXPECT_EQ(sys.host().coalesceWindow(), ticks::ns(2500));
    // Back to the default, so the listing compares with the golden.
    EXPECT_EQ(writeSysfs(sys, "/sys/genesys/coalesce_window_ns", "0"), 1);
    runFixedGkv(sys);
    expectGolden("sysfs_default.txt", sysfsListing(sys));
}

TEST(SysfsWrite, DecimalOverflowRejected)
{
    System sys;
    // 2^64 + 1 used to wrap to 1 and stick.
    EXPECT_EQ(writeSysfs(sys, "/sys/genesys/net/tcp/loss_ppm",
                         "18446744073709551617"),
              0);
    EXPECT_EQ(sys.kernel().tcp().lossPpm(), 0u);
    EXPECT_EQ(writeSysfs(sys, "/sys/genesys/fault/seed",
                         "18446744073709551616\n"),
              0);
    EXPECT_EQ(sys.kernel().faults().config().seed, 1u);
    // UINT64_MAX itself still parses.
    EXPECT_EQ(writeSysfs(sys, "/sys/genesys/fault/seed",
                         "18446744073709551615\n"),
              21);
    EXPECT_EQ(sys.kernel().faults().config().seed, UINT64_MAX);
}

TEST(SysfsWrite, U32KnobsRejectValuesAboveUint32Max)
{
    System sys;
    // coalesce_max_batch used to truncate 2^32 to 0, a value the same
    // file rejects.
    EXPECT_EQ(writeSysfs(sys, "/sys/genesys/coalesce_max_batch",
                         "4294967296"),
              0);
    EXPECT_EQ(sys.host().coalesceMaxBatch(), 1u);
    EXPECT_EQ(writeSysfs(sys, "/sys/genesys/coalesce_max_batch",
                         "4294967295"),
              10);
    EXPECT_EQ(sys.host().coalesceMaxBatch(), UINT32_MAX);
    for (const char *knob :
         {"/sys/genesys/fault/atomic_transfer_bytes",
          "/sys/genesys/gsan/max_reports",
          "/sys/genesys/workqueue/queue_bound",
          "/sys/genesys/workqueue/max_workers"}) {
        EXPECT_EQ(writeSysfs(sys, knob, "4294967296"), 0) << knob;
    }
    EXPECT_EQ(sys.kernel().faults().config().atomicTransferBytes, 512u);
    EXPECT_EQ(sys.gsan().maxStoredReports(), 256u);
    EXPECT_EQ(sys.kernel().workqueue().queueBound(), 4096u);
    EXPECT_EQ(sys.kernel().workqueue().maxWorkers(), 32u);
}

} // namespace
} // namespace genesys::core
