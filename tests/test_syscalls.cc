/**
 * @file
 * Tests for the syscall dispatch table, exercised through a full Kernel
 * in the context of a process — the same path GENESYS worker threads
 * take when servicing GPU requests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "core/system.hh"
#include "osk/classification.hh"
#include "osk/devices.hh"
#include "osk/process.hh"
#include "osk/syscalls.hh"
#include "sim/sim.hh"

namespace genesys::osk
{
namespace
{

class SyscallTest : public ::testing::Test
{
  protected:
    SyscallTest() : kernel_(sim_, KernelConfig{}), proc_(&kernel_.createProcess())
    {}

    /**
     * Run one syscall to completion and return its result; with
     * @p faultable, through the fault-injecting dispatch.
     */
    std::int64_t
    sys(int num, const SyscallArgs &args, bool faultable = false)
    {
        std::int64_t ret = -1;
        sim_.spawn([](Kernel &k, Process &p, int n, SyscallArgs a,
                      bool f, std::int64_t &out) -> sim::Task<> {
            out = f ? co_await k.doSyscallFaultable(p, n, a)
                    : co_await k.doSyscall(p, n, a);
        }(kernel_, *proc_, num, args, faultable, ret));
        sim_.run();
        return ret;
    }

    sim::Sim sim_;
    Kernel kernel_;
    Process *proc_;
};

TEST_F(SyscallTest, UnknownSyscallReturnsEnosys)
{
    EXPECT_EQ(sys(9999, {}), -ENOSYS);
}

TEST_F(SyscallTest, TableNamesAndCount)
{
    ASSERT_NE(syscallRow(sysno::pread64), nullptr);
    EXPECT_TRUE(syscallRow(sysno::pread64)->implemented());
    EXPECT_EQ(syscallName(sysno::madvise), "madvise");
    EXPECT_EQ(syscallName(777), "sys_777");
    EXPECT_EQ(syscallRow(777), nullptr);
    EXPECT_EQ(censusCounts().implemented, 36u);
}

// Numbers at and past the ends of the array-indexed table, and a
// census-only row: each must cost exactly syscallBase and fail -ENOSYS.
const int kNoHandlerNumbers[] = {
    -1, INT_MIN, static_cast<int>(syscall_rows::kIndex.size()), 9999,
    57, // fork: a census row with no handler
};

TEST_F(SyscallTest, NumbersWithoutHandlerCostBaseAndReturnEnosys)
{
    ASSERT_NE(syscallRow(57), nullptr);
    EXPECT_EQ(syscallRow(57)->name, "fork");
    EXPECT_FALSE(syscallRow(57)->implemented());
    EXPECT_EQ(syscallRow(kNoHandlerNumbers[2]), nullptr);
    for (int num : kNoHandlerNumbers) {
        for (bool faultable : {false, true}) {
            const Tick before = sim_.now();
            EXPECT_EQ(sys(num, {}, faultable), -ENOSYS) << num;
            EXPECT_EQ(sim_.now() - before, kernel_.params().syscallBase)
                << num;
        }
    }
}

/**
 * Results of eight faultable getpid calls under a 50% EINTR plan,
 * each optionally preceded by one call of every no-handler number,
 * each of which has a scripted fault planned on its first dispatch.
 */
std::vector<std::int64_t>
getpidsUnderFaults(bool with_unknowns, std::vector<std::uint64_t> *seen)
{
    sim::Sim sim;
    Kernel kernel(sim, KernelConfig{});
    Process &proc = kernel.createProcess();
    FaultConfig cfg;
    cfg.seed = 42;
    cfg.eintrPpm = 500'000;
    kernel.faults().configure(cfg);
    for (int num : kNoHandlerNumbers)
        kernel.faults().planFault(num, 1, {FaultKind::Errno, EPERM});
    std::vector<std::int64_t> out;
    sim.spawn([](Kernel &k, Process &p, bool unknowns,
                 std::vector<std::int64_t> &results) -> sim::Task<> {
        for (int i = 0; i < 8; ++i) {
            if (unknowns) {
                for (int num : kNoHandlerNumbers) {
                    EXPECT_EQ(co_await k.doSyscallFaultable(p, num, {}),
                              -ENOSYS)
                        << num;
                }
            }
            results.push_back(
                co_await k.doSyscallFaultable(p, sysno::getpid, {}));
        }
    }(kernel, proc, with_unknowns, out));
    sim.run();
    if (seen != nullptr) {
        for (int num : kNoHandlerNumbers)
            seen->push_back(kernel.faults().invocations(num));
    }
    EXPECT_EQ(kernel.faults().invocations(sysno::getpid), 8u);
    return out;
}

TEST(SyscallDispatch, NoHandlerNumbersNeverReachTheFaultInjector)
{
    std::vector<std::uint64_t> seen;
    const std::vector<std::int64_t> with =
        getpidsUnderFaults(true, &seen);
    EXPECT_EQ(seen, std::vector<std::uint64_t>(
                        std::size(kNoHandlerNumbers), 0u));
    // The implemented calls get the decisions they get without the
    // no-handler numbers in between; the plan must mix outcomes.
    EXPECT_EQ(with, getpidsUnderFaults(false, nullptr));
    EXPECT_NE(std::count(with.begin(), with.end(), -EINTR), 0);
    EXPECT_NE(std::count(with.begin(), with.end(), -EINTR), 8);
}

/** One wavefront publishes fork (57) from every lane, work-item mode. */
void
publishForkFromEveryLane(bool rings)
{
    core::SystemConfig cfg;
    cfg.gpu.numCus = 2;
    cfg.gpu.maxWavesPerCu = 8;
    cfg.gpu.maxWorkGroupsPerCu = 4;
    cfg.genesys.useRings = rings;
    core::System sys(cfg);
    std::vector<std::int64_t> results;
    gpu::KernelLaunch k;
    k.workItems = 64;
    k.wgSize = 64;
    k.program = [&sys, &results](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        core::Invocation wi;
        wi.granularity = core::Granularity::WorkItem;
        wi.ordering = core::Ordering::Strong;
        co_await sys.gpuSys().invokeWorkItems(
            ctx, wi, 57,
            [](std::uint32_t) {
                return std::optional<SyscallArgs>(SyscallArgs{});
            },
            [&results](std::uint32_t, std::int64_t ret) {
                results.push_back(ret);
            });
    };
    sys.launchGpuAndDrain(std::move(k));
    sys.run();
    EXPECT_EQ(results, std::vector<std::int64_t>(64, -ENOSYS));
    EXPECT_TRUE(sys.syscallArea().quiescent());
    EXPECT_TRUE(sys.syscallArea().ringsIdle());
}

TEST(SyscallDispatch, WorkItemForkReturnsEnosysInSlotMode)
{
    publishForkFromEveryLane(false);
}

TEST(SyscallDispatch, WorkItemForkReturnsEnosysInRingMode)
{
    publishForkFromEveryLane(true);
}

TEST_F(SyscallTest, OpenReadClose)
{
    kernel_.vfs().createFile("/data/f.txt")->setData("file-content");
    const std::int64_t fd =
        sys(sysno::open, makeArgs("/data/f.txt", O_RDONLY));
    ASSERT_GE(fd, 0);
    char buf[64] = {};
    EXPECT_EQ(sys(sysno::read, makeArgs(fd, buf, sizeof buf)), 12);
    EXPECT_EQ(std::string(buf), "file-content");
    // Sequential read continues from the file position.
    EXPECT_EQ(sys(sysno::read, makeArgs(fd, buf, sizeof buf)), 0);
    EXPECT_EQ(sys(sysno::close, makeArgs(fd)), 0);
    EXPECT_EQ(sys(sysno::read, makeArgs(fd, buf, sizeof buf)), -EBADF);
}

TEST_F(SyscallTest, OpenErrors)
{
    EXPECT_EQ(sys(sysno::open, makeArgs("/missing", O_RDONLY)), -ENOENT);
    EXPECT_EQ(sys(sysno::open, makeArgs("/dev", O_RDONLY)), -EISDIR);
    EXPECT_EQ(sys(sysno::open,
                  makeArgs(static_cast<const char *>(nullptr), 0)),
              -EFAULT);
}

TEST_F(SyscallTest, OpenCreatTruncAppend)
{
    const std::int64_t fd =
        sys(sysno::open, makeArgs("/new/file", O_WRONLY | O_CREAT));
    ASSERT_GE(fd, 0);
    EXPECT_EQ(sys(sysno::write, makeArgs(fd, "abc", 3)), 3);
    sys(sysno::close, makeArgs(fd));

    const std::int64_t fd2 = sys(
        sysno::open, makeArgs("/new/file", O_WRONLY | O_APPEND));
    ASSERT_GE(fd2, 0);
    EXPECT_EQ(sys(sysno::write, makeArgs(fd2, "def", 3)), 3);
    sys(sysno::close, makeArgs(fd2));

    auto *f =
        static_cast<RegularFile *>(kernel_.vfs().resolve("/new/file"));
    EXPECT_EQ(std::string(f->data().begin(), f->data().end()), "abcdef");

    const std::int64_t fd3 =
        sys(sysno::open, makeArgs("/new/file", O_WRONLY | O_TRUNC));
    ASSERT_GE(fd3, 0);
    EXPECT_EQ(f->size(), 0u);
}

TEST_F(SyscallTest, WritePermissionEnforced)
{
    kernel_.vfs().createFile("/ro")->setData("x");
    const std::int64_t fd = sys(sysno::open, makeArgs("/ro", O_RDONLY));
    EXPECT_EQ(sys(sysno::write, makeArgs(fd, "y", 1)), -EBADF);
    const std::int64_t wfd = sys(sysno::open, makeArgs("/ro", O_WRONLY));
    char buf[4];
    EXPECT_EQ(sys(sysno::read, makeArgs(wfd, buf, 4)), -EBADF);
}

TEST_F(SyscallTest, PreadPwriteArePositionIndependent)
{
    kernel_.vfs().createFile("/p")->setData("0123456789");
    const std::int64_t fd = sys(sysno::open, makeArgs("/p", O_RDWR));
    char buf[4] = {};
    EXPECT_EQ(sys(sysno::pread64, makeArgs(fd, buf, 4, 3)), 4);
    EXPECT_EQ(std::string(buf, 4), "3456");
    EXPECT_EQ(sys(sysno::pwrite64, makeArgs(fd, "XY", 2, 8)), 2);
    // File position untouched by positional I/O.
    EXPECT_EQ(sys(sysno::read, makeArgs(fd, buf, 4)), 4);
    EXPECT_EQ(std::string(buf, 4), "0123");
    auto *f = static_cast<RegularFile *>(kernel_.vfs().resolve("/p"));
    EXPECT_EQ(std::string(f->data().begin(), f->data().end()),
              "01234567XY");
}

TEST_F(SyscallTest, LseekWhenceVariants)
{
    kernel_.vfs().createFile("/s")->setData("0123456789");
    const std::int64_t fd = sys(sysno::open, makeArgs("/s", O_RDONLY));
    EXPECT_EQ(sys(sysno::lseek, makeArgs(fd, 4, SEEK_SET_)), 4);
    EXPECT_EQ(sys(sysno::lseek, makeArgs(fd, 2, SEEK_CUR_)), 6);
    EXPECT_EQ(sys(sysno::lseek, makeArgs(fd, -1, SEEK_END_)), 9);
    EXPECT_EQ(sys(sysno::lseek, makeArgs(fd, -20, SEEK_CUR_)), -EINVAL);
    EXPECT_EQ(sys(sysno::lseek, makeArgs(fd, 0, 42)), -EINVAL);
    char c;
    EXPECT_EQ(sys(sysno::read, makeArgs(fd, &c, 1)), 1);
    EXPECT_EQ(c, '9');
}

TEST_F(SyscallTest, TerminalWriteGoesToConsole)
{
    const std::int64_t fd =
        sys(sysno::open, makeArgs("/dev/console", O_WRONLY));
    ASSERT_GE(fd, 0);
    EXPECT_EQ(sys(sysno::write, makeArgs(fd, "match.txt\n", 10)), 10);
    EXPECT_EQ(kernel_.terminal().transcript(), "match.txt\n");
}

TEST_F(SyscallTest, ProcFileSnapshotAtOpen)
{
    const std::int64_t fd =
        sys(sysno::open, makeArgs("/proc/meminfo", O_RDONLY));
    ASSERT_GE(fd, 0);
    char buf[256] = {};
    const auto n = sys(sysno::read, makeArgs(fd, buf, sizeof buf));
    ASSERT_GT(n, 0);
    EXPECT_NE(std::string(buf).find("pid 1 rss_bytes"),
              std::string::npos);
}

TEST_F(SyscallTest, MmapMunmapAnonymous)
{
    const std::int64_t addr = sys(
        sysno::mmap, makeArgs(0, 64 * kPageSize, 3, 0x22, -1, 0));
    ASSERT_GT(addr, 0);
    EXPECT_EQ(sys(sysno::munmap, makeArgs(addr, 64 * kPageSize)), 0);
    EXPECT_EQ(sys(sysno::munmap, makeArgs(addr, 64 * kPageSize)),
              -EINVAL);
    EXPECT_EQ(sys(sysno::mmap, makeArgs(0, 0, 3, 0x22, -1, 0)), -EINVAL);
}

TEST_F(SyscallTest, MadviseAndGetrusageRoundTrip)
{
    const std::int64_t addr = sys(
        sysno::mmap, makeArgs(0, 16 * kPageSize, 3, 0x22, -1, 0));
    ASSERT_GT(addr, 0);
    proc_->mm().touchUntimed(static_cast<Addr>(addr), 16 * kPageSize);

    RUsage usage{};
    EXPECT_EQ(sys(sysno::getrusage, makeArgs(0, &usage)), 0);
    EXPECT_EQ(usage.curRssBytes, 16 * kPageSize);
    EXPECT_EQ(usage.ruMinFlt, 16u);

    EXPECT_EQ(sys(sysno::madvise,
                  makeArgs(addr, 8 * kPageSize, MADV_DONTNEED_)),
              0);
    EXPECT_EQ(sys(sysno::getrusage, makeArgs(0, &usage)), 0);
    EXPECT_EQ(usage.curRssBytes, 8 * kPageSize);
    EXPECT_EQ(usage.ruMaxRssKib, 16 * kPageSize / 1024);
}

TEST_F(SyscallTest, GetrusageNullPointerFaults)
{
    EXPECT_EQ(sys(sysno::getrusage,
                  makeArgs(0, static_cast<RUsage *>(nullptr))),
              -EFAULT);
}

TEST_F(SyscallTest, FramebufferIoctlAndMmap)
{
    const std::int64_t fd =
        sys(sysno::open, makeArgs("/dev/fb0", O_RDWR));
    ASSERT_GE(fd, 0);
    FbVarScreenInfo var{};
    EXPECT_EQ(sys(sysno::ioctl, makeArgs(fd, FBIOGET_VSCREENINFO, &var)),
              0);
    EXPECT_EQ(var.xres, 1024u);

    // Before any pixel is touched, fstat and FBIOGET_FSCREENINFO
    // already report the whole 3 MiB screen.
    StatLite st{};
    EXPECT_EQ(sys(sysno::fstat, makeArgs(fd, &st)), 0);
    EXPECT_EQ(st.stSize, 1024u * 768 * 4);
    FbFixScreenInfo fix{};
    EXPECT_EQ(sys(sysno::ioctl, makeArgs(fd, FBIOGET_FSCREENINFO, &fix)),
              0);
    EXPECT_EQ(fix.smemLen, 1024u * 768 * 4);
    const std::int64_t addr =
        sys(sysno::mmap, makeArgs(0, fix.smemLen, 3, 1, fd, 0));
    ASSERT_GT(addr, 0);
    std::uint8_t *pix =
        proc_->mm().resolve(static_cast<Addr>(addr), 16);
    ASSERT_NE(pix, nullptr);
    pix[3] = 0x77;
    EXPECT_EQ(kernel_.framebuffer().pixels()[3], 0x77);
}

TEST_F(SyscallTest, IoctlOnRegularFileIsNotty)
{
    kernel_.vfs().createFile("/f")->setData("x");
    const std::int64_t fd = sys(sysno::open, makeArgs("/f", O_RDONLY));
    EXPECT_EQ(sys(sysno::ioctl, makeArgs(fd, FBIOGET_VSCREENINFO,
                                         static_cast<void *>(nullptr))),
              -ENOTTY);
    EXPECT_EQ(sys(sysno::ioctl, makeArgs(99, 0, nullptr)), -EBADF);
}

TEST_F(SyscallTest, UdpSocketSendRecvThroughSyscalls)
{
    const std::int64_t sfd = sys(sysno::socket, makeArgs(2, 2, 0));
    const std::int64_t cfd = sys(sysno::socket, makeArgs(2, 2, 0));
    ASSERT_GE(sfd, 0);
    ASSERT_GE(cfd, 0);
    SockAddr server_addr{1, 11211};
    SockAddr client_addr{1, 40000};
    EXPECT_EQ(sys(sysno::bind, makeArgs(sfd, &server_addr, 8)), 0);
    EXPECT_EQ(sys(sysno::bind, makeArgs(cfd, &client_addr, 8)), 0);

    // Receiver first (blocks), then sender; both as concurrent tasks.
    char rxbuf[64] = {};
    SockAddr src{};
    std::int64_t rx_n = -1, tx_n = -1;
    sim_.spawn([](Kernel &k, Process &p, int fd, char *buf, SockAddr *s,
                  std::int64_t &out) -> sim::Task<> {
        out = co_await k.doSyscall(
            p, sysno::recvfrom, makeArgs(fd, buf, 64, 0, s, nullptr));
    }(kernel_, *proc_, static_cast<int>(sfd), rxbuf, &src, rx_n));
    sim_.spawn([](Kernel &k, Process &p, int fd, SockAddr *dst,
                  std::int64_t &out) -> sim::Task<> {
        out = co_await k.doSyscall(
            p, sysno::sendto, makeArgs(fd, "GET k", 5, 0, dst, 8));
    }(kernel_, *proc_, static_cast<int>(cfd), &server_addr, tx_n));
    sim_.run();
    EXPECT_EQ(tx_n, 5);
    EXPECT_EQ(rx_n, 5);
    EXPECT_EQ(std::string(rxbuf, 5), "GET k");
    EXPECT_EQ(src.port, 40000u);

    // close() releases the socket endpoint.
    EXPECT_EQ(sys(sysno::close, makeArgs(sfd)), 0);
    const std::int64_t sfd2 = sys(sysno::socket, makeArgs(2, 2, 0));
    EXPECT_EQ(sys(sysno::bind, makeArgs(sfd2, &server_addr, 8)), 0);
}

TEST_F(SyscallTest, SendtoValidation)
{
    EXPECT_EQ(sys(sysno::sendto,
                  makeArgs(42, "x", 1, 0,
                           static_cast<SockAddr *>(nullptr), 0)),
              -EBADF);
    kernel_.vfs().createFile("/notsock")->setData("");
    const std::int64_t fd =
        sys(sysno::open, makeArgs("/notsock", O_RDWR));
    // send(2): "ENOTSOCK The file descriptor sockfd does not refer to
    // a socket."
    EXPECT_EQ(sys(sysno::sendto,
                  makeArgs(fd, "x", 1, 0,
                           static_cast<SockAddr *>(nullptr), 0)),
              -ENOTSOCK);
}

TEST_F(SyscallTest, RtSigqueueinfoDeliversToProcess)
{
    SigInfo info{};
    info.signo = SIGRTMIN_;
    info.value = 777;
    EXPECT_EQ(sys(sysno::rt_sigqueueinfo,
                  makeArgs(proc_->pid(), SIGRTMIN_, &info)),
              0);
    SigInfo got{};
    EXPECT_TRUE(proc_->signals().tryDequeue(got));
    EXPECT_EQ(got.value, 777);
    EXPECT_EQ(got.senderId, 1u);
}

TEST_F(SyscallTest, RtSigqueueinfoToMissingPidIsEsrch)
{
    // Linux returns -ESRCH when the pid names no process; the pid is
    // caller-controlled (GPU-reachable), so it must never panic.
    SigInfo info{};
    for (const int pid : {-1, -4096, proc_->pid() + 1, 1 << 30}) {
        EXPECT_EQ(sys(sysno::rt_sigqueueinfo,
                      makeArgs(pid, SIGRTMIN_, &info)),
                  -ESRCH)
            << "pid " << pid;
    }
    EXPECT_EQ(proc_->signals().pending(), 0u);
    // pid 0 still names the caller.
    EXPECT_EQ(sys(sysno::rt_sigqueueinfo, makeArgs(0, SIGRTMIN_, &info)),
              0);
    EXPECT_EQ(proc_->signals().pending(), 1u);
}

TEST_F(SyscallTest, SyscallsChargeServiceTime)
{
    kernel_.vfs().createFile("/t")->setData(std::string(1 << 20, 'a'));
    const std::int64_t fd = sys(sysno::open, makeArgs("/t", O_RDONLY));
    const Tick before = sim_.now();
    std::vector<char> buf(1 << 20);
    sys(sysno::pread64, makeArgs(fd, buf.data(), buf.size(), 0));
    const Tick elapsed = sim_.now() - before;
    // 1 MiB at 6 GB/s is ~175 us, plus base costs.
    EXPECT_GT(elapsed, ticks::us(150));
    EXPECT_LT(elapsed, ticks::us(300));
}

TEST_F(SyscallTest, SsdBackedReadPaysDeviceTime)
{
    auto *f = kernel_.createSsdFile("/mnt/ssd/data");
    f->setSynthetic(1 << 20);
    const std::int64_t fd =
        sys(sysno::open, makeArgs("/mnt/ssd/data", O_RDONLY));
    const Tick before = sim_.now();
    sys(sysno::pread64, makeArgs(fd, nullptr, 1 << 20, 0));
    const Tick elapsed = sim_.now() - before;
    // 1 MiB at 520 MB/s is ~2 ms plus 90 us access latency.
    EXPECT_GT(elapsed, ticks::ms(2));
}

// ----------------------------------------------------- classification

TEST(Classification, CensusMatchesPaperProportions)
{
    const CensusCounts c = censusCounts();
    EXPECT_GE(c.total, 300u); // "all of Linux's 300+ system calls"
    EXPECT_NEAR(c.fraction(c.readily), 0.79, 0.04);
    EXPECT_NEAR(c.fraction(c.needsHw), 0.13, 0.03);
    EXPECT_NEAR(c.fraction(c.extensive), 0.08, 0.03);
    EXPECT_EQ(c.readily + c.needsHw + c.extensive, c.total);
}

TEST(Classification, TableTwoExamplesPresent)
{
    // Every example row of Table II must be in the needs-HW class.
    const auto hw = entriesOf(SyscallClass::NeedsHardwareChanges);
    auto has = [&hw](const std::string &name) {
        for (const auto &e : hw)
            if (e.name == name)
                return true;
        return false;
    };
    for (const char *n :
         {"capget", "capset", "setns", "set_mempolicy", "sched_yield",
          "sched_setaffinity", "rt_sigaction", "rt_sigsuspend",
          "rt_sigreturn", "rt_sigprocmask", "ioperm"}) {
        EXPECT_TRUE(has(n)) << n;
    }
}

TEST(Classification, NonReadilyEntriesCarryReasons)
{
    for (const SyscallRow &e : kSyscallTable) {
        if (e.cls == SyscallClass::ReadilyImplementable) {
            EXPECT_EQ(e.reason, SyscallReason::None) << e.name;
        } else {
            EXPECT_NE(e.reason, SyscallReason::None) << e.name;
        }
        EXPECT_STRNE(typeName(e.type), "") << e.name;
    }
}

TEST(Classification, ImplementedCallsAreClassifiedReadily)
{
    // Everything GENESYS implements must be readily-implementable.
    for (const char *n :
         {"read", "write", "pread64", "pwrite64", "open", "close",
          "lseek", "mmap", "munmap", "madvise", "getrusage",
          "rt_sigqueueinfo", "sendto", "recvfrom", "ioctl"}) {
        bool found = false;
        for (const SyscallRow &e : kSyscallTable) {
            if (e.name == n) {
                EXPECT_EQ(e.cls, SyscallClass::ReadilyImplementable)
                    << n;
                EXPECT_TRUE(e.implemented()) << n;
                found = true;
            }
        }
        EXPECT_TRUE(found) << n;
    }
}

TEST(Classification, NoDuplicateNames)
{
    std::set<std::string_view> names;
    std::set<int> numbers;
    for (const SyscallRow &e : kSyscallTable) {
        EXPECT_TRUE(names.insert(e.name).second)
            << "duplicate " << e.name;
        EXPECT_TRUE(numbers.insert(e.num).second)
            << "duplicate number " << e.num << " (" << e.name << ")";
        ASSERT_NE(syscallRow(e.num), nullptr) << e.name;
        EXPECT_EQ(syscallRow(e.num)->name, e.name);
    }
}

TEST(Classification, NumbersMatchTheHostKernelAbi)
{
#ifdef GENESYS_UNISTD_64_H
    std::ifstream in(GENESYS_UNISTD_64_H);
    ASSERT_TRUE(in) << GENESYS_UNISTD_64_H;
    const std::regex define(R"(#define __NR_(\w+)\s+(\d+))");
    std::map<std::string, int, std::less<>> abi;
    for (std::string line; std::getline(in, line);) {
        std::smatch m;
        if (std::regex_search(line, m, define))
            abi[m[1].str()] = std::stoi(m[2].str());
    }
    ASSERT_GE(abi.size(), kSyscallTable.size());
    for (const SyscallRow &e : kSyscallTable) {
        const auto it = abi.find(e.name);
        ASSERT_NE(it, abi.end()) << e.name << " is not in the host ABI";
        EXPECT_EQ(e.num, it->second) << e.name;
    }
#else
    GTEST_SKIP() << "CMake found no x86-64 <asm/unistd_64.h> to check "
                    "the table's numbers against";
#endif
}

} // namespace
} // namespace genesys::osk
