/**
 * @file
 * Tests for pipes and the second batch of readily-implementable
 * syscalls (pipe/dup/dup2/fstat/ftruncate/unlink/getpid/nanosleep) —
 * the "everything is a file" breadth Section IV claims.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <string>

#include "osk/pipe.hh"
#include "osk/process.hh"
#include "osk/syscalls.hh"
#include "sim/sim.hh"

namespace genesys::osk
{
namespace
{

class PipeSyscallTest : public ::testing::Test
{
  protected:
    PipeSyscallTest()
        : kernel_(sim_, KernelConfig{}), proc_(&kernel_.createProcess())
    {}

    std::int64_t
    sys(int num, const SyscallArgs &args)
    {
        std::int64_t ret = -1;
        sim_.spawn([](Kernel &k, Process &p, int n, SyscallArgs a,
                      std::int64_t &out) -> sim::Task<> {
            out = co_await k.doSyscall(p, n, a);
        }(kernel_, *proc_, num, args, ret));
        sim_.run();
        return ret;
    }

    sim::Sim sim_;
    Kernel kernel_;
    Process *proc_;
};

TEST_F(PipeSyscallTest, PipeRoundTrip)
{
    int fds[2] = {-1, -1};
    ASSERT_EQ(sys(sysno::pipe, makeArgs(fds)), 0);
    ASSERT_GE(fds[0], 0);
    ASSERT_GE(fds[1], 0);
    EXPECT_EQ(sys(sysno::write, makeArgs(fds[1], "hello", 5)), 5);
    char buf[8] = {};
    EXPECT_EQ(sys(sysno::read, makeArgs(fds[0], buf, 8)), 5);
    EXPECT_EQ(std::string(buf), "hello");
}

TEST_F(PipeSyscallTest, ReadBlocksUntilWriterDelivers)
{
    int fds[2];
    ASSERT_EQ(sys(sysno::pipe, makeArgs(fds)), 0);
    char buf[16] = {};
    std::int64_t n = -1;
    Tick read_done = 0;
    sim_.spawn([](Kernel &k, Process &p, int fd, char *b,
                  std::int64_t &out, Tick &when) -> sim::Task<> {
        out = co_await k.doSyscall(p, sysno::read,
                                   makeArgs(fd, b, 16));
        when = k.sim().now();
    }(kernel_, *proc_, fds[0], buf, n, read_done));
    sim_.run();
    EXPECT_EQ(n, -1); // still blocked
    sim_.spawn([](Kernel &k, Process &p, int fd) -> sim::Task<> {
        co_await k.sim().delay(ticks::us(50));
        co_await k.doSyscall(p, sysno::write, makeArgs(fd, "x", 1));
    }(kernel_, *proc_, fds[1]));
    sim_.run();
    EXPECT_EQ(n, 1);
    EXPECT_GE(read_done, ticks::us(50));
}

TEST_F(PipeSyscallTest, EofWhenAllWritersClose)
{
    int fds[2];
    ASSERT_EQ(sys(sysno::pipe, makeArgs(fds)), 0);
    sys(sysno::write, makeArgs(fds[1], "ab", 2));
    ASSERT_EQ(sys(sysno::close, makeArgs(fds[1])), 0);
    char buf[4];
    EXPECT_EQ(sys(sysno::read, makeArgs(fds[0], buf, 4)), 2);
    EXPECT_EQ(sys(sysno::read, makeArgs(fds[0], buf, 4)), 0); // EOF
}

TEST_F(PipeSyscallTest, EpipeWhenAllReadersClose)
{
    int fds[2];
    ASSERT_EQ(sys(sysno::pipe, makeArgs(fds)), 0);
    ASSERT_EQ(sys(sysno::close, makeArgs(fds[0])), 0);
    EXPECT_EQ(sys(sysno::write, makeArgs(fds[1], "x", 1)), -EPIPE);
}

TEST_F(PipeSyscallTest, PipesAreNotSeekable)
{
    int fds[2];
    ASSERT_EQ(sys(sysno::pipe, makeArgs(fds)), 0);
    sys(sysno::write, makeArgs(fds[1], "x", 1));
    char c;
    EXPECT_EQ(sys(sysno::pread64, makeArgs(fds[0], &c, 1, 0)), -ESPIPE);
    EXPECT_EQ(sys(sysno::pwrite64, makeArgs(fds[1], &c, 1, 0)),
              -ESPIPE);
}

TEST_F(PipeSyscallTest, WriterBlocksWhenFull)
{
    sim::Sim local;
    PipeInode pipe(local.events(), /*capacity=*/4);
    pipe.addReader();
    pipe.addWriter();
    std::int64_t wrote = -1;
    local.spawn([](PipeInode &pp, std::int64_t &out) -> sim::Task<> {
        const IoVec v = IoVec::of("123456", 6);
        out = co_await pp.writev(&v, 1);
    }(pipe, wrote));
    local.run();
    EXPECT_EQ(wrote, -1); // blocked: only 4 bytes fit
    char buf[4];
    std::int64_t got = 0;
    local.spawn([](PipeInode &pp, char *b, std::int64_t &out)
                    -> sim::Task<> {
        const IoVec v = IoVec::of(b, 4);
        out = co_await pp.readv(&v, 1);
    }(pipe, buf, got));
    local.run();
    EXPECT_EQ(got, 4);
    EXPECT_EQ(wrote, 6); // writer completed after drain
}

TEST_F(PipeSyscallTest, StdoutRedirectionThroughDup2)
{
    // The classic shell pattern: redirect fd 1 into a pipe, write(1),
    // read the other end.
    int fds[2];
    ASSERT_EQ(sys(sysno::pipe, makeArgs(fds)), 0);
    EXPECT_EQ(sys(sysno::dup2, makeArgs(fds[1], 1)), 1);
    EXPECT_EQ(sys(sysno::write, makeArgs(1, "redirected", 10)), 10);
    char buf[16] = {};
    EXPECT_EQ(sys(sysno::read, makeArgs(fds[0], buf, 16)), 10);
    EXPECT_EQ(std::string(buf), "redirected");
    // The console did NOT receive the write.
    EXPECT_EQ(kernel_.terminal().transcript().find("redirected"),
              std::string::npos);
}

TEST_F(PipeSyscallTest, DupSharesFilePosition)
{
    kernel_.vfs().createFile("/d")->setData("abcdef");
    const auto fd = sys(sysno::open, makeArgs("/d", O_RDONLY));
    const auto fd2 = sys(sysno::dup, makeArgs(fd));
    ASSERT_GE(fd2, 0);
    EXPECT_NE(fd, fd2);
    char buf[3] = {};
    sys(sysno::read, makeArgs(fd, buf, 2));
    sys(sysno::read, makeArgs(fd2, buf, 2));
    EXPECT_EQ(std::string(buf, 2), "cd"); // shared offset advanced
}

TEST_F(PipeSyscallTest, DupOfPipeEndCountsEndpoints)
{
    int fds[2];
    ASSERT_EQ(sys(sysno::pipe, makeArgs(fds)), 0);
    const auto w2 = sys(sysno::dup, makeArgs(fds[1]));
    // Closing one writer leaves the pipe open.
    sys(sysno::close, makeArgs(fds[1]));
    EXPECT_EQ(sys(sysno::write, makeArgs(w2, "q", 1)), 1);
    sys(sysno::close, makeArgs(w2));
    char buf[4];
    EXPECT_EQ(sys(sysno::read, makeArgs(fds[0], buf, 4)), 1);
    EXPECT_EQ(sys(sysno::read, makeArgs(fds[0], buf, 4)), 0); // EOF
}

TEST_F(PipeSyscallTest, Dup2Validation)
{
    EXPECT_EQ(sys(sysno::dup, makeArgs(99)), -EBADF);
    EXPECT_EQ(sys(sysno::dup2, makeArgs(99, 5)), -EBADF);
    kernel_.vfs().createFile("/v")->setData("x");
    const auto fd = sys(sysno::open, makeArgs("/v", O_RDONLY));
    EXPECT_EQ(sys(sysno::dup2, makeArgs(fd, fd)), fd);
    EXPECT_EQ(sys(sysno::dup2, makeArgs(fd, -3)), -EBADF);
}

TEST_F(PipeSyscallTest, FstatReportsSizeAndType)
{
    kernel_.vfs().createFile("/s")->setData("0123456");
    const auto fd = sys(sysno::open, makeArgs("/s", O_RDONLY));
    StatLite st{};
    EXPECT_EQ(sys(sysno::fstat, makeArgs(fd, &st)), 0);
    EXPECT_EQ(st.stSize, 7u);
    EXPECT_EQ(st.stMode, 1u); // regular
    const auto cfd = sys(sysno::open, makeArgs("/dev/console", 1));
    EXPECT_EQ(sys(sysno::fstat, makeArgs(cfd, &st)), 0);
    EXPECT_EQ(st.stMode, 3u); // chardev
    int fds[2];
    sys(sysno::pipe, makeArgs(fds));
    EXPECT_EQ(sys(sysno::fstat, makeArgs(fds[0], &st)), 0);
    EXPECT_EQ(st.stMode, 5u); // pipe
    EXPECT_EQ(sys(sysno::fstat, makeArgs(99, &st)), -EBADF);
    EXPECT_EQ(sys(sysno::fstat,
                  makeArgs(fd, static_cast<StatLite *>(nullptr))),
              -EFAULT);
}

TEST_F(PipeSyscallTest, FtruncateAndUnlink)
{
    kernel_.vfs().createFile("/t")->setData("0123456789");
    const auto fd = sys(sysno::open, makeArgs("/t", O_WRONLY));
    EXPECT_EQ(sys(sysno::ftruncate, makeArgs(fd, 4)), 0);
    auto *f = static_cast<RegularFile *>(kernel_.vfs().resolve("/t"));
    EXPECT_EQ(f->size(), 4u);
    // As do_sys_ftruncate: a read-only fd answers -EINVAL, a closed
    // one -EBADF, and a negative length -EINVAL before the fd lookup.
    const auto ro = sys(sysno::open, makeArgs("/t", O_RDONLY));
    EXPECT_EQ(sys(sysno::ftruncate, makeArgs(ro, 1)), -EINVAL);
    EXPECT_EQ(sys(sysno::ftruncate, makeArgs(99, 1)), -EBADF);
    EXPECT_EQ(sys(sysno::ftruncate, makeArgs(fd, -1)), -EINVAL);
    EXPECT_EQ(sys(sysno::ftruncate, makeArgs(99, -1)), -EINVAL);
    EXPECT_EQ(f->size(), 4u);

    EXPECT_EQ(sys(sysno::unlink, makeArgs("/t")), 0);
    EXPECT_EQ(kernel_.vfs().resolve("/t"), nullptr);
    EXPECT_EQ(sys(sysno::unlink, makeArgs("/t")), -ENOENT);
}

TEST_F(PipeSyscallTest, GetpidAndNanosleep)
{
    EXPECT_EQ(sys(sysno::getpid, makeArgs()), proc_->pid());

    TimeSpec req{0, 500'000}; // 500 us
    const Tick before = sim_.now();
    EXPECT_EQ(sys(sysno::nanosleep, makeArgs(&req)), 0);
    EXPECT_GE(sim_.now() - before, ticks::us(500));

    TimeSpec bad{-1, 0};
    EXPECT_EQ(sys(sysno::nanosleep, makeArgs(&bad)), -EINVAL);
    TimeSpec bad2{0, 2'000'000'000};
    EXPECT_EQ(sys(sysno::nanosleep, makeArgs(&bad2)), -EINVAL);
    EXPECT_EQ(sys(sysno::nanosleep,
                  makeArgs(static_cast<TimeSpec *>(nullptr))),
              -EFAULT);
}

TEST_F(PipeSyscallTest, GpuProducerCpuConsumerPipeline)
{
    // A GPU->CPU pipe: impossible without generic syscalls. Uses the
    // raw pipe object with a GPU-side writer via the syscall table.
    int fds[2];
    ASSERT_EQ(sys(sysno::pipe, makeArgs(fds)), 0);
    std::string received;
    sim_.spawn([](Kernel &k, Process &p, int fd,
                  std::string &out) -> sim::Task<> {
        char buf[64];
        for (;;) {
            const auto n = co_await k.doSyscall(
                p, sysno::read, makeArgs(fd, buf, sizeof buf));
            if (n <= 0)
                break;
            out.append(buf, static_cast<std::size_t>(n));
        }
    }(kernel_, *proc_, fds[0], received));
    sim_.spawn([](Kernel &k, Process &p, int fd) -> sim::Task<> {
        for (int i = 0; i < 3; ++i) {
            co_await k.sim().delay(ticks::us(10));
            co_await k.doSyscall(p, sysno::write,
                                 makeArgs(fd, "chunk;", 6));
        }
        co_await k.doSyscall(p, sysno::close, makeArgs(fd));
    }(kernel_, *proc_, fds[1]));
    sim_.run();
    EXPECT_EQ(received, "chunk;chunk;chunk;");
}

} // namespace
} // namespace genesys::osk
