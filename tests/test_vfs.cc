/**
 * @file
 * Unit tests for the VFS, devices, descriptor tables, and the SSD model.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "osk/block_device.hh"
#include "osk/devices.hh"
#include "osk/file.hh"
#include "osk/vfs.hh"
#include "sim/sim.hh"

namespace genesys::osk
{
namespace
{

// -------------------------------------------------------------------- Vfs

TEST(Vfs, CreateAndResolveFile)
{
    Vfs vfs;
    RegularFile *f = vfs.createFile("/data/input.txt");
    ASSERT_NE(f, nullptr);
    f->setData("hello");
    Inode *node = vfs.resolve("/data/input.txt");
    ASSERT_EQ(node, f);
    EXPECT_EQ(node->size(), 5u);
}

TEST(Vfs, ResolveMissingReturnsNull)
{
    Vfs vfs;
    EXPECT_EQ(vfs.resolve("/nope"), nullptr);
    EXPECT_EQ(vfs.resolve("relative/path"), nullptr);
    EXPECT_EQ(vfs.resolve(""), nullptr);
}

TEST(Vfs, CreateFileTruncatesExisting)
{
    Vfs vfs;
    RegularFile *f = vfs.createFile("/a/b");
    f->setData("0123456789");
    RegularFile *again = vfs.createFile("/a/b");
    EXPECT_EQ(again, f);
    EXPECT_EQ(f->size(), 0u);
}

TEST(Vfs, CreateFileRefusesNonRegularConflict)
{
    Vfs vfs;
    ASSERT_TRUE(vfs.install("/dev/null", std::make_shared<NullDevice>()));
    EXPECT_EQ(vfs.createFile("/dev/null"), nullptr);
    // Parent path through a non-directory also fails.
    vfs.createFile("/file");
    EXPECT_EQ(vfs.createFile("/file/child"), nullptr);
}

TEST(Vfs, UnlinkRemovesEntry)
{
    Vfs vfs;
    vfs.createFile("/tmp/x");
    EXPECT_TRUE(vfs.unlink("/tmp/x"));
    EXPECT_EQ(vfs.resolve("/tmp/x"), nullptr);
    EXPECT_FALSE(vfs.unlink("/tmp/x"));
}

TEST(Vfs, ListFilesReturnsOnlyRegularFiles)
{
    Vfs vfs;
    vfs.createFile("/corpus/a.txt");
    vfs.createFile("/corpus/b.txt");
    vfs.createFile("/corpus/sub/nested.txt"); // dir entry, not a file
    auto files = vfs.listFiles("/corpus");
    ASSERT_EQ(files.size(), 2u);
    EXPECT_EQ(files[0], "/corpus/a.txt");
    EXPECT_EQ(files[1], "/corpus/b.txt");
}

TEST(Vfs, ComponentCount)
{
    EXPECT_EQ(Vfs::componentCount("/a/b/c"), 3u);
    EXPECT_EQ(Vfs::componentCount("/"), 0u);
    EXPECT_EQ(Vfs::componentCount("/x"), 1u);
}

// ------------------------------------------------------------ RegularFile

TEST(RegularFile, ReadAtHonorsEofAndOffset)
{
    RegularFile f;
    f.setData("abcdef");
    char buf[8] = {};
    EXPECT_EQ(f.readAt(2, buf, 3), 3u);
    EXPECT_EQ(std::string(buf, 3), "cde");
    EXPECT_EQ(f.readAt(6, buf, 3), 0u);
    EXPECT_EQ(f.readAt(4, buf, 100), 2u);
}

TEST(RegularFile, WriteExtendsAndZeroFills)
{
    RegularFile f;
    f.writeAt(4, "xy", 2);
    EXPECT_EQ(f.size(), 6u);
    char buf[6];
    f.readAt(0, buf, 6);
    EXPECT_EQ(buf[0], 0);
    EXPECT_EQ(buf[4], 'x');
}

TEST(RegularFile, SyntheticGeneratesDeterministicContent)
{
    RegularFile f;
    f.setSynthetic(1ull << 33, // 8 GiB costs no host memory
                   [](std::uint64_t off) {
                       return static_cast<std::uint8_t>(off % 251);
                   });
    EXPECT_EQ(f.size(), 1ull << 33);
    std::uint8_t buf[16];
    EXPECT_EQ(f.readAt(1000, buf, 16), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(buf[i], (1000 + i) % 251);
}

TEST(RegularFile, SyntheticNullReaderAndSinkWrites)
{
    RegularFile f;
    f.setSynthetic(4096);
    EXPECT_EQ(f.readAt(0, nullptr, 4096), 4096u);
    EXPECT_EQ(f.writeAt(10000, nullptr, 100), 100u);
    EXPECT_EQ(f.size(), 10100u);
    EXPECT_TRUE(f.data().empty()); // nothing materialized
}

// ---------------------------------------------------------------- devices

TEST(Devices, TerminalCapturesWrites)
{
    TerminalDevice term;
    term.write(0, "hello ", 6);
    term.write(0, "world", 5);
    EXPECT_EQ(term.transcript(), "hello world");
}

TEST(Devices, TerminalReadsPresetInput)
{
    TerminalDevice term;
    term.setInput("stdin-data");
    char buf[5];
    EXPECT_EQ(term.read(0, buf, 5), 5u);
    EXPECT_EQ(std::string(buf, 5), "stdin");
    EXPECT_EQ(term.read(0, buf, 100), 5u);
    EXPECT_EQ(term.read(0, buf, 5), 0u); // drained
}

TEST(Devices, FramebufferIoctlGetReturnsGeometry)
{
    FramebufferDevice fb(640, 480, 32);
    FbVarScreenInfo var;
    EXPECT_EQ(fb.ioctl(FBIOGET_VSCREENINFO, &var), 0);
    EXPECT_EQ(var.xres, 640u);
    EXPECT_EQ(var.yres, 480u);
    EXPECT_EQ(var.bitsPerPixel, 32u);
    EXPECT_EQ(fb.size(), 640u * 480 * 4);
}

TEST(Devices, FramebufferIoctlPutReshapes)
{
    // Pixel memory is allocated on first use. Untouched, the default
    // 1024x768x32 screen still reports its 3 MiB (fb.size() is what
    // fstat reports) and reads as zeros.
    constexpr std::uint64_t kScreen = 1024u * 768 * 4;
    FramebufferDevice fb(1024, 768, 32);
    EXPECT_EQ(fb.size(), kScreen);
    FbFixScreenInfo fix;
    EXPECT_EQ(fb.ioctl(FBIOGET_FSCREENINFO, &fix), 0);
    EXPECT_EQ(fix.smemLen, kScreen);
    std::uint8_t tail[8];
    std::memset(tail, 0xEE, sizeof(tail));
    EXPECT_EQ(fb.read(kScreen - 4, tail, sizeof(tail)), 4u);
    const std::uint8_t want[8] = {0, 0, 0, 0, 0xEE, 0xEE, 0xEE, 0xEE};
    EXPECT_EQ(std::memcmp(tail, want, sizeof(tail)), 0);

    // A mode change re-zeroes memory that exists, at the new size.
    ASSERT_EQ(fb.write(0, "\x11", 1), 1u);
    FbVarScreenInfo var = fb.var();
    var.xres = var.xresVirtual = 800;
    var.yres = var.yresVirtual = 600;
    var.bitsPerPixel = 16;
    EXPECT_EQ(fb.ioctl(FBIOPUT_VSCREENINFO, &var), 0);
    EXPECT_EQ(fb.size(), 800u * 600 * 2);
    EXPECT_EQ(fb.pixels().size(), 800u * 600 * 2);
    EXPECT_EQ(fb.pixels()[0], 0);

    // On a screen never touched before the mode change, mmap and write
    // see the new size.
    FramebufferDevice fresh(1024, 768, 32);
    EXPECT_EQ(fresh.ioctl(FBIOPUT_VSCREENINFO, &var), 0);
    EXPECT_EQ(fresh.size(), 800u * 600 * 2);
    EXPECT_EQ(fresh.ioctl(FBIOGET_FSCREENINFO, &fix), 0);
    EXPECT_EQ(fix.smemLen, 800u * 600 * 2);
    std::uint64_t len = 0;
    ASSERT_NE(fresh.mmapMemory(len), nullptr);
    EXPECT_EQ(len, 800u * 600 * 2);
    EXPECT_EQ(fresh.write(len - 2, "abcd", 4), 2u);
    EXPECT_EQ(fresh.write(len, "abcd", 4), 0u);
}

TEST(Devices, FramebufferRejectsBadMode)
{
    FramebufferDevice fb(640, 480, 32);
    FbVarScreenInfo var = fb.var();
    var.bitsPerPixel = 13;
    EXPECT_EQ(fb.ioctl(FBIOPUT_VSCREENINFO, &var), -EINVAL);
    var = fb.var();
    var.xres = 0;
    EXPECT_EQ(fb.ioctl(FBIOPUT_VSCREENINFO, &var), -EINVAL);
    EXPECT_EQ(fb.ioctl(0xdead, nullptr), -ENOTTY);
}

TEST(Devices, FramebufferMmapExposesPixels)
{
    FramebufferDevice fb(4, 4, 32);
    std::uint64_t len = 0;
    std::uint8_t *mem = fb.mmapMemory(len);
    ASSERT_NE(mem, nullptr);
    EXPECT_EQ(len, 64u);
    mem[0] = 0xAB;
    EXPECT_EQ(fb.pixels()[0], 0xAB);
}

TEST(Devices, FramebufferFixInfo)
{
    FramebufferDevice fb(320, 200, 32);
    FbFixScreenInfo fix;
    EXPECT_EQ(fb.ioctl(FBIOGET_FSCREENINFO, &fix), 0);
    EXPECT_EQ(fix.lineLength, 320u * 4);
    EXPECT_EQ(fix.smemLen, 320u * 200 * 4);
}

// ---------------------------------------------------------------- FdTable

TEST(FdTable, AllocatesLowestFreeDescriptor)
{
    FdTable fds;
    auto mk = [] {
        return std::make_shared<OpenFile>(FileKind::Regular, O_RDONLY);
    };
    EXPECT_EQ(fds.allocate(mk()), 0);
    EXPECT_EQ(fds.allocate(mk()), 1);
    EXPECT_EQ(fds.allocate(mk()), 2);
    fds.close(1);
    EXPECT_EQ(fds.allocate(mk()), 1);
    EXPECT_EQ(fds.openCount(), 3u);
}

TEST(FdTable, GetAndCloseValidate)
{
    FdTable fds;
    EXPECT_EQ(fds.get(0), nullptr);
    EXPECT_EQ(fds.get(-1), nullptr);
    EXPECT_FALSE(fds.close(5));
    const int fd = fds.allocate(
        std::make_shared<OpenFile>(FileKind::Regular, O_RDONLY));
    EXPECT_NE(fds.get(fd), nullptr);
    EXPECT_TRUE(fds.close(fd));
    EXPECT_FALSE(fds.close(fd));
}

TEST(OpenFile, ReadWriteFlagChecks)
{
    const OpenFile ro(FileKind::Regular, O_RDONLY);
    EXPECT_TRUE(ro.readable());
    EXPECT_FALSE(ro.writable());
    const OpenFile wo(FileKind::Regular, O_WRONLY);
    EXPECT_FALSE(wo.readable());
    EXPECT_TRUE(wo.writable());
    const OpenFile rw(FileKind::Regular, O_RDWR);
    EXPECT_TRUE(rw.readable());
    EXPECT_TRUE(rw.writable());
}

// ------------------------------------------------------------ BlockDevice

TEST(BlockDevice, SingleReadPaysLatencyPlusTransfer)
{
    sim::Sim s;
    BlockDeviceParams p;
    p.channels = 8;
    p.accessLatency = ticks::us(90);
    p.bytesPerSec = 500e6;
    BlockDevice dev(s.events(), p);
    s.spawn([](BlockDevice &d) -> sim::Task<> {
        co_await d.read(500000); // 1 ms transfer at 500 MB/s
    }(dev));
    const Tick end = s.run();
    // One stream splits into ceil(500000/32768) = 16 readahead-sized
    // sub-requests issued back to back: 16 access latencies + 1 ms of
    // transfer time.
    EXPECT_NEAR(static_cast<double>(end),
                static_cast<double>(16 * ticks::us(90) + ticks::ms(1)),
                1e3);
    EXPECT_EQ(dev.bytesRead(), 500000u);
    EXPECT_EQ(dev.requests(), 16u);
}

TEST(BlockDevice, QueueDepthRaisesThroughput)
{
    // The effect behind Fig 14: one serial reader is latency-bound,
    // many concurrent readers approach device bandwidth.
    auto run = [](int concurrent, int requests) {
        sim::Sim s;
        BlockDeviceParams p;
        BlockDevice dev(s.events(), p);
        for (int c = 0; c < concurrent; ++c) {
            s.spawn([](BlockDevice &d, int n) -> sim::Task<> {
                for (int i = 0; i < n; ++i)
                    co_await d.read(4 * 1024);
            }(dev, requests / concurrent));
        }
        const Tick end = s.run();
        return dev.throughput(0, end);
    };
    const double serial = run(1, 64);
    const double parallel = run(8, 64);
    EXPECT_GT(parallel, serial * 2.5);
    EXPECT_LT(parallel, 520e6 * 1.01); // cannot beat device bandwidth
}

} // namespace
} // namespace genesys::osk
