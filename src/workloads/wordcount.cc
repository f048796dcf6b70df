/**
 * @file
 * Wordcount implementations.
 */

#include "wordcount.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <memory>

#include "osk/file.hh"
#include "support/logging.hh"

namespace genesys::workloads
{

namespace
{

/// Naive 64-pattern scan on the CPU: ~1 cycle/byte/pattern at 2.7 GHz.
constexpr double kCpuCountCyclesPerByte = 64.0;
constexpr double kCpuClockHz = 2.7e9;
/// The GPU runs the same naive scan across the work-group's items.
constexpr double kGpuCountCyclesPerByte = 64.0;
constexpr std::uint32_t kCpuChunk = 32 * 1024;
constexpr std::uint32_t kGpuChunk = 32 * 1024;
/// GPU-no-syscall staging buffer per kernel: the kernel must be split
/// around every I/O request (paper Figure 1), and the per-launch
/// staging buffer is small.
constexpr std::uint32_t kNoSyscallChunk = 8 * 1024;

Tick
cpuCountTicks(std::uint64_t bytes)
{
    return static_cast<Tick>(static_cast<double>(bytes) *
                             kCpuCountCyclesPerByte / kCpuClockHz *
                             1e9);
}

std::uint64_t
gpuCountCycles(std::uint64_t bytes, std::uint32_t items)
{
    return static_cast<std::uint64_t>(static_cast<double>(bytes) *
                                      kGpuCountCyclesPerByte / items);
}

struct Shared
{
    const WordcountCorpus *corpus = nullptr;
    std::vector<std::uint64_t> counts;
    std::vector<std::vector<char>> buffers;
    std::vector<std::int64_t> ldsN; ///< per-group read-size broadcast
    std::uint32_t filesDone = 0;
    bool finished = false;
};

/// Bitmap index width of countWordsInto()'s prefilter.
constexpr unsigned kFilterBits = 16;
constexpr std::size_t kFilterWords = (std::size_t(1) << kFilterBits) / 64;

std::uint32_t
filterHash(std::uint32_t key)
{
    return (key * 0x9E3779B1u) >> (32 - kFilterBits);
}

/// The first min(n, 4) bytes at @p p, first byte lowest.
std::uint32_t
window(const char *p, std::size_t n)
{
    std::uint32_t w = 0;
    for (std::size_t b = 0; b < n && b < 4; ++b)
        w |= std::uint32_t(static_cast<unsigned char>(p[b])) << (8 * b);
    return w;
}

/// window(p, 4) as one load.
std::uint32_t
load4(const char *p)
{
    std::uint32_t w = 0;
    std::memcpy(&w, p, sizeof w);
    if constexpr (std::endian::native == std::endian::big)
        w = __builtin_bswap32(w);
    return w;
}

sim::Task<>
cpuWorker(core::System &sys, std::shared_ptr<Shared> shared,
          std::uint32_t first, std::uint32_t stride)
{
    const WordcountCorpus &corpus = *shared->corpus;
    for (std::uint32_t i = first; i < corpus.files.size(); i += stride) {
        const std::int64_t fd = co_await sys.kernel().doSyscall(
            sys.process(), osk::sysno::open,
            osk::makeArgs(corpus.files[i].c_str(), osk::O_RDONLY));
        GENESYS_ASSERT(fd >= 0, "open failed");
        auto &buf = shared->buffers[i];
        std::uint64_t total = 0;
        for (;;) {
            buf.resize(total + kCpuChunk);
            const std::int64_t n = co_await sys.kernel().doSyscall(
                sys.process(), osk::sysno::read,
                osk::makeArgs(fd, buf.data() + total, kCpuChunk));
            if (n <= 0)
                break;
            co_await sim::Delay(
                sys.sim().events(),
                cpuCountTicks(static_cast<std::uint64_t>(n)));
            total += static_cast<std::uint64_t>(n);
            if (static_cast<std::uint64_t>(n) < kCpuChunk)
                break;
        }
        buf.resize(total);
        countWordsInto({buf.data(), buf.size()}, corpus.words,
                       shared->counts);
        co_await sys.kernel().doSyscall(sys.process(), osk::sysno::close,
                                        osk::makeArgs(fd));
        ++shared->filesDone;
    }
    if (shared->filesDone == corpus.files.size())
        shared->finished = true;
}

/**
 * GPU-without-syscalls: one CPU control thread reads each small chunk
 * and launches a kernel over it; the GPU never touches the OS.
 */
sim::Task<>
noSyscallDriver(core::System &sys, std::shared_ptr<Shared> shared)
{
    const WordcountCorpus &corpus = *shared->corpus;
    for (std::uint32_t i = 0; i < corpus.files.size(); ++i) {
        const std::int64_t fd = co_await sys.kernel().doSyscall(
            sys.process(), osk::sysno::open,
            osk::makeArgs(corpus.files[i].c_str(), osk::O_RDONLY));
        auto &buf = shared->buffers[i];
        std::uint64_t total = 0;
        for (;;) {
            buf.resize(total + kNoSyscallChunk);
            const std::int64_t n = co_await sys.kernel().doSyscall(
                sys.process(), osk::sysno::read,
                osk::makeArgs(fd, buf.data() + total, kNoSyscallChunk));
            if (n <= 0)
                break;
            // Kernel launch + completion round trip per chunk: this is
            // the Figure 1 baseline the paper motivates against.
            gpu::KernelLaunch chunk_kernel;
            chunk_kernel.workItems = 256;
            chunk_kernel.wgSize = 256;
            const std::uint64_t bytes =
                static_cast<std::uint64_t>(n);
            chunk_kernel.program =
                [bytes](gpu::WavefrontCtx &ctx) -> sim::Task<> {
                co_await ctx.compute(gpuCountCycles(bytes, 256));
            };
            co_await sys.gpu().launch(std::move(chunk_kernel));
            total += bytes;
            if (bytes < kNoSyscallChunk)
                break;
        }
        buf.resize(total);
        countWordsInto({buf.data(), buf.size()}, corpus.words,
                       shared->counts);
        co_await sys.kernel().doSyscall(sys.process(), osk::sysno::close,
                                        osk::makeArgs(fd));
        ++shared->filesDone;
    }
    shared->finished = true;
}

} // namespace

void
countWordsInto(std::string_view text,
               const std::vector<std::string> &words,
               std::vector<std::uint64_t> &counts)
{
    GENESYS_ASSERT(counts.size() == words.size(), "one count per word");
    // Group g holds the words whose prefix window is g + 1 bytes long.
    // The bitmaps live on the stack: a heap bitmap per call
    // fragmented the heap, about 1 MB more peak RSS on a 64-file run.
    struct Group
    {
        std::uint32_t mask = 0;
        std::array<std::uint64_t, kFilterWords> bits{};
        std::vector<std::size_t> words;
    };
    std::array<Group, 4> groups;
    std::vector<std::uint32_t> keys(words.size());
    for (std::size_t w = 0; w < words.size(); ++w) {
        const std::size_t len = words[w].size();
        if (len == 0)
            continue;
        Group &g = groups[std::min<std::size_t>(len, 4) - 1];
        g.mask = len >= 4 ? ~0u : (1u << (8 * len)) - 1;
        g.words.push_back(w);
        keys[w] = window(words[w].data(), len);
        const std::uint32_t h = filterHash(keys[w]);
        g.bits[h / 64] |= std::uint64_t(1) << (h % 64);
    }
    // next[w]: the first position where words[w] may match again.
    // A word's matches depend only on its own next[w], so each group
    // scans the text on its own.
    std::vector<std::size_t> next(words.size(), 0);
    const std::size_t n = text.size();
    for (const Group &g : groups) {
        if (g.words.empty())
            continue;
        for (std::size_t i = 0; i < n; ++i) {
            // Bytes past the end read as zero.
            const std::uint32_t key =
                (i + 4 <= n ? load4(text.data() + i)
                            : window(text.data() + i, n - i)) &
                g.mask;
            const std::uint32_t h = filterHash(key);
            if ((g.bits[h / 64] >> (h % 64) & 1) == 0)
                continue;
            for (const std::size_t w : g.words) {
                const std::string &word = words[w];
                if (keys[w] != key || i < next[w] ||
                    word.size() > n - i ||
                    std::memcmp(text.data() + i, word.data(),
                                word.size()) != 0)
                    continue;
                ++counts[w];
                next[w] = i + word.size();
            }
        }
    }
}

std::uint64_t
countOccurrences(std::string_view text, std::string_view word)
{
    if (word.empty())
        return 0;
    std::uint64_t count = 0;
    std::size_t pos = 0;
    while ((pos = text.find(word, pos)) != std::string_view::npos) {
        ++count;
        pos += word.size();
    }
    return count;
}

const char *
wordcountModeName(WordcountMode mode)
{
    switch (mode) {
      case WordcountMode::CpuOpenMp:
        return "cpu-openmp";
      case WordcountMode::GpuNoSyscall:
        return "gpu-no-syscall";
      case WordcountMode::Genesys:
        return "genesys";
    }
    return "?";
}

WordcountCorpus
buildWordcountCorpus(core::System &sys,
                     const WordcountCorpusConfig &cfg)
{
    WordcountCorpus corpus;
    Random &rng = sys.sim().random();
    for (std::uint32_t w = 0; w < cfg.numWords; ++w)
        corpus.words.push_back(rng.lowerAlpha(9));
    corpus.expected.assign(cfg.numWords, 0);

    for (std::uint32_t f = 0; f < cfg.numFiles; ++f) {
        const std::string path =
            logging::format("%s/doc%04u.txt", corpus.dir.c_str(), f);
        std::string text;
        text.reserve(cfg.fileBytes);
        while (text.size() < cfg.fileBytes) {
            text += rng.lowerAlpha(rng.between(3, 9));
            text += ' ';
        }
        text.resize(cfg.fileBytes);
        for (std::uint32_t p = 0; p < cfg.plantsPerFile; ++p) {
            const auto &word =
                corpus.words[rng.below(corpus.words.size())];
            const std::size_t pos =
                rng.below(text.size() - word.size());
            text.replace(pos, word.size(), word);
        }
        osk::RegularFile *file = sys.kernel().createSsdFile(path);
        GENESYS_ASSERT(file != nullptr, "corpus file");
        file->setData(text);
        countWordsInto(text, corpus.words, corpus.expected);
        corpus.files.push_back(path);
        corpus.totalBytes += text.size();
    }
    return corpus;
}

WordcountResult
runWordcount(core::System &sys, const WordcountCorpus &corpus,
             WordcountMode mode)
{
    auto shared = std::make_shared<Shared>();
    shared->corpus = &corpus;
    shared->counts.assign(corpus.words.size(), 0);
    shared->buffers.resize(corpus.files.size());
    shared->ldsN.assign(corpus.files.size(), 0);

    WordcountResult result;
    const Tick start = sys.sim().now();
    const std::uint64_t ssd_start = sys.kernel().ssd().bytesRead();

    // Figure 14 sampler: I/O throughput and CPU utilization per window.
    const Tick window = ticks::ms(2);
    auto sampler = [&sys, shared, &result, window,
                    ssd_start]() -> sim::Task<> {
        std::uint64_t prev_bytes = ssd_start;
        Tick prev = sys.sim().now();
        while (!shared->finished) {
            co_await sim::Delay(sys.sim().events(), window);
            const Tick now = sys.sim().now();
            const std::uint64_t bytes = sys.kernel().ssd().bytesRead();
            result.ioTrace.emplace_back(
                now, static_cast<double>(bytes - prev_bytes) /
                         ticks::toSec(now - prev) / 1e6);
            result.cpuTrace.emplace_back(
                now, sys.kernel().cpus().utilization(prev, now));
            prev_bytes = bytes;
            prev = now;
        }
    };
    sys.sim().spawn(sampler());

    switch (mode) {
      case WordcountMode::CpuOpenMp: {
        const std::uint32_t workers = sys.kernel().cpus().cores();
        for (std::uint32_t w = 0; w < workers; ++w) {
            sys.sim().spawn(sys.kernel().cpus().run(
                cpuWorker(sys, shared, w, workers)));
        }
        break;
      }
      case WordcountMode::GpuNoSyscall: {
        sys.sim().spawn(sys.kernel().cpus().run(
            noSyscallDriver(sys, shared)));
        break;
      }
      case WordcountMode::Genesys: {
        const std::uint32_t wg_size = 256;
        gpu::KernelLaunch launch;
        launch.workItems =
            std::uint64_t(corpus.files.size()) * wg_size;
        launch.wgSize = wg_size;
        launch.program = [&sys, shared,
                          wg_size](gpu::WavefrontCtx &ctx)
            -> sim::Task<> {
            const WordcountCorpus &c = *shared->corpus;
            const std::uint32_t file_id = ctx.workgroupId();
            // Blocking + weak ordering performed best (Section VIII-C).
            core::Invocation weak;
            weak.ordering = core::Ordering::Relaxed;
            core::Invocation nonblock = weak;
            nonblock.blocking = core::Blocking::NonBlocking;

            const auto fd = co_await sys.gpuSys().open(
                ctx, weak, c.files[file_id].c_str(), osk::O_RDONLY);
            auto &buf = shared->buffers[file_id];
            std::uint64_t total = 0;
            for (;;) {
                if (ctx.isGroupLeader())
                    buf.resize(total + kGpuChunk);
                const auto n_leader = co_await sys.gpuSys().read(
                    ctx, weak, static_cast<int>(fd),
                    ctx.isGroupLeader() ? buf.data() + total : nullptr,
                    kGpuChunk);
                if (ctx.isGroupLeader())
                    shared->ldsN[file_id] = n_leader;
                co_await ctx.wgBarrier();
                const std::int64_t n = shared->ldsN[file_id];
                if (n <= 0)
                    break;
                co_await ctx.compute(gpuCountCycles(
                    static_cast<std::uint64_t>(n), wg_size));
                total += static_cast<std::uint64_t>(n);
                if (static_cast<std::uint64_t>(n) < kGpuChunk)
                    break;
            }
            if (ctx.isGroupLeader()) {
                buf.resize(total);
                countWordsInto({buf.data(), buf.size()}, c.words,
                               shared->counts);
                if (++shared->filesDone == c.files.size())
                    shared->finished = true;
            }
            co_await sys.gpuSys().close(ctx, nonblock,
                                        static_cast<int>(fd));
        };
        sys.launchGpuAndDrain(std::move(launch));
        break;
      }
    }

    const Tick end = sys.run();
    shared->finished = true;

    result.elapsed = end - start;
    result.counts = shared->counts;
    result.correct = result.counts == corpus.expected;
    const std::uint64_t ssd_bytes =
        sys.kernel().ssd().bytesRead() - ssd_start;
    result.ssdThroughputMBps =
        result.elapsed == 0
            ? 0.0
            : static_cast<double>(ssd_bytes) /
                  ticks::toSec(result.elapsed) / 1e6;
    result.cpuUtilization = sys.kernel().cpus().utilization(start, end);
    return result;
}

} // namespace genesys::workloads
