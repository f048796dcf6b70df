/**
 * @file
 * Tests for the application workloads: functional correctness of every
 * implementation variant, plus the qualitative timing relationships the
 * paper's evaluation hinges on.
 */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "workloads/fbdisplay.hh"
#include "workloads/grep.hh"
#include "workloads/memcached.hh"
#include "workloads/miniamr.hh"
#include "workloads/permute.hh"
#include "workloads/sha512.hh"
#include "workloads/signal_search.hh"
#include "workloads/wordcount.hh"

namespace genesys::workloads
{
namespace
{

// ---------------------------------------------------------------- SHA-512

TEST(Sha512, Fips180TestVectors)
{
    // NIST FIPS 180-4 example vectors.
    EXPECT_EQ(toHex(sha512("abc", 3)),
              "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee6"
              "4b55d39a2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e"
              "2a9ac94fa54ca49f");
    EXPECT_EQ(toHex(sha512("", 0)),
              "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921"
              "d36ce9ce47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81"
              "a538327af927da3e");
    EXPECT_EQ(
        toHex(sha512("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmg"
                     "hijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmn"
                     "opqrstnopqrstu",
                     112)),
        "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
        "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512, PaddingBoundaries)
{
    // Lengths around the 111/112 and 128-byte block boundaries all
    // produce distinct, stable digests.
    std::string prev;
    for (std::size_t len : {110u, 111u, 112u, 127u, 128u, 129u, 255u}) {
        const std::string msg(len, 'x');
        const auto hex = toHex(sha512(msg.data(), msg.size()));
        EXPECT_EQ(hex.size(), 128u);
        EXPECT_NE(hex, prev);
        prev = hex;
    }
}

// ------------------------------------------------------------ permutation

TEST(Permute, TableIsAPermutation)
{
    const auto table = permutationTable(8192);
    std::vector<bool> seen(8192, false);
    for (auto idx : table) {
        ASSERT_LT(idx, 8192u);
        EXPECT_FALSE(seen[idx]);
        seen[idx] = true;
    }
}

TEST(Permute, ReferencePermutationInvertsAfterCycles)
{
    // Applying the permutation must change the data (and be
    // deterministic).
    std::vector<std::uint8_t> a(256), b;
    for (std::size_t i = 0; i < a.size(); ++i)
        a[i] = static_cast<std::uint8_t>(i);
    b = a;
    const auto table = permutationTable(256);
    permuteReference(a, table, 3);
    EXPECT_NE(a, b);
    std::vector<std::uint8_t> c = b;
    permuteReference(c, table, 3);
    EXPECT_EQ(a, c);
}

TEST(Permute, EndToEndOutputCorrect)
{
    core::System sys;
    PermuteConfig cfg;
    cfg.numBlocks = 16;
    cfg.blockBytes = 2048;
    cfg.iterations = 3;
    cfg.ordering = core::Ordering::Relaxed;
    cfg.blocking = core::Blocking::NonBlocking;
    const auto result = runPermute(sys, cfg);
    EXPECT_TRUE(result.outputCorrect);
    EXPECT_GT(result.elapsed, 0u);
    EXPECT_EQ(result.syscalls, 16u); // one pwrite per block
}

TEST(Permute, NonBlockingBeatsStrongBlockingAtLowCompute)
{
    auto run = [](core::Ordering o, core::Blocking b) {
        core::System sys;
        PermuteConfig cfg;
        cfg.numBlocks = 64;
        cfg.blockBytes = 2048;
        cfg.iterations = 1; // syscall-dominated region of Fig 8
        cfg.ordering = o;
        cfg.blocking = b;
        return runPermute(sys, cfg).elapsed;
    };
    const Tick strong_block =
        run(core::Ordering::Strong, core::Blocking::Blocking);
    const Tick strong_nonblock =
        run(core::Ordering::Strong, core::Blocking::NonBlocking);
    const Tick weak_nonblock =
        run(core::Ordering::Relaxed, core::Blocking::NonBlocking);
    EXPECT_LT(strong_nonblock, strong_block);
    // Weak + non-blocking tracks strong + non-blocking closely (the
    // paper's Fig 8 shows the same); it must never be meaningfully
    // slower.
    EXPECT_LE(static_cast<double>(weak_nonblock),
              static_cast<double>(strong_nonblock) * 1.05);
}

// ------------------------------------------------------------------- grep

class GrepModes : public ::testing::TestWithParam<GrepMode>
{};

TEST_P(GrepModes, FindsExactlyTheMatchingFiles)
{
    core::System sys;
    GrepCorpusConfig cfg;
    cfg.numFiles = 48;
    cfg.fileBytes = 4096;
    const auto corpus = buildGrepCorpus(sys, cfg);
    ASSERT_FALSE(corpus.expected.empty());
    ASSERT_LT(corpus.expected.size(), corpus.files.size());
    const auto result = runGrep(sys, corpus, GetParam());
    EXPECT_TRUE(result.correct)
        << grepModeName(GetParam()) << ": got "
        << result.matched.size() << " expected "
        << corpus.expected.size();
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, GrepModes,
    ::testing::Values(GrepMode::CpuSerial, GrepMode::CpuOpenMp,
                      GrepMode::GpuWorkGroup,
                      GrepMode::GpuWorkItemPolling,
                      GrepMode::GpuWorkItemHaltResume),
    [](const auto &param_info) {
        std::string name = grepModeName(param_info.param);
        for (auto &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(Grep, OpenMpBeatsSerialAndGpuBeatsOpenMp)
{
    // Fig 13a's ordering: parallel CPU > serial CPU; GENESYS > both.
    auto elapsed = [](GrepMode mode) {
        core::System sys;
        GrepCorpusConfig cfg;
        cfg.numFiles = 64;
        cfg.fileBytes = 32 * 1024;
        const auto corpus = buildGrepCorpus(sys, cfg);
        const auto r = runGrep(sys, corpus, mode);
        EXPECT_TRUE(r.correct);
        return r.elapsed;
    };
    const Tick serial = elapsed(GrepMode::CpuSerial);
    const Tick openmp = elapsed(GrepMode::CpuOpenMp);
    const Tick gpu_wg = elapsed(GrepMode::GpuWorkGroup);
    EXPECT_LT(openmp, serial);
    EXPECT_LT(gpu_wg, openmp);
}

TEST(Grep, ContainsAnyWordHelper)
{
    EXPECT_TRUE(containsAnyWord("the quick brown fox", {"quick"}));
    EXPECT_FALSE(containsAnyWord("the quick brown fox", {"slow"}));
    EXPECT_TRUE(containsAnyWord("abc", {"zzz", "bc"}));
    EXPECT_FALSE(containsAnyWord("", {"x"}));
}

// -------------------------------------------------------------- wordcount

TEST(Wordcount, CountOccurrencesHelper)
{
    EXPECT_EQ(countOccurrences("aaaa", "aa"), 2u); // non-overlapping
    EXPECT_EQ(countOccurrences("abcabcabc", "abc"), 3u);
    EXPECT_EQ(countOccurrences("abc", "d"), 0u);
    EXPECT_EQ(countOccurrences("abc", ""), 0u);
}

class WordcountModes : public ::testing::TestWithParam<WordcountMode>
{};

TEST_P(WordcountModes, CountsMatchReference)
{
    core::System sys;
    WordcountCorpusConfig cfg;
    cfg.numFiles = 12;
    cfg.fileBytes = 48 * 1024;
    cfg.numWords = 16;
    const auto corpus = buildWordcountCorpus(sys, cfg);
    const auto result = runWordcount(sys, corpus, GetParam());
    EXPECT_TRUE(result.correct) << wordcountModeName(GetParam());
    EXPECT_GT(result.ssdThroughputMBps, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, WordcountModes,
    ::testing::Values(WordcountMode::CpuOpenMp,
                      WordcountMode::GpuNoSyscall,
                      WordcountMode::Genesys),
    [](const auto &param_info) {
        std::string name = wordcountModeName(param_info.param);
        for (auto &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(Wordcount, GenesysFasterThanCpuFasterThanNoSyscall)
{
    // Fig 13b's ordering: GENESYS best; no-syscall GPU worst.
    auto run = [](WordcountMode mode) {
        core::System sys;
        WordcountCorpusConfig cfg;
        cfg.numFiles = 24;
        cfg.fileBytes = 64 * 1024;
        cfg.numWords = 16;
        const auto corpus = buildWordcountCorpus(sys, cfg);
        const auto r = runWordcount(sys, corpus, mode);
        EXPECT_TRUE(r.correct);
        return r;
    };
    const auto cpu = run(WordcountMode::CpuOpenMp);
    const auto nosys = run(WordcountMode::GpuNoSyscall);
    const auto genesys = run(WordcountMode::Genesys);
    EXPECT_LT(genesys.elapsed, cpu.elapsed);
    EXPECT_GT(nosys.elapsed, cpu.elapsed);
    // The GENESYS version extracts more I/O throughput (Fig 14).
    EXPECT_GT(genesys.ssdThroughputMBps, cpu.ssdThroughputMBps);
    EXPECT_FALSE(genesys.ioTrace.empty());
    EXPECT_FALSE(genesys.cpuTrace.empty());
}

// -------------------------------------------------------------- memcached

TEST(Memcached, HashTableSetGetAndChains)
{
    McHashTable table(8, 16);
    EXPECT_EQ(table.get("missing"), nullptr);
    table.set("k1", {1, 2, 3});
    table.set("k2", {4});
    ASSERT_NE(table.get("k1"), nullptr);
    EXPECT_EQ(table.get("k1")->value,
              (std::vector<std::uint8_t>{1, 2, 3}));
    // Overwrite.
    table.set("k1", {9});
    EXPECT_EQ(table.get("k1")->value, (std::vector<std::uint8_t>{9}));
    EXPECT_GE(table.chainLength("k1"), 1u);
}

TEST(Memcached, WireProtocolRoundTrip)
{
    const auto wire = mcEncode(McOp::Set, "hello", {10, 20});
    const auto msg = mcDecode(wire);
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->op, McOp::Set);
    EXPECT_EQ(msg->key, "hello");
    EXPECT_EQ(msg->value, (std::vector<std::uint8_t>{10, 20}));
    EXPECT_FALSE(mcDecode({1}).has_value());
    EXPECT_FALSE(mcDecode({2, 10, 0, 'a'}).has_value()); // short key
}

TEST(Memcached, CpuServerEndToEnd)
{
    core::System sys;
    MemcachedConfig cfg;
    cfg.buckets = 16;
    cfg.elemsPerBucket = 32;
    cfg.valueBytes = 64;
    cfg.numGets = 64;
    cfg.useGpu = false;
    const auto result = runMemcached(sys, cfg);
    EXPECT_TRUE(result.correct);
    EXPECT_GT(result.hits, 0u);
    EXPECT_GT(result.misses, 0u);
    EXPECT_GT(result.throughputKops, 0.0);
}

TEST(Memcached, GpuServerEndToEnd)
{
    core::System sys;
    MemcachedConfig cfg;
    cfg.buckets = 16;
    cfg.elemsPerBucket = 32;
    cfg.valueBytes = 64;
    cfg.numGets = 64;
    cfg.useGpu = true;
    cfg.gpuServerGroups = 4;
    const auto result = runMemcached(sys, cfg);
    EXPECT_TRUE(result.correct);
    EXPECT_GT(result.hits, 0u);
}

TEST(Memcached, GpuWinsOnDeepBuckets)
{
    // Fig 15: with 1024 elements per bucket the GPU's parallel chain
    // scan beats the CPU's serial one.
    auto run = [](bool gpu) {
        core::System sys;
        MemcachedConfig cfg;
        cfg.buckets = 8;
        cfg.elemsPerBucket = 1024;
        cfg.valueBytes = 256;
        cfg.numGets = 128;
        cfg.useGpu = gpu;
        const auto r = runMemcached(sys, cfg);
        EXPECT_TRUE(r.correct);
        return r;
    };
    const auto cpu = run(false);
    const auto gpu = run(true);
    EXPECT_LT(gpu.meanLatencyUs, cpu.meanLatencyUs);
    EXPECT_GT(gpu.throughputKops, cpu.throughputKops);
}

// ---------------------------------------------------------------- miniAMR

TEST(MiniAmr, CompletesWithMadviseWatermark)
{
    core::SystemConfig sc;
    sc.kernel.physMemBytes = 256ull * 1024 * 1024;
    core::System sys(sc);
    MiniAmrConfig cfg;
    cfg.datasetBytes = 272ull * 1024 * 1024; // just past the limit
    cfg.blockBytes = 4ull * 1024 * 1024;
    cfg.timesteps = 12;
    cfg.rssWatermarkBytes = 200ull * 1024 * 1024;
    const auto result = runMiniAmr(sys, cfg);
    EXPECT_TRUE(result.completed);
    EXPECT_FALSE(result.gpuTimeout);
    EXPECT_GT(result.madviseCalls, 0u);
    EXPECT_EQ(result.rssTimeline.size(), 12u);
}

TEST(MiniAmr, BaselineWithoutMadviseTimesOut)
{
    core::SystemConfig sc;
    sc.kernel.physMemBytes = 256ull * 1024 * 1024;
    core::System sys(sc);
    MiniAmrConfig cfg;
    cfg.datasetBytes = 272ull * 1024 * 1024;
    cfg.blockBytes = 4ull * 1024 * 1024;
    cfg.timesteps = 12;
    cfg.rssWatermarkBytes = 0; // no memory management
    cfg.gpuTimeout = ticks::ms(200);
    const auto result = runMiniAmr(sys, cfg);
    EXPECT_TRUE(result.gpuTimeout);
    EXPECT_FALSE(result.completed);
    EXPECT_LT(result.timestepsRun, cfg.timesteps);
}

TEST(MiniAmr, LowerWatermarkLowersFootprintButRunsLonger)
{
    auto run = [](std::uint64_t watermark) {
        core::SystemConfig sc;
        sc.kernel.physMemBytes = 256ull * 1024 * 1024;
        core::System sys(sc);
        MiniAmrConfig cfg;
        cfg.datasetBytes = 272ull * 1024 * 1024;
        cfg.blockBytes = 4ull * 1024 * 1024;
        cfg.timesteps = 12;
        cfg.rssWatermarkBytes = watermark;
        return runMiniAmr(sys, cfg);
    };
    const auto low = run(160ull * 1024 * 1024);  // "rss-3gb" analogue
    const auto high = run(224ull * 1024 * 1024); // "rss-4gb" analogue
    EXPECT_TRUE(low.completed);
    EXPECT_TRUE(high.completed);
    EXPECT_GE(low.elapsed, high.elapsed);
    EXPECT_GE(low.madviseCalls, high.madviseCalls);
}

// ----------------------------------------------------------- signal-search

TEST(SignalSearch, DigestsCorrectWithSignals)
{
    core::System sys;
    SignalSearchConfig cfg;
    cfg.numBlocks = 32;
    cfg.blockBytes = 8 * 1024;
    cfg.lookupQueriesPerBlock = 10'000;
    cfg.useSignals = true;
    const auto result = runSignalSearch(sys, cfg);
    EXPECT_TRUE(result.correct);
    EXPECT_GT(result.blocksSelected, 0u);
    EXPECT_EQ(result.blocksHashed, result.blocksSelected);
}

TEST(SignalSearch, DigestsCorrectBaseline)
{
    core::System sys;
    SignalSearchConfig cfg;
    cfg.numBlocks = 32;
    cfg.blockBytes = 8 * 1024;
    cfg.lookupQueriesPerBlock = 10'000;
    cfg.useSignals = false;
    const auto result = runSignalSearch(sys, cfg);
    EXPECT_TRUE(result.correct);
}

TEST(SignalSearch, SignalsOverlapPhasesAndWin)
{
    auto run = [](bool signals) {
        core::System sys;
        SignalSearchConfig cfg;
        cfg.numBlocks = 128;
        cfg.blockBytes = 32 * 1024;
        cfg.lookupQueriesPerBlock = 200'000;
        cfg.selectFraction = 0.3;
        cfg.useSignals = signals;
        const auto r = runSignalSearch(sys, cfg);
        EXPECT_TRUE(r.correct);
        return r.elapsed;
    };
    const Tick baseline = run(false);
    const Tick with_signals = run(true);
    EXPECT_LT(with_signals, baseline);
}

TEST(SignalSearch, InterleavedSystemsGetTheirSoloResults)
{
    // Two Systems with different block counts advance in alternating
    // slices, so each one's signal requests are in flight while the
    // other launches. Neither may see the other's payload storage.
    auto config = [](std::uint32_t blocks) {
        SignalSearchConfig cfg;
        cfg.numBlocks = blocks;
        cfg.blockBytes = 4 * 1024;
        cfg.lookupQueriesPerBlock = 10'000;
        cfg.selectFraction = 0.5;
        return cfg;
    };
    const SignalSearchConfig small = config(16);
    const SignalSearchConfig large = config(64);

    // The interleaved pair runs first, in a fresh process state.
    core::System sys_small;
    core::System sys_large;
    SignalSearch run_small(sys_small, small);
    SignalSearch run_large(sys_large, large);
    const Tick slice = ticks::us(1);
    bool small_live = true;
    bool large_live = true;
    while (small_live || large_live) {
        small_live = run_small.runUntil(sys_small.sim().now() + slice);
        large_live = run_large.runUntil(sys_large.sim().now() + slice);
    }
    auto solo = [](const SignalSearchConfig &cfg) {
        core::System sys;
        return runSignalSearch(sys, cfg);
    };
    const SignalSearchResult solo_small = solo(small);
    const SignalSearchResult solo_large = solo(large);
    ASSERT_TRUE(solo_small.correct);
    ASSERT_TRUE(solo_large.correct);
    for (const auto &[got, want] :
         {std::pair{run_small.result(), solo_small},
          std::pair{run_large.result(), solo_large}}) {
        EXPECT_TRUE(got.correct);
        EXPECT_EQ(got.elapsed, want.elapsed);
        EXPECT_EQ(got.blocksHashed, want.blocksHashed);
        EXPECT_EQ(got.digests, want.digests);
    }
}

// ------------------------------------------------------------- fb-display

TEST(FbDisplay, RasterReachesFramebufferViaIoctlAndMmap)
{
    core::System sys;
    FbDisplayConfig cfg;
    cfg.width = 128;
    cfg.height = 96;
    const auto result = runFbDisplay(sys, cfg);
    EXPECT_TRUE(result.ok);
    EXPECT_EQ(result.width, 128u);
    EXPECT_EQ(result.height, 96u);
    EXPECT_EQ(result.pixelErrors, 0u);
    EXPECT_GE(result.ioctls, 4u); // get/put/fix/pan at least
}

TEST(FbDisplay, PpmRendering)
{
    const auto raster = makeTestRaster(4, 2);
    const auto ppm = framebufferToPpm(raster, 4, 2);
    EXPECT_EQ(ppm.substr(0, 2), "P6");
    EXPECT_NE(ppm.find("4 2"), std::string::npos);
    // Header + 4*2*3 payload bytes.
    EXPECT_EQ(ppm.size(), ppm.find("255\n") + 4 + 4 * 2 * 3);
}

TEST(FbDisplay, TestRasterIsDeterministic)
{
    EXPECT_EQ(makeTestRaster(16, 16), makeTestRaster(16, 16));
    const auto img = makeTestRaster(32, 32);
    EXPECT_EQ(img.size(), 32u * 32 * 4);
    // Center is inside the circle: blue channel saturated.
    const std::size_t center = (16 * 32 + 16) * 4;
    EXPECT_EQ(img[center + 2], 255);
    // Corner is outside.
    EXPECT_EQ(img[2], 64);
}

} // namespace
} // namespace genesys::workloads
