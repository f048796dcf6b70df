/**
 * @file
 * Unit tests for the memory-system models.
 */

#include <gtest/gtest.h>

#include "mem/cache_model.hh"
#include "mem/mem_bus.hh"
#include "sim/sim.hh"
#include "support/types.hh"

namespace genesys::mem
{
namespace
{

CacheParams
smallCache()
{
    CacheParams p;
    p.sizeBytes = 4096; // 64 lines
    p.lineBytes = 64;
    p.associativity = 4; // 16 sets
    return p;
}

TEST(CacheModel, FirstTouchMissesThenHits)
{
    CacheModel c(smallCache());
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1004)); // same line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(CacheModel, WorkingSetWithinCapacityAllHits)
{
    CacheModel c(smallCache());
    const auto lines = c.lineCapacity();
    // Warm-up pass misses; steady-state passes all hit.
    for (std::uint64_t i = 0; i < lines; ++i)
        c.access(i * 64);
    c.resetStats();
    for (int pass = 0; pass < 3; ++pass)
        for (std::uint64_t i = 0; i < lines; ++i)
            c.access(i * 64);
    EXPECT_EQ(c.misses(), 0u);
    EXPECT_DOUBLE_EQ(c.missRatio(), 0.0);
}

TEST(CacheModel, WorkingSetBeyondCapacityThrashes)
{
    CacheModel c(smallCache());
    const auto lines = c.lineCapacity() * 2;
    for (int pass = 0; pass < 3; ++pass)
        for (std::uint64_t i = 0; i < lines; ++i)
            c.access(i * 64);
    // Sequential sweep over 2x capacity with LRU: every access misses.
    EXPECT_GT(c.missRatio(), 0.9);
}

TEST(CacheModel, LruEvictsLeastRecentlyUsed)
{
    CacheParams p;
    p.sizeBytes = 2 * 64; // one set, two ways
    p.lineBytes = 64;
    p.associativity = 2;
    CacheModel c(p);
    c.access(0 * 64); // A miss
    c.access(1 * 64); // B miss
    c.access(0 * 64); // A hit -> B is LRU
    c.access(2 * 64); // C miss, evicts B
    EXPECT_TRUE(c.access(0 * 64));  // A still present
    EXPECT_FALSE(c.access(1 * 64)); // B was evicted
}

TEST(CacheModel, InvalidateDropsSingleLine)
{
    CacheModel c(smallCache());
    c.access(0x40);
    c.invalidate(0x40);
    EXPECT_FALSE(c.access(0x40));
}

TEST(CacheModel, FlushAllDropsEverything)
{
    CacheModel c(smallCache());
    for (std::uint64_t i = 0; i < 8; ++i)
        c.access(i * 64);
    c.flushAll();
    c.resetStats();
    for (std::uint64_t i = 0; i < 8; ++i)
        c.access(i * 64);
    EXPECT_EQ(c.hits(), 0u);
}

TEST(CacheModel, BadGeometryPanics)
{
    CacheParams p;
    p.sizeBytes = 64;
    p.lineBytes = 64;
    p.associativity = 4; // cache smaller than one set
    EXPECT_THROW(CacheModel c(p), PanicError);
}

// ----------------------------------------------------------------- MemBus

TEST(MemBus, TransferTakesBandwidthTime)
{
    sim::Sim s;
    MemBusParams p;
    p.bytesPerSec = 1e9; // 1 byte/ns
    p.requestOverhead = 0;
    MemBus bus(s.events(), p);
    s.spawn([](sim::Sim &, MemBus &b) -> sim::Task<> {
        co_await b.transfer(Agent::Cpu, 1000);
    }(s, bus));
    const Tick end = s.run();
    EXPECT_EQ(end, 1000u);
    EXPECT_EQ(bus.bytesMoved("cpu"), 1000u);
}

TEST(MemBus, AgentsSerializeOnSharedBandwidth)
{
    sim::Sim s;
    MemBusParams p;
    p.bytesPerSec = 1e9;
    p.requestOverhead = 0;
    MemBus bus(s.events(), p);
    Tick cpu_done = 0, gpu_done = 0;
    s.spawn([](sim::Sim &sm, MemBus &b, Tick &done) -> sim::Task<> {
        co_await b.transfer(Agent::Cpu, 500);
        done = sm.now();
    }(s, bus, cpu_done));
    s.spawn([](sim::Sim &sm, MemBus &b, Tick &done) -> sim::Task<> {
        co_await b.transfer(Agent::Gpu, 500);
        done = sm.now();
    }(s, bus, gpu_done));
    s.run();
    // FIFO: the cpu transfer (spawned first) completes at 500, the gpu
    // one waits behind it and completes at 1000.
    EXPECT_EQ(cpu_done, 500u);
    EXPECT_EQ(gpu_done, 1000u);
}

TEST(MemBus, ThroughputAccountsPerAgent)
{
    sim::Sim s;
    MemBusParams p;
    p.bytesPerSec = 2e9;
    p.requestOverhead = 0;
    MemBus bus(s.events(), p);
    s.spawn([](sim::Sim &, MemBus &b) -> sim::Task<> {
        for (int i = 0; i < 10; ++i)
            co_await b.transfer(Agent::Cpu, 1000);
    }(s, bus));
    const Tick end = s.run();
    const double tput = bus.throughput(Agent::Cpu, 0, end);
    EXPECT_NEAR(tput, 2e9, 2e7);
    EXPECT_EQ(bus.bytesMoved("nic"), 0u);
}

TEST(MemBus, RequestOverheadCharged)
{
    sim::Sim s;
    MemBusParams p;
    p.bytesPerSec = 1e9;
    p.requestOverhead = 40;
    MemBus bus(s.events(), p);
    s.spawn([](sim::Sim &, MemBus &b) -> sim::Task<> {
        co_await b.transfer(Agent::Cpu, 64);
    }(s, bus));
    EXPECT_EQ(s.run(), 104u);
}

} // namespace
} // namespace genesys::mem
