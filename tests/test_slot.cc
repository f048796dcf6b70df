/**
 * @file
 * Unit and property tests for the syscall-area slot state machine
 * (paper Figures 5 and 6).
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/params.hh"
#include "core/slot.hh"
#include "gpu/gpu.hh"
#include "mem/cache_model.hh"
#include "support/gmc_probe.hh"
#include "support/logging.hh"

namespace genesys::core
{
namespace
{

osk::SyscallArgs
someArgs()
{
    return osk::makeArgs(1, 2, 3);
}

TEST(SyscallSlot, BlockingLifeCycle)
{
    SyscallSlot slot;
    EXPECT_EQ(slot.state(), SlotState::Free);
    ASSERT_TRUE(slot.claim());
    EXPECT_EQ(slot.state(), SlotState::Populating);
    slot.publish(osk::sysno::pwrite64, someArgs(), /*blocking=*/true,
                 WaitMode::Polling, 7);
    EXPECT_EQ(slot.state(), SlotState::Ready);
    EXPECT_EQ(slot.sysno(), osk::sysno::pwrite64);
    EXPECT_EQ(slot.hwWaveSlot(), 7u);
    ASSERT_TRUE(slot.beginProcessing());
    EXPECT_EQ(slot.state(), SlotState::Processing);
    slot.complete(42);
    EXPECT_EQ(slot.state(), SlotState::Finished);
    EXPECT_EQ(slot.consume(), 42);
    EXPECT_EQ(slot.state(), SlotState::Free);
}

TEST(SyscallSlot, NonBlockingFreesOnCompletion)
{
    SyscallSlot slot;
    ASSERT_TRUE(slot.claim());
    slot.publish(osk::sysno::write, someArgs(), /*blocking=*/false,
                 WaitMode::Polling, 0);
    ASSERT_TRUE(slot.beginProcessing());
    slot.complete(10);
    EXPECT_EQ(slot.state(), SlotState::Free);
    // Slot is immediately reusable.
    EXPECT_TRUE(slot.claim());
}

TEST(SyscallSlot, ClaimFailsUnlessFree)
{
    SyscallSlot slot;
    ASSERT_TRUE(slot.claim());
    EXPECT_FALSE(slot.claim()); // populating
    slot.publish(0, someArgs(), true, WaitMode::Polling, 0);
    EXPECT_FALSE(slot.claim()); // ready
    ASSERT_TRUE(slot.beginProcessing());
    EXPECT_FALSE(slot.claim()); // processing
    slot.complete(0);
    EXPECT_FALSE(slot.claim()); // finished
    slot.consume();
    EXPECT_TRUE(slot.claim());
}

TEST(SyscallSlot, BeginProcessingOnlyFromReady)
{
    SyscallSlot slot;
    EXPECT_FALSE(slot.beginProcessing()); // free
    slot.claim();
    EXPECT_FALSE(slot.beginProcessing()); // populating
    slot.publish(0, someArgs(), true, WaitMode::Polling, 0);
    EXPECT_TRUE(slot.beginProcessing());
    EXPECT_FALSE(slot.beginProcessing()); // already processing
}

TEST(SyscallSlot, ProbeDrainsOnlyTransitionedSlots)
{
    // perfbench's stage tracer drains the probe after every event and
    // reads each drained slot's new state: every Fig 6 step must
    // report its slot, and a refused step or a disabled probe nothing.
    struct ProbeOn
    {
        ProbeOn() { gmc::Probe::instance().setEnabled(true); }
        ~ProbeOn() { gmc::Probe::instance().setEnabled(false); }
    };
    auto &probe = gmc::Probe::instance();
    const std::vector<gmc::ProbeKey> none;
    const std::vector<gmc::ProbeKey> mine = {
        gmc::probeKey(gmc::ProbeKind::Slot, 70)};
    std::uint64_t words[2] = {};
    SyscallSlot slot(words, 70);

    ASSERT_FALSE(probe.enabled());
    ASSERT_TRUE(slot.claim());
    EXPECT_EQ(probe.drain(), none) << "disabled probe";

    ProbeOn on;
    slot.publish(0, someArgs(), /*blocking=*/true, WaitMode::Polling, 0);
    EXPECT_EQ(probe.drain(), mine) << "publish";
    EXPECT_FALSE(slot.claim());
    EXPECT_EQ(probe.drain(), none) << "failed claim";
    ASSERT_TRUE(slot.beginProcessing());
    EXPECT_EQ(probe.drain(), mine) << "beginProcessing";
    EXPECT_FALSE(slot.beginProcessing());
    EXPECT_EQ(probe.drain(), none) << "failed beginProcessing";
    slot.complete(0);
    EXPECT_EQ(probe.drain(), mine) << "complete";
    slot.consume();
    EXPECT_EQ(probe.drain(), mine) << "consume";
    ASSERT_TRUE(slot.claim());
    EXPECT_EQ(probe.drain(), mine) << "claim";
}

TEST(SyscallSlot, InvalidTransitionsPanic)
{
    SyscallSlot slot;
    EXPECT_THROW(slot.publish(0, someArgs(), true, WaitMode::Polling, 0),
                 PanicError);
    EXPECT_THROW(slot.complete(0), PanicError);
    EXPECT_THROW(slot.consume(), PanicError);
}

TEST(SyscallSlot, StateNames)
{
    EXPECT_STREQ(slotStateName(SlotState::Free), "free");
    EXPECT_STREQ(slotStateName(SlotState::Populating), "populating");
    EXPECT_STREQ(slotStateName(SlotState::Ready), "ready");
    EXPECT_STREQ(slotStateName(SlotState::Processing), "processing");
    EXPECT_STREQ(slotStateName(SlotState::Finished), "finished");
}

/**
 * Property test: from any reachable state, exactly the legal edges of
 * Figure 6 succeed, for both blocking variants and wait modes.
 */
class SlotFsmProperty
    : public ::testing::TestWithParam<std::tuple<bool, WaitMode>>
{};

TEST_P(SlotFsmProperty, RandomWalkNeverViolatesFsm)
{
    const auto [blocking, wait_mode] = GetParam();
    Random rng(static_cast<std::uint64_t>(blocking) * 7 +
               static_cast<std::uint64_t>(wait_mode) + 1);
    SyscallSlot slot;
    for (int step = 0; step < 5000; ++step) {
        switch (slot.state()) {
          case SlotState::Free:
            EXPECT_FALSE(slot.beginProcessing());
            if (rng.chance(0.8)) {
                EXPECT_TRUE(slot.claim());
            }
            break;
          case SlotState::Populating:
            EXPECT_FALSE(slot.claim());
            EXPECT_FALSE(slot.beginProcessing());
            slot.publish(static_cast<int>(rng.below(300)), someArgs(),
                         blocking, wait_mode,
                         static_cast<std::uint32_t>(rng.below(320)));
            break;
          case SlotState::Ready:
            EXPECT_FALSE(slot.claim());
            EXPECT_TRUE(slot.beginProcessing());
            break;
          case SlotState::Processing:
            EXPECT_FALSE(slot.claim());
            EXPECT_FALSE(slot.beginProcessing());
            slot.complete(static_cast<std::int64_t>(rng.below(1000)));
            if (blocking) {
                EXPECT_EQ(slot.state(), SlotState::Finished);
            } else {
                EXPECT_EQ(slot.state(), SlotState::Free);
            }
            break;
          case SlotState::Finished:
            EXPECT_FALSE(slot.claim());
            EXPECT_FALSE(slot.beginProcessing());
            slot.consume();
            EXPECT_EQ(slot.state(), SlotState::Free);
            break;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    BlockingAndWaitModes, SlotFsmProperty,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(WaitMode::Polling,
                                         WaitMode::HaltResume)));

// ------------------------------------------------------------ SyscallArea

TEST(SyscallArea, GeometryMatchesPaper)
{
    gpu::GpuConfig gpu_cfg; // 8 CUs x 40 waves x 64 lanes
    GenesysParams params;
    SyscallArea area(gpu_cfg, params);
    EXPECT_EQ(area.slotCount(), 8u * 40 * 64);
    // 20480 slots x 64 B = 1.25 MiB ("totaling 1.25 MBs").
    EXPECT_EQ(area.areaBytes(), 1'310'720u);
    EXPECT_EQ(area.wavefrontSize(), 64u);
}

TEST(SyscallArea, SlotAddressesAreDistinctCacheLines)
{
    gpu::GpuConfig gpu_cfg;
    GenesysParams params;
    SyscallArea area(gpu_cfg, params);
    const auto a0 = area.slotAddr(0);
    const auto a1 = area.slotAddr(1);
    EXPECT_EQ(a1 - a0, params.slotBytes);
    EXPECT_EQ(a0 % 64, 0u);
    // One slot per line: no false sharing (Section VI).
    EXPECT_EQ(a0 / 64 + 1, a1 / 64);
}

TEST(SyscallArea, WaveSlotMapping)
{
    gpu::GpuConfig gpu_cfg;
    GenesysParams params;
    SyscallArea area(gpu_cfg, params);
    EXPECT_EQ(area.firstItemSlotOfWave(0), 0u);
    EXPECT_EQ(area.firstItemSlotOfWave(5), 5u * 64);
    // Distinct waves own disjoint slot ranges.
    EXPECT_GE(area.firstItemSlotOfWave(1),
              area.firstItemSlotOfWave(0) + 64);
}

// Work-group and kernel leaders poll lane 0's slot. Those slots sit 64
// slots (4 KiB) apart, so the default GPU L2's modulo set index maps
// every leader line to 4 of its 256 sets: leader polls get 4 x 16 = 64
// lines of the L2's 4096.
TEST(SyscallArea, LeaderSlotsGetSixtyFourL2Lines)
{
    gpu::GpuConfig gpu_cfg;
    GenesysParams params;
    SyscallArea area(gpu_cfg, params);
    mem::CacheModel l2({.sizeBytes = gpu_cfg.l2Bytes,
                        .lineBytes = gpu_cfg.l2LineBytes,
                        .associativity = gpu_cfg.l2Assoc});
    ASSERT_EQ(l2.lineCapacity(), 4096u);
    auto leader = [&area](std::uint32_t wave) {
        return area.slotAddr(area.firstItemSlotOfWave(wave));
    };
    for (std::uint32_t w = 0; w < 64; ++w)
        EXPECT_FALSE(l2.access(leader(w)));
    for (std::uint32_t w = 0; w < 64; ++w)
        EXPECT_TRUE(l2.access(leader(w))) << "leader " << w;
    // A 65th leader lands in leader 0's set and evicts its LRU line,
    // leader 0; the other sets keep their lines.
    EXPECT_FALSE(l2.access(leader(64)));
    EXPECT_FALSE(l2.access(leader(0)));
    EXPECT_TRUE(l2.access(leader(1)));
}

TEST(SyscallArea, OutOfRangeSlotPanics)
{
    gpu::GpuConfig gpu_cfg;
    GenesysParams params;
    SyscallArea area(gpu_cfg, params);
    EXPECT_THROW(area.slot(static_cast<std::uint32_t>(area.slotCount())),
                 PanicError);
}

// --------------------------------------------------- shard geometry

TEST(SyscallAreaShards, DefaultSingleShardOwnsEverything)
{
    gpu::GpuConfig gpu_cfg; // 8 CUs x 40 waves x 64 lanes
    GenesysParams params;
    SyscallArea area(gpu_cfg, params);
    EXPECT_EQ(area.shardCount(), 1u);
    EXPECT_EQ(area.cusPerShard(), 8u);
    EXPECT_EQ(area.shardFirstSlot(0), 0u);
    EXPECT_EQ(area.shardSlotCount(), area.slotCount());
    EXPECT_EQ(area.shardOfSlot(
                  static_cast<std::uint32_t>(area.slotCount()) - 1),
              0u);
}

TEST(SyscallAreaShards, GeometryPartitionsSlotsByCuBlocks)
{
    gpu::GpuConfig gpu_cfg; // 8 CUs
    GenesysParams params;
    params.areaShards = 4;
    SyscallArea area(gpu_cfg, params);
    EXPECT_EQ(area.shardCount(), 4u);
    EXPECT_EQ(area.cusPerShard(), 2u);
    EXPECT_EQ(area.shardSlotCount() * 4, area.slotCount());
    for (std::uint32_t cu = 0; cu < 8; ++cu)
        EXPECT_EQ(area.shardOfCu(cu), cu / 2) << "cu " << cu;
    // Wave and item-slot mappings agree with the CU mapping.
    const std::uint32_t waves = 40;
    EXPECT_EQ(area.shardOfWave(0), 0u);
    EXPECT_EQ(area.shardOfWave(2 * waves), 1u);
    EXPECT_EQ(area.shardOfWave(7 * waves + waves - 1), 3u);
    for (std::uint32_t s = 0; s < 4; ++s) {
        const auto first = area.shardFirstSlot(s);
        EXPECT_EQ(area.shardOfSlot(first), s);
        EXPECT_EQ(area.shardOfSlot(first + area.shardSlotCount() - 1),
                  s);
    }
    // Contiguous, non-overlapping ranges.
    EXPECT_EQ(area.shardFirstSlot(1),
              area.shardFirstSlot(0) + area.shardSlotCount());
    EXPECT_THROW(area.shardFirstSlot(4), PanicError);
}

TEST(SyscallAreaShards, DoorbellLinesLiveBeyondSlotsAndNeverShare)
{
    gpu::GpuConfig gpu_cfg;
    GenesysParams params;
    params.areaShards = 4;
    SyscallArea area(gpu_cfg, params);
    const auto last_slot_line =
        area.slotAddr(static_cast<std::uint32_t>(area.slotCount()) - 1) /
        64;
    for (std::uint32_t s = 0; s < 4; ++s) {
        const auto line = area.doorbellAddr(s) / 64;
        EXPECT_GT(line, last_slot_line) << "shard " << s;
        for (std::uint32_t t = s + 1; t < 4; ++t)
            EXPECT_NE(line, area.doorbellAddr(t) / 64)
                << s << " vs " << t;
    }
}

TEST(SyscallAreaShards, NonDividingShardCountPanics)
{
    gpu::GpuConfig gpu_cfg; // 8 CUs
    GenesysParams params;
    params.areaShards = 3; // does not divide 8
    EXPECT_THROW(SyscallArea(gpu_cfg, params), PanicError);
    params.areaShards = 16; // exceeds the CU count
    EXPECT_THROW(SyscallArea(gpu_cfg, params), PanicError);
}

TEST(SyscallAreaShards, PerShardQuiescenceTracksOccupancy)
{
    gpu::GpuConfig gpu_cfg;
    gpu_cfg.numCus = 4;
    gpu_cfg.maxWavesPerCu = 2;
    GenesysParams params;
    params.areaShards = 2;
    SyscallArea area(gpu_cfg, params);
    EXPECT_TRUE(area.quiescent());
    EXPECT_TRUE(area.quiescent(0));
    EXPECT_TRUE(area.quiescent(1));

    // Occupy one slot in shard 1 only.
    const auto s1 = area.shardFirstSlot(1);
    ASSERT_TRUE(area.slot(s1).claim());
    EXPECT_TRUE(area.quiescent(0));
    EXPECT_FALSE(area.quiescent(1));
    EXPECT_FALSE(area.quiescent());

    area.slot(s1).publish(osk::sysno::write, someArgs(), true,
                          WaitMode::Polling, 0);
    ASSERT_TRUE(area.slot(s1).beginProcessing());
    area.slot(s1).complete(0);
    EXPECT_FALSE(area.quiescent(1)); // finished, not yet consumed
    area.slot(s1).consume();
    EXPECT_TRUE(area.quiescent(1));
    EXPECT_TRUE(area.quiescent());
}

// ringsIdle() is gmc's quiescence oracle for the SQs: an entry claimed
// but not yet published (a producer stranded between tryClaim and
// tryPublish) keeps the rings busy, as a published one does.
TEST(SyscallAreaShards, ClaimedUnpublishedSqEntryIsNotIdle)
{
    gpu::GpuConfig gpu_cfg;
    gpu_cfg.numCus = 4;
    gpu_cfg.maxWavesPerCu = 2;
    GenesysParams params;
    params.areaShards = 2;
    SyscallArea area(gpu_cfg, params);
    EXPECT_TRUE(area.ringsIdle());

    SyscallRing &sq = area.sq(1);
    const auto base = sq.tryClaim(1, sq.loadHeadAcquire());
    ASSERT_TRUE(base.has_value());
    EXPECT_TRUE(sq.empty()); // claimed, nothing published
    EXPECT_FALSE(area.ringsIdle());

    sq.writeEntry(*base, 7);
    ASSERT_TRUE(sq.tryPublish(*base, 1));
    EXPECT_FALSE(area.ringsIdle());
    EXPECT_EQ(sq.popHead(), 7u);
    EXPECT_TRUE(area.ringsIdle());
}

TEST(SyscallAreaShards, PerShardCountersAreIndependent)
{
    gpu::GpuConfig gpu_cfg;
    gpu_cfg.numCus = 4;
    GenesysParams params;
    params.areaShards = 2;
    SyscallArea area(gpu_cfg, params);
    area.noteIssued(0);
    area.noteIssued(0);
    area.noteIssued(1);
    area.noteProcessed(1);
    EXPECT_EQ(area.issuedOnShard(0), 2u);
    EXPECT_EQ(area.issuedOnShard(1), 1u);
    EXPECT_EQ(area.processedOnShard(0), 0u);
    EXPECT_EQ(area.processedOnShard(1), 1u);
}

} // namespace
} // namespace genesys::core
