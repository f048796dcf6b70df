/**
 * @file
 * ServiceCore implementation.
 */

#include "service_core.hh"

#include <cerrno>

#include "sim/sync.hh"
#include "support/gsan.hh"
#include "support/logging.hh"
#include "support/trace.hh"

namespace genesys::core
{

sim::Task<std::int64_t>
ServiceCore::executeSlotCall(const SyscallSlot &slot)
{
    const int sysno = slot.sysno();
    osk::SyscallArgs args = slot.args();

    std::int64_t ret =
        co_await kernel_.doSyscallFaultable(proc_, sysno, args);
    if (slot.blocking())
        co_return ret; // requester-side libc layer recovers

    const osk::SyscallRow *row = osk::syscallRow(sysno);
    const bool transfer = row != nullptr && row->transfer;
    const std::uint64_t want = transfer ? args.a[2] : 0;
    std::uint64_t done = 0;
    std::uint32_t rounds = 0;
    for (;;) {
        if ((ret == -EINTR || ret == -EAGAIN) &&
            rounds < params_.eintrMaxRestarts) {
            ++rounds;
            ++hostRestarts_;
            ret = co_await kernel_.doSyscallFaultable(proc_, sysno,
                                                      args);
            continue;
        }
        if (!transfer || ret <= 0)
            break;
        done += static_cast<std::uint64_t>(ret);
        if (done >= want)
            break;
        if (rounds >= params_.eintrMaxRestarts)
            break;
        ++rounds;
        ++hostRestarts_;
        osk::advanceTransferArgs(sysno, args,
                                 static_cast<std::uint64_t>(ret));
        ret = co_await kernel_.doSyscallFaultable(proc_, sysno, args);
    }
    co_return transfer && done > 0 ? static_cast<std::int64_t>(done)
                                   : ret;
}

sim::Task<bool>
ServiceCore::serviceSlot(SyscallSlot &slot, std::uint32_t servicer,
                         std::uint32_t hw_wave_slot, std::uint32_t lane,
                         bool daemon)
{
    const bool san = gsan_ != nullptr && gsan_->enabled() &&
                     servicer != gsan::Sanitizer::kNoThread;
    if (san)
        gsan_->setActor(servicer);
    if (!slot.beginProcessing())
        co_return false;
    if (daemon) {
        // Thunking into the kernel costs a user/kernel crossing
        // beyond the syscall itself (Section IX, related work).
        co_await sim::Delay(kernel_.sim().events(),
                            kernel_.params().syscallBase);
    }
    // Calls that can block indefinitely release the core — a blocked
    // kernel thread schedules away — and re-acquire afterwards. The
    // decision is fd-aware: write to a regular file never parks, so
    // the core is kept; write to a full pipe or stream window parks,
    // so it is released.
    const bool may_block = !daemon && mayParkIndefinitely(slot);
    if (may_block)
        kernel_.cpus().releaseCore();
    const std::int64_t ret = co_await executeSlotCall(slot);
    if (may_block)
        co_await kernel_.cpus().acquireCore();
    if (!daemon) {
        GENESYS_TRACE(kernel_.sim(), "syscall",
                      "wave %u lane %u: %s -> %lld", hw_wave_slot, lane,
                      osk::syscallName(slot.sysno()).c_str(),
                      static_cast<long long>(ret));
    }
    const bool wake = slot.blocking() &&
                      slot.waitMode() == WaitMode::HaltResume;
    const bool wake_early = wake && params_.gsanTest.wakeBeforeComplete;
    // Read the requester id BEFORE complete(): completing a
    // blocking slot publishes Finished, after which the GPU may
    // consume and even recycle the slot under a new requester —
    // reading hwWaveSlot() afterwards is a use-after-release
    // (found by gsan's payload-ownership discipline).
    const std::uint32_t requester = slot.hwWaveSlot();
    if (san)
        gsan_->setActor(servicer);
    if (wake_early) {
        // Seeded bug (gmc mutant): wake the halted requester before
        // the result lands, yielding so the woken wave can observe the
        // still-Processing slot and halt again — the complete() below
        // then finishes into a wave nobody will ever wake.
        gpu_.resumeWave(requester);
        co_await sim::Delay(kernel_.sim().events(), 0);
        if (san)
            gsan_->setActor(servicer);
    }
    slot.complete(ret);
    ++processed_;
    area_.noteProcessed(area_.shardOfWave(requester));
    if (wake && !wake_early)
        gpu_.resumeWave(requester);
    co_return true;
}

void
ServiceCore::postCompletion(std::uint32_t shard,
                            std::uint32_t item_slot)
{
    area_.cq(shard).postLossy(item_slot);
    ++cqPosted_;
}

std::optional<std::uint32_t>
ServiceCore::tryPopRingEntry(std::uint32_t shard,
                             std::uint32_t servicer)
{
    SyscallRing &sq = area_.sq(shard);
    if (sq.empty())
        return std::nullopt;
    if (gsan_ != nullptr && gsan_->enabled() &&
        servicer != gsan::Sanitizer::kNoThread) {
        gsan_->setActor(servicer);
    }
    if (params_.gsanTest.ringRacySqConsume) {
        // Seeded bug: read the entry without the consume acquire,
        // so the producer's publish is not ordered before it.
        (void)sq.racyPeekEntry();
    }
    return sq.popHead();
}

sim::Task<int>
ServiceCore::serviceRingEntry(std::uint32_t shard,
                              std::uint32_t item_slot,
                              std::uint32_t servicer, bool daemon)
{
    const bool san = gsan_ != nullptr && gsan_->enabled() &&
                     servicer != gsan::Sanitizer::kNoThread;
    SyscallSlot &slot = area_.slot(item_slot);
    const std::uint32_t wave = item_slot / area_.wavefrontSize();
    const std::uint32_t lane = item_slot % area_.wavefrontSize();
    const bool was_blocking = slot.blocking();

    if (params_.gsanTest.ringCompleteBeforePublish && slot.ready() &&
        was_blocking) {
        // Seeded bug (gmc mutant): post the completion event and
        // yield BEFORE servicing the entry. A polling waiter that
        // observes the tail advance re-sweeps once, finds the slot
        // unfinished, and (eliding identical counter reads) never
        // sweeps again.
        if (san)
            gsan_->setActor(servicer);
        postCompletion(shard, item_slot);
        co_await sim::Delay(kernel_.sim().events(), 0);
        if (san)
            gsan_->setActor(servicer);
        co_return co_await serviceSlot(slot, servicer, wave, lane,
                                       daemon)
            ? 1
            : 0;
    }

    const bool did =
        co_await serviceSlot(slot, servicer, wave, lane, daemon);
    if (did && was_blocking) {
        // The CQ post must happen AFTER the slot's complete()
        // release: waiters elide re-sweeps while the tail is
        // unchanged, so a tail advance must prove the result is
        // visible (the memory-ordering contract, §13).
        if (san)
            gsan_->setActor(servicer);
        postCompletion(shard, item_slot);
    }
    co_return did ? 1 : 0;
}

sim::Task<int>
ServiceCore::serviceRing(std::uint32_t shard, std::uint32_t servicer,
                         bool daemon)
{
    int handled = 0;
    while (auto item = tryPopRingEntry(shard, servicer)) {
        handled +=
            co_await serviceRingEntry(shard, *item, servicer, daemon);
    }
    co_return handled;
}

sim::Task<int>
ServiceCore::serviceWaveSlots(std::uint32_t hw_wave_slot,
                              std::uint32_t servicer)
{
    const bool san = gsan_ != nullptr && gsan_->enabled() &&
                     servicer != gsan::Sanitizer::kNoThread;
    if (san) {
        // The s_sendmsg interrupt is the edge that told this worker
        // the wave has requests outstanding.
        gsan_->interruptReceive(hw_wave_slot, servicer);
    }
    const std::uint32_t first = area_.firstItemSlotOfWave(hw_wave_slot);
    int handled = 0;
    for (std::uint32_t lane = 0; lane < area_.wavefrontSize(); ++lane) {
        const bool did = co_await serviceSlot(
            area_.slot(first + lane), servicer, hw_wave_slot, lane);
        if (did)
            ++handled;
    }
    co_return handled;
}

} // namespace genesys::core
